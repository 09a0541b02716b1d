"""Boundary matching: the tangential disc and its fixed-boundary family.

Two problems are solved here:

* the tangential disc through a prescribed circle (R, Z): (c_o, z_o) with
  z_o < -1/c_o whose profile, integrated from the axis seed until phi = 0,
  ends at (R, Z); scale equivariance reduces it to the unit disc (1, t),
  t = c_o z_o, with phi(L) = 0 and the end direction as its two equations;
* the fixed-boundary family through the disc: the profiles (c, z_o) that
  pass through (R, Z) at arc length L, its two equations.

Both are collocated (``_collocate``): psi = phi - pi is odd on [-L, L], so
its values at the nodes tau > 0 of the parity-folded Chebyshev grid
(``chebyshev``) are unknowns, r and z are their integrals from the axis,
and dphi/ds holds at every node.  The degree is chosen once per disc, by
self-convergence in ``shoot_sigma0``.  Newton's method solves psi and two
parameters together, the collocation bordered by the two equations
(``_bordered``; Keller 1977), with one LU factorization per iterate.  At a
member, one LU of the collocation's psi-block gives by implicit
differentiation both d psi/d(c, z_o, L) and the exact Jacobian d(r, z,
phi)(L)/d(c, z_o, L) (``_sensitivity``); the null vector of the
Jacobian's (r, z) rows is the tangent of the family.  One damped Newton
corrector on a plane (``_correct``) finds every member: at given c on the
plane of fixed c, from the tangent's predictor at a near member; farther
along, or near a fold, on the plane normal to the tangent, by
pseudo-arclength continuation in y = (c, z_o, L) / |(c, z_o, L)| of the
member a step starts from (Keller 1977; Allgower and Georg, *Introduction
to Numerical Continuation Methods*), which passes through the folds where
the family turns back in c; a sign change of the tangent's c-component
locates the fold.  Every predictor moves the whole state: psi follows x
along d psi/dx, with a second-order term from the member before
(``_psi_at``).  The curve of a disc or member is its collocation, read
between the nodes by parity-continued barycentric interpolation
(``_curve``).

Both problems are scale equivariant: (R, Z) -> (mu R, mu Z) maps solutions
to (c_o/mu, mu z_o).
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import chebyshev
from .errors import IncompleteEvidence, MembraneLabError, NoConvergence, NotAdmissible
from .profile import (
    DEFAULT_MAX_ARC_FACTOR,
    MAX_ABS_CZ,
    ModelParams,
    ProfileCurve,
    StopReason,
    dphi_ds,
    dphi_ds_variation,
    integrate_profile,
    sigma0_stop,
)

#: tolerances that the collocated curves of the disc and its members carry
#: (``_curve``): tighter than the profile defaults, as their matched endpoint
#: is trustworthy to ~1e-11; nothing is integrated at them
SHOOT_RTOL = 1e-12
SHOOT_ATOL = 1e-14

_MAX_NEWTON = 50
_MAX_HALVINGS = 8
#: deepest unit disc, a hair inside the |c_o z_o| bound of
#: ``integrate_profile`` and ``_solved``, so that the scaled disc
#: (1/mu, mu t) still passes it after rounding
_U_MAX = math.log((1.0 - 1e-9) * MAX_ABS_CZ - 1.0)
#: first cap on a Newton step in u of the unit disc (``_unit_disc``)
_FIRST_U_STEP = 1.0
#: a Newton step of the unit disc in (u, L / L), or of a member, this small
#: is taken whole as its last: the quadratic convergence leaves an error far
#: below _DEGREE_AGREE after it
_LAST_STEP = 1e-9
#: a member is landed at fixed c only while the tangent's c-component t_c at
#: its predicted point keeps this share of the value at the last member: t_c
#: falls linearly to 0 along a parabola with a fold, so the requested c then
#: lies at most 64 % of the way to the fold
_LAND_RATIO = 0.6
#: largest pseudo-arclength step, in y = (c, z_o, L) / |(c, z_o, L)| of a walk
_MAX_ARC_STEP = 0.05
#: longest step in y that a member is landed over at fixed c
_MAX_LAND_STEP = 2.0 * _MAX_ARC_STEP
#: distance in y by which a step's predictor may miss the family
_ARC_DEVIATION = 3e-3
#: a step toward a fold that the secant of t_c puts within reach overshoots
#: it by this factor, so that the next member lies past it
_PAST_FOLD = 1.25
#: shortest step in y over which the family's bend is measured
_MIN_BEND_STEP = 1e-6
#: steps a walk takes before it gives up
_MAX_ARC_STEPS = 40
#: |t_c| at which a fold's secant point is close enough for the quadratic
#: model: the model's correction to c* is then about t_c^2 / (2 dt_c/ds)
_FOLD_SLOPE = 1e-3
#: secant points on a fold's bracket before the last one is taken
_MAX_FOLD_SECANTS = 6
#: a requested c this close to the disc curvature, relative, is landed
#: from the disc itself, and starts a sweep
_DISC_SNAP = 1e-9
#: collocation degrees of the disc and its family: the first, the cap (the
#: sixth degree of the run, which the narrowest discs, R/|Z| about 1.2e-6,
#: reach), and the agreement of the unit disc's (u, L / L) at two successive
#: ones (``shoot_sigma0``)
_FIRST_DEGREE = 61
_MAX_DEGREE = 461
_DEGREE_AGREE = 1e-10
#: the unit variations (dr, dz, dphi) as stacked columns: ``dphi_ds_variation``
#: at them gives the partials of dphi/ds in r, z and phi at every node
_UNIT_VARIATIONS = np.eye(3)[:, :, None]


@dataclass(frozen=True)
class BoundaryCircle:
    """Prescribed boundary circle of finite radius R > 0 at finite height Z < 0."""

    R: float
    Z: float

    def __post_init__(self):
        if not (0.0 < self.R < math.inf):
            raise ValueError("boundary radius R must be positive and finite")
        if not (-math.inf < self.Z < 0.0):
            raise ValueError("boundary height Z must be negative and finite")


@dataclass(frozen=True)
class Sigma0Solution:
    """Tangential disc through a circle: parameters, curve and match data.

    ``psi`` is phi - pi of the collocated disc at its nodes (``_collocate``),
    at the degree ``shoot_sigma0`` settled on; the family through the disc
    starts from it, and ``curve`` is that collocation (``_curve``).
    ``match_residual`` is the max-norm distance of the curve's end from
    (R, Z), and ``boundary_phi`` phi there; the scaling puts that end on
    the circle up to rounding, so the disc's accuracy is the agreement of
    its collocation degrees, not ``match_residual``.
    """

    params: ModelParams
    curve: object
    boundary_phi: float
    match_residual: float
    circle: BoundaryCircle
    psi: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FamilyMember:
    """Fixed-boundary family member at spontaneous curvature c.

    The profile (c, z_o) passes through the circle at arc length ``ell``
    with tangent angle ``contact_angle``.  ``jacobian`` is
    d(r, z, phi)(L)/d(c, z_o, L) at the member; the null vector of its
    (r, z) rows is the tangent of the family there.  ``psi`` is phi - pi
    at its collocation nodes (``_collocate``) and ``psi_x`` its derivative
    d psi/d(c, z_o, L) along the family's equations (``_sensitivity``).
    ``previous`` is (c, z_o, L) of the member or disc this one was
    continued from, and ``previous_psi`` that one's psi.  A member that
    lacks any of these fields seeds no other (``shoot_family_member``).
    """

    c: float
    z_o: float
    ell: float
    contact_angle: float
    match_residual: float
    circle: BoundaryCircle
    left_admissible_region: bool
    jacobian: np.ndarray | None = field(default=None, repr=False, compare=False)
    previous: tuple | None = field(default=None, repr=False, compare=False)
    psi: np.ndarray | None = field(default=None, repr=False, compare=False)
    psi_x: np.ndarray | None = field(default=None, repr=False, compare=False)
    previous_psi: np.ndarray | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def curve(self):
        """The member's collocation as a curve (``_curve``), on first read;
        it ends at the point its ``match_residual`` was taken on.  A member
        without ``psi`` raises IncompleteEvidence."""
        if self.psi is None:
            raise IncompleteEvidence(
                "family member has no collocated psi: shoot it with shoot_family_member",
                ["psi"],
            )
        return _curve((self.c, self.z_o, self.ell), self.psi, StopReason.ARC_LIMIT)


@dataclass(frozen=True)
class FamilySweep:
    """Result of a family sweep: converged members plus failure records.

    ``tangent`` is the unit tangent of the family at the tangential disc in
    scaled y = x / |x| of the sweep's first member, oriented toward larger c,
    and ``contact_angle_slope`` dphi(L)/dc along it; ``folds`` maps "above"
    and "below" to the first fold c* met walking that way from the disc
    toward the requested curvatures, or None.
    """

    members: list
    failures: list
    tangent: np.ndarray | None = None
    contact_angle_slope: float | None = None
    folds: dict = field(default_factory=lambda: {"above": None, "below": None})

    def beyond_fold(self, c, c0):
        """True iff c lies past the fold met on its side of c0."""
        side = "above" if c > c0 else "below"
        fold = self.folds[side]
        return fold is not None and (c - fold) * (c - c0) > 0.0


def _match_tol(circle):
    """Converged endpoint mismatch: 1e-11 of the circle's scale (SHOOT_RTOL)."""
    return 1e-11 * max(circle.R, abs(circle.Z), 1.0)


def shoot_sigma0(circle, seed=None):
    """Solve for the tangential disc spanning the circle.

    Scale equivariance leaves one unknown, t = c_o z_o < -1: the unit disc
    (1, t) ends in a direction atan2(r, -z) that falls strictly in
    u = log(-t - 1), so one u matches the circle's direction atan2(R, -Z).
    One integration at u0 (the seed's, else 0), at the profile's default
    tolerances, gives Newton's start (``_start``): the arc length L and psi
    = phi - pi at the nodes of the first collocation degree; the disc does
    not depend on that start's accuracy.  Newton's method on (psi, u, L)
    (``_unit_disc``) then solves the collocation of the unit disc with
    phi(L) = 0 and the direction, and the degree rises
    (``chebyshev.next_degree``, psi interpolated onto the new nodes) until
    two degrees' (u, L / L) agree to ``_DEGREE_AGREE``.  The last one,
    scaled by mu = |(R, Z)|/|(r, z)(L)|, is the disc (1/mu, mu t) of arc
    length mu L: its curve is that collocation (``_curve``), accepted when
    its end lies within ``_match_tol(circle)`` of (R, Z) (once the
    direction is solved, the scaling puts it there to rounding).  The
    solution carries the collocated psi, which the family through it starts
    from.

    A seed with c_o z_o >= -1 raises NotAdmissible, and so does a circle
    narrower than the deepest unit disc, t = -1 - exp(``_U_MAX``), which no
    disc reaches.  Every other failure raises NoConvergence.  The messages
    of both, but for the seed's, name R/|Z| and end ``(1 integrations, M
    collocations done)``, the start being the one integration.  The trace
    holds ((c_o, z_o), residual): the direction residual of the start, the
    larger of |phi(L)| and the direction residual of each Newton iterate,
    and the endpoint mismatch of the scaled disc.
    """
    u = 0.0
    if seed is not None:
        t_seed = seed.c_o * seed.z_o
        if not t_seed < -1.0:
            raise NotAdmissible(
                f"seed (c_o, z_o) = ({seed.c_o!r}, {seed.z_o!r}) has c_o z_o = "
                f"{t_seed:.6g}, not below -1: it spans no tangential disc"
            )
        u = min(math.log(-t_seed - 1.0), _U_MAX)
    runs, trace = [0], []
    try:
        return _sigma0(circle, u, runs, trace)
    except (NoConvergence, NotAdmissible) as exc:
        done = f"1 integrations, {runs[0]} collocations done"
        exc.args = (f"sigma0 {exc} (R/|Z| = {circle.R / -circle.Z:.6g}, {done})",)
        exc.trace = trace
        raise


def _start(u):
    """(L, psi, theta) of the unit disc (1, -1 - e^u), Newton's start.

    It is integrated at the profile's default tolerances, psi = phi - pi is
    read at the nodes of the first degree by linear interpolation between
    the integrator's steps, and theta = atan2(r, -z)(L) from its last
    sample, with no dense output: Newton starts O(1) away in u, and the
    disc it settles on does not depend on the start's accuracy.
    """
    params = ModelParams(1.0, -1.0 - math.exp(u))
    try:
        curve = integrate_profile(params, sigma0_stop())
    except MembraneLabError as exc:
        raise NoConvergence(f"disc (1, {params.z_o:.17g}) failed: {exc}") from None
    n = _FIRST_DEGREE
    taus = curve.ell * chebyshev.points(n)[: (n + 1) // 2]
    psi = np.interp(taus, curve.taus, curve.phi) - math.pi
    return curve.ell, psi, math.atan2(curve.r[-1], -curve.z[-1])


def _sigma0(circle, u, runs, trace):
    """``shoot_sigma0`` from u before the suffix of its messages."""
    target = math.atan2(circle.R, -circle.Z)
    length, psi, theta = _start(u)
    trace.append(((1.0, -1.0 - math.exp(u)), theta - target))
    n, before = _FIRST_DEGREE, None
    while True:
        u, length, psi = _unit_disc(target, u, length, psi, runs, trace)
        if before is not None and max(
            abs(u - before[0]), abs(length - before[1]) / length
        ) <= _DEGREE_AGREE:
            break
        if chebyshev.next_degree(n) > _MAX_DEGREE:
            raise NoConvergence(
                f"no two collocation degrees of the disc up to {_MAX_DEGREE} "
                f"agree to {_DEGREE_AGREE:g}"
            )
        n, before = chebyshev.next_degree(n), (u, length)
        full = np.concatenate([psi, -psi[::-1]])[:, None]
        psi = chebyshev.barycentric(
            2 * psi.size - 1, chebyshev.points(n)[: (n + 1) // 2], full
        )[:, 0]
    t = -1.0 - math.exp(u)
    _, _, r, z = _nodes((1.0, t, length), psi)
    mu = math.hypot(circle.R, circle.Z) / math.hypot(r[0], z[0])
    curve = _curve((1.0 / mu, mu * t, mu * length), psi, StopReason.TANGENT_HORIZONTAL)
    norm = float(max(abs(curve.r[-1] - circle.R), abs(curve.z[-1] - circle.Z)))
    trace.append(((curve.params.c_o, curve.params.z_o), norm))
    if not norm < _match_tol(circle):
        raise NoConvergence(f"scaled disc misses the circle by {norm:.3e}")
    return Sigma0Solution(
        params=curve.params, curve=curve, boundary_phi=float(curve.phi[-1]),
        match_residual=norm, circle=circle, psi=psi,
    )


def _unit_disc(target, u, length, psi, runs, trace):
    """The collocated unit disc (1, t), t = -1 - e^u, with phi(L) = 0 whose
    end direction theta = atan2(r, -z)(L) is ``target``.

    Newton's method on (psi, u, L), from (``psi``, u, ``length``), solves
    the collocation with phi(L) = 0 and theta = ``target`` as its two
    rows (``_bordered``, with dt/du = t + 1); the size of psi sets the
    degree.  A u step larger than its cap, at first ``_FIRST_U_STEP``, is
    cut to the cap with its psi and L steps, and the cap doubles; u stays
    at or below ``_U_MAX``, and a step beyond it from u = ``_U_MAX`` raises
    NotAdmissible: theta falls strictly in u, so the circle is narrower
    than every unit disc.  A step whose collocation fails is halved, at
    most ``_MAX_HALVINGS`` times.  The first step below ``_LAST_STEP`` in
    (psi, u, L / L) is taken as the last; (u, L, psi) is returned.  Each
    iterate goes to ``trace`` as ((1, t), max(|phi(L)|, |theta - target|)).
    """
    v = np.concatenate([psi, [u, length]])
    cap, back, halvings = _FIRST_U_STEP, None, 0
    for _ in range(_MAX_NEWTON):
        psi, (u, length) = v[:-2], v[-2:]
        t = -1.0 - math.exp(u)
        sol = _solved(runs, (1.0, t, length), psi) if t < -1.0 else None
        if sol is None:
            if back is None or halvings == _MAX_HALVINGS:
                why = "failed" if t < -1.0 else "is flat: t rounds to -1"
                raise NoConvergence(f"collocation of the unit disc {why} at u = {u:.6g}")
            halvings += 1
            back = (back[0], 0.5 * back[1])
            v = back[0] + back[1]
            continue
        halvings = 0
        r, z, phi = sol.end
        F = np.array([phi, math.atan2(r, -z) - target])
        trace.append(((1.0, t), float(np.max(np.abs(F)))))
        # the phi row and the direction row, d theta = (r dz - z dr) / |(r, z)|^2
        W = np.array([[0.0, 0.0, 1.0], [-z, r, 0.0]]) / [[1.0], [r * r + z * z]]
        P = np.array([[0.0, 0.0], [t + 1.0, 0.0], [0.0, 1.0]])
        solve = _bordered(sol, P, W @ sol.E_psi, W @ sol.E_x)
        if solve is None:
            raise NoConvergence(f"singular unit disc Jacobian at u = {u:.6g}")
        step = solve(-np.concatenate([sol.G, F]))
        if max(np.max(np.abs(step[:-1])), abs(step[-1]) / length) <= _LAST_STEP:
            v = v + step
            return v[-2], v[-1], v[:-2]
        if abs(step[-2]) > cap:
            step *= cap / abs(step[-2])
            cap *= 2.0
        step[-2] = min(u + step[-2], _U_MAX) - u
        if step[-2] == 0.0:
            raise NotAdmissible(
                f"the circle is narrower than the deepest unit disc, t = {t:.6g}"
            )
        back = (v, step)
        v = v + step
    raise NoConvergence(f"unit disc Newton did not converge in {_MAX_NEWTON} steps")


def _nodes(x, psi):
    """(cos psi, sin psi, r, z) at the nodes of psi's grid for x = (c, z_o,
    L): r = L Q_even cos psi and z = z_o + L Q_odd sin psi, with Q_s the
    integral from 0 of functions of parity s (``chebyshev``)."""
    _, z_o, length = x
    Q = chebyshev.folded_integral(2 * psi.size - 1)
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    return cos_psi, sin_psi, length * (Q[1] @ cos_psi), z_o + length * (Q[-1] @ sin_psi)


def _curve(x, psi, stop_reason):
    """The profile x = (c, z_o, L) collocated at psi as a ``ProfileCurve``.

    Its samples are the nodes (``_nodes``) in ascending tau, tau0 = 0, and
    ``chebyshev.FoldedInterpolant`` reads it between them: r odd, z even
    and psi odd in tau.  Its tolerances are the shooting ones.
    """
    c, z_o, length = (float(v) for v in x)
    _, _, r, z = _nodes(x, psi)
    taus = (length * chebyshev.points(2 * psi.size - 1)[: psi.size])[::-1]
    r, z, psi = r[::-1], z[::-1], psi[::-1]
    dense = chebyshev.FoldedInterpolant(taus, (r, z, psi), (-1, 1, -1), (0, 0, math.pi))
    return ProfileCurve(
        params=ModelParams(c, z_o), taus=taus, r=r, z=z, phi=math.pi + psi, ell=length,
        stop_reason=stop_reason, tau0=0.0, rtol=SHOOT_RTOL, atol=SHOOT_ATOL, _dense=dense,
    )


@dataclass(frozen=True)
class _Collocated:
    """Collocation of the profile at x = (c, z_o, L) and psi, of odd degree
    n = 2 psi.size - 1.

    ``psi`` = phi - pi at the nodes tau = L x_j > 0 of the degree-n grid,
    tau = L first, and ``end`` = (r, z, phi)(L).  ``G`` is the collocation
    residual, and ``G_psi`` and ``G_x`` its partials in psi and x;
    ``E_psi`` and ``E_x`` are those of ``end``.
    """

    x: tuple
    psi: np.ndarray
    end: tuple
    G: np.ndarray = field(repr=False)
    G_psi: np.ndarray = field(repr=False)
    G_x: np.ndarray = field(repr=False)
    E_psi: np.ndarray = field(repr=False)
    E_x: np.ndarray = field(repr=False)


def _collocate(x, psi):
    """The profile (c, z_o) on tau in [0, L] collocated at psi, or None.

    psi = phi - pi is odd on [-L, L], so its values at the nodes tau > 0 of
    the parity-folded Chebyshev grid (``chebyshev``) are the unknowns, whose
    size sets the degree, and r = L Q_even cos psi and z = z_o + L Q_odd
    sin psi are their integrals from the axis.  The residual G = D_odd psi
    / L + ``dphi_ds`` at every node comes with its partials.  Those of
    dphi/ds in (r, z, phi) are three node vectors, ``dphi_ds_variation`` at
    the unit variations; G_psi is D_odd / L plus the r- and z-partials
    times L Q_even diag(sin phi) and -L Q_odd diag(cos phi), row by row, and
    the phi-partial on its diagonal, filled in place.  The end (r, z,
    phi)(L) comes with its partials, in psi the first rows of those two
    matrices and e_0.  Returns None for a node off r > 0, z < 0.
    """
    c, z_o, length = x
    h = psi.size
    n = 2 * h - 1
    D, Q = chebyshev.folded_derivative(n)[-1], chebyshev.folded_integral(n)
    cos_psi, sin_psi, r, z = _nodes(x, psi)
    # written so that a NaN fails it too
    if not r.min() > 0.0 > z.max():
        return None
    # cos and sin of phi = pi + psi
    c_phi, s_phi = -cos_psi, -sin_psi
    sor = s_phi / r
    d_r, d_z, d_phi = dphi_ds_variation(c_phi, s_phi, sor, r, z, *_UNIT_VARIATIONS)
    D_psi = (D @ psi) / length
    G_psi = Q[1] * length
    G_psi *= s_phi
    G_psi *= d_r[:, None]
    work = Q[-1] * -length
    work *= c_phi
    work *= d_z[:, None]
    G_psi += work
    G_psi.flat[:: h + 1] += d_phi
    G_psi += np.divide(D, length, out=work)
    E_psi = np.zeros((3, h))
    E_psi[0] = length * Q[1][0] * s_phi
    E_psi[1] = -length * Q[-1][0] * c_phi
    E_psi[2, 0] = 1.0
    G_x = np.empty((h, 3))
    G_x[:, 0] = 2.0
    G_x[:, 1] = d_z
    G_x[:, 2] = d_r * (r / length) + d_z * ((z - z_o) / length) - D_psi / length
    return _Collocated(
        x=tuple(float(v) for v in x),
        psi=psi,
        end=(float(r[0]), float(z[0]), math.pi + float(psi[0])),
        G=D_psi + dphi_ds(c_phi, sor, z, c),
        G_psi=G_psi,
        G_x=G_x,
        E_psi=E_psi,
        E_x=np.array([
            [0.0, 0.0, r[0] / length],
            [0.0, 1.0, (z[0] - z_o) / length],
            [0.0, 0.0, 0.0],
        ]),
    )


def _bordered(sol, P, rows_psi, rows_x):
    """Solver of the Newton system on (psi, p) at the collocation ``sol``,
    or None when it is singular.

    The parameters x move with p as dx/dp = P, and two endpoint rows, with
    partials ``rows_psi`` and ``rows_x``, border the collocation (Keller
    1977): the (psi.size + 2)-square matrix [[G_psi, G_x P], [rows_psi,
    rows_x P]] is filled in and factored in place by LAPACK ``dgetrf``, and
    the returned function back-substitutes a right-hand side on it.
    """
    h = sol.psi.size
    M = np.empty((h + 2, h + 2), order="F")
    M[:h, :h] = sol.G_psi
    M[:h, h:] = sol.G_x @ P
    M[h:, :h] = rows_psi
    M[h:, h:] = rows_x @ P
    lu, piv, info = dgetrf(M, overwrite_a=True)
    if info != 0:
        return None
    return lambda rhs: dgetrs(lu, piv, rhs)[0]


def _sensitivity(sol):
    """(J, psi_x) of the collocated profile ``sol``.

    Implicit differentiation of its equations G(psi; c, z_o, L) = 0 gives
    psi_x = -G_psi^-1 G_x, dpsi/d(c, z_o, L) at the nodes, by one
    back-substitution of G_x's three columns on the LU of G_psi, and J =
    E_x + E_psi psi_x = d(r, z, phi)(L)/d(c, z_o, L).
    """
    lu, piv, _ = dgetrf(sol.G_psi)
    psi_x = -dgetrs(lu, piv, sol.G_x)[0]
    return sol.E_x + sol.E_psi @ psi_x, psi_x


def _endpoint_jacobian(sol):
    """d(r, z, phi)(L)/d(c, z_o, L) of the collocated profile ``sol``
    (``_sensitivity``)."""
    return _sensitivity(sol)[0]


def _solved(runs, x, psi):
    """``_collocate`` at x = (c, z_o, L) and ``psi``, or None for an x
    outside the domain of ``integrate_profile`` (|c z_o| and the arc guard)
    or a failed collocation.  ``runs[0]`` counts the collocations started.
    """
    c, z_o, length = x
    if not (0.0 < c < math.inf and -math.inf < z_o < 0.0 < length < math.inf):
        return None
    if not (abs(c * z_o) <= MAX_ABS_CZ and length <= DEFAULT_MAX_ARC_FACTOR * -z_o):
        return None
    runs[0] += 1
    return _collocate(x, psi)


def _disc_collocation(runs, sigma0, c):
    """``_solved`` at (c, z_o, L) of the disc and its ``psi``, at the degree
    which the members continued from it keep.  A disc without ``psi``
    raises IncompleteEvidence."""
    if sigma0.psi is None:
        raise IncompleteEvidence(
            "tangential disc has no collocated psi: solve it with shoot_sigma0",
            ["psi"],
        )
    sol = _solved(runs, (c, *_state(sigma0)[1:]), sigma0.psi)
    if sol is None:
        n = 2 * sigma0.psi.size - 1
        raise NoConvergence(f"collocation of the disc failed at degree {n}", [])
    return sol


def _miss(sol, circle):
    """Max-norm of (r, z)(L) - (R, Z) of the collocated profile ``sol``."""
    return float(np.max(np.abs(np.array(sol.end[:2]) - (circle.R, circle.Z))))


def _correct(circle, runs, trace, x0, Q, u, psi, what, first=None):
    """Member (sol, norm) on the plane x = x0 + Q u through the circle.

    Newton's method on (psi, u), from ``u`` and ``psi`` or from their
    collocation ``first``, solves the collocation with F = (r, z)(L) - (R,
    Z) = 0 as its two rows (``_bordered``, with P = Q).  Steps are measured
    with psi in radians and x relative to its size.  A step is halved until
    it passes Deuflhard's natural monotonicity test (Deuflhard 2004): the
    simplified correction at the new iterate, a back-substitution on the
    same LU, is smaller than the step.  An iterate's correction is that
    simplified correction when a whole step reached it, and else the Newton
    step at it.  An iterate whose correction is at most ``_DEGREE_AGREE``,
    the accuracy the disc's degree is chosen for, and whose max-norm of F
    is below ``_match_tol(circle)`` is the member: nothing is collocated or
    factored after it.  A step of at most ``_LAST_STEP`` is taken whole,
    untested, as the last: the iterate after it is the member when its F is
    below ``_match_tol(circle)``, and else Newton has stalled.  Iterates go
    to ``trace`` as ((c, z_o, L), norm); failures raise NoConvergence
    naming ``what``.
    """
    sol = _solved(runs, x0 + Q @ u, psi) if first is None else first
    if sol is None:
        raise NoConvergence(f"{what} start infeasible", trace)
    target = np.array([circle.R, circle.Z])

    def equations(sol):
        return np.concatenate([sol.G, np.array(sol.end[:2]) - target])

    def size(v, x):
        return max(np.max(np.abs(v[:-2])), np.max(np.abs(Q @ v[-2:] / x)))

    eqs, correction, last = equations(sol), math.inf, False
    for _ in range(_MAX_NEWTON):
        norm = _miss(sol, circle)
        trace.append((sol.x, norm))
        matched = norm < _match_tol(circle)
        if matched and (last or correction <= _DEGREE_AGREE):
            return sol, norm
        if last:
            raise NoConvergence(f"{what} stalled at {norm:.3e}", trace)
        solve = _bordered(sol, Q, sol.E_psi[:2], sol.E_x[:2])
        if solve is None:
            raise NoConvergence(f"singular {what} Jacobian", trace)
        step = solve(-eqs)
        correction = size(step, sol.x)
        if matched and correction <= _DEGREE_AGREE:
            return sol, norm
        last = correction <= _LAST_STEP
        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = lam * step
            new = _solved(runs, x0 + Q @ (u + trial[-2:]), sol.psi + trial[:-2])
            if new is not None:
                new_eqs = equations(new)
                simplified = size(solve(-new_eqs), sol.x)
                if last or simplified < correction:
                    break
            lam *= 0.5
        else:
            raise NoConvergence(f"{what} damping stalled at {norm:.3e}", trace)
        u, sol, eqs = u + trial[-2:], new, new_eqs
        correction = simplified if lam == 1.0 else math.inf
    raise NoConvergence(f"{what} did not converge in {_MAX_NEWTON} iterations", trace)


def _tangent(J, scale):
    """Unit null vector of the (r, z) rows of J in scaled y = x / scale.

    The cross product of those rows of J diag(scale) spans their null space;
    the caller orients it.
    """
    (a0, a1, a2), (b0, b1, b2) = (J[:2] * scale).tolist()
    t = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return t / np.linalg.norm(t)


def _state(seed):
    """(c, z_o, L) of a family member or a tangential disc."""
    if isinstance(seed, Sigma0Solution):
        return np.array([seed.params.c_o, seed.params.z_o, seed.curve.ell])
    return np.array([seed.c, seed.z_o, seed.ell])


def _member(sol, norm, circle, seed):
    """The member collocated as ``sol``, continued from the member or disc
    ``seed``."""
    c, z_o, length = sol.x
    jacobian, psi_x = _sensitivity(sol)
    return FamilyMember(
        c=c,
        z_o=z_o,
        ell=length,
        contact_angle=sol.end[2],
        match_residual=norm,
        circle=circle,
        left_admissible_region=not ModelParams(c, z_o).sigma0_admissible,
        jacobian=jacobian,
        previous=tuple(_state(seed)),
        psi=sol.psi,
        psi_x=psi_x,
        previous_psi=seed.psi,
    )


def _angle_slope(J, t, scale):
    """dphi(L)/dc along the tangent t in scaled y = x / scale, J as in
    ``FamilyMember.jacobian``."""
    return float(J[2] @ (t * scale) / (t[0] * scale[0]))


def _oriented(J, scale, t_ref):
    """``_tangent`` of J with the sign of t_ref's direction."""
    t = _tangent(J, scale)
    return t if t @ t_ref >= 0.0 else -t


def _bend(x, t, x_other, scale):
    """Curvature vector d^2 y/ds^2 of the family at x, or None.

    It is the one of the parabola y + h t + h^2 bend / 2 in y = x / scale
    through x along its tangent t that also passes through ``x_other``.
    """
    if x_other is None:
        return None
    dy = (np.asarray(x_other) - x) / scale
    h = float(t @ dy)
    # the rounding of dy, about 1e-16, would enter the bend as 1e-16 / h^2
    if abs(h) < _MIN_BEND_STEP:
        return None
    return 2.0 * (dy - h * t) / (h * h)


def _psi_at(base, x, scale):
    """psi predicted at x = (c, z_o, L) on the family through the member
    ``base``.

    The linear part is psi + psi_x (x - x_base).  The second-order part is
    the remainder e = psi_prev - psi - psi_x (x_prev - x_base) of that
    linear part at ``base.previous``, scaled by (h / h_prev)^2, with h and
    h_prev the steps to x and to x_prev along the tangent in y = x /
    ``scale``; it is left out when h_prev is shorter than
    ``_MIN_BEND_STEP``, as ``_bend`` leaves out its bend.
    """
    x_base = _state(base)
    psi = base.psi + base.psi_x @ (np.asarray(x) - x_base)
    t = _tangent(base.jacobian, scale)
    dx_prev = np.asarray(base.previous) - x_base
    h_prev = float(t @ (dx_prev / scale))
    if abs(h_prev) < _MIN_BEND_STEP:
        return psi
    h = float(t @ ((np.asarray(x) - x_base) / scale))
    remainder = base.previous_psi - base.psi - base.psi_x @ dx_prev
    return psi + (h / h_prev) ** 2 * remainder


def _predict(base, c, scale):
    """Predicted state at c on the parabola of the family through ``base``.

    It bends through ``base.previous``.  Returns ``(x, psi, h, ratio)``: x
    = (c, z_o, L) on that parabola, psi predicted there (``_psi_at``), the
    step h in scaled arclength and the share of the tangent's c-component
    left at x (1 on a straight line; 0 at its fold, where the c-equation
    has no root and the linear step is returned).
    """
    t = _tangent(base.jacobian, scale)
    bend = _bend(_state(base), t, base.previous, scale)
    dy_c = (c - base.c) / scale[0]
    h = dy_c / t[0]
    ratio = 1.0
    y = _state(base) / scale
    if bend is not None:
        root = t[0] * t[0] + 2.0 * bend[0] * dy_c
        if root > 0.0:
            h = 2.0 * dy_c / (t[0] + math.copysign(math.sqrt(root), t[0]))
            ratio = 1.0 + h * bend[0] / t[0]
            y = y + 0.5 * h * h * bend
        else:
            ratio = 0.0
    y = y + h * t
    x = np.array([c, y[1] * scale[1], y[2] * scale[2]])
    return x, _psi_at(base, x, scale), h, ratio


class _Unreached(NoConvergence):
    """The family does not reach a requested c from the seed.

    ``fold`` is c* of the fold at which it turns back first, or None when
    the walk toward c failed; ``last`` is the last member reached on the way.
    """

    def __init__(self, message, trace, fold, last):
        super().__init__(message, trace)
        self.fold, self.last = fold, last


def _land(circle, runs, trace, seed, c, psi, predicted=None, first=None):
    """Member at curvature c, corrected from ``seed`` on the plane of fixed c.

    The plane passes through (c, 0, 0) along the z_o- and L-axes, so
    ``_correct`` runs on (psi, z_o, L), from ``psi``.  Newton starts at the
    ``predicted`` (z_o, L), with its collocation ``first`` if already
    evaluated, unless that is infeasible, and else at the seed's, with its
    collocation ``first`` if ``predicted`` is None.
    """
    x0, Q = np.array([c, 0.0, 0.0]), np.eye(3)[:, 1:]
    u = _state(seed)[1:]
    if predicted is not None:
        if first is None:
            first = _solved(runs, (c, *predicted), psi)
        if first is not None:
            u = np.array(predicted)
    sol, norm = _correct(circle, runs, trace, x0, Q, u, psi, "member", first)
    return _member(sol, norm, circle, seed)


def _reach(circle, runs, trace, seed, c):
    """``shoot_family_member`` before the suffix of its messages.

    A landing from a member starts at the whole state (psi, x) that
    ``_predict`` gives at c, and the tangent there, which decides between
    landing and walking, is read from that collocation as it stands: the
    predicted psi misses the member's by about 1e-3 or less, so no Newton
    step in psi alone comes first.
    """
    if isinstance(seed, Sigma0Solution):
        c0 = seed.params.c_o
        at = c if abs(c - c0) <= _DISC_SNAP * c0 else c0
        first = _disc_collocation(runs, seed, at)
        norm = _miss(first, circle)
        if at == c0 and norm < _match_tol(circle):
            # the disc's own collocation is the member at c0: its Newton
            # step is at rounding, so no bordered matrix is factored for it
            trace.append((first.x, norm))
            seed = _member(first, norm, circle, seed)
        else:
            seed = _land(circle, runs, trace, seed, at, seed.psi, first=first)
        if at == c:
            return seed
    else:
        fields = ("jacobian", "psi", "psi_x", "previous", "previous_psi")
        missing = [name for name in fields if getattr(seed, name) is None]
        if missing:
            raise IncompleteEvidence(
                f"family member seed has no {', '.join(missing)}: shoot it with "
                "shoot_family_member",
                missing,
            )
    scale = np.abs(_state(seed))
    x_pred, psi_pred, h, ratio = _predict(seed, c, scale)
    first = None
    if ratio >= _LAND_RATIO and abs(h) <= _MAX_LAND_STEP:
        first = _solved(runs, x_pred, psi_pred)
        if first is not None:
            t_seed = _tangent(seed.jacobian, scale)
            t_pred = _oriented(_endpoint_jacobian(first), scale, t_seed)
            if t_pred[0] / t_seed[0] >= _LAND_RATIO:
                return _land(circle, runs, trace, seed, c, psi_pred, x_pred[1:], first)
    side = 1 if c > seed.c else -1
    try:
        base, fold = _walk(circle, runs, trace, seed, x_pred, first, c, side)
    except NoConvergence as exc:
        raise _Unreached(str(exc), trace, None, seed) from None
    if fold is not None and side * (c - fold) > 0.0:
        raise _Unreached(
            f"c = {c:.10g} lies beyond the fold of the family "
            f"{'above' if side > 0 else 'below'} c = {seed.c:.10g}, at c* = "
            f"{fold:.10g}: no member exists there",
            trace, fold, base,
        )
    x_pred, psi_pred, _, _ = _predict(base, c, np.abs(_state(base)))
    return _land(circle, runs, trace, base, c, psi_pred, x_pred[1:])


def shoot_family_member(c, circle, seed):
    """Family member at curvature c through the circle, continued from a seed.

    The member solves r(L) = R, z(L) = Z for (z_o, L) at fixed c; it may
    leave the tangential-disc admissible region, which is recorded, not
    fatal.  That problem has several solutions away from the seed, so the
    member is reached along the family from it.  A disc seed is landed on
    at c when c lies within ``_DISC_SNAP`` of its curvature c0, and else
    gives way to its member at c0; at c0 itself the disc's own collocation
    is that member when it ends within ``_match_tol(circle)`` of the circle.
    From a member, c is landed at fixed c from the tangent's predictor
    (``_predict``) when the step is at most ``_MAX_LAND_STEP`` in scaled
    arclength and keeps ``_LAND_RATIO`` of the tangent's c-component, on the
    predictor's parabola and at the evaluated point.  Otherwise the step would reach near or past a fold: the family
    is walked (``_walk``) until c or a fold is passed, and c is landed from
    the member nearer to it.

    Raises ValueError unless c is finite and positive, and
    IncompleteEvidence before any collocation for a disc seed without
    ``psi`` or a member seed without the fields that ``shoot_family_member``
    fills (``jacobian``, ``psi``, ``psi_x``, ``previous``,
    ``previous_psi``), naming them.  A c past the first fold on its side of
    the seed has no member: NoConvergence names c, the side and c*.  Every
    NoConvergence message ends with ``(c = ..., N collocations done)``, the
    requested c and the collocations (``_collocate``) of the call; its
    trace holds ((c, z_o, L), max-norm residual) per accepted iterate.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"member curvature c must be finite and positive, not {c!r}")
    runs, trace = [0], []
    try:
        return _reach(circle, runs, trace, seed, c)
    except NoConvergence as exc:
        exc.args = (f"{exc} (c = {c:.10g}, {runs[0]} collocations done)",)
        exc.trace = trace
        raise


def _arc_step(circle, runs, base, t_base, scale, ds, trace, bend=None, first=None):
    """Pseudo-arclength step of length ds from ``base`` along ``t_base``.

    ``_correct`` solves on the plane t_base . (y - y_base) = ds in scaled
    y = x / ``scale`` (Keller 1977), through y_base + ds t_base and along
    an orthonormal basis of the complement of t_base.  Newton starts from
    the predictor y_pred = y_base + ds t_base + ds^2 bend / 2 projected onto
    the plane, with ``bend`` the family's curvature vector d^2 y/ds^2 or
    None, and from the psi predicted at y_pred (``_psi_at``); its residual
    ``first`` there may be evaluated already.  Returns the member and the
    predictor's distance from it in y.
    """
    x_base = _state(base)
    y_plane = x_base / scale + ds * t_base
    basis = np.linalg.qr(t_base[:, None], mode="complete")[0][:, 1:]
    y_pred = y_plane if bend is None else y_plane + 0.5 * ds * ds * bend
    sol, norm = _correct(
        circle, runs, trace, y_plane * scale, scale[:, None] * basis,
        basis.T @ (y_pred - y_plane), _psi_at(base, y_pred * scale, scale),
        "arclength", first,
    )
    miss = float(np.linalg.norm(np.array(sol.x) / scale - y_pred))
    return _member(sol, norm, circle, base), miss


def _walk(circle, runs, trace, base, x_pred, out, c, side):
    """Pseudo-arclength walk from the member ``base`` until c or a fold is passed.

    ``side`` is +1 walking toward larger c, -1 toward smaller, in y = x /
    |x| of ``base``.  Each step's predictor bends (``_bend``) through the
    member the step comes from; the first one through ``x_pred``, the
    predicted point of a landing at c, when its residual ``out`` was
    evaluated, and else through ``base.previous``.  An x_pred within the
    step length is the first step's predictor, with its residual.  The
    step length follows the predictor's miss of the family, aiming at
    ``_ARC_DEVIATION``, within ``_MAX_ARC_STEP``; a failed corrector halves
    it.  Returns ``(seed, fold)``: the member to land c from (the nearer of
    the two around it) or the last one before the fold, and the fold's c*
    or None.  A sign change of the tangent's c-component between two
    members brackets the fold; ``_locate_fold`` finds c*.
    """
    x_base = _state(base)
    scale = np.abs(x_base)
    t_base = _tangent(base.jacobian, scale)
    t_base *= math.copysign(1.0, side * t_base[0])
    first = None
    bend = _bend(x_base, t_base, base.previous if out is None else x_pred, scale)
    ds_pred = 0.0 if out is None else float(t_base @ ((x_pred - x_base) / scale))
    # the first step is sized as if its predictor were linear, straying
    # |bend| ds^2 / 2 from the family; the bend through a straight landing
    # predictor is rounding, and sizes it _MAX_ARC_STEP.  Both are kept for
    # their cost: over the first 64 certify circles of perfbench seeds 1 and
    # 2 (3247 integrations), bending every first step through base.previous
    # takes 73 more, and starting every bendless walk at _MAX_ARC_STEP 123
    # more, with no verdict changed
    ds = _MAX_ARC_STEP / 8.0
    if bend is not None:
        curving = max(float(np.linalg.norm(bend)), 1e-300)
        ds = min(_MAX_ARC_STEP, math.sqrt(2.0 * _ARC_DEVIATION / curving))
    if 0.0 < ds_pred <= ds:
        ds, first = ds_pred, out
    for _ in range(_MAX_ARC_STEPS):
        try:
            point, miss = _arc_step(
                circle, runs, base, t_base, scale, ds, trace, bend, first
            )
        except NoConvergence:
            ds *= 0.5
            continue
        finally:
            first = None
        t_point = _oriented(point.jacobian, scale, t_base)
        if side * t_point[0] <= 0.0:
            fold = _locate_fold(
                circle, runs, base, t_base, scale, point, t_point, ds, trace
            )
            return base, fold
        if side * (point.c - c) >= 0.0:
            return (point if abs(point.c - c) < abs(base.c - c) else base), None
        bend = _bend(_state(point), t_point, _state(base), scale)
        # a quadratic predictor misses by O(ds^3)
        grow = (_ARC_DEVIATION / max(miss, 1e-300)) ** (1.0 / 3.0)
        step = min(ds * min(grow, 2.0), _MAX_ARC_STEP)
        # step just past a fold that the secant of t_c puts within reach
        if t_point[0] * side < t_base[0] * side:
            to_fold = ds * t_point[0] / (t_base[0] - t_point[0])
            step = min(step, _PAST_FOLD * to_fold)
        ds = step
        base, t_base = point, t_point
    raise NoConvergence(
        f"arclength walk did not pass c = {c:.10g} in {_MAX_ARC_STEPS} steps", trace
    )


def _locate_fold(circle, runs, base, t_base, scale, end, t_end, ds, trace):
    """c* of the fold between ``base`` and ``end``, a step ds along ``t_base``.

    The tangent's c-component t_c changes sign over the step.  Its secant
    root in arclength is corrected onto the family from the parabola
    through ``end`` (``_bend``), and the bracket is narrowed to it (regula
    falsi) until |t_c| there is at most ``_FOLD_SLOPE``; a secant point
    whose corrector fails is replaced by the bracket's midpoint.  The
    quadratic model of c through the last point, with the curvature
    dt_c/ds of the last bracket, then gives c*.  Raises NoConvergence
    naming the bracket when neither point converges or
    ``_MAX_FOLD_SECANTS`` points leave |t_c| above ``_FOLD_SLOPE``.
    """
    bend = _bend(_state(base), t_base, _state(end), scale)
    (s_a, t_a, c_a), (s_b, t_b, c_b) = (0.0, t_base[0], base.c), (ds, t_end[0], end.c)

    def unlocated(why):
        return NoConvergence(
            f"fold between c = {c_a:.10g} and {c_b:.10g} not located: {why}", trace
        )

    for _ in range(_MAX_FOLD_SECANTS):
        s_secant = s_a + (s_b - s_a) * t_a / (t_a - t_b)
        for s_fold in (s_secant, 0.5 * (s_a + s_b)):
            try:
                point, _ = _arc_step(
                    circle, runs, base, t_base, scale, s_fold, trace, bend
                )
                break
            except NoConvergence:
                pass
        else:
            raise unlocated("the corrector failed at the secant point and the midpoint")
        t_c = _oriented(point.jacobian, scale, t_base)[0]
        curvature = (t_b - t_a) / (s_b - s_a)
        if abs(t_c) <= _FOLD_SLOPE:
            return float(point.c - scale[0] * t_c * t_c / (2.0 * curvature))
        if (t_c > 0.0) == (t_a > 0.0):
            s_a, t_a, c_a = s_fold, t_c, point.c
        else:
            s_b, t_b, c_b = s_fold, t_c, point.c
    raise unlocated(f"|t_c| = {abs(t_c):.3e} after {_MAX_FOLD_SECANTS} secant points")


def check_family_range(c_min, c_max, n):
    """Raise ValueError unless n >= 1 and 0 < c_min <= c_max < inf."""
    if n < 1:
        raise ValueError("family needs n >= 1 members")
    if not 0.0 < c_min <= c_max < math.inf:
        raise ValueError("family needs finite c_min and c_max with 0 < c_min <= c_max")


def family_sweep(circle, c_min, c_max, n, *, sigma0=None):
    """n members by continuation outward from the tangential disc.

    The c grid is uniform on [c_min, c_max], which must bracket the
    tangential-disc curvature c0.  The sweep starts from the member at c0
    (at the grid point within ``_DISC_SNAP`` of it, if any), which every
    grid point at its curvature gets, whose Jacobian gives the family's
    tangent, and goes out each way.  Each other requested c is reached
    through ``shoot_family_member`` from the last member.  A c past a fold
    ends its side: it and the c beyond are recorded as failures ``beyond
    fold c* = ...``, not attempted.  So does a failed walk, whose message
    is recorded for every later c on that side, which would walk the same
    stretch.  Other failures are recorded per member and do not abort the
    sweep.  Members are returned sorted by c.  A range that
    ``check_family_range`` rejects raises ValueError before any integration,
    and a disc ``sigma0`` without its collocated ``psi`` IncompleteEvidence
    before any collocation.
    """
    check_family_range(c_min, c_max, n)
    if sigma0 is None:
        sigma0 = shoot_sigma0(circle)
    c0 = sigma0.params.c_o
    if not (c_min <= c0 <= c_max):
        raise ValueError("sweep range must bracket the tangential-disc curvature")
    cs = np.linspace(c_min, c_max, n).tolist()
    members = {}
    failures = []
    folds = {"above": None, "below": None}
    near = min(range(n), key=lambda i: abs(cs[i] - c0))
    c_start = cs[near] if abs(cs[near] - c0) <= _DISC_SNAP * c0 else c0
    try:
        start = shoot_family_member(c_start, circle, sigma0)
    except NoConvergence as exc:
        failures.extend((c, str(exc)) for c in cs)
        return FamilySweep(members=[], failures=failures)
    members.update((i, start) for i in range(n) if cs[i] == c_start)
    scale = np.abs(_state(start))
    tangent = _tangent(start.jacobian, scale)
    tangent *= math.copysign(1.0, tangent[0])
    for side, name in ((1, "above"), (-1, "below")):
        pending = sorted(
            (i for i in range(n) if side * (cs[i] - c_start) > 0.0),
            key=lambda i: side * cs[i],
        )
        seed = start
        ended = None
        for i in pending:
            c = cs[i]
            if ended is not None:
                failures.append((c, ended))
                continue
            try:
                member = shoot_family_member(c, circle, seed)
            except _Unreached as exc:
                folds[name], seed = exc.fold, exc.last
                ended = str(exc)
                if exc.fold is not None:
                    ended = f"beyond fold c* = {exc.fold:.10g}"
                failures.append((c, ended))
                continue
            except NoConvergence as exc:
                failures.append((c, str(exc)))
                continue
            members[i] = member
            seed = member
        if seed is not start:
            # the other side's first predictor bends through this side's
            # last member, and its psi through that member's
            start = replace(start, previous=tuple(_state(seed)), previous_psi=seed.psi)
    return FamilySweep(
        members=[members[i] for i in sorted(members)],
        failures=failures,
        tangent=tangent,
        contact_angle_slope=_angle_slope(start.jacobian, tangent, scale),
        folds=folds,
    )
