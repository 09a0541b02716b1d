"""Boundary matching: the tangential disc and its fixed-boundary family.

Two problems are solved here by shooting from the axis seed:

* the tangential disc through a prescribed circle (R, Z): (c_o, z_o) with
  z_o < -1/c_o whose profile, integrated until phi = 0, ends at (R, Z);
  scale equivariance reduces it to one bracketed root in t = c_o z_o;
* the fixed-boundary family through the disc: the profiles (c, z_o) that
  pass through (R, Z) at arc length L.  The residual F(c, z_o, L) =
  (r, z)(L) - (R, Z) comes with its whole 2x3 Jacobian from one
  integration: the z_o-column from the variational equations integrated
  along with the profile, the L-column from the curve velocity, the
  c-column from the other two by scale equivariance.  Its null vector is
  the tangent of the family.  One damped Newton corrector on a plane
  (``_correct``) finds every member: at given c on the plane of fixed c,
  from the tangent's predictor at a near member; farther along, or near a
  fold, on the plane normal to the tangent, by pseudo-arclength
  continuation in y = (c, z_o, L) / |(c, z_o, L)| of the member a step
  starts from (Keller 1977; Allgower and Georg, *Introduction to
  Numerical Continuation Methods*), which passes through the folds where
  the family turns back in c; a sign change of the tangent's c-component
  locates the fold.  The curve is truncated at the first passage and the
  contact angle phi(L) is reported.

Both problems are scale equivariant: (R, Z) -> (mu R, mu Z) maps solutions
to (c_o/mu, mu z_o).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .errors import MembraneLabError, NoConvergence, NotAdmissible
from .profile import (
    MAX_ABS_CZ,
    ModelParams,
    StopCondition,
    integrate_profile,
    sigma0_stop,
)

#: integration tolerances used inside the shooting loops; tighter than the
#: profile defaults so the matched endpoint is trustworthy to ~1e-11
SHOOT_RTOL = 1e-12
SHOOT_ATOL = 1e-14

_MAX_NEWTON = 50
_MAX_HALVINGS = 8
#: deepest unit disc, a hair inside integrate_profile's |c_o z_o| bound so
#: that the scaled disc (1/mu, mu t) still passes it after rounding
_U_MAX = math.log((1.0 - 1e-9) * MAX_ABS_CZ - 1.0)
#: six doubling steps span u from t = -1 after rounding to _U_MAX
_MAX_BRACKET = 8
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
    """Tangential disc through a circle: parameters, curve and match data."""

    params: ModelParams
    curve: object
    boundary_phi: float
    match_residual: float
    circle: BoundaryCircle


@dataclass(frozen=True)
class FamilyMember:
    """Fixed-boundary family member at spontaneous curvature c.

    ``jacobian`` is d(r, z)(L)/d(c, z_o, L) at the member; its null vector
    is the tangent of the family there.  ``previous`` is (c, z_o, L) of the
    member or disc this one was continued from, or None.
    """

    c: float
    z_o: float
    curve: object
    contact_angle: float
    match_residual: float
    circle: BoundaryCircle
    left_admissible_region: bool
    jacobian: np.ndarray | None = field(default=None, repr=False, compare=False)
    previous: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FamilySweep:
    """Result of a family sweep: converged members plus failure records.

    ``tangent`` is the unit tangent of the family at the tangential disc in
    scaled y = x / |x| of the sweep's first member, oriented toward larger c;
    ``folds`` maps "above" and "below" to the first fold c* met walking
    that way from the disc toward the requested curvatures, or None.
    """

    members: list
    failures: list
    tangent: np.ndarray | None = None
    folds: dict = field(default_factory=lambda: {"above": None, "below": None})

    def beyond_fold(self, c, c0):
        """True iff c lies past the fold met on its side of c0."""
        side = "above" if c > c0 else "below"
        fold = self.folds[side]
        return fold is not None and (c - fold) * (c - c0) > 0.0


def _match_tol(circle):
    """Converged endpoint mismatch: 1e-11 of the circle's scale (SHOOT_RTOL)."""
    return 1e-11 * max(circle.R, abs(circle.Z), 1.0)


def _match(circle, curve, length):
    """Match residual (r, z)(length) - (R, Z), with aux (curve, phi(length))."""
    r_end, z_end, phi_end = curve.state_at(length)
    return np.array([r_end - circle.R, z_end - circle.Z]), (curve, phi_end)


def shoot_sigma0(circle, seed=None):
    """Solve for the tangential disc spanning the circle.

    Scale equivariance leaves one unknown, t = c_o z_o < -1: the unit disc
    (1, t) ends in a direction atan2(r, -z) that falls strictly in
    u = log(-t - 1), so one u matches the circle's direction atan2(R, -Z).
    Doubling steps from u0 (0, or the seed's c_o z_o) bracket it and Brent's
    method (Brent 1973) refines it.  The disc scaled by mu = |(R, Z)|/|(r, z)|
    is integrated once at (1/mu, mu t) and accepted when its endpoint mismatch
    is below ``_match_tol(circle)``.  A seed with c_o z_o >= -1 raises
    NotAdmissible.  Failures raise NoConvergence, whose trace holds
    ((c_o, z_o), direction residual or mismatch) per integration.
    """
    target = math.atan2(circle.R, -circle.Z)
    trace = []
    ends = {}

    def fail(why):
        at = f"R/|Z| = {circle.R / -circle.Z:.6g}, bracket at u = {u:.6g}"
        done = f"{len(trace)} integrations done"
        return NoConvergence(f"sigma0 {why} ({at}, {done})", trace)

    def disc(c_o, z_o):
        try:
            return integrate_profile(
                ModelParams(c_o, z_o), sigma0_stop(), rtol=SHOOT_RTOL, atol=SHOOT_ATOL
            )
        except MembraneLabError as exc:
            raise fail(f"disc ({c_o:.6g}, {z_o:.17g}) failed: {exc}") from None

    def direction(v):
        """Direction residual of the unit disc (1, t), t = -1 - e^v, memoised."""
        if v not in ends:
            t = -1.0 - math.exp(v)
            curve = disc(1.0, t)
            r, z, _ = curve.state_at(curve.ell)
            ends[v] = (t, r, z, math.atan2(r, -z) - target)
            trace.append(((1.0, t), ends[v][3]))
        return ends[v][3]

    u = 0.0
    if seed is not None:
        t_seed = seed.c_o * seed.z_o
        if not t_seed < -1.0:
            raise NotAdmissible(
                f"seed (c_o, z_o) = ({seed.c_o!r}, {seed.z_o!r}) has c_o z_o = "
                f"{t_seed:.6g}, not below -1: it spans no tangential disc"
            )
        u = min(math.log(-t_seed - 1.0), _U_MAX)
    step = math.copysign(1.0, direction(u))
    for _ in range(_MAX_BRACKET):
        u_next = min(u + step, _U_MAX)
        if direction(u) * direction(u_next) <= 0.0:
            break
        u, step = u_next, 2.0 * step
    else:
        raise fail(f"bracket found no sign change in {_MAX_BRACKET} steps")
    u, info = brentq(
        direction, *sorted((u, u_next)), xtol=1e-13, full_output=True, disp=False
    )
    if not info.converged:
        raise fail(f"Brent iteration did not converge ({info.flag})")
    t, r, z, _ = ends[u]  # brentq returns a point it evaluated
    mu = math.hypot(circle.R, circle.Z) / math.hypot(r, z)
    curve = disc(1.0 / mu, mu * t)
    F, (curve, phi_end) = _match(circle, curve, curve.ell)
    norm = float(np.max(np.abs(F)))
    trace.append(((curve.params.c_o, curve.params.z_o), norm))
    if not norm < _match_tol(circle):
        raise fail(f"scaled disc misses the circle by {norm:.3e}")
    return Sigma0Solution(
        params=curve.params,
        curve=curve,
        boundary_phi=float(phi_end),
        match_residual=norm,
        circle=circle,
    )


def _endpoint_jacobian(curve, phi_end):
    """d(r, z)(L)/d(c, z_o, L) of a curve integrated with its z_o variation.

    L is the curve's own end ``curve.ell``, where its residual was taken; a
    corrector iterate rebuilt as x0 + Q u may lie an ulp beyond it.  The
    z_o-column is the co-integrated variation and the L-column the curve
    velocity (-cos phi, -sin phi).  Scale equivariance, (r, z)(mu L; c/mu,
    mu z_o) = mu (r, z)(L; c, z_o), differentiated at mu = 1 gives the
    c-column from the other two: c d(r, z)/dc = L d(r, z)/dL +
    z_o d(r, z)/dz_o - (r, z).
    """
    length = curve.ell
    dr_z, dz_z, _ = curve.variation_at(length)
    r, z, _ = curve.state_at(length)
    c, z_o = curve.params.c_o, curve.params.z_o
    dr_l, dz_l = -math.cos(phi_end), -math.sin(phi_end)
    dr_c = (length * dr_l + z_o * dr_z - r) / c
    dz_c = (length * dz_l + z_o * dz_z - z) / c
    return np.array([[dr_c, dr_z, dr_l], [dz_c, dz_z, dz_l]])


def _residual(circle, runs, x):
    """Endpoint mismatch of the fixed-boundary family at x = (c, z_o, L).

    Returns (r, z)(L) - (R, Z) of the profile (c, z_o) with aux (curve,
    phi(L)), the curve carrying its z_o variation for
    ``_endpoint_jacobian``; or None for an infeasible x or a failed
    integration.  ``runs[0]`` counts the integrations started.
    """
    c, z_o, length = x
    if not (0.0 < c < math.inf and -math.inf < z_o < 0.0 < length < math.inf):
        return None
    runs[0] += 1
    try:
        curve = integrate_profile(
            ModelParams(c, z_o),
            StopCondition.at_arc_length(length),
            rtol=SHOOT_RTOL,
            atol=SHOOT_ATOL,
            z_o_variation=True,
        )
    except MembraneLabError:
        return None
    return _match(circle, curve, length)


def _correct(circle, runs, trace, x0, Q, u, what, first=None):
    """Zero (x, aux, norm) of ``_residual`` on the plane x = x0 + Q u.

    Damped Newton with step halving (Deuflhard 2004) solves F(x0 + Q u) = 0
    for u in R^2 from ``u``, whose residual ``first`` may be evaluated
    already, with the Jacobian J Q, J from ``_endpoint_jacobian`` of each
    iterate's integration.  A step is halved until the max-norm of F
    decreases.  Accepted iterates go to ``trace`` as ((c, z_o, L), norm).
    Returns once the norm is below ``_match_tol(circle)``; failures raise
    NoConvergence naming ``what``.
    """
    x = x0 + Q @ u
    out = _residual(circle, runs, x) if first is None else first
    if out is None:
        raise NoConvergence(f"{what} start infeasible", trace)
    for _ in range(_MAX_NEWTON):
        F, aux = out
        norm = float(np.max(np.abs(F)))
        trace.append((tuple(x), norm))
        if norm < _match_tol(circle):
            return x, aux, norm
        try:
            delta = np.linalg.solve(_endpoint_jacobian(*aux) @ Q, -F)
        except np.linalg.LinAlgError:
            raise NoConvergence(f"singular {what} Jacobian", trace) from None
        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            u_new = u + lam * delta
            x_new = x0 + Q @ u_new
            out = _residual(circle, runs, x_new)
            if out is not None and np.max(np.abs(out[0])) < norm:
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"{what} damping stalled at {norm:.3e}", trace)
        u, x = u_new, x_new
    raise NoConvergence(f"{what} did not converge in {_MAX_NEWTON} iterations", trace)


def _tangent(J, scale):
    """Unit null vector of the 2x3 Jacobian J in scaled y = x / scale.

    The cross product of the rows of J diag(scale) spans its null space;
    the caller orients it.
    """
    t = np.cross(J[0] * scale, J[1] * scale)
    return t / np.linalg.norm(t)


def _state(seed):
    """(c, z_o, L) of a family member or a tangential disc."""
    if isinstance(seed, Sigma0Solution):
        return np.array([seed.params.c_o, seed.params.z_o, seed.curve.ell])
    return np.array([seed.c, seed.z_o, seed.curve.ell])


def _member(x, aux, norm, circle, previous):
    """The member at x = (c, z_o, L), continued from ``previous``."""
    c, z_o, _ = (float(v) for v in x)
    curve, phi_end = aux
    return FamilyMember(
        c=c,
        z_o=z_o,
        curve=curve,
        contact_angle=float(phi_end),
        match_residual=norm,
        circle=circle,
        left_admissible_region=not ModelParams(c, z_o).sigma0_admissible,
        jacobian=_endpoint_jacobian(curve, phi_end),
        previous=previous,
    )


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


def _predict(base, c, scale):
    """Predicted (z_o, L) at c on the parabola of the family through ``base``.

    It bends through ``base.previous``.  Returns ``(z_o, L, h, ratio)``: the
    step h in scaled arclength and the share of the tangent's c-component
    left at the predicted point on that parabola (1 on a straight line; 0
    at its fold, where the c-equation has no root and the linear step is
    returned).
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
    return y[1] * scale[1], y[2] * scale[2], h, ratio


class _Unreached(NoConvergence):
    """The family does not reach a requested c from the seed.

    ``fold`` is c* of the fold at which it turns back first, or None when
    the walk toward c failed; ``last`` is the last member reached on the way.
    """

    def __init__(self, message, trace, fold, last):
        super().__init__(message, trace)
        self.fold, self.last = fold, last


def _land(circle, runs, trace, seed, c, predicted=None, first=None):
    """Member at curvature c, corrected from ``seed`` on the plane of fixed c.

    The plane passes through (c, 0, 0) along the z_o- and L-axes, so
    ``_correct`` runs on (z_o, L); both Jacobian columns are exact and cost
    no extra integration: the L-column the curve velocity, the z_o-column
    the co-integrated variation.  Newton starts at the ``predicted``
    (z_o, L), with its residual ``first`` if already evaluated, unless that
    is infeasible, and else at the seed's.
    """
    x0, Q = np.array([c, 0.0, 0.0]), np.eye(3)[:, 1:]
    u = _state(seed)[1:]
    if predicted is not None:
        if first is None:
            first = _residual(circle, runs, (c, *predicted))
        if first is not None:
            u = np.array(predicted)
    x, aux, norm = _correct(circle, runs, trace, x0, Q, u, "member", first)
    return _member(x, aux, norm, circle, tuple(_state(seed)))


def _reach(circle, runs, trace, seed, c):
    """``shoot_family_member`` before the suffix of its messages."""
    if isinstance(seed, Sigma0Solution):
        c0 = seed.params.c_o
        if abs(c - c0) <= _DISC_SNAP * c0:
            return _land(circle, runs, trace, seed, c)
        seed = _land(circle, runs, trace, seed, c0)
    scale = np.abs(_state(seed))
    z_p, l_p, h, ratio = _predict(seed, c, scale)
    first = None
    if ratio >= _LAND_RATIO and abs(h) <= _MAX_LAND_STEP:
        first = _residual(circle, runs, (c, z_p, l_p))
        if first is not None:
            t_seed = _tangent(seed.jacobian, scale)
            t_pred = _oriented(_endpoint_jacobian(*first[1]), scale, t_seed)
            if t_pred[0] / t_seed[0] >= _LAND_RATIO:
                return _land(circle, runs, trace, seed, c, (z_p, l_p), first)
    side = 1 if c > seed.c else -1
    try:
        base, fold = _walk(
            circle, runs, trace, seed, np.array([c, z_p, l_p]), first, c, side
        )
    except NoConvergence as exc:
        raise _Unreached(str(exc), trace, None, seed) from None
    if fold is not None and side * (c - fold) > 0.0:
        raise _Unreached(
            f"c = {c:.10g} lies beyond the fold of the family "
            f"{'above' if side > 0 else 'below'} c = {seed.c:.10g}, at c* = "
            f"{fold:.10g}: no member exists there",
            trace, fold, base,
        )
    z_p, l_p, _, _ = _predict(base, c, np.abs(_state(base)))
    return _land(circle, runs, trace, base, c, (z_p, l_p))


def shoot_family_member(c, circle, seed):
    """Family member at curvature c through the circle, continued from a seed.

    The member solves r(L) = R, z(L) = Z for (z_o, L) at fixed c; it may
    leave the tangential-disc admissible region, which is recorded, not
    fatal.  That problem has several solutions away from the seed, so the
    member is reached along the family from it.  A disc seed is landed on
    at c when c lies within ``_DISC_SNAP`` of its curvature c0, and else
    gives way to its member at c0.  From a member, c is landed at fixed c
    from the tangent's predictor (``_predict``) when the step is at most
    ``_MAX_LAND_STEP`` in scaled arclength and keeps ``_LAND_RATIO`` of the
    tangent's c-component, on the predictor's parabola and at the evaluated
    point.  Otherwise the step would reach near or past a fold: the family
    is walked (``_walk``) until c or a fold is passed, and c is landed from
    the member nearer to it.

    Raises ValueError unless c is finite and positive.  A c past the first
    fold on its side of the seed has no member: NoConvergence names c, the
    side and c*.  Every NoConvergence message ends with ``(c = ...,
    N integrations done)``, the requested c and the profile integrations of
    the call; its trace holds ((c, z_o, L), max-norm residual) per accepted
    iterate.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"member curvature c must be finite and positive, not {c!r}")
    runs, trace = [0], []
    try:
        return _reach(circle, runs, trace, seed, c)
    except NoConvergence as exc:
        exc.args = (f"{exc} (c = {c:.10g}, {runs[0]} integrations done)",)
        exc.trace = trace
        raise


def _arc_step(circle, runs, base, t_base, scale, ds, trace, bend=None, first=None):
    """Pseudo-arclength step of length ds from ``base`` along ``t_base``.

    ``_correct`` solves on the plane t_base . (y - y_base) = ds in scaled
    y = x / ``scale`` (Keller 1977), through y_base + ds t_base and along
    an orthonormal basis of the complement of t_base.  Newton starts from
    the predictor y_base + ds t_base + ds^2 bend / 2 projected onto the
    plane, with ``bend`` the family's curvature vector d^2 y/ds^2 or None;
    its residual ``first`` may be evaluated already.  Returns the member
    and the predictor's distance from it in y.
    """
    x_base = _state(base)
    y_plane = x_base / scale + ds * t_base
    basis = np.linalg.qr(t_base[:, None], mode="complete")[0][:, 1:]
    y_pred = y_plane if bend is None else y_plane + 0.5 * ds * ds * bend
    x, aux, norm = _correct(
        circle, runs, trace, y_plane * scale, scale[:, None] * basis,
        basis.T @ (y_pred - y_plane), "arclength", first,
    )
    miss = float(np.linalg.norm(x / scale - y_pred))
    return _member(x, aux, norm, circle, tuple(x_base)), miss


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
    ``check_family_range`` rejects raises ValueError before any integration.
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
    tangent = _tangent(start.jacobian, np.abs(_state(start)))
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
            # last member
            start = replace(start, previous=tuple(_state(seed)))
    return FamilySweep(
        members=[members[i] for i in sorted(members)],
        failures=failures,
        tangent=tangent,
        folds=folds,
    )
