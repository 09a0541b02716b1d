"""Boundary matching: the tangential disc and its fixed-boundary family.

Two problems are solved here by shooting from the axis seed:

* the tangential disc through a prescribed circle (R, Z): (c_o, z_o) with
  z_o < -1/c_o whose profile, integrated until phi = 0, ends at (R, Z);
  scale equivariance reduces it to one bracketed root in t = c_o z_o;
* a family member at given spontaneous curvature c sharing the circle:
  find (z_o, L) such that the profile for (c, z_o) passes through (R, Z)
  at arc length L, by damped Newton (``_newton``) with an exact Jacobian:
  the z_o-column comes from the variational equations integrated along
  with the profile, the L-column is the curve velocity; the curve is
  truncated at the first passage and the contact angle phi(L) is reported.

Both problems are scale equivariant: (R, Z) -> (mu R, mu Z) maps solutions
to (c_o/mu, mu z_o).
"""

import math
from dataclasses import dataclass

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
#: largest continuation sub-step of a member, relative to the seed curvature
_SUB_STEP = 0.03


@dataclass(frozen=True)
class BoundaryCircle:
    """Prescribed boundary circle of radius R at height Z < 0."""

    R: float
    Z: float

    def __post_init__(self):
        if not (self.R > 0.0):
            raise ValueError("boundary radius R must be positive")
        if not (self.Z < 0.0):
            raise ValueError("boundary height Z must be negative")


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
    """Fixed-boundary family member at spontaneous curvature c."""

    c: float
    z_o: float
    curve: object
    contact_angle: float
    match_residual: float
    circle: BoundaryCircle
    left_admissible_region: bool


@dataclass(frozen=True)
class FamilySweep:
    """Result of a family sweep: converged members plus failure records."""

    members: list
    failures: list


def _newton(residual, x, jacobian, tol, trace, what):
    """Damped Newton iteration with step halving (Deuflhard 2004).

    ``residual(x)`` returns ``(F, aux)``, or None for an infeasible iterate;
    ``jacobian(x, F, aux)`` returns dF/dx, or None.  A step is halved until
    the max-norm of F decreases.  Accepted iterates go to ``trace`` as
    ``(tuple(x), norm)``.  Returns ``(x, aux, norm)`` once the norm is below
    ``tol``; otherwise raises NoConvergence naming ``what``.
    """
    out = residual(x)
    if out is None:
        raise NoConvergence(f"{what} start infeasible", trace)
    F, aux = out
    for _ in range(_MAX_NEWTON):
        norm = float(np.max(np.abs(F)))
        trace.append((tuple(x), norm))
        if norm < tol:
            return x, aux, norm
        J = jacobian(x, F, aux)
        if J is None:
            raise NoConvergence(f"{what} Jacobian evaluation infeasible", trace)
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise NoConvergence(f"singular {what} Jacobian", trace) from None
        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            x_new = x + lam * delta
            out = residual(x_new)
            if out is not None and np.max(np.abs(out[0])) < norm:
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"{what} damping stalled at {norm:.3e}", trace)
        x = x_new
        F, aux = out
    raise NoConvergence(f"{what} did not converge in {_MAX_NEWTON} iterations", trace)


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


def _member_problem(c, circle, runs):
    """Residual and Jacobian over (z_o, L) for the member at curvature c.

    ``runs[0]`` counts the integrations the residual starts.
    """

    def residual(x):
        z_o, length = x
        if not (-math.inf < z_o < 0.0 < length < math.inf):
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

    def jacobian(x, F, aux):
        curve, phi_end = aux
        dr, dz, _ = curve.variation_at(x[1])
        # d endpoint / dL is the curve velocity (-cos phi, -sin phi)
        return np.array([[dr, -math.cos(phi_end)], [dz, -math.sin(phi_end)]])

    return residual, jacobian


def shoot_family_member(c, circle, seed):
    """Family member at curvature c through the circle, seeded by continuation.

    Newton iteration on (z_o, L) for the two conditions r(L) = R, z(L) = Z.
    Both Jacobian columns are exact and cost no extra integration: the
    L-column is the curve velocity, the z_o-column the variation d(r, z)/dz_o
    co-integrated with each residual's profile.  Members may leave the
    tangential-disc admissible region; that is recorded, not fatal.

    The (z_o, L) problem at fixed c has multiple solutions away from the
    seed; to return the continuation-connected member the solve walks from
    the seed curvature in sub-steps of at most ``_SUB_STEP`` times the seed
    curvature and re-seeds each step from the last.  Convergence is declared
    below ``_match_tol(circle)``; a NoConvergence message ends with the
    sub-step curvature and the integrations done.
    """
    disc = isinstance(seed, Sigma0Solution)
    c_seed, z_o = (seed.params.c_o, seed.params.z_o) if disc else (seed.c, seed.z_o)
    max_step = _SUB_STEP * abs(c_seed)
    gap = abs(c - c_seed)
    n_sub = int(math.ceil(gap / max_step)) if gap > max_step else 1
    curve = seed.curve
    tol = _match_tol(circle)
    trace = []
    runs = [0]
    for c_step in np.linspace(c_seed, c, n_sub + 1)[1:].tolist():
        residual, jacobian = _member_problem(c_step, circle, runs)
        try:
            x, (curve, phi_end), norm = _newton(
                residual, np.array([z_o, curve.ell]), jacobian, tol, trace, "member"
            )
        except NoConvergence as exc:
            done = f"c = {c_step:.10g}, {runs[0]} integrations done"
            raise NoConvergence(f"{exc} ({done})", trace) from None
        z_o = float(x[0])
    return FamilyMember(
        c=c_step,
        z_o=z_o,
        curve=curve,
        contact_angle=float(phi_end),
        match_residual=norm,
        circle=circle,
        left_admissible_region=not ModelParams(c_step, z_o).sigma0_admissible,
    )


def family_sweep(circle, c_min, c_max, n, *, sigma0=None):
    """n members by continuation outward from the tangential disc.

    The c grid is uniform on [c_min, c_max], which must bracket the
    tangential-disc curvature.  Failures are recorded per member and do not
    abort the sweep; members are returned sorted by c.
    """
    if sigma0 is None:
        sigma0 = shoot_sigma0(circle)
    c0 = sigma0.params.c_o
    if not (c_min <= c0 <= c_max):
        raise ValueError("sweep range must bracket the tangential-disc curvature")
    cs = np.linspace(c_min, c_max, n)
    members = {}
    failures = []
    for direction in (1, -1):
        seed = sigma0
        order = np.argsort(direction * cs)
        for idx in order:
            c = float(cs[idx])
            if direction * (c - c0) < 0 or idx in members:
                continue
            try:
                member = shoot_family_member(c, circle, seed)
            except NoConvergence as exc:
                failures.append((c, str(exc)))
                continue
            members[idx] = member
            seed = member
    ordered = [members[i] for i in sorted(members)]
    return FamilySweep(members=ordered, failures=failures)
