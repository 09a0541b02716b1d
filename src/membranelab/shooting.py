"""Boundary matching: the tangential disc and its fixed-boundary family.

Two problems are solved here by shooting from the axis seed, both by the
one damped-Newton driver ``_newton``:

* the tangential disc through a prescribed circle (R, Z): find (c_o, z_o)
  with z_o < -1/c_o such that the profile integrated until phi = 0 ends at
  (R, Z), with a coarse admissible-region grid restart as fallback;
* a family member at given spontaneous curvature c sharing the circle:
  find (z_o, L) such that the profile for (c, z_o) passes through (R, Z)
  at arc length L; the curve is truncated at the first passage and the
  contact angle phi(L) is reported.

Both problems are scale equivariant: (R, Z) -> (mu R, mu Z) maps solutions
to (c_o/mu, mu z_o).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MembraneLabError, NoConvergence
from .profile import (
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
_FD_STEP = 1e-6
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


def _newton(residual, x, jacobian, tol, trace, what, point=tuple):
    """Damped Newton iteration with step halving (Deuflhard 2004).

    ``residual(x)`` returns ``(F, aux)``, or None for an infeasible iterate;
    ``jacobian(x, F, aux)`` returns dF/dx, or None.  A step is halved until
    the max-norm of F decreases.  Accepted iterates go to ``trace`` as
    ``(point(x), norm)``.  Returns ``(x, aux, norm)`` once the norm is below
    ``tol``; otherwise raises NoConvergence naming ``what``.
    """
    out = residual(x)
    if out is None:
        raise NoConvergence(f"{what} start infeasible", trace)
    F, aux = out
    for _ in range(_MAX_NEWTON):
        norm = float(np.max(np.abs(F)))
        trace.append((point(x), norm))
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


def _fd_columns(residual, x, F, n):
    """First n columns of dF/dx: forward differences, else backward, else None."""
    cols = []
    for j in range(n):
        dx = np.zeros(x.size)
        dx[j] = _FD_STEP * max(1.0, abs(x[j]))
        for sign in (1.0, -1.0):
            out = residual(x + sign * dx)
            if out is not None:
                cols.append(sign * (out[0] - F) / dx[j])
                break
        else:
            return None
    return np.column_stack(cols)


def _match_tol(circle):
    """Converged endpoint mismatch: 1e-11 of the circle's scale (SHOOT_RTOL)."""
    return 1e-11 * max(circle.R, abs(circle.Z), 1.0)


def _match(circle, curve, length):
    """Match residual (r, z)(length) - (R, Z), with aux (curve, phi(length))."""
    r_end, z_end, phi_end = curve.state_at(length)
    return np.array([r_end - circle.R, z_end - circle.Z]), (curve, phi_end)


def _default_seed(circle):
    """Heuristic starting point; the grid fallback repairs bad cases."""
    c_o = 1.5 * max(1.0 / abs(circle.Z), 1.0 / circle.R)
    z_o = circle.Z - circle.R
    if z_o >= -1.0 / c_o:
        z_o = -1.0 / c_o - 0.5 * circle.R
    return ModelParams(c_o, z_o)


def _tangential_curve(c_o, z_o, *, rtol=SHOOT_RTOL, atol=SHOOT_ATOL):
    """The profile integrated until phi = 0, or None when infeasible."""
    if z_o >= -1.0 / c_o:
        return None
    try:
        return integrate_profile(
            ModelParams(c_o, z_o), sigma0_stop(), rtol=rtol, atol=atol
        )
    except MembraneLabError:
        return None


def _grid_reseed(circle, n=32):
    """Coarse logarithmic sweep of the admissible region; best mismatch wins."""
    scale = max(circle.R, abs(circle.Z))
    offsets = np.geomspace(1e-3 * scale, abs(circle.Z) * 4.0, n)
    best = (math.inf, None, None)
    for c_o in np.geomspace(0.05 / scale, 50.0 / scale, n):
        z_os = -1.0 / c_o - offsets
        for z_o in z_os[z_os > circle.Z]:
            curve = _tangential_curve(c_o, z_o, rtol=1e-8, atol=1e-10)
            if curve is None:
                continue
            F, _ = _match(circle, curve, curve.ell)
            miss = math.hypot(F[0], F[1])
            if miss < best[0]:
                best = (miss, c_o, z_o)
    if best[1] is None:
        raise NoConvergence("grid reseed found no feasible parameters")
    return best[1:]


def shoot_sigma0(circle, seed=None):
    """Solve for the tangential disc spanning the circle.

    Damped Newton iteration on the endpoint mismatch (r_end - R, z_end - Z)
    over the unconstrained variables (log c_o, log(-z_o - 1/c_o)), which keep
    every iterate strictly inside the admissible region; the Jacobian is a
    two-column finite difference.  Convergence is declared when the mismatch
    norm drops below ``_match_tol(circle)``.  After any failure the iteration
    restarts once from the best point of a coarse grid over the admissible
    region.
    """
    if seed is None:
        seed = _default_seed(circle)
    tol = _match_tol(circle)
    trace = []

    def params_of(u):
        c_o = math.exp(u[0])
        return c_o, -1.0 / c_o - math.exp(u[1])

    def residual(u):
        try:
            c_o, z_o = params_of(u)
        except (OverflowError, ZeroDivisionError):
            return None  # exp over- or underflowed: no admissible point
        curve = _tangential_curve(c_o, z_o)
        return None if curve is None else _match(circle, curve, curve.ell)

    def jacobian(u, F, aux):
        return _fd_columns(residual, u, F, 2)

    def solve(c_o, z_o):
        u = np.array([math.log(c_o), math.log(-z_o - 1.0 / c_o)])
        return _newton(residual, u, jacobian, tol, trace, "sigma0", params_of)

    try:
        u, (curve, phi_end), norm = solve(seed.c_o, seed.z_o)
    except NoConvergence:
        u, (curve, phi_end), norm = solve(*_grid_reseed(circle))
    return Sigma0Solution(
        params=ModelParams(*params_of(u)),
        curve=curve,
        boundary_phi=float(phi_end),
        match_residual=norm,
        circle=circle,
    )


def _member_problem(c, circle):
    """Residual and Jacobian over (z_o, L) for the member at curvature c."""

    def residual(x):
        z_o, length = x
        if not (-math.inf < z_o < 0.0 < length < math.inf):
            return None
        guard = max(2.5 * length, 10.0 * abs(z_o))
        try:
            curve = integrate_profile(
                ModelParams(c, z_o),
                StopCondition.at_arc_length(length, max_arc=guard),
                rtol=SHOOT_RTOL,
                atol=SHOOT_ATOL,
            )
        except MembraneLabError:
            return None
        return _match(circle, curve, length)

    def jacobian(x, F, aux):
        Jz = _fd_columns(residual, x, F, 1)
        if Jz is None:
            return None
        # analytic L-column: d endpoint / dL = (-cos phi, -sin phi)
        phi_end = aux[1]
        return np.column_stack([Jz, [-math.cos(phi_end), -math.sin(phi_end)]])

    return residual, jacobian


def shoot_family_member(c, circle, seed):
    """Family member at curvature c through the circle, seeded by continuation.

    Newton iteration on (z_o, L) for the two conditions r(L) = R, z(L) = Z.
    The L-column of the Jacobian is analytic (the curve velocity); the
    z_o-column is one finite-difference reintegration.  Members may leave
    the tangential-disc admissible region; that is recorded, not fatal.

    The (z_o, L) problem at fixed c has multiple solutions away from the
    seed; to return the continuation-connected member the solve walks from
    the seed curvature in sub-steps of at most ``_SUB_STEP`` times the seed
    curvature and re-seeds each step from the last.  Convergence is declared
    below ``_match_tol(circle)``.
    """
    disc = isinstance(seed, Sigma0Solution)
    c_seed, z_o = (seed.params.c_o, seed.params.z_o) if disc else (seed.c, seed.z_o)
    max_step = _SUB_STEP * abs(c_seed)
    gap = abs(c - c_seed)
    n_sub = int(math.ceil(gap / max_step)) if gap > max_step else 1
    curve = seed.curve
    tol = _match_tol(circle)
    trace = []
    for c_step in np.linspace(c_seed, c, n_sub + 1)[1:].tolist():
        residual, jacobian = _member_problem(c_step, circle)
        x, (curve, phi_end), norm = _newton(
            residual, np.array([z_o, curve.ell]), jacobian, tol, trace, "member"
        )
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
