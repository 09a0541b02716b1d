"""Generating curves of the reduced axisymmetric shape equation.

A disc-type surface of revolution with spontaneous curvature c_o > 0 is
described here through the second order condition

    H + c_o = -nu3 / z          (surface contained in z < 0),

where H is the mean curvature and nu3 the vertical component of the outward
unit normal.  Writing the generating curve as (r(s), z(s)) with arc length s
measured from the boundary toward the rotation axis and tangent angle phi,
the condition is equivalent to the first order system

    dr/ds = cos(phi),
    dz/ds = sin(phi),
    dphi/ds = -2 cos(phi)/z - sin(phi)/r + 2 c_o,

with axis conditions r = 0, z = z_o, phi = pi at the tip.  The system is
singular at r = 0, so this module integrates it *outward* from the axis: the
internal parameter is tau, the arc length measured from the axis, and all
stored states keep the boundary-oriented tangent angle phi (which decreases
from pi as tau grows).  Boundary-based arc length is sigma = ell - tau.
Every event of the integration (the stop, the guards) ends it; the vertical
tangent phi = pi/2 stops nothing, so ``ProfileCurve`` finds it on first read.

dphi/ds and the coefficients C, D of its linearization (see
``membranelab.linearized``) are written once, in ``dphi_ds`` and
``operator_coeffs``; every right-hand side and sampled diagnostic of the
package calls them.

Sign conventions used throughout the package:

    nu3   = -cos(phi)                    vertical normal component
    kappa = -dphi/ds                     curvature of the generating curve
    H     = -(dphi/ds + sin(phi)/r) / 2
    K     = (dphi/ds) * sin(phi)/r       Gauss curvature
    q     = r sin(phi) - z cos(phi)      support function
    xi    = H + nu3/z                    equals -c_o on every solution
"""

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from ._util import cumulative_gauss, fd1, fd_interior_slice
from .errors import (
    ArcLimitReached,
    DegenerateAxis,
    InvalidOffset,
    MembraneLabError,
    NotAdmissible,
    OutOfRange,
    SingularityHit,
    TooFewSamples,
)
from .ode import EPS, MIN_RTOL, solve_ivp

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
#: axis offset of the Taylor seed, as a fraction of |z_o|
DEFAULT_TAU0_FACTOR = 1e-6
#: arc-length guard, as a multiple of |z_o|
DEFAULT_MAX_ARC_FACTOR = 40.0
#: |z| floor guard, as a fraction of |z_o|
DEFAULT_MIN_ABS_Z_FACTOR = 1e-8
#: below this multiple of |z_o|, sin(phi)/r is replaced by its axis limit
_AXIS_R_CUT = 1e-7
#: largest |c_o z_o| integrated: beyond it the axis offset 1e-6 |z_o| is not
#: small against the curvature radius 1/c_o, and the integrator stalls
MAX_ABS_CZ = 1e4
#: relative and absolute tolerance of the co-integrated z_o variation rows
_VARIATION_TOL = 1e-6


@dataclass(frozen=True)
class ModelParams:
    """Parameter pair (c_o, z_o) selecting one axisymmetric solution germ.

    c_o is the spontaneous curvature (> 0) and z_o < 0 the height at which
    the curve meets the rotation axis.  ``allow_zero_curvature`` is a
    test-only escape hatch admitting c_o = 0, whose solutions are circular
    arcs and serve as an independent oracle.  c_o and z_o are stored as
    Python floats, so a numpy scalar input integrates exactly like a float.
    """

    c_o: float
    z_o: float
    allow_zero_curvature: bool = False

    def __post_init__(self):
        object.__setattr__(self, "c_o", float(self.c_o))
        object.__setattr__(self, "z_o", float(self.z_o))
        if not (math.isfinite(self.c_o) and math.isfinite(self.z_o)):
            raise ValueError("c_o and z_o must be finite")
        if self.c_o < 0.0 or (self.c_o == 0.0 and not self.allow_zero_curvature):
            raise ValueError("spontaneous curvature c_o must be positive")
        if self.z_o >= 0.0:
            raise ValueError("axis height z_o must be negative")

    @property
    def axis_curvature(self):
        """Limit of dphi/ds at the axis: a = 1/z_o + c_o."""
        return 1.0 / self.z_o + self.c_o

    @property
    def sigma0_admissible(self):
        """True iff z_o < -1/c_o, the region producing tangential discs."""
        return self.c_o > 0.0 and self.z_o < -1.0 / self.c_o


@dataclass(frozen=True)
class ProfileState:
    """Point state of a generating curve at arc length tau from the axis."""

    tau: float
    r: float
    z: float
    phi: float


class StopReason(enum.Enum):
    TANGENT_HORIZONTAL = "tangent_horizontal"
    ARC_LIMIT = "arc_limit"
    SINGULARITY = "singularity"


@dataclass(frozen=True)
class StopCondition:
    """Primary stop event plus always-active guards.

    Exactly one of ``phi_target`` and ``arc_length`` must be set.  The arc
    guard ``max_arc`` defaults to ``DEFAULT_MAX_ARC_FACTOR * |z_o|`` when
    left as None; the |z| floor is always ``DEFAULT_MIN_ABS_Z_FACTOR * |z_o|``.
    """

    phi_target: float | None = None
    arc_length: float | None = None
    max_arc: float | None = None

    def __post_init__(self):
        if (self.phi_target is None) == (self.arc_length is None):
            raise ValueError("exactly one primary stop kind must be given")
        if self.arc_length is not None and not (0.0 < self.arc_length < math.inf):
            raise ValueError(
                f"arc length must be finite and positive, got {self.arc_length!r}"
            )

    @classmethod
    def phi_reaches(cls, value, **guards):
        return cls(phi_target=float(value), **guards)

    @classmethod
    def at_arc_length(cls, limit, **guards):
        return cls(arc_length=float(limit), **guards)

    def arc_guard(self, params):
        """The arc-length cap for ``params``: ``max_arc`` or its default."""
        if self.max_arc is None:
            return DEFAULT_MAX_ARC_FACTOR * abs(params.z_o)
        return self.max_arc


@dataclass(frozen=True)
class GeometryPoint:
    """Pointwise geometric diagnostics along a profile curve."""

    tau: float
    H: float
    K: float
    nu3: float
    kappa: float
    q: float
    sff_norm2: float
    xi: float


@dataclass(frozen=True)
class ShapeDiagnostics:
    convex: bool
    vertical_tangent_r: float | None
    sin_phi_bound_ok: bool


@dataclass(frozen=True)
class ProfileCurve:
    """Densely sampled generating curve together with its dense output.

    ``taus``/``r``/``z``/``phi`` hold the accepted integrator steps (strictly
    increasing in tau, ending exactly at the stop event).  Values between
    samples come from the integrator dense output through ``state_at``;
    below ``tau0`` the axis Taylor series is used, so tau = 0 evaluates to
    the exact axis state (0, z_o, pi).  A curve integrated with
    ``z_o_variation=True`` also carries d(r, z, phi)/dz_o (``variation_at``).
    Instances are immutable and safe to share across threads.
    """

    params: ModelParams
    taus: np.ndarray
    r: np.ndarray
    z: np.ndarray
    phi: np.ndarray
    ell: float
    stop_reason: StopReason
    tau0: float
    rtol: float
    atol: float
    _dense: object = field(repr=False)
    z_o_variation: bool = False

    def __post_init__(self):
        for arr in (self.taus, self.r, self.z, self.phi):
            arr.setflags(write=False)

    @functools.cached_property
    def vertical_tangent_tau(self):
        """First tau where phi falls through pi/2, or None.

        Brent's root on the dense output between the two nodes that bracket
        pi/2, to the tolerances of the events of ``ode.solve_ivp``.
        """
        half_pi = 0.5 * math.pi
        falls = np.flatnonzero((self.phi[:-1] >= half_pi) & (self.phi[1:] <= half_pi))
        if not falls.size:
            return None
        k = falls[0]
        return brentq(
            lambda t: self._dense.at(t)[2] - half_pi,
            float(self.taus[k]), float(self.taus[k + 1]), xtol=4 * EPS, rtol=4 * EPS,
        )

    def state_at(self, tau):
        """(r, z, phi) at arbitrary tau in [0, ell], scalar or array."""
        if np.ndim(tau) == 0:
            t = float(tau)
            # written so that a NaN tau fails it too
            if not -1e-15 <= t <= self.ell * (1.0 + 1e-12) + 1e-300:
                raise OutOfRange(f"tau must lie in [0, {self.ell}]")
            t = min(max(t, 0.0), self.ell)
            if t < self.tau0:
                return _axis_series(self.params, t)
            return self._dense.at(t)[:3]
        t = np.asarray(tau, dtype=float)
        if not np.all((t >= -1e-15) & (t <= self.ell * (1.0 + 1e-12) + 1e-300)):
            raise OutOfRange(f"tau must lie in [0, {self.ell}]")
        t = np.clip(t, 0.0, self.ell)
        out = np.empty((3, t.size))
        seeded = t < self.tau0
        if np.any(~seeded):
            out[:, ~seeded] = self._dense(t[~seeded])[:3]
        if np.any(seeded):
            out[:, seeded] = _axis_series(self.params, t[seeded])
        return out[0], out[1], out[2]

    def variation_at(self, tau):
        """d(r, z, phi)/dz_o at fixed tau in [tau0, ell], scalar or array.

        Available on curves integrated with ``z_o_variation=True``.
        """
        if not self.z_o_variation:
            raise ValueError("curve was integrated without its z_o variation")
        t = np.asarray(tau, dtype=float)
        if not np.all((t >= self.tau0) & (t <= self.ell)):
            raise OutOfRange(f"tau must lie in [{self.tau0}, {self.ell}]")
        return tuple(self._dense(t)[3:])

    def unit_speed_residual(self):
        """max |r'^2 + z'^2 - 1| with derivatives from the dense output.

        The velocities are recomputed by centered differencing of the dense
        output rather than read off the right-hand side, so this actually
        exercises integrator consistency.
        """
        step = 1e-6 * max(abs(self.params.z_o), 1.0)
        t = self.taus[(self.taus > self.tau0 + step) & (self.taus < self.ell - step)]
        if t.size == 0:
            return 0.0
        rp, zp = self._dense(t + step)[:2]
        rm, zm = self._dense(t - step)[:2]
        dr = (rp - rm) / (2.0 * step)
        dz = (zp - zm) / (2.0 * step)
        return float(np.max(np.abs(dr * dr + dz * dz - 1.0)))


def axis_seed(params, tau0):
    """Second-order Taylor state of the curve a distance tau0 from the axis.

    r ~ tau0, z ~ z_o - (a/2) tau0^2, phi ~ pi - a tau0 with a = 1/z_o + c_o;
    truncation error O(tau0^3).  tau0 = 0 returns the exact axis state.
    """
    a = params.axis_curvature
    if a == 0.0:
        raise DegenerateAxis(
            "1/z_o + c_o = 0: the curve degenerates at the admissibility boundary"
        )
    if not (0.0 <= tau0 <= 1e-3 * abs(params.z_o)):
        raise InvalidOffset(
            f"tau0 = {tau0} outside [0, {1e-3 * abs(params.z_o)}]"
        )
    return ProfileState(tau0, *_axis_series(params, tau0))


def _axis_series(params, tau):
    """(r, z, phi) of the second-order axis series, scalar or array tau."""
    a = params.axis_curvature
    return tau, params.z_o - 0.5 * a * tau * tau, math.pi - a * tau


def dphi_ds(c, sor, z, c_o):
    """dphi/ds (s boundary-based) from c = cos(phi) and sor = sin(phi)/r.

    Pure arithmetic: runs on floats in the right-hand sides and on arrays.
    """
    return -2.0 * c / z - sor + 2.0 * c_o


def _coeff_C(c, s, r, z):
    """First order coefficient C = cos(phi)/r - 2 sin(phi)/z of P."""
    return c / r - 2.0 * s / z


def operator_coeffs(c, s, sor, r, z, c_o):
    """(dphi/ds, C, D) of P[u] = u_ss + C u_s + D u, with s = sin(phi)."""
    phi_s = dphi_ds(c, sor, z, c_o)
    return phi_s, _coeff_C(c, s, r, z), sor * sor + phi_s * phi_s - 2.0 * (c / z) ** 2


def dphi_ds_variation(c, s, sor, r, z, dr, dz, dphi):
    """Variation of dphi/ds along a state variation (dr, dz, dphi).

    The partial derivatives of ``dphi_ds`` in (r, z, phi) are sin(phi)/r^2,
    2 cos(phi)/z^2 and -C, with C the first order coefficient of P.
    """
    return sor / r * dr + 2.0 * c / (z * z) * dz - _coeff_C(c, s, r, z) * dphi


def _profile_rhs(c_o):
    def rhs(tau, y):
        r, z, phi = y
        c = math.cos(phi)
        s = math.sin(phi)
        # tau runs against the boundary orientation
        return (-c, -s, -dphi_ds(c, s / r, z, c_o))

    return rhs


def _varied_rhs(c_o):
    """Profile rows plus their variational equations (dr, dz, dphi), in tau."""

    def rhs(tau, y):
        r, z, phi, dr, dz, dphi = y
        c = math.cos(phi)
        s = math.sin(phi)
        sor = s / r
        return (
            -c,
            -s,
            -dphi_ds(c, sor, z, c_o),
            s * dphi,
            -c * dphi,
            -dphi_ds_variation(c, s, sor, r, z, dr, dz, dphi),
        )

    return rhs


def _axis_seed_variation(params, tau0, dtau0, f0):
    """d(r, z, phi)/dz_o at fixed tau = tau0, from the axis seed.

    The seed y0 = ``_axis_series(params, tau0)`` sits at a tau0 that moves
    by dtau0 per unit z_o, so the variation at fixed tau is the total
    derivative dy0/dz_o minus the drift f0 * dtau0 along the right-hand side
    value f0 at the seed.
    """
    a = params.axis_curvature
    da = -1.0 / (params.z_o * params.z_o)
    dy0 = (
        dtau0,
        1.0 - 0.5 * da * tau0 * tau0 - a * tau0 * dtau0,
        -da * tau0 - a * dtau0,
    )
    return tuple(d - f * dtau0 for d, f in zip(dy0, f0))


def check_tolerances(rtol, atol):
    """Raise ValueError unless the integrator would use rtol and atol as given."""
    if not (math.isfinite(rtol) and rtol >= MIN_RTOL):
        raise ValueError(f"rtol must be finite and >= {MIN_RTOL:.3g}, got {rtol!r}")
    if not (math.isfinite(atol) and atol >= 0.0):
        raise ValueError(f"atol must be finite and nonnegative, got {atol!r}")


def check_scale(params):
    """Raise NotAdmissible if |c_o z_o| exceeds ``MAX_ABS_CZ``."""
    if not abs(params.c_o * params.z_o) <= MAX_ABS_CZ:
        raise NotAdmissible(
            f"|c_o z_o| = {abs(params.c_o * params.z_o):.6g} exceeds {MAX_ABS_CZ:g}: "
            "the axis seed is not small against the curvature radius 1/c_o"
        )


def integrate_profile(params, stop, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, tau0=None,
                      z_o_variation=False):
    """Integrate the generating curve outward from the axis seed.

    Adaptive DOP853 with dense output (``membranelab.ode``: scipy's
    algorithm, stepped on Python floats); the stop event is located by
    Brent's root on the interpolant of the step where it changes sign.  Guards
    (arc-length cap, |z| floor, r returning to 0) are always active; if one
    fires before the requested primary stop, SingularityHit or
    ArcLimitReached is raised with the partial curve attached.  A tolerance
    that ``check_tolerances`` rejects raises ValueError, and |c_o z_o| above
    ``MAX_ABS_CZ`` raises NotAdmissible.

    ``z_o_variation=True`` co-integrates d(r, z, phi)/dz_o at fixed tau
    (``ProfileCurve.variation_at``).  The state rows then keep the local
    error of the plain solve: DOP853's RMS error norm runs over twice the
    rows, so their tolerances are divided by sqrt(2), while the variation
    rows are held only to ``_VARIATION_TOL``.
    """
    check_tolerances(rtol, atol)
    check_scale(params)
    default_tau0 = tau0 is None
    if default_tau0:
        tau0 = DEFAULT_TAU0_FACTOR * abs(params.z_o)
    if tau0 <= 0.0:
        raise InvalidOffset("integration needs a strictly positive axis offset")
    seed = axis_seed(params, tau0)
    y0 = (seed.r, seed.z, seed.phi)
    rhs = _profile_rhs(params.c_o)
    ivp_rtol, ivp_atol = rtol, atol
    if z_o_variation:
        dtau0 = tau0 / params.z_o if default_tau0 else 0.0
        y0 += _axis_seed_variation(params, tau0, dtau0, rhs(tau0, y0))
        rhs = _varied_rhs(params.c_o)
        ivp_rtol = [max(rtol / math.sqrt(2.0), MIN_RTOL)] * 3 + [_VARIATION_TOL] * 3
        ivp_atol = [atol / math.sqrt(2.0)] * 3 + [_VARIATION_TOL] * 3
    max_arc = stop.arc_guard(params)
    min_abs_z = DEFAULT_MIN_ABS_Z_FACTOR * abs(params.z_o)
    t_end = max_arc if stop.arc_length is None else min(stop.arc_length, max_arc)

    events = []

    def z_guard(tau, y):
        return y[1] + min_abs_z

    z_guard.terminal = True
    z_guard.direction = 1.0
    events.append(z_guard)

    r_floor = 0.5 * tau0

    def r_guard(tau, y):
        return y[0] - r_floor

    r_guard.terminal = True
    r_guard.direction = -1.0
    events.append(r_guard)

    if stop.phi_target is not None:
        target = stop.phi_target

        def phi_event(tau, y):
            return y[2] - target

        phi_event.terminal = True
        phi_event.direction = -1.0
        events.append(phi_event)

    sol = solve_ivp(
        rhs,
        (tau0, t_end),
        y0,
        events=events,
        rtol=ivp_rtol,
        atol=ivp_atol,
        # cap the step: the dense interpolant is one order below the
        # stepper, and downstream finite differences of the dense output
        # would otherwise see its error on long steps
        max_step=0.1 * abs(params.z_o),
    )
    if not sol.success:
        raise MembraneLabError(f"integrator failed: {sol.message}")

    def build(ell, reason):
        # the dense output at a step node returns that node's state exactly
        kept = np.count_nonzero(sol.t < ell * (1.0 - 1e-14))
        taus = np.append(sol.t[:kept], ell)
        r, z, phi = np.column_stack((sol.y[:3, :kept], sol.sol(ell)[:3]))
        return ProfileCurve(
            params=params,
            taus=taus,
            r=r,
            z=z,
            phi=phi,
            ell=float(ell),
            stop_reason=reason,
            tau0=tau0,
            rtol=rtol,
            atol=atol,
            _dense=sol.sol,
            z_o_variation=z_o_variation,
        )

    if sol.t_events[0].size:
        curve = build(float(sol.t_events[0][0]), StopReason.SINGULARITY)
        raise SingularityHit("z approached 0 before the stop event", curve)
    if sol.t_events[1].size:
        curve = build(float(sol.t_events[1][0]), StopReason.SINGULARITY)
        raise SingularityHit("r returned to 0 before the stop event", curve)

    if stop.phi_target is not None:
        hits = sol.t_events[-1]  # the phi event, appended last
        if hits.size == 0:
            curve = build(float(sol.t[-1]), StopReason.ARC_LIMIT)
            raise ArcLimitReached(
                f"phi never reached {stop.phi_target} within the arc guard", curve
            )
        return build(float(hits[0]), StopReason.TANGENT_HORIZONTAL)

    curve = build(float(sol.t[-1]), StopReason.ARC_LIMIT)
    if stop.arc_length > max_arc:
        raise ArcLimitReached(
            f"arc length {stop.arc_length:.6g} lies beyond the arc guard "
            f"{max_arc:.6g}", curve
        )
    return curve


def _safe_sin_over_r(r, z, phi, params):
    """sin(phi)/r with the L'Hopital value a = 1/z_o + c_o near the axis."""
    r = np.asarray(r, dtype=float)
    cut = _AXIS_R_CUT * abs(params.z_o)
    a = params.axis_curvature
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r > cut, np.sin(phi) / np.where(r > cut, r, 1.0), a)
    return ratio


def geometry_at(curve, tau):
    """Geometric diagnostics at tau (scalar or array).

    H and K are assembled from dphi/ds as given by the equation's right-hand
    side, with the axis limits H(0) = -(1/z_o + c_o) and K(0) = (1/z_o+c_o)^2
    obtained by replacing sin(phi)/r with its limit.
    """
    tau_arr = np.asarray(tau, dtype=float)
    scalar = tau_arr.ndim == 0
    r, z, phi = curve.state_at(tau_arr)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    p = curve.params
    s = np.sin(phi)
    c = np.cos(phi)
    sor = _safe_sin_over_r(r, z, phi, p)
    phi_s = dphi_ds(c, sor, z, p.c_o)
    H = -0.5 * (phi_s + sor)
    K = phi_s * sor
    nu3 = -c
    kappa = -phi_s
    q = r * s - z * c
    sff = sor * sor + phi_s * phi_s
    xi = H + nu3 / z
    if scalar:
        return GeometryPoint(
            float(tau_arr), float(H[0]), float(K[0]), float(nu3[0]),
            float(kappa[0]), float(q[0]), float(sff[0]), float(xi[0]),
        )
    return GeometryPoint(tau_arr, H, K, nu3, kappa, q, sff, xi)


def first_integral_residual(curve):
    """Sup over samples of the exact first integral of the profile system.

    Along any solution, c_o r^2 - r sin(phi) equals the integral of
    -2 cos^2(phi)/z * r from the axis to the sample; the integral here is
    evaluated by composite Gauss quadrature on the dense output, so a small
    residual certifies integrator and quadrature consistency jointly.
    """
    p = curve.params

    def integrand(t):
        r, z, phi = curve.state_at(t)
        c = np.cos(phi)
        return -2.0 * c * c / z * r

    knots = np.concatenate(([0.0], curve.taus))
    cum = cumulative_gauss(integrand, knots)
    r, z, phi = curve.state_at(knots)
    F = p.c_o * r * r - r * np.sin(phi) - cum
    return float(np.max(np.abs(F)))


def shape_diagnostics(curve):
    """Convexity, vertical-tangent radius and the sin(phi) lower bound.

    The bound sin(phi) >= (1/z_o + c_o) r follows from the graph
    representation z(r) valid from the axis down to the vertical tangent, so
    it is checked on that arc (tau <= vertical tangent) only; past the
    vertical tangent r decreases and the bound genuinely fails near the
    boundary.
    """
    p = curve.params
    if not p.sigma0_admissible:
        raise NotAdmissible("shape diagnostics require z_o < -1/c_o")
    g = geometry_at(curve, curve.taus)
    convex = bool(np.all(g.kappa < 0.0))
    vt = curve.vertical_tangent_tau
    vt_r = None if vt is None else float(curve.state_at(vt)[0])
    a = p.axis_curvature
    upper = slice(None) if vt is None else curve.taus <= vt
    bound_ok = bool(
        np.all(np.sin(curve.phi[upper]) >= a * curve.r[upper] - 1e-9)
    )
    return ShapeDiagnostics(convex=convex, vertical_tangent_r=vt_r,
                            sin_phi_bound_ok=bound_ok)


def fourth_order_residual(curve, n=4000):
    """Sup residual of the fourth order equation Lap(H) + 2(H+c_o)(H(H-c_o)-K).

    Lap(H) = (1/r)(r H')' is formed by centered finite differences of the
    geometry on a uniform resample of the window [0.02, 0.98] * ell, which
    avoids endpoint differencing artifacts.
    """
    if n < 32:
        raise TooFewSamples("fourth order residual needs at least 32 points")
    a = 0.02 * curve.ell
    b = 0.98 * curve.ell
    taus = np.linspace(a, b, n)
    h = taus[1] - taus[0]
    g = geometry_at(curve, taus)
    r, _, _ = curve.state_at(taus)
    H_t = fd1(g.H, h)
    lap = fd1(r * H_t, h) / r
    res = lap + 2.0 * (g.H + curve.params.c_o) * (
        g.H * (g.H - curve.params.c_o) - g.K
    )
    keep = fd_interior_slice(n)
    return float(np.max(np.abs(res[keep])))


def energy(curve):
    """Functional 2*pi * int (1/z^2 + 2 c_o nu3 / z) r dtau over the curve.

    Adaptive quadrature on the dense output to an absolute 1e-9; both terms
    are invariant under the scaling (c_o, z_o) -> (c_o/mu, mu z_o), so one
    absolute tolerance serves every scale.
    """
    c_o = curve.params.c_o

    def integrand(t):
        r, z, phi = curve.state_at(t)
        nu3 = -math.cos(phi)
        return (1.0 / (z * z) + 2.0 * c_o * nu3 / z) * r

    val, _ = quad(integrand, 0.0, curve.ell, epsabs=1e-9, epsrel=1e-11, limit=200)
    return 2.0 * math.pi * val


def sigma0_stop(**guards):
    """Stop condition of the tangential disc: phi runs down to 0."""
    return StopCondition.phi_reaches(0.0, **guards)
