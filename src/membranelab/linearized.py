"""Linearized radial problems along a tangential-disc profile.

The normal variation of xi = H + nu3/z around a solution surface is governed
by the scalar operator (s = boundary-based arc length, sigma)

    P[u] = u_ss + C u_s + D u,
    C    = cos(phi)/r - 2 sin(phi)/z,
    D    = |dN|^2 - 2 (cos(phi)/z)^2,      |dN|^2 = 4H^2 - 2K,

which is the axisymmetric part of z^2 (div(z^-2 grad u) + U u) with
U = D / z^2.  Exact identities used as cross-checks throughout:

    P[nu3] + 2 nu3 / z^2 = 0        (vertical translation invariance)
    P[q]   = 2 c_o                  (scaling of the embedding)

and, through horizontal translation invariance, sin(phi) solves the
separated first angular mode of P at eigenvalue zero.

This module solves the radial kernel P[psi] = 0 (normalized to 1 at the
boundary) and the displacement response P[h] = -2 with h = 0 on the
boundary, by augmenting the profile system with (h, w = h_s) and starting
from an even power series at the axis.  The boundary slope of h in the
boundary-based orientation, h_prime_boundary, is the transversality scalar
of the bifurcation certificate.

The 7-row system (profile, psi and the particular response) has one
right-hand side, ``_extended_rhs_tau``, which ``solve_h`` integrates on
``membranelab.ode.solve_ivp``, the DOP853 stepper of the profile curves.
``certify`` reads only node values, so the step interpolants are built only
when ``psi_at``, ``w_at`` or ``h_at`` first read them.

C and D (and dphi/ds inside D) come from the single coefficient function
``membranelab.profile.operator_coeffs``, which every right-hand side here
and the sampled ``radial_operator_coeffs`` call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import fd1, fd2, fd_interior_slice
from .errors import BoundaryValueVanishes
from .ode import solve_ivp
from .profile import (
    _safe_sin_over_r,
    axis_seed,
    geometry_at,
    operator_coeffs,
)
from .shooting import shoot_family_member, shoot_sigma0


@dataclass(frozen=True)
class LinearizedCoeffs:
    """Samples of the radial operator data along a profile.

    U is the potential of the divergence form and weight = r/z^2 the measure
    density making the operator self adjoint, which is also the flux
    coefficient p of the separated problems.
    """

    taus: np.ndarray
    U: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class KernelSolution:
    """Radial kernel psi of P (normalized to psi = 1 at the boundary)."""

    taus: np.ndarray
    psi: np.ndarray
    w: np.ndarray  # boundary-oriented derivative psi_s
    raw_boundary_value: float
    _dense: object = field(repr=False)

    def psi_at(self, tau):
        vals = self._dense(np.asarray(tau, dtype=float))
        return vals[3] / self.raw_boundary_value

    def w_at(self, tau):
        vals = self._dense(np.asarray(tau, dtype=float))
        return vals[4] / self.raw_boundary_value


@dataclass(frozen=True)
class LinearizedSolution:
    """Kernel psi, response h of P[h] = -2 with h(boundary) = 0, and slopes.

    w holds h_s in the boundary-based orientation; h_prime_boundary is its
    boundary value (the transversality scalar).  alpha is the kernel
    admixture used to enforce the boundary condition on h.  rtol and atol
    are the tolerances the extended system was integrated at.
    """

    taus: np.ndarray
    psi: np.ndarray
    h: np.ndarray
    w: np.ndarray
    h_prime_boundary: float
    alpha: float
    kernel: KernelSolution
    rtol: float
    atol: float
    _dense: object = field(repr=False)

    @property
    def ell(self):
        return float(self.taus[-1])

    def h_at(self, tau):
        tau = np.asarray(tau, dtype=float)
        vals = self._dense(tau)
        # the boundary holds the exact Dirichlet zero, as the node array h does
        return np.where(tau == self.ell, 0.0, vals[5] + self.alpha * vals[3])[()]

    def w_at(self, tau):
        vals = self._dense(np.asarray(tau, dtype=float))
        return vals[6] + self.alpha * vals[4]


def radial_operator_coeffs(r, z, phi, params):
    """(C, D): first order and potential coefficients of P at given states."""
    sor = _safe_sin_over_r(r, z, phi, params)
    r_pos = np.where(np.asarray(r) > 0, r, np.inf)
    _, C, D = operator_coeffs(np.cos(phi), np.sin(phi), sor, r_pos, z, params.c_o)
    return C, D


def linearized_coeffs(curve, taus):
    r, z, phi = curve.state_at(taus)
    _, D = radial_operator_coeffs(r, z, phi, curve.params)
    return LinearizedCoeffs(
        taus=np.asarray(taus, dtype=float),
        U=D / (z * z),
        weight=r / (z * z),
    )


def _extended_rhs_tau(c_o):
    """Integrated right-hand side: (r, z, phi), P[psi] = 0 and P[p] = -2 in tau.

    State (r, z, phi, psi, psi_s, p, p_s) with s the boundary-based arc
    length; tau runs against s, so each row is the negated s-derivative of
    P[u] = -inhom in first order form, u_ss = -D u - C u_s - inhom.
    """

    def rhs(tau, y):
        r, z, phi, psi, wpsi, p, wp = y
        c = math.cos(phi)
        s = math.sin(phi)
        phi_s, C, D = operator_coeffs(c, s, s / r, r, z, c_o)
        return (-c, -s, -phi_s, -wpsi, D * psi + C * wpsi, -wp, D * p + C * wp + 2.0)

    return rhs


def _axis_series_start(params, u0, inhom, tau0):
    """(u, u_s) at tau0 of the even axis start u = u0 + u2 tau^2 of P[u] = -inhom.

    Near the axis P reduces to u'' + u'/tau + D(0) u with
    D(0) = 2 a^2 - 2/z_o^2, so 4 u2 + D(0) u0 = -inhom.
    """
    a = params.axis_curvature
    D0 = 2.0 * a * a - 2.0 / (params.z_o * params.z_o)
    u2 = -(inhom + D0 * u0) / 4.0
    return u0 + u2 * tau0 * tau0, -2.0 * u2 * tau0


def solve_h(curve, *, rtol=None, atol=None, tau0=None):
    """Response h of P[h] = -2 vanishing at the boundary, by superposition.

    One integration from the axis (``_extended_rhs_tau``) carries the
    profile, the raw radial kernel psi_raw of P (psi = 1 at the axis, even
    series start) and the particular solution p (p(axis) = 0).  The kernel
    is normalized to 1 at the boundary; its boundary value must not vanish
    (the radial kernel meets the boundary nontrivially), and a vanishing
    value is reported as a numerical failure rather than absorbed.
    h = p + alpha * psi_raw with alpha = -p(boundary)/psi_raw(boundary); the
    boundary node of ``h`` holds the exact 0 that this alpha prescribes.
    The reported slope h_prime_boundary is taken in the boundary-based
    orientation.  ``rtol``/``atol`` default to min(curve.rtol, 1e-13) and
    min(curve.atol, 1e-15); an rtol below ``ode.MIN_RTOL`` (100 eps) raises
    ValueError, it is not clamped to that floor.  ``tau0`` defaults to the
    curve's axis offset.
    """
    params = curve.params
    # tighter than the profile defaults: downstream finite-difference
    # recomputations of P[h] + 2 divide dense-output noise by h^2
    if rtol is None:
        rtol = min(curve.rtol, 1e-13)
    if atol is None:
        atol = min(curve.atol, 1e-15)
    if tau0 is None:
        tau0 = curve.tau0
    seed = axis_seed(params, tau0)
    y0 = (
        seed.r,
        seed.z,
        seed.phi,
        *_axis_series_start(params, 1.0, 0.0, tau0),
        *_axis_series_start(params, 0.0, 2.0, tau0),
    )
    sol = solve_ivp(
        _extended_rhs_tau(params.c_o),
        (tau0, curve.ell),
        y0,
        rtol=rtol,
        atol=atol,
        max_step=0.1 * abs(params.z_o),
    )
    if not sol.success:
        raise BoundaryValueVanishes(f"extended integration failed: {sol.message}")
    raw_b = float(sol.y[3, -1])
    if abs(raw_b) < 1e-10 * float(np.max(np.abs(sol.y[3]))):
        raise BoundaryValueVanishes(
            "radial kernel vanished at the boundary within tolerance"
        )
    kernel = KernelSolution(
        taus=sol.t,
        psi=sol.y[3] / raw_b,
        w=sol.y[4] / raw_b,
        raw_boundary_value=raw_b,
        _dense=sol.sol,
    )
    alpha = -float(sol.y[5, -1]) / raw_b
    h = sol.y[5] + alpha * sol.y[3]
    # h(ell) = 0 by the choice of alpha; store that zero, not its rounding
    h[-1] = 0.0
    w = sol.y[6] + alpha * sol.y[4]
    return LinearizedSolution(
        taus=sol.t,
        psi=kernel.psi,
        h=h,
        w=w,
        h_prime_boundary=float(w[-1]),
        alpha=alpha,
        kernel=kernel,
        rtol=rtol,
        atol=atol,
        _dense=sol.sol,
    )


def h_from_support(curve, kernel):
    """Closed-form h from the support function: (q(0) psi - q) / c_o.

    q(0) is the boundary value of the support function q = r sin(phi)
    - z cos(phi) and psi the normalized kernel.  Independent of solve_h
    except for sharing psi, this follows from P[q] = 2 c_o and serves as an
    oracle for the integrated response.
    """
    g = geometry_at(curve, kernel.taus)
    q_b = float(geometry_at(curve, curve.ell).q)
    return (q_b * kernel.psi - g.q) / curve.params.c_o


def operator_residual(curve, taus, values, inhom=0.0, mode=0):
    """Finite-difference sup residual of P[u] + inhom (mode m adds -m^2 u/r^2).

    ``values`` must be samples of u on the uniform grid ``taus``; the
    derivative signs account for taus being axis-based while P is written in
    the boundary orientation.
    """
    taus = np.asarray(taus, dtype=float)
    h = taus[1] - taus[0]
    r, z, phi = curve.state_at(taus)
    C, D = radial_operator_coeffs(r, z, phi, curve.params)
    u_t = fd1(values, h)
    u_tt = fd2(values, h)
    res = u_tt - C * u_t + D * values + inhom
    if mode:
        res = res - mode * mode * values / (r * r)
    keep = fd_interior_slice(taus.size)
    return float(np.max(np.abs(res[keep])))


def residual_Pnu3(curve, n=1000):
    """Sup residual of the exact identity P[nu3] + 2 nu3/z^2 = 0.

    Evaluated by finite differences of nu3 = -cos(phi) on a uniform interior
    window; a perturbed nu3 drives the residual to O(1), so this check is a
    sensitive probe of the operator coefficients.  The default resample is
    deliberately moderate: the stencils are 4th order so truncation is
    negligible, while dense-output interpolation noise grows like 1/h^2.
    """
    a = 0.02 * curve.ell
    b = 0.98 * curve.ell
    taus = np.linspace(a, b, n)
    _, z, phi = curve.state_at(taus)
    nu3 = -np.cos(phi)
    return operator_residual(curve, taus, nu3, inhom=2.0 * nu3 / (z * z))


@dataclass(frozen=True)
class FamilyDerivativeCheck:
    """Convergence study of the fixed-boundary family derivative against h."""

    delta: float
    rel_error: float
    rel_error_half: float
    observed_order: float
    sigma_grid: np.ndarray
    derivative: np.ndarray
    h_reference: np.ndarray


def _normal_displacement(sigma0_curve, member_curve, sigmas):
    """Normal projection of member - base at matched boundary-based arc length."""
    base_tau = sigma0_curve.ell - sigmas
    memb_tau = member_curve.ell - sigmas
    rb, zb, pb = sigma0_curve.state_at(base_tau)
    rm, zm, _ = member_curve.state_at(memb_tau)
    # outward unit normal of the base profile
    nr = np.sin(pb)
    nz = -np.cos(pb)
    return (rm - rb) * nr + (zm - zb) * nz


def family_derivative_check(circle, delta, *, sigma0=None, lin=None):
    """Central-difference derivative of the fixed-boundary family versus h.

    Members at spontaneous curvature c +/- delta (and +/- delta/2) are shot
    with the shared boundary circle; their normal displacement relative to
    the tangential disc, divided by 2 delta, is compared with h on a matched
    boundary-based arc-length grid of 400 points.  Reports the relative sup
    error at delta and the Richardson order between delta and delta/2.

    When c0 + delta or c0 - delta lies past a fold of the family, no member
    exists there, and ``shoot_family_member``'s NoConvergence names that c
    and the fold's c*.
    """
    if sigma0 is None:
        sigma0 = shoot_sigma0(circle)
    if lin is None:
        lin = solve_h(sigma0.curve)
    c0 = sigma0.params.c_o

    def derivative_at(d):
        plus = shoot_family_member(c0 + d, circle, sigma0)
        minus = shoot_family_member(c0 - d, circle, sigma0)
        max_sigma = min(sigma0.curve.ell, plus.curve.ell, minus.curve.ell)
        sigmas = np.linspace(0.0, max_sigma, 400)
        fp = _normal_displacement(sigma0.curve, plus.curve, sigmas)
        fm = _normal_displacement(sigma0.curve, minus.curve, sigmas)
        return sigmas, (fp - fm) / (2.0 * d)

    sigmas, deriv = derivative_at(delta)
    h_ref = lin.h_at(sigma0.curve.ell - sigmas)
    scale = float(np.max(np.abs(h_ref)))
    err = float(np.max(np.abs(deriv - h_ref))) / scale
    sig_half, deriv_half = derivative_at(0.5 * delta)
    h_half = lin.h_at(sigma0.curve.ell - sig_half)
    err_half = float(np.max(np.abs(deriv_half - h_half))) / scale
    order = math.log2(err / err_half) if err_half > 0 else math.inf
    return FamilyDerivativeCheck(
        delta=delta,
        rel_error=err,
        rel_error_half=err_half,
        observed_order=order,
        sigma_grid=sigmas,
        derivative=deriv,
        h_reference=h_ref,
    )
