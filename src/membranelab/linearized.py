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
boundary.  P[u] = z^2 L_0 u, where L_m is the separated mode-m operator of
``spectral``, so both are dense solves with the matrix ``assemble_mode``
collocates for the mode spectra: one Chebyshev collocation with the polar
parity fold (Trefethen, *Spectral Methods in MATLAB*, ch. 11), on which
psi and h are even in tau.  The boundary slope of h in the boundary-based
orientation, h_prime_boundary, is the transversality scalar of the
bifurcation certificate.

C and D (and dphi/ds inside D) come from the single coefficient function
``membranelab.profile.operator_coeffs``, which the sampled
``radial_operator_coeffs`` calls.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import chebyshev
from ._util import fd1, fd2, fd_interior_slice
from .errors import BoundaryValueVanishes, GridTooCoarse, SolverFailure
# not called: perfbench's tracer wraps linearized.solve_ivp by name
from .ode import solve_ivp  # noqa: F401
from .profile import _safe_sin_over_r, geometry_at, operator_coeffs
from .shooting import shoot_family_member, shoot_sigma0

#: h's degree runs 61, 91, 137, ... (``chebyshev.next_degree``) up to
#: _MAX_DEGREE until two degrees agree on h_prime_boundary to _AGREE of it;
#: the Table 1 discs and the circles up to R/|Z| = 2 settle at 91
_FIRST_DEGREE = 61
_MAX_DEGREE = 691
_AGREE = 1e-10
#: psi above this has a kernel that (nearly) vanishes at the boundary
_KERNEL_BLOWUP = 1e10


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
class _Level:
    """A curve at the nodes ``taus`` > 0 of the degree-n grid, tau = ell
    first; ``derivative[s]`` is d/dtau there for functions of parity s."""

    n: int
    taus: np.ndarray
    r: np.ndarray
    z: np.ndarray
    U: np.ndarray
    derivative: dict


def _interpolate(taus, columns, signs, tau):
    """The degree-n interpolants of node values, at tau.

    ``columns`` hold values at the ascending nodes ``taus`` > 0 of the
    degree n = 2 taus.size - 1 grid, ending at ell, continued to tau < 0
    with the parities ``signs``.  Returns an array of tau's shape plus one
    axis for the columns; a node, such as the boundary, reads its own value.
    """
    half = np.column_stack(columns)
    full = np.concatenate([half[::-1], np.asarray(signs, dtype=float) * half])
    tau = np.asarray(tau, dtype=float)
    out = chebyshev.barycentric(2 * taus.size - 1, tau.reshape(-1) / taus[-1], full)
    return out.reshape(tau.shape + (half.shape[1],))


@dataclass(frozen=True)
class KernelSolution:
    """Radial kernel psi of P (normalized to psi = 1 at the boundary).

    ``psi`` and ``w`` = psi_s (boundary orientation) hold the values at the
    collocation nodes ``taus`` (ascending, ending at ell); ``psi_at`` and
    ``w_at`` read their interpolants.  ``raw_boundary_value`` is the
    boundary value of the kernel normalized to 1 at the axis, 1/psi(axis).
    """

    taus: np.ndarray
    psi: np.ndarray
    w: np.ndarray
    raw_boundary_value: float

    def psi_at(self, tau):
        return _interpolate(self.taus, [self.psi], (1,), tau)[..., 0][()]

    def w_at(self, tau):
        return _interpolate(self.taus, [self.w], (-1,), tau)[..., 0][()]


@dataclass(frozen=True)
class LinearizedSolution:
    """Kernel psi, response h of P[h] = -2 with h(boundary) = 0, and slopes.

    The node arrays are those of ``kernel``.  w holds h_s in the
    boundary-based orientation; h_prime_boundary is its boundary value (the
    transversality scalar).  alpha = h(axis) is the kernel admixture that
    the particular response vanishing at the axis needs to vanish at the
    boundary.  rtol and atol are the tolerances of the curve, which bound
    the accuracy of h_prime_boundary.
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

    @property
    def ell(self):
        return float(self.taus[-1])

    def fields_at(self, tau):
        """(psi, h, w) at tau from one interpolation, stacked on a first axis."""
        out = _interpolate(self.taus, [self.psi, self.h, self.w], (1, 1, -1), tau)
        return np.moveaxis(out, -1, 0)

    def h_at(self, tau):
        return _interpolate(self.taus, [self.h], (1,), tau)[..., 0][()]

    def w_at(self, tau):
        return _interpolate(self.taus, [self.w], (-1,), tau)[..., 0][()]


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


def _sample(curve, n):
    """The ``_Level`` of the curve at degree n, from one ``state_at``."""
    taus = curve.ell * chebyshev.points(n)[: (n + 1) // 2]
    r, z, phi = curve.state_at(taus)
    _, D_coef = radial_operator_coeffs(r, z, phi, curve.params)
    return _Level(n=n, taus=taus, r=r, z=z, U=D_coef / (z * z),
                  derivative=chebyshev.folded_derivative(n, curve.ell))


def check_mode(m):
    """Raise ValueError unless m is a mode index ``assemble_mode`` accepts."""
    if m < 0 or m != int(m):
        raise ValueError("mode index m must be a nonnegative integer")


def assemble_mode(curve, m, n):
    """-L_m collocated at odd degree n, on the nodes of ``_sample(curve, n)``.

    L_m = diag(1/r) D diag(p) D + diag(U - m^2/(r^2 z^2)) on the Chebyshev
    grid of [-ell, ell], folded by the parity (-1)^m onto the nodes tau > 0,
    without the boundary row and column.  ``curve`` may also be its
    ``_sample`` at n, which lets several modes share one sampling.
    """
    check_mode(m)
    if n < 3 or n % 2 != 1:
        raise GridTooCoarse(f"collocation needs an odd degree n >= 3, so that "
                            f"no node lies on the axis; got {n}")
    level = curve if isinstance(curve, _Level) else _sample(curve, n)
    D, r, z = level.derivative[(-1) ** m], level.r, level.z
    L = (D * (r / (z * z))) @ D / r[:, None]
    L[np.diag_indices_from(L)] += level.U - m * m / (r * r * z * z)
    return -L[1:, 1:]


def solve_h(curve):
    """Response h of P[h] = -2 vanishing at the boundary, and the kernel psi.

    P[u] = z^2 L_0 u, so with A = ``assemble_mode(level, 0, n)``, which is
    -L_0 without the boundary row and column, h solves A h = 2/z^2 at the
    interior nodes with h(ell) = 0, and psi = 1 + v with A v = U (as
    L_0 1 = U), so psi(ell) = 1.  w = h_s = -dh/dtau in the boundary
    orientation, and h_prime_boundary = w(ell).  The degree rises from
    ``_FIRST_DEGREE`` until two degrees agree on h_prime_boundary to
    ``_AGREE`` of it; none by ``_MAX_DEGREE`` raises SolverFailure.

    The kernel's boundary value must not vanish (the radial kernel meets
    the boundary nontrivially): psi, the kernel over its boundary value,
    above ``_KERNEL_BLOWUP`` raises BoundaryValueVanishes rather than being
    absorbed.
    """
    n, before = _FIRST_DEGREE, None
    while True:
        # node values with tau = ell first, the boundary values prepended
        level = _sample(curve, n)
        rhs = np.column_stack([2.0 / (level.z[1:] * level.z[1:]), level.U[1:]])
        h, v = np.linalg.solve(assemble_mode(level, 0, n), rhs).T
        h, psi = np.concatenate([[0.0], h]), np.concatenate([[1.0], 1.0 + v])
        if not np.max(np.abs(psi)) < _KERNEL_BLOWUP:
            raise BoundaryValueVanishes(
                f"radial kernel vanished at the boundary within tolerance (degree {n})"
            )
        w = -level.derivative[1] @ h
        if before is not None and abs(w[0] - before) <= _AGREE * abs(w[0]):
            break
        if chebyshev.next_degree(n) > _MAX_DEGREE:
            moved = "" if before is None else (
                f"; the last two moved by {abs(w[0] - before) / abs(w[0]):.1e}")
            raise SolverFailure(
                f"h: no two collocation degrees up to {_MAX_DEGREE} agree on "
                f"h_prime_boundary to {_AGREE:g} of it{moved}"
            )
        n, before = chebyshev.next_degree(n), w[0]
    w_psi = -level.derivative[1] @ psi
    # ascending in tau, the boundary last
    taus, psi, h, w, w_psi = (a[::-1] for a in (level.taus, psi, h, w, w_psi))
    psi_axis, h_axis = _interpolate(taus, [psi, h], (1, 1), 0.0)
    kernel = KernelSolution(
        taus=taus, psi=psi, w=w_psi, raw_boundary_value=float(1.0 / psi_axis)
    )
    return LinearizedSolution(
        taus=taus,
        psi=psi,
        h=h,
        w=w,
        h_prime_boundary=float(w[-1]),
        alpha=float(h_axis),
        kernel=kernel,
        rtol=curve.rtol,
        atol=curve.atol,
    )


def h_from_support(curve, kernel):
    """Closed-form h from the support function: (q(0) psi - q) / c_o.

    q(0) is the boundary value of the support function q = r sin(phi)
    - z cos(phi) and psi the normalized kernel.  Independent of solve_h
    except for sharing psi, this follows from P[q] = 2 c_o and serves as an
    oracle for the collocated response.
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
