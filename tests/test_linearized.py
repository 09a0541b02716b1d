import math
import re

import numpy as np
import pytest

from membranelab import (
    BoundaryCircle,
    ModelParams,
    family_derivative_check,
    geometry_at,
    h_from_support,
    integrate_profile,
    residual_Pnu3,
    sigma0_stop,
    solve_h,
)
import membranelab.linearized as linearized
import membranelab.ode as ode
from membranelab.errors import BoundaryValueVanishes, NoConvergence, SolverFailure
from membranelab.linearized import (
    linearized_coeffs,
    operator_residual,
    radial_operator_coeffs,
)
from membranelab.profile import _profile_rhs, operator_coeffs
from membranelab._util import gauss_panels

from _oracles import (
    PSI_ZERO_TAU_2_06,
    TABLE1_INTERNAL,
    TABLE1_REFERENCE,
    TABLE1_ZO,
)


# ------------------------------------------------------------- extended rhs


def _boundary_rows(state, params, inhom=2.0):
    """(r_s, z_s, phi_s, h_s, w_s) of P[h] = -inhom at state (r, z, phi, h, w).

    The profile and P[h] = -inhom as one first order system in the
    boundary-based arc length s, with the coefficients of
    ``operator_coeffs``: h_ss = -D h - C h_s - inhom.
    """
    r, z, phi, h, w = state
    c, s = math.cos(phi), math.sin(phi)
    phi_s, C, D = operator_coeffs(c, s, s / r, r, z, params.c_o)
    return np.array([c, s, phi_s, w, -D * h - C * w - inhom])


def test_extended_rhs_pure_inhomogeneity():
    for state in [(0.5, -1.0, 2.0, 0.0, 0.0), (1.3, -0.4, 0.7, 0.0, 0.0)]:
        out = _boundary_rows(state, ModelParams(2.0, -0.6))
        assert out[4] == pytest.approx(-2.0, abs=1e-14)
        assert out[3] == 0.0
        # the kernel rows, P[psi] = 0, carry no inhomogeneity
        rows = _boundary_rows(state, ModelParams(2.0, -0.6), inhom=0.0)
        assert rows[3] == rows[4] == 0.0


def test_extended_rhs_vertical_tangent_form():
    # at phi = pi/2 the response row reduces to
    # w' = -|dN|^2 h + (2/z) w - 2 with |dN|^2 = 1/r^2 + (2 c_o - 1/r)^2
    r, z, h, w = 0.8, -1.1, 0.3, -0.7
    c_o = 2.0
    out = _boundary_rows((r, z, math.pi / 2, h, w), ModelParams(c_o, -0.6))
    sff = 1.0 / r**2 + (2.0 * c_o - 1.0 / r) ** 2
    assert out[4] == pytest.approx(-sff * h + (2.0 / z) * w - 2.0, rel=1e-14)


def test_extended_rhs_matches_geometry(curve26):
    # coefficient cross-check against the geometry module at a curve point
    tau = 0.4 * curve26.ell
    r, z, phi = curve26.state_at(tau)
    g = geometry_at(curve26, tau)
    h, w = 0.21, -0.37
    out = _boundary_rows((r, z, phi, h, w), curve26.params)
    C, D = radial_operator_coeffs(
        np.array([r]), np.array([z]), np.array([phi]), curve26.params
    )
    assert D[0] == pytest.approx(g.sff_norm2 - 2.0 * (g.nu3 / z) ** 2, rel=1e-12)
    assert out[4] == pytest.approx(-D[0] * h - C[0] * w - 2.0, rel=1e-12)
    assert out[2] == pytest.approx(-g.kappa, rel=1e-12)


def test_integrated_rhs_matches_extended_rhs(curve26):
    # the curve's integrated right-hand side runs the dphi/ds of the extended
    # rows, which are built from operator_coeffs, and the kernel and response
    # rows are one operator P, with the inhomogeneity in the response rows only
    params = curve26.params
    profile_tau = _profile_rhs(params.c_o)
    for tau in np.linspace(0.05, 0.95, 7) * curve26.ell:
        r, z, phi = curve26.state_at(tau)
        p_rows = _boundary_rows((r, z, phi, 0.21, -0.37), params)
        psi_rows = _boundary_rows((r, z, phi, 0.21, -0.37), params, inhom=0.0)
        assert p_rows[4] == pytest.approx(psi_rows[4] - 2.0, rel=1e-14, abs=1e-14)
        assert tuple(p_rows[:4]) == tuple(psi_rows[:4])
        # tau runs against s
        assert profile_tau(tau, (r, z, phi)) == tuple(-p_rows[:3])


def test_extended_rhs_scaling_homogeneity():
    mu = 2.0
    state = (0.5, -1.0, 2.2, 0.4, -0.3)
    base = _boundary_rows(state, ModelParams(2.0, -0.6))
    scaled_state = (mu * 0.5, mu * -1.0, 2.2, mu * mu * 0.4, mu * -0.3)
    scaled = _boundary_rows(scaled_state, ModelParams(2.0 / mu, mu * -0.6))
    factors = np.array([1.0, 1.0, 1.0 / mu, mu, 1.0])
    assert np.allclose(scaled, factors * base, rtol=1e-13)


# ------------------------------------------------------------------ kernel


def test_kernel_normalized_and_sign_structure(curve26, lin26):
    k = lin26.kernel
    assert k.psi[-1] == 1.0
    taus = np.linspace(curve26.tau0, curve26.ell, 3000)
    psi = k.psi_at(taus)
    flips = np.where(np.sign(psi[:-1]) != np.sign(psi[1:]))[0]
    assert len(flips) == 1
    tau_zero = 0.5 * (taus[flips[0]] + taus[flips[0] + 1])
    assert tau_zero == pytest.approx(PSI_ZERO_TAU_2_06, abs=1e-3)
    # the sign change sits strictly past the vertical-tangent circle
    assert tau_zero > curve26.vertical_tangent_tau
    # boundary slope of the kernel is negative in the boundary orientation
    assert k.w[-1] < 0.0


def test_kernel_operator_residual(curve26, lin26):
    k = lin26.kernel
    taus = np.linspace(0.02 * curve26.ell, 0.98 * curve26.ell, 1000)
    assert operator_residual(curve26, taus, k.psi_at(taus)) < 1e-6


# ----------------------------------------------------------------- solve_h


def test_h_boundary_and_axis(lin26, curve26):
    assert lin26.h[-1] == 0.0 and lin26.psi[-1] == 1.0
    assert lin26.taus[-1] == curve26.ell
    # w is odd in tau: it vanishes on the axis, up to rounding
    assert abs(lin26.w_at(0.0)) <= 1e-12 * np.max(np.abs(lin26.w))
    # alpha, the admixture of the kernel psi(axis) = 1, is h on the axis
    assert math.isfinite(lin26.alpha)
    assert lin26.h_at(0.0) == pytest.approx(lin26.alpha, rel=1e-14)
    psi_axis = lin26.kernel.psi_at(0.0)
    assert psi_axis == pytest.approx(1.0 / lin26.kernel.raw_boundary_value, rel=1e-14)
    # the tolerances are the curve's
    assert (lin26.rtol, lin26.atol) == (curve26.rtol, curve26.atol)


def test_readers_share_one_interpolant(curve26, lin26):
    taus = np.linspace(0.0, curve26.ell, 333)
    psi, h, w = lin26.fields_at(taus)
    reads = (lin26.kernel.psi_at(taus), lin26.h_at(taus), lin26.w_at(taus))
    for got, want in zip((psi, h, w), reads):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    # the boundary reads the exact node values, as the node arrays hold them
    assert (psi[-1], h[-1], w[-1]) == (1.0, 0.0, lin26.h_prime_boundary)
    assert lin26.kernel.w_at(curve26.ell) == lin26.kernel.w[-1]
    assert float(lin26.h_at(float(taus[100]))) == pytest.approx(h[100], rel=1e-13)


def test_rtol_below_the_integrator_floor_is_rejected(curve26):
    # h carries the tolerances of its curve (test_h_boundary_and_axis), and
    # below ode.MIN_RTOL round-off swamps the curve's error estimate: such a
    # curve is refused, not clamped to the floor, so solve_h never reads one
    with pytest.raises(ValueError, match="rtol"):
        integrate_profile(curve26.params, sigma0_stop(), rtol=0.5 * ode.MIN_RTOL)


def test_h_prime_settles_from_a_finer_first_degree(monkeypatch, curve26, lin26):
    # a schedule that starts at 121 settles on the same slope
    monkeypatch.setattr(linearized, "_FIRST_DEGREE", 121)
    finer = solve_h(curve26)
    assert finer.taus.size > lin26.taus.size
    assert finer.h_prime_boundary == pytest.approx(lin26.h_prime_boundary, rel=1e-10)


def test_vanishing_kernel_is_reported_not_absorbed(monkeypatch, curve26, lin26):
    # psi peaks at about 2.9 on this disc; below that it counts as a kernel
    # that vanished at the boundary
    assert 1.0 < np.max(np.abs(lin26.psi)) < 5.0
    monkeypatch.setattr(linearized, "_KERNEL_BLOWUP", 1.0)
    with pytest.raises(BoundaryValueVanishes, match="degree 61"):
        solve_h(curve26)


def test_h_unsettled_raises_solver_failure(monkeypatch, curve26):
    # a cap at the first degree leaves no second degree to agree with
    monkeypatch.setattr(linearized, "_MAX_DEGREE", linearized._FIRST_DEGREE)
    with pytest.raises(SolverFailure, match="no two collocation degrees up to 61"):
        solve_h(curve26)


def test_h_operator_residual(curve26, lin26):
    taus = np.linspace(0.02 * curve26.ell, 0.98 * curve26.ell, 1000)
    assert operator_residual(curve26, taus, lin26.h_at(taus), inhom=2.0) < 1e-6


@pytest.mark.parametrize("z_o", TABLE1_ZO)
def test_table1_reference_values(z_o, table1_lins):
    hp = table1_lins[z_o].h_prime_boundary
    assert hp == pytest.approx(TABLE1_REFERENCE[z_o], rel=0.02)
    assert hp == pytest.approx(TABLE1_INTERNAL[z_o], rel=1e-6)


def test_table1_monotone_toward_zero(table1_lins):
    values = [table1_lins[z].h_prime_boundary for z in TABLE1_ZO]
    assert all(v < 0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_h_from_support_agreement(curve26, lin26):
    hs = h_from_support(curve26, lin26.kernel)
    scale = np.max(np.abs(lin26.h))
    assert np.max(np.abs(hs - lin26.h)) < 1e-6 * scale
    assert hs[-1] == 0.0


def test_h_prime_from_support_route(curve26, lin26):
    # boundary slope through the support-function identity
    g_b = geometry_at(curve26, curve26.ell)
    r_b, z_b, phi_b = curve26.state_at(curve26.ell)
    q_s_b = (r_b * math.cos(phi_b) + z_b * math.sin(phi_b)) * (-g_b.kappa)
    psi_s_b = float(lin26.kernel.w_at(curve26.ell))
    hp = (g_b.q * psi_s_b - q_s_b) / curve26.params.c_o
    assert hp == pytest.approx(TABLE1_REFERENCE[-0.6], rel=0.02)
    assert hp == pytest.approx(lin26.h_prime_boundary, rel=1e-8)


def test_h_prime_stability_under_refinement(curve26, lin26):
    ref = lin26.h_prime_boundary
    coarse = integrate_profile(ModelParams(2.0, -0.6), sigma0_stop(),
                               rtol=5e-11, atol=5e-13)
    assert abs(solve_h(coarse).h_prime_boundary - ref) < 1e-6 * abs(ref)


def test_h_prime_scaling_equivariance(lin26):
    mu = 2.0
    scaled_curve = integrate_profile(
        ModelParams(2.0 / mu, mu * -0.6), sigma0_stop()
    )
    hp_scaled = solve_h(scaled_curve).h_prime_boundary
    assert hp_scaled == pytest.approx(mu * lin26.h_prime_boundary, rel=1e-8)


# ------------------------------------------------------- operator identities


def test_residual_Pnu3(curve26):
    assert residual_Pnu3(curve26) < 1e-5
    assert residual_Pnu3(curve26, n=4000) < 1e-5


def test_residual_Pnu3_negative_control(curve26):
    n = 1000
    taus = np.linspace(0.02 * curve26.ell, 0.98 * curve26.ell, n)
    _, z, phi = curve26.state_at(taus)
    rng = np.random.default_rng(3)
    corrupted = -np.cos(phi) + 1e-3 * rng.standard_normal(n)
    res = operator_residual(curve26, taus, corrupted)
    assert res > 1e-1


def test_residual_Pnu3_bounded_near_axis(curve26):
    taus = np.linspace(0.001 * curve26.ell, 0.05 * curve26.ell, 2000)
    _, z, phi = curve26.state_at(taus)
    nu3 = -np.cos(phi)
    # P[nu3] + 2 nu3/z^2 via the generic evaluator: the 1/r coefficient
    # grows toward the axis but the even function keeps the residual small
    res_op = operator_residual(curve26, taus, nu3)
    extra = np.max(np.abs(2.0 * nu3 / (z * z)))
    assert res_op < extra + 1e-3


def test_self_adjointness_green_identity(curve26):
    # random smooth polynomials in sigma vanishing at the boundary; P applied
    # analytically, integrals against the weight r/z^2 by Gauss panels
    rng = np.random.default_rng(11)
    ell = curve26.ell

    def make_fn(coeffs):
        # f(sigma) = sigma * poly(sigma), so f(0) = 0 at the boundary
        poly = np.polynomial.Polynomial(coeffs)
        f = poly * np.polynomial.Polynomial([0.0, 1.0])
        return f, f.deriv(), f.deriv(2)

    f, f1, f2 = make_fn(rng.standard_normal(4) / ell)
    g, g1, g2 = make_fn(rng.standard_normal(4) / ell)

    edges = np.linspace(0.0, ell, 801)
    nodes, wts = gauss_panels(edges[:-1], edges[1:], 8)
    taus = nodes.ravel()
    r, z, phi = curve26.state_at(taus)
    C, D = radial_operator_coeffs(r, z, phi, curve26.params)
    sigma = ell - taus

    def P(v0, v1, v2):
        return v2(sigma) + C * v1(sigma) + D * v0(sigma)

    integrand = (f(sigma) * P(g, g1, g2) - g(sigma) * P(f, f1, f2)) * r / (z * z)
    val = float((integrand.reshape(nodes.shape) * wts).sum())
    assert abs(val) < 1e-6


def test_linearized_coeffs_invariants(curve26):
    taus = np.linspace(0.0, curve26.ell, 500)
    co = linearized_coeffs(curve26, taus)
    assert np.all(co.weight[1:-1] > 0)
    assert np.all(np.isfinite(co.U))
    # axis value of U: (2 a^2 - 2/z_o^2)/z_o^2
    a = curve26.params.axis_curvature
    z_o = curve26.params.z_o
    assert co.U[0] == pytest.approx((2 * a * a - 2 / z_o**2) / z_o**2, rel=1e-9)


# ------------------------------------------------------- family derivative


def test_family_derivative_check(circle053, sig053, lin053):
    chk = family_derivative_check(circle053, 1e-3, sigma0=sig053, lin=lin053)
    assert chk.rel_error < 0.02
    assert chk.observed_order >= 1.8
    # the displacement vanishes at the shared boundary point
    assert abs(chk.derivative[0]) < 1e-6


def test_family_derivative_check_names_the_fold():
    # the family through (2, -1.5) folds at c* = 1.746527, 4.95e-4 above c0,
    # so c0 + 1e-3 has no member
    with pytest.raises(NoConvergence, match="beyond the fold") as exc:
        family_derivative_check(BoundaryCircle(2.0, -1.5), 1e-3)
    c_star = float(re.search(r"c\* = ([0-9.]+)", str(exc.value)).group(1))
    assert c_star == pytest.approx(1.746527, abs=2e-6)
    assert "c = 1.74703155 " in str(exc.value)
    # a circle whose family does not fold within delta still converges at
    # second order
    chk = family_derivative_check(BoundaryCircle(0.5, -3.0), 1e-3)
    assert chk.observed_order == pytest.approx(2.0, abs=0.2)


def test_family_derivative_error_grows_quadratically(circle053, sig053, lin053):
    small = family_derivative_check(circle053, 1e-3, sigma0=sig053, lin=lin053)
    large = family_derivative_check(circle053, 1e-1, sigma0=sig053, lin=lin053)
    ratio = large.rel_error / small.rel_error
    assert 2e3 < ratio < 5e4  # consistent with delta^2 growth (1e4)
