import math

import numpy as np
import pytest

from membranelab import (
    ModelParams,
    StopCondition,
    StopReason,
    axis_seed,
    energy,
    first_integral_residual,
    fourth_order_residual,
    geometry_at,
    integrate_profile,
    shape_diagnostics,
    sigma0_stop,
)
import membranelab.profile as profile_mod
from membranelab.errors import (
    ArcLimitReached,
    DegenerateAxis,
    InvalidOffset,
    MembraneLabError,
    NotAdmissible,
    OutOfRange,
    SingularityHit,
    TooFewSamples,
)
from membranelab._util import fd1, fd_interior_slice, gauss_panels

from _oracles import (
    ENDPOINT_2_06,
    ENERGY_2_06,
    VT_R_2_09,
    PerturbedCurve,
    picard_graph_solution,
)


# ---------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(-1.0, -0.5)
    with pytest.raises(ValueError):
        ModelParams(0.0, -0.5)
    with pytest.raises(ValueError):
        ModelParams(2.0, 0.5)
    # test-only override admits c_o = 0
    assert ModelParams(0.0, -1.0, allow_zero_curvature=True).c_o == 0.0


@pytest.mark.parametrize(
    "c_o,z_o",
    [(2.0, -0.6), (2.0, -0.51), (1.0, -1.5), (4.0, -0.26), (0.5, -3.0)],
)
def test_admissibility_iff_product(c_o, z_o):
    p = ModelParams(c_o, z_o)
    assert p.sigma0_admissible == (c_o * z_o < -1.0)


# ----------------------------------------------------------------- axis seed


def test_axis_seed_exact_at_zero_offset():
    s = axis_seed(ModelParams(2.0, -0.6), 0.0)
    assert (s.r, s.z, s.phi) == (0.0, -0.6, math.pi)


def test_axis_seed_second_order_values():
    # a = 1/z_o + c_o = 1 for (2, -1)
    s = axis_seed(ModelParams(2.0, -1.0), 1e-4)
    assert s.r == 1e-4
    assert s.z == pytest.approx(-1.0 - 5e-9, abs=1e-20)
    assert s.phi == pytest.approx(math.pi - 1e-4, abs=1e-16)


def test_axis_seed_matches_picard_oracle():
    c_o, z_o, tau0 = 2.0, -1.0, 1e-4
    s = axis_seed(ModelParams(c_o, z_o), tau0)
    _, z, z_r = picard_graph_solution(c_o, z_o, tau0, n_grid=40000)
    # near the axis r and tau agree to O(tau0^3); z to O(tau0^4)
    assert abs(s.z - z[-1]) < 1e-12
    phi_graph = math.pi + math.atan(z_r[-1])
    assert abs(s.phi - phi_graph) < 1e-9


def test_axis_seed_degenerate():
    with pytest.raises(DegenerateAxis):
        axis_seed(ModelParams(2.0, -0.5), 1e-6)


def test_axis_seed_offset_range():
    p = ModelParams(2.0, -0.6)
    with pytest.raises(InvalidOffset):
        axis_seed(p, -1e-9)
    with pytest.raises(InvalidOffset):
        axis_seed(p, 1e-2)


def test_seed_halving_changes_curve_second_order():
    p = ModelParams(2.0, -0.6)
    ends = []
    for tau0 in (1e-4 * 0.6, 5e-5 * 0.6, 2.5e-5 * 0.6):
        c = integrate_profile(p, sigma0_stop(), tau0=tau0)
        ends.append(np.array(c.state_at(c.ell)[:2]))
    d1 = np.max(np.abs(ends[0] - ends[1]))
    d2 = np.max(np.abs(ends[1] - ends[2]))
    assert d1 / d2 > 3.0  # order >= ~1.6; second order gives ~4


# ----------------------------------------------------------------- profiles


def test_sigma0_profile_structure(curve26):
    c = curve26
    assert c.stop_reason is StopReason.TANGENT_HORIZONTAL
    assert np.all(np.diff(c.taus) > 0)
    r_end, z_end, phi_end = c.state_at(c.ell)
    assert abs(phi_end) < 1e-8
    assert r_end > 0
    assert c.ell == pytest.approx(ENDPOINT_2_06["ell"], abs=1e-8)
    assert r_end == pytest.approx(ENDPOINT_2_06["r"], abs=1e-8)
    assert z_end == pytest.approx(ENDPOINT_2_06["z"], abs=1e-8)
    # exactly one vertical tangent on the curve
    assert c.vertical_tangent_tau is not None
    crossings = np.sum(np.diff(np.sign(c.phi - math.pi / 2)) != 0)
    assert crossings == 1


def test_unit_speed(curve26):
    assert curve26.unit_speed_residual() < 1e-9


def test_circular_arc_override():
    p = ModelParams(0.0, -1.0, allow_zero_curvature=True)
    c = integrate_profile(p, StopCondition.at_arc_length(1.0))
    taus = np.linspace(0.0, 1.0, 300)
    r, z, _ = c.state_at(taus)
    # solutions at zero spontaneous curvature are circular arcs; this one is
    # centered at the origin with radius |z_o|
    assert np.max(np.abs(np.hypot(r, z) - 1.0)) < 1e-8


def test_profile_scaling_equivariance():
    mu = 2.0
    a = integrate_profile(ModelParams(2.0, -0.6), sigma0_stop())
    b = integrate_profile(ModelParams(2.0 / mu, mu * -0.6), sigma0_stop())
    assert b.ell == pytest.approx(mu * a.ell, abs=1e-8)
    taus = np.linspace(0.0, min(a.ell, b.ell / mu), 500)
    ra, za, pa = a.state_at(taus)
    rb, zb, pb = b.state_at(mu * taus)
    assert np.max(np.abs(rb - mu * ra)) < 1e-8
    assert np.max(np.abs(zb - mu * za)) < 1e-8
    assert np.max(np.abs(pb - pa)) < 1e-8


def test_richardson_consistency():
    p = ModelParams(2.0, -0.6)
    c1 = integrate_profile(p, sigma0_stop())
    c2 = integrate_profile(
        p, sigma0_stop(), rtol=0.5e-10, atol=0.5e-12, tau0=0.5e-6 * 0.6
    )
    tol = 4.0 * 1e-10 * max(1.0, c1.ell)
    assert abs(c1.ell - c2.ell) < tol
    e1 = np.array(c1.state_at(c1.ell)[:2])
    e2 = np.array(c2.state_at(c2.ell)[:2])
    assert np.max(np.abs(e1 - e2)) < tol


# ----------------------------------------------------------------- geometry


def test_geometry_axis_limits(curve26):
    a = curve26.params.axis_curvature
    g = geometry_at(curve26, 0.0)
    assert g.nu3 == pytest.approx(1.0, abs=1e-12)
    assert g.H == pytest.approx(-a, abs=1e-10)
    assert g.K == pytest.approx(a * a, abs=1e-10)
    assert g.kappa == pytest.approx(-a, abs=1e-10)


def test_geometry_vertical_tangent(curve26):
    tau_vt = curve26.vertical_tangent_tau
    g = geometry_at(curve26, tau_vt)
    r, _, _ = curve26.state_at(tau_vt)
    assert abs(g.nu3) < 1e-10
    assert g.q == pytest.approx(r, abs=1e-10)


def test_geometry_xi_identity(curve26):
    taus = np.linspace(0.0, curve26.ell, 700)
    g = geometry_at(curve26, taus)
    assert np.max(np.abs(g.xi + curve26.params.c_o)) < 10 * curve26.rtol


def test_shape_equation_residual_fd(curve26):
    # H rebuilt from finite differences of phi, independent of the ODE
    # right-hand side, still satisfies H + c_o + nu3/z = 0
    n = 2000
    taus = np.linspace(0.05 * curve26.ell, 0.95 * curve26.ell, n)
    r, z, phi = curve26.state_at(taus)
    h = taus[1] - taus[0]
    phi_s = -fd1(phi, h)  # boundary-oriented derivative
    H_fd = -0.5 * (phi_s + np.sin(phi) / r)
    res = H_fd + curve26.params.c_o + (-np.cos(phi)) / z
    keep = fd_interior_slice(n)
    # 10x the integrator's error-control scale rtol*|y| + atol at |phi| ~ pi
    tol = 10 * (curve26.rtol * math.pi + curve26.atol)
    assert np.max(np.abs(res[keep])) < tol


def test_geometry_out_of_range(curve26):
    with pytest.raises(OutOfRange):
        geometry_at(curve26, curve26.ell * 1.5)
    with pytest.raises(OutOfRange):
        curve26.state_at(-0.1)


# ----------------------------------------------------------- first integral


def test_first_integral_sigma0(curve26):
    assert first_integral_residual(curve26) < 1e-8 * 0.6**2


def test_first_integral_axis_point(curve26):
    r, z, phi = curve26.state_at(0.0)
    assert curve26.params.c_o * r * r - r * math.sin(phi) == 0.0


def test_first_integral_negative_control(curve26):
    assert first_integral_residual(PerturbedCurve(curve26, dz=1e-3)) > 1e-4


def test_first_integral_admissible_grid():
    for c_o in np.linspace(1.0, 4.0, 5):
        for f in np.linspace(0.15, 0.9, 5):
            z_o = -1.0 / c_o - f * (2.0 - 1.0 / c_o)
            c = integrate_profile(ModelParams(c_o, z_o), sigma0_stop())
            assert first_integral_residual(c) < 1e-8 * z_o * z_o


# --------------------------------------------------------------- diagnostics


def test_shape_diagnostics_2_06(curve26):
    d = shape_diagnostics(curve26)
    assert d.convex
    assert d.sin_phi_bound_ok
    # vertical tangent must come before r reaches 1/(1/z_o + c_o) = 3.0
    assert d.vertical_tangent_r < 3.0


def test_shape_diagnostics_2_055():
    c = integrate_profile(ModelParams(2.0, -0.55), sigma0_stop())
    d = shape_diagnostics(c)
    assert d.convex and d.sin_phi_bound_ok
    assert d.vertical_tangent_r < 1.0 / (1.0 / -0.55 + 2.0)


def test_vertical_tangent_oracle_2_09():
    c = integrate_profile(ModelParams(2.0, -0.9), sigma0_stop())
    d = shape_diagnostics(c)
    assert d.vertical_tangent_r == pytest.approx(VT_R_2_09, abs=1e-8)


def test_shape_diagnostics_not_admissible():
    p = ModelParams(2.0, -0.45)
    c = integrate_profile(p, StopCondition.at_arc_length(0.3))
    with pytest.raises(NotAdmissible):
        shape_diagnostics(c)


# ----------------------------------------------------------- fourth order


def test_fourth_order_sigma0(curve26):
    assert fourth_order_residual(curve26) < 1e-5 * 2.0**3


def test_fourth_order_sphere_cap():
    p = ModelParams(0.0, -1.0, allow_zero_curvature=True)
    c = integrate_profile(p, StopCondition.at_arc_length(1.0), rtol=1e-13, atol=1e-15)
    assert fourth_order_residual(c, n=500) < 1e-8
    assert fourth_order_residual(c, n=500) >= 0.0


def test_fourth_order_negative_control(curve26):
    jittered = PerturbedCurve(curve26, noise_amp=1e-3, seed=7)
    assert fourth_order_residual(jittered) > 1e-1


def test_fourth_order_too_few_samples(curve26):
    with pytest.raises(TooFewSamples):
        fourth_order_residual(curve26, n=8)


# ----------------------------------------------------------------- energy


def test_energy_oracle_value(curve26):
    assert energy(curve26) == pytest.approx(ENERGY_2_06, abs=1e-7)


def test_energy_oracle_quadrature(curve26):
    edges = np.linspace(0.0, curve26.ell, 2001)
    nodes, wts = gauss_panels(edges[:-1], edges[1:], 10)
    r, z, phi = curve26.state_at(nodes.ravel())
    f = (1.0 / (z * z) + 2.0 * 2.0 * (-np.cos(phi)) / z) * r
    ref = 2.0 * math.pi * float((f.reshape(nodes.shape) * wts).sum())
    assert energy(curve26) == pytest.approx(ref, abs=1e-8)


def test_energy_scale_invariance():
    e1 = energy(integrate_profile(ModelParams(2.0, -0.6), sigma0_stop()))
    e2 = energy(integrate_profile(ModelParams(1.0, -1.2), sigma0_stop()))
    assert abs(e1 - e2) < 1e-8


def test_energy_cap_closed_form():
    # unit-sphere cap of arc length T at zero spontaneous curvature:
    # 2 pi (sec T - 1)
    T = 1.0
    p = ModelParams(0.0, -1.0, allow_zero_curvature=True)
    c = integrate_profile(p, StopCondition.at_arc_length(T))
    assert energy(c) == pytest.approx(2.0 * math.pi * (1.0 / math.cos(T) - 1.0), abs=1e-8)


# ------------------------------------------------------------ stop handling


def test_stop_condition_validation():
    with pytest.raises(ValueError):
        StopCondition()
    with pytest.raises(ValueError):
        StopCondition(phi_target=0.0, arc_length=1.0)
    for arc in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="arc length"):
            StopCondition.at_arc_length(arc)


@pytest.mark.parametrize(
    "rtol, atol", [(0.0, 1e-12), (1e-15, 1e-12), (math.nan, 1e-12), (1e-10, -1.0),
                   (1e-10, math.inf)]
)
def test_integrate_rejects_unusable_tolerances(rtol, atol):
    # scipy would clamp rtol below 100 eps with only a warning
    with pytest.raises(ValueError, match="tol must be"):
        integrate_profile(ModelParams(2.0, -0.6), sigma0_stop(), rtol=rtol, atol=atol)


def test_singularity_guard():
    # the test-only circular arc rises to z = 0 at arc length pi/2
    p = ModelParams(0.0, -1.0, allow_zero_curvature=True)
    with pytest.raises(SingularityHit) as err:
        integrate_profile(p, StopCondition.at_arc_length(3.0))
    partial = err.value.curve
    assert partial is not None
    assert partial.stop_reason is StopReason.SINGULARITY
    assert partial.ell == pytest.approx(math.pi / 2, abs=1e-4)


def test_arc_guard_raises():
    with pytest.raises(ArcLimitReached) as err:
        integrate_profile(
            ModelParams(2.0, -0.6), sigma0_stop(max_arc=0.5)
        )
    assert err.value.curve is not None
    assert err.value.curve.stop_reason is StopReason.ARC_LIMIT


@pytest.mark.parametrize(
    "stop, guard",
    [
        (StopCondition.at_arc_length(1.0, max_arc=0.5), 0.5),
        # the default guard, 40 |z_o|
        (StopCondition.at_arc_length(30.0), 24.0),
    ],
)
def test_arc_stop_beyond_the_guard_raises(stop, guard):
    with pytest.raises(ArcLimitReached) as err:
        integrate_profile(ModelParams(2.0, -0.6), stop)
    partial = err.value.curve
    assert partial.stop_reason is StopReason.ARC_LIMIT
    assert partial.ell == pytest.approx(guard, rel=1e-14)


def test_integrate_rejects_huge_axis_product():
    # the axis seed 1e-6 |z_o| is no longer small against 1/c_o; the
    # integrator used to stall or fail inside scipy with a bare ValueError
    for z_o in (-1e304, -2e4):
        with pytest.raises(MembraneLabError):
            integrate_profile(ModelParams(1.0, z_o), sigma0_stop())
    integrate_profile(ModelParams(1.0, -profile_mod.MAX_ABS_CZ), sigma0_stop())


@pytest.mark.parametrize("stop", [sigma0_stop(), StopCondition.at_arc_length(1.3)])
def test_node_states_are_the_dense_output(stop):
    # the curve keeps the integrator's node states; the dense output at a
    # node must return them bit for bit
    curve = integrate_profile(ModelParams(2.0, -0.6), stop)
    r, z, phi = curve.state_at(curve.taus)
    assert np.array_equal(r, curve.r)
    assert np.array_equal(z, curve.z)
    assert np.array_equal(phi, curve.phi)


def test_state_at_one_tau_matches_the_array_path(curve26):
    # one tau is evaluated in pure Python, arrays in numpy: same bits
    inner = np.linspace(curve26.tau0, curve26.ell, 37)
    taus = np.concatenate(([0.0, 0.5 * curve26.tau0], inner))
    rows = curve26.state_at(taus)
    for k, tau in enumerate(taus):
        one = curve26.state_at(float(tau))
        assert all(type(v) is float for v in one)
        assert one == tuple(row[k] for row in rows)


@pytest.mark.parametrize(
    "stop, member",
    [(sigma0_stop(), False), (StopCondition.at_arc_length(0.8), True)],
)
def test_numpy_scalar_params_integrate_like_floats(stop, member):
    as_float = integrate_profile(ModelParams(2.0, -0.6), stop)
    params = ModelParams(np.float64(2.0), np.float64(-0.6))
    assert type(params.c_o) is float and type(params.z_o) is float
    as_numpy = integrate_profile(params, stop)
    assert as_numpy.ell == as_float.ell
    for name in ("taus", "r", "z", "phi"):
        assert np.array_equal(getattr(as_numpy, name), getattr(as_float, name))
    if member:
        # a family member's curve is read at the arc length it stops at
        assert as_numpy.state_at(0.8) == as_float.state_at(0.8)


def test_dphi_ds_variation_is_its_derivative():
    r, z, phi, c_o = 0.7, -1.3, 2.1, 1.5
    d = np.array([0.3, -0.8, 0.5])

    def phi_s(state):
        rr, zz, pp = state
        return profile_mod.dphi_ds(math.cos(pp), math.sin(pp) / rr, zz, c_o)

    x = np.array([r, z, phi])
    eps = 1e-5
    central = (phi_s(x + eps * d) - phi_s(x - eps * d)) / (2.0 * eps)
    c, s = math.cos(phi), math.sin(phi)
    exact = profile_mod.dphi_ds_variation(c, s, s / r, r, z, *d)
    assert exact == pytest.approx(central, rel=1e-9)
    # d(dphi/ds)/dphi = -C, the first order coefficient of P
    _, C, _ = profile_mod.operator_coeffs(c, s, s / r, r, z, c_o)
    assert profile_mod.dphi_ds_variation(c, s, s / r, r, z, 0.0, 0.0, 1.0) == -C


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_tau_is_out_of_range(bad):
    # a NaN fails every range comparison, so the check must be written to
    # reject it rather than pass it on to the segment lookup
    curve = integrate_profile(ModelParams(1.4, -2.0), StopCondition.at_arc_length(3.0))
    with pytest.raises(OutOfRange):
        curve.state_at(bad)
    with pytest.raises(OutOfRange):
        curve.state_at(np.array([0.5 * curve.ell, bad]))
