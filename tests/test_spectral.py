import math

import numpy as np
import pytest

from membranelab import (
    BoundaryCircle,
    ModelParams,
    Sigma0Solution,
    assemble_mode,
    certify,
    eigen_solve,
    integrate_profile,
    kernel_residual_m1,
    shoot_sigma0,
    sigma0_stop,
    solve_h,
    StopCondition,
)
import membranelab.spectral as spectral
from membranelab._util import gauss_panels
from membranelab.errors import GridTooCoarse, SolverFailure
from membranelab.linearized import operator_residual, radial_operator_coeffs
from membranelab.profile import ProfileCurve

from _oracles import M0_LOWEST_05_3, M1_GAP_05_3, M2_GAP_05_3


def test_assemble_validation(sig053):
    with pytest.raises(GridTooCoarse):
        assemble_mode(sig053.curve, 0, 100)
    with pytest.raises(ValueError):
        assemble_mode(sig053.curve, -1, 400)


def test_assemble_structure(sig053):
    for m in (0, 1, 2):
        op = assemble_mode(sig053.curve, m, 400)
        assert op.taus[0] == 0.0
        assert op.taus[-1] == pytest.approx(sig053.curve.ell)
        assert np.all(np.diff(op.taus) > 0)
        assert np.all(op.weights > 0)
        assert op.first == (0 if m == 0 else 1)
        assert op.diag.size == op.offdiag.size + 1 == op.weights.size


def test_m0_first_eigenvalue_negative(sig053, curve26):
    e = eigen_solve(sig053.curve, (0,), 4)[0]
    assert e.eigenvalues[0] < 0
    assert e.eigenvalues[0] == pytest.approx(M0_LOWEST_05_3, abs=1e-4)
    # same structural fact on the (2, -0.6) disc
    assert eigen_solve(curve26, (0,), 2)[0].eigenvalues[0] < 0


def test_m0_no_zero_eigenvalue(sig053):
    e = eigen_solve(sig053.curve, (0,), 6)[0]
    assert np.min(np.abs(e.eigenvalues)) > 0.4


def test_m1_zero_mode_and_eigenfunction(sig053):
    e = eigen_solve(sig053.curve, (1,), 3)[1]
    gap = e.eigenvalues[1] - e.eigenvalues[0]
    assert gap == pytest.approx(M1_GAP_05_3, rel=1e-4)
    assert abs(e.eigenvalues[0]) < 1e-6 * gap
    # only one eigenvalue inside the zero band
    assert np.sum(np.abs(e.eigenvalues) < 1e-6 * gap) == 1
    # eigenfunction equals the vertical velocity sin(phi), weighted-normalized
    r, _, phi = sig053.curve.state_at(e.mesh)
    u_ref = np.sin(phi)
    # weighted norm via trapezoid with weight r on the same mesh
    nrm = math.sqrt(np.trapezoid(u_ref * u_ref * r, e.mesh))
    err = np.max(np.abs(e.eigenfunctions[:, 0] - u_ref / nrm))
    assert err < 1e-4
    # interior positivity: the zero set of the kernel mode is empty
    interior = e.eigenfunctions[1:-1, 0]
    assert np.sum(np.abs(np.diff(np.sign(interior))) > 0) == 0


def test_m2_gap_regression(sig053):
    e = eigen_solve(sig053.curve, (2,), 3)[2]
    assert e.eigenvalues[0] > 0.8  # frozen from the refinement study
    assert e.eigenvalues[0] == pytest.approx(M2_GAP_05_3, abs=1e-6)


def test_mesh_convergence_second_order(sig053):
    vals = [
        eigen_solve(sig053.curve, (0,), 1, n=n)[0].eigenvalues_fine[0]
        for n in (400, 800, 1600)
    ]
    order = math.log2(abs((vals[1] - vals[0]) / (vals[2] - vals[1])))
    assert 1.8 < order < 2.2


def test_discrete_residuals(sig053):
    for m in (0, 1, 2):
        e = eigen_solve(sig053.curve, (m,), 5)[m]
        assert np.max(e.discrete_residuals) < 1e-8


def test_eigenvalue_count_stability(sig053):
    cap = 10.0
    for m in (0, 1, 2):
        counts = []
        for n in (768, 1536):
            e = eigen_solve(sig053.curve, (m,), 8, n=n)[m]
            counts.append(int(np.sum(e.eigenvalues < cap)))
        assert counts[0] == counts[1]


def test_eigenvalue_scaling(sig053):
    # the eigenvalue weight carries z^2, so lambda scales as mu^-4 under
    # (c_o, z_o) -> (c_o/mu, mu z_o)
    mu = 2.0
    scaled = shoot_sigma0(BoundaryCircle(0.5 * mu, -3.0 * mu))
    for m in (0, 1, 2):
        a = eigen_solve(sig053.curve, (m,), 3)[m].eigenvalues
        b = eigen_solve(scaled.curve, (m,), 3)[m].eigenvalues
        keep = np.abs(a) > 1e-3
        assert np.allclose(b[keep] * mu**4, a[keep], rtol=1e-6)


# ------------------------------------------------------------ mode-1 kernel


def test_kernel_residual_m1(curve26, sig053):
    assert kernel_residual_m1(curve26) < 1e-5
    assert kernel_residual_m1(sig053.curve) < 1e-5


def test_kernel_residual_m1_wrong_function(curve26):
    taus = np.linspace(0.02 * curve26.ell, 0.98 * curve26.ell, 1000)
    _, _, phi = curve26.state_at(taus)
    # the radial velocity cos(phi) is not in the mode-1 kernel
    assert operator_residual(curve26, taus, np.cos(phi), mode=1) > 1.0


def test_kernel_residual_m1_scaling(curve26):
    mu = 2.0
    scaled = integrate_profile(ModelParams(2.0 / mu, mu * -0.6), sigma0_stop())
    base = kernel_residual_m1(curve26)
    assert kernel_residual_m1(scaled) == pytest.approx(base / mu**2, rel=0.5)


# ------------------------------------------------------------- certificate


def test_certificate_pass(sig053, lin053):
    cert = certify(sig053, lin053)
    assert cert.verdict == "pass"
    assert cert.conditions == {"i": True, "ii": True, "iii": True}
    assert cert.kernel_dim_even == 1
    assert cert.h_prime_boundary < 0
    assert cert.m1_zero_residual < cert.diagnostics["zero_band"]
    assert cert.m0_gap > 0.4 and cert.m2_gap > 0.8


def test_transversality_floor_follows_the_solve_tolerance(sig053, lin053):
    # 1000x the tolerance h_prime_boundary was solved at: 10x looser, 10x higher
    loose = solve_h(sig053.curve, rtol=1e-12, atol=1e-14)
    floor = certify(sig053, lin053, n=400).diagnostics["transversality_floor"]
    looser = certify(sig053, loose, n=400).diagnostics["transversality_floor"]
    assert looser == pytest.approx(10.0 * floor, rel=1e-9)


def test_certify_needs_the_first_mode_1_gap(sig053, lin053):
    with pytest.raises(ValueError, match="count >= 2"):
        certify(sig053, lin053, count=1, n=400)


def test_certificate_not_applicable():
    params = ModelParams(0.0, -1.0, allow_zero_curvature=True)
    cap = integrate_profile(params, StopCondition.at_arc_length(1.0))
    pseudo = Sigma0Solution(
        params=params,
        curve=cap,
        boundary_phi=float(cap.state_at(cap.ell)[2]),
        match_residual=0.0,
        circle=BoundaryCircle(float(cap.state_at(cap.ell)[0]), -1.0),
    )
    cert = certify(pseudo)
    assert cert.verdict == "not_applicable"
    assert cert.conditions == {"i": False, "ii": False, "iii": False}


def test_certificate_double_resolution(sig053, lin053):
    a = certify(sig053, lin053, n=1024)
    b = certify(sig053, lin053, n=2048)
    assert a.verdict == b.verdict == "pass"
    assert b.m0_gap == pytest.approx(a.m0_gap, rel=0.01)
    assert b.m2_gap == pytest.approx(a.m2_gap, rel=0.01)


def test_certificate_scaling_invariance(sig053, lin053):
    mu = 0.5
    scaled_sig = shoot_sigma0(BoundaryCircle(0.5 * mu, -3.0 * mu))
    scaled_lin = solve_h(scaled_sig.curve)
    a = certify(sig053, lin053)
    b = certify(scaled_sig, scaled_lin)
    assert a.verdict == b.verdict
    assert a.conditions == b.conditions
    assert b.m2_gap == pytest.approx(a.m2_gap / mu**4, rel=1e-6)
    assert b.h_prime_boundary == pytest.approx(mu * a.h_prime_boundary, rel=1e-8)


def test_certificate_condition_i_holds_through_the_fold():
    sig = shoot_sigma0(BoundaryCircle(1.5, -2.0))
    cert = certify(sig, solve_h(sig.curve), n=400)
    assert cert.conditions["i"] and cert.verdict == "pass"
    c0 = sig.params.c_o
    assert cert.fold_c["above"] / c0 - 1.0 == pytest.approx(3.692e-3, abs=2e-6)
    assert cert.fold_c["below"] is None
    assert cert.diagnostics["family_failures"] == []
    assert cert.diagnostics["beyond_fold"] == pytest.approx([1.01 * c0, 1.02 * c0])
    assert cert.diagnostics["family_count"] == 3
    assert cert.disc_tangent[0] >= spectral._MIN_DISC_SLOPE


def test_certificate_names_a_fold_at_the_disc(sig053, lin053, monkeypatch):
    monkeypatch.setattr(spectral, "_MIN_DISC_SLOPE", 0.9)
    cert = certify(sig053, lin053, n=400)
    assert not cert.conditions["i"] and cert.verdict == "fail"
    c, why = cert.diagnostics["family_failures"][0]
    assert c == sig053.params.c_o
    assert why == f"fold at the disc: |t_c| = {cert.disc_tangent[0]:.3e} is below 0.9"


# ------------------------------------------------- one sampling for all modes


def _per_mode_assembly(curve, m, n):
    """Reference: the mode-m pencil from a sampling of its own."""
    taus = spectral._mode_grid(curve, n)
    h = np.diff(taus)
    mids = 0.5 * (taus[:-1] + taus[1:])
    r_m, z_m, _ = curve.state_at(mids)
    p_mid = r_m / (z_m * z_m)
    halves_a = np.concatenate([taus[:-1], mids])
    halves_b = np.concatenate([mids, taus[1:]])
    nodes, wts = gauss_panels(halves_a, halves_b, spectral._GAUSS_PTS)
    r, z, phi = curve.state_at(nodes.ravel())
    _, D = radial_operator_coeffs(r, z, phi, curve.params)
    pot = -r * (D / (z * z))
    if m:
        pot = pot + m * m / (r * z * z)
    pot_int = (pot.reshape(nodes.shape) * wts).sum(axis=1)
    w_int = (r.reshape(nodes.shape) * wts).sum(axis=1)
    Q = np.zeros(n + 1)
    W = np.zeros(n + 1)
    Q[:-1] += pot_int[:n]
    Q[1:] += pot_int[n:]
    W[:-1] += w_int[:n]
    W[1:] += w_int[n:]
    flux = p_mid / h
    diag = np.zeros(n + 1)
    diag[:-1] += flux
    diag[1:] += flux
    diag += Q
    first = 0 if m == 0 else 1
    return spectral.ModeOperator(
        m=m, taus=taus, first=first, diag=diag[first:n],
        offdiag=-flux[first : n - 1], weights=W[first:n],
    )


def _per_mode_eigen(curve, m, count, n):
    """Reference: (eigenvalues, fine, coarse, fine eigenfunctions, residuals).

    The fine pairs are refined from the coarse ones, as ``eigen_solve`` does
    for the counts up to n // 32 that the callers below ask for.
    """
    op_c = _per_mode_assembly(curve, m, n)
    op_f = _per_mode_assembly(curve, m, 2 * n)
    vals_c, funcs_c = spectral._solve_pencil(op_c, count)
    vals_f, funcs = spectral._refine(op_c, vals_c, funcs_c, op_f)
    residuals = spectral._discrete_residual(op_f, vals_f, funcs)
    return (4.0 * vals_f - vals_c) / 3.0, vals_f, vals_c, funcs, residuals


@pytest.fixture(scope="module")
def sig12():
    return shoot_sigma0(BoundaryCircle(1.0, -2.0))


@pytest.mark.parametrize("disc", ["sig053", "sig12"])
def test_shared_sampling_gives_the_per_mode_bits(disc, request):
    sig = request.getfixturevalue(disc)
    curve = sig.curve
    count, n = 6, 400
    for m in (0, 1, 2):
        op, ref_op = assemble_mode(curve, m, n), _per_mode_assembly(curve, m, n)
        for name in ("taus", "diag", "offdiag", "weights"):
            assert np.array_equal(getattr(op, name), getattr(ref_op, name))
        e = eigen_solve(curve, (m,), count, n=n)[m]
        vals, vals_f, vals_c, funcs, residuals = _per_mode_eigen(curve, m, count, n)
        assert np.array_equal(e.eigenvalues, vals)
        assert np.array_equal(e.eigenvalues_fine, vals_f)
        assert np.array_equal(e.eigenvalues_coarse, vals_c)
        assert np.array_equal(e.eigenfunctions[(0 if m == 0 else 1) : -1], funcs)
        assert np.array_equal(e.discrete_residuals, residuals)
    cert = certify(sig, solve_h(curve), count=count, n=n)
    for m in (0, 1, 2):
        vals = _per_mode_eigen(curve, m, count, n)[0]
        assert cert.diagnostics["eigenvalues"][m] == vals.tolist()


def test_certify_samples_the_disc_once_per_mesh(sig053, lin053, monkeypatch):
    points = [0]
    counting = [True]
    state_at = ProfileCurve.state_at
    sweep = spectral.family_sweep

    def counted_state_at(self, tau):
        if counting[0]:
            points[0] += np.size(tau)
        return state_at(self, tau)

    def uncounted_sweep(*args, **kwargs):
        counting[0] = False
        try:
            return sweep(*args, **kwargs)
        finally:
            counting[0] = True

    monkeypatch.setattr(ProfileCurve, "state_at", counted_state_at)
    monkeypatch.setattr(spectral, "family_sweep", uncounted_sweep)
    count, n = 6, 400
    certify(sig053, lin053, count=count, n=n)
    shared = points[0]
    points[0] = 0
    for m in (0, 1, 2):
        eigen_solve(sig053.curve, (m,), count, n=n)[m]
    # n midpoints and 2n Gauss panels of 3 nodes on each of the two meshes
    assert shared == 7 * n + 7 * 2 * n
    assert points[0] == 3 * shared


# ------------------------------------- fine eigenpairs refined from the coarse


def _pencil_pair(curve, m, n):
    return assemble_mode(curve, m, n), assemble_mode(curve, m, 2 * n)


@pytest.mark.parametrize("disc", ["sig053", "sig12"])
@pytest.mark.parametrize("n", [400, 1536])
def test_refine_matches_bisection_on_the_fine_pencil(disc, n, request):
    curve = request.getfixturevalue(disc).curve
    for m in (0, 1, 2):
        op_c, op_f = _pencil_pair(curve, m, n)
        vals_c, funcs_c = spectral._solve_pencil(op_c, 6)
        vals, funcs = spectral._refine(op_c, vals_c, funcs_c, op_f)
        ref_vals, ref_funcs = spectral._solve_pencil(op_f, 6)
        # relative to the largest of the six: mode 1's lowest is rounding
        # away from zero, so it has no relative size of its own
        assert np.max(np.abs(vals - ref_vals)) <= 1e-9 * np.max(np.abs(ref_vals))
        assert np.max(np.abs(funcs - ref_funcs)) <= 1e-8


@pytest.mark.parametrize("dup, lost", [(3, 1), (2, 5), (5, 0)])
def test_refine_refuses_a_duplicated_seed(sig053, dup, lost):
    # seeding pair `lost` with pair `dup` refines the same pair twice: the
    # set is then not B-orthonormal, or its window holds the wrong count
    for m in (0, 1, 2):
        op_c, op_f = _pencil_pair(sig053.curve, m, 400)
        vals_c, funcs_c = spectral._solve_pencil(op_c, 6)
        vals_c[lost], funcs_c[:, lost] = vals_c[dup], funcs_c[:, dup]
        with pytest.raises(SolverFailure, match="refined pairs are not the lowest"):
            spectral._refine(op_c, vals_c, funcs_c, op_f)


def test_counts_above_n_over_32_are_bisected_on_the_fine_mesh(sig053):
    # 12 > 200 // 32, so the fine pencil takes the bisection path
    for m in (0, 1, 2):
        e = eigen_solve(sig053.curve, (m,), 12, n=200)[m]
        vals, funcs = spectral._solve_pencil(assemble_mode(sig053.curve, m, 400), 12)
        assert np.array_equal(e.eigenvalues_fine, vals)
        assert np.array_equal(e.eigenfunctions[(0 if m == 0 else 1) : -1], funcs)


@pytest.mark.parametrize("disc", ["sig053", "sig12"])
def test_three_gauss_nodes_match_twelve(disc, request, monkeypatch):
    curve = request.getfixturevalue(disc).curve
    got = eigen_solve(curve, (0, 1, 2), 6)
    monkeypatch.setattr(spectral, "_GAUSS_PTS", 12)
    ref = eigen_solve(curve, (0, 1, 2), 6)
    for m in (0, 1, 2):
        a, b = got[m].eigenvalues, ref[m].eigenvalues
        # relative to the largest of the six, as above
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))
