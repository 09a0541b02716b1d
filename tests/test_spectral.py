import dataclasses
import itertools
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
    family_sweep,
    integrate_profile,
    kernel_residual_m1,
    shoot_sigma0,
    sigma0_stop,
    solve_h,
    StopCondition,
)
import membranelab.profile as profile_mod
import membranelab.shooting as shooting_mod
import membranelab.spectral as spectral
from membranelab.errors import GridTooCoarse, SolverFailure
from membranelab.linearized import operator_residual
from membranelab.profile import ProfileCurve

from _oracles import M0_LOWEST_05_3, M1_GAP_05_3, M2_GAP_05_3


def test_assemble_validation(sig053):
    with pytest.raises(GridTooCoarse):
        assemble_mode(sig053.curve, 0, 100)
    with pytest.raises(ValueError):
        assemble_mode(sig053.curve, -1, 400)


def test_assemble_structure(sig053):
    ell = sig053.curve.ell
    for m in (0, 1, 2):
        for n in (61, 91):
            level = spectral._sample(sig053.curve, n)
            assert level.n == n and n % 2 == 1
            # the nodes tau > 0 of the grid, from the boundary: none on the axis
            assert level.taus.size == (n + 1) // 2
            assert level.taus[0] == ell
            assert np.all((level.taus > 0.0) & (level.taus <= ell))
            assert np.all(np.diff(level.taus) < 0)
            assert assemble_mode(sig053.curve, m, n).shape == ((n - 1) // 2,) * 2


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


def test_collocation_converges_spectrally(sig053, sig12):
    # against degree 205, the error of the six lowest eigenvalues falls at
    # least tenfold per degree 41, 61, 91 until it meets the rounding plateau
    # (measured at <= 5e-12 of the largest)
    plateau = 1e-11

    def lowest(curve, m, n):
        return np.sort(np.linalg.eigvals(assemble_mode(curve, m, n)).real)[:6]

    for curve, m in itertools.product((sig053.curve, sig12.curve), (0, 1, 2)):
        ref = lowest(curve, m, 205)
        errors = [
            np.max(np.abs(lowest(curve, m, n) - ref)) / np.max(np.abs(ref))
            for n in (41, 61, 91)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= max(coarse / 10.0, plateau)
        assert errors[-1] <= plateau


def test_discrete_residuals(sig053):
    for m in (0, 1, 2):
        e = eigen_solve(sig053.curve, (m,), 5)[m]
        assert np.max(e.discrete_residuals) < 1e-8


def test_eigenvalue_count_stability(sig053, monkeypatch):
    cap = 10.0
    counts = []
    for first in (spectral._FIRST_DEGREE, 121):
        monkeypatch.setattr(spectral, "_FIRST_DEGREE", first)
        eigs = eigen_solve(sig053.curve, (0, 1, 2), 8)
        assert all(e.level.n >= first for e in eigs.values())
        counts.append([int(np.sum(e.eigenvalues < cap)) for e in eigs.values()])
    assert counts[0] == counts[1]


def test_one_pair_of_mode_1(sig053):
    # the lowest mode-1 eigenvalue is the translation zero, rounding alone;
    # the degrees are compared on the lowest six, as for count 6
    one = eigen_solve(sig053.curve, (1,), 1)[1]
    six = eigen_solve(sig053.curve, (1,), 6)[1]
    assert one.level.n == six.level.n
    assert np.array_equal(one.eigenvalues, six.eigenvalues[:1])
    # the same vector, normalized in a product of another width
    assert np.max(np.abs(one.eigenfunctions[:, 0] - six.eigenfunctions[:, 0])) < 1e-12


def test_counts_beyond_the_first_degree(sig053):
    # 40 pairs start at degree 6 * 40 + 1, past the 30 unknowns of degree 61
    many = eigen_solve(sig053.curve, (0, 1, 2), 40)
    six = eigen_solve(sig053.curve, (0, 1, 2), 6)
    for m in (0, 1, 2):
        assert many[m].eigenvalues.size == 40 and many[m].level.n > 241
        assert np.all(np.diff(many[m].eigenvalues) > 0)
        lowest = six[m].eigenvalues
        assert np.max(np.abs(many[m].eigenvalues[:6] - lowest)) <= (
            1e-9 * np.max(np.abs(lowest))
        )
    top = spectral._MAX_COUNT
    assert spectral._MAX_DEGREE >= int(1.5 * (6 * top + 1)) | 1
    with pytest.raises(ValueError, match=rf"\[1, {top}\]"):
        eigen_solve(sig053.curve, (0,), top + 1)


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


def _certificate(R, Z):
    sig = shoot_sigma0(BoundaryCircle(R, Z))
    return certify(sig, solve_h(sig.curve))


def test_certificate_pass_on_a_wide_circle():
    # R/|Z| = 3: a family corrector iterate rebuilt from its plane lay one ulp
    # past the end of the curve its residual came from, and the endpoint
    # Jacobian read there raised OutOfRange
    cert = _certificate(3.0, -1.0)
    assert cert.verdict == "pass"
    assert cert.conditions == {"i": True, "ii": True, "iii": True}
    # c* as the profile integrations of the 6-row variational system found it
    assert cert.fold_c["above"] == pytest.approx(2.503931383225467, rel=1e-9)


def test_certificate_pass_on_a_wider_circle():
    # R/|Z| = 3.5: the collocation's rounding floor is about 1e-11 of the
    # circle's scale, and its degree rises to 137
    cert = _certificate(3.5, -1.0)
    assert cert.verdict == "pass"
    assert cert.conditions == {"i": True, "ii": True, "iii": True}
    assert cert.fold_c["above"] == pytest.approx(2.491019539553439, rel=1e-9)


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (1.0, -2.0), (1.5, -2.0), (2.0, -1.5)])
def test_contact_angle_slope_is_minus_h_prime(R, Z):
    # condition (iii) in crossing form (Crandall and Rabinowitz 1971): sin phi
    # solves mode 1 at lambda = 0 on every member, and dphi(L)/dc along the
    # family at the disc is -h'
    sig = shoot_sigma0(BoundaryCircle(R, Z))
    cert = certify(sig, solve_h(sig.curve))
    assert -cert.contact_angle_slope == pytest.approx(cert.h_prime_boundary, rel=1e-9)
    # negative control: without the phi row's c-entry the slope misses h'
    c0 = sig.params.c_o
    sweep = family_sweep(sig.circle, c0, c0, 1, sigma0=sig)
    disc = sweep.members[0]
    scale = np.abs(shooting_mod._state(disc))
    J = disc.jacobian.copy()
    assert shooting_mod._angle_slope(J, sweep.tangent, scale) == cert.contact_angle_slope
    J[2, 0] = 0.0
    slope = shooting_mod._angle_slope(J, sweep.tangent, scale)
    assert -slope != pytest.approx(cert.h_prime_boundary, rel=1e-9)


def test_certify_integrates_no_family_member(monkeypatch):
    # the members are collocated; only the disc is integrated, before certify
    sig = shoot_sigma0(BoundaryCircle(1.5, -2.0))
    lin = solve_h(sig.curve)
    calls = []
    real = profile_mod.integrate_profile

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (profile_mod, shooting_mod):
        monkeypatch.setattr(module, "integrate_profile", counted)
    cert = certify(sig, lin)
    assert cert.verdict == "pass" and cert.diagnostics["family_count"] == 3
    assert calls == []


def test_certificate_does_not_depend_on_call_history():
    # every member's collocation starts from the member or disc it is
    # continued from, never from state an earlier call left behind
    shooting_mod._grid.cache_clear()
    alone = _certificate(1.5, -2.0)
    for R, Z in [(0.5, -3.0), (1.0, -2.0), (2.0, -1.5), (0.05, -1.0), (2.5, -2.0)]:
        _certificate(R, Z)
    again = _certificate(1.5, -2.0)
    assert repr(dataclasses.asdict(again)) == repr(dataclasses.asdict(alone))


def test_transversality_floor_follows_the_solve_tolerance(sig053, lin053):
    # 1000x the tolerance of the curve h_prime_boundary was solved on: 10x
    # looser, 10x higher
    assert (lin053.rtol, lin053.atol) == (sig053.curve.rtol, sig053.curve.atol)
    loose = dataclasses.replace(lin053, rtol=10.0 * lin053.rtol, atol=10.0 * lin053.atol)
    floor = certify(sig053, lin053).diagnostics["transversality_floor"]
    looser = certify(sig053, loose).diagnostics["transversality_floor"]
    assert looser == pytest.approx(10.0 * floor, rel=1e-9)


def test_certify_needs_the_first_mode_1_gap(sig053, lin053):
    with pytest.raises(ValueError, match="count >= 2"):
        certify(sig053, lin053, count=1)


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


def test_certificate_double_resolution(sig053, lin053, monkeypatch):
    a = certify(sig053, lin053)
    monkeypatch.setattr(spectral, "_FIRST_DEGREE", 121)
    b = certify(sig053, lin053)
    assert a.diagnostics["collocation_nodes"] == {0: 91, 1: 91, 2: 91}
    assert b.diagnostics["collocation_nodes"] == {0: 181, 1: 181, 2: 181}
    assert a.verdict == b.verdict == "pass"
    assert b.m0_gap == pytest.approx(a.m0_gap, rel=1e-8)
    assert b.m2_gap == pytest.approx(a.m2_gap, rel=1e-8)


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
    cert = certify(sig, solve_h(sig.curve))
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
    cert = certify(sig053, lin053)
    assert not cert.conditions["i"] and cert.verdict == "fail"
    c, why = cert.diagnostics["family_failures"][0]
    assert c == sig053.params.c_o
    assert why == f"fold at the disc: |t_c| = {cert.disc_tangent[0]:.3e} is below 0.9"


# ------------------------------------------------- one sampling for all modes


@pytest.fixture(scope="module")
def sig12():
    return shoot_sigma0(BoundaryCircle(1.0, -2.0))


@pytest.mark.parametrize("disc", ["sig053", "sig12"])
def test_shared_sampling_gives_the_per_mode_bits(disc, request):
    sig = request.getfixturevalue(disc)
    curve = sig.curve
    count = 6
    joint = eigen_solve(curve, (0, 1, 2), count)
    for m in (0, 1, 2):
        shared = assemble_mode(spectral._sample(curve, 91), m, 91)
        assert np.array_equal(assemble_mode(curve, m, 91), shared)
        alone = eigen_solve(curve, (m,), count)[m]
        assert joint[m].level.n == alone.level.n
        assert np.array_equal(joint[m].matrix, alone.matrix)
        for name in ("eigenvalues", "eigenvalues_coarse", "mesh", "eigenfunctions",
                     "discrete_residuals"):
            assert np.array_equal(getattr(joint[m], name), getattr(alone, name))
    cert = certify(sig, solve_h(curve), count=count)
    for m in (0, 1, 2):
        assert cert.diagnostics["eigenvalues"][m] == joint[m].eigenvalues.tolist()


def _degrees(top):
    """The self-convergence degrees from the first up to ``top``."""
    degrees = [spectral._FIRST_DEGREE]
    while degrees[-1] < top:
        degrees.append(int(1.5 * degrees[-1]) | 1)
    return degrees


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
    count = 6
    nodes = certify(sig053, lin053, count=count).diagnostics["collocation_nodes"]
    shared = points[0]
    points[0] = 0
    for m in (0, 1, 2):
        eigen_solve(sig053.curve, (m,), count)[m]
    # the (N + 1)/2 nodes tau > 0 of each degree N, sampled once per call
    assert shared == sum((n + 1) // 2 for n in _degrees(max(nodes.values())))
    assert points[0] == sum(
        (n + 1) // 2 for top in nodes.values() for n in _degrees(top)
    )


# ------------------------------------------------------- failure of the solve


def test_eigen_solve_raises_when_no_two_degrees_agree(sig053, monkeypatch):
    # the disc needs degree 91; a cap at the first degree leaves no pair
    monkeypatch.setattr(spectral, "_MAX_DEGREE", spectral._FIRST_DEGREE)
    with pytest.raises(SolverFailure, match="no two collocation degrees up to 61"):
        eigen_solve(sig053.curve, (0, 1, 2), 6)
    # a tighter agreement than the rounding plateau is never met
    monkeypatch.setattr(spectral, "_MAX_DEGREE", 137)
    monkeypatch.setattr(spectral, "_AGREE", 1e-18)
    with pytest.raises(SolverFailure, match="the last two moved by"):
        eigen_solve(sig053.curve, (1,), 6)
