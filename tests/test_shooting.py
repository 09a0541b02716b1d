import math
import re

import numpy as np
import pytest

from membranelab import (
    BoundaryCircle,
    ModelParams,
    StopCondition,
    integrate_profile,
    family_sweep,
    shoot_family_member,
    shoot_sigma0,
    solve_h,
)
from membranelab.errors import NoConvergence, NotAdmissible
from membranelab.profile import check_scale
import membranelab.shooting as shooting_mod

from _oracles import MEMBER_ANGLES_05_3, SIGMA0_05_3, polyline_distance


def test_boundary_circle_validation():
    with pytest.raises(ValueError):
        BoundaryCircle(-1.0, -2.0)
    with pytest.raises(ValueError):
        BoundaryCircle(1.0, 2.0)
    for R, Z in [(math.inf, -3.0), (0.5, -math.inf), (math.nan, -3.0), (0.5, math.nan)]:
        with pytest.raises(ValueError, match="finite"):
            BoundaryCircle(R, Z)


def test_sigma0_fig2_circle(sig053):
    assert 1.45 <= sig053.params.c_o <= 1.55
    assert abs(sig053.boundary_phi) < 1e-8
    assert sig053.match_residual < 1e-10
    assert sig053.params.c_o == pytest.approx(SIGMA0_05_3["c_o"], abs=1e-9)
    assert sig053.params.z_o == pytest.approx(SIGMA0_05_3["z_o"], abs=1e-9)
    assert sig053.params.sigma0_admissible


def test_sigma0_unit_circle():
    sig = shoot_sigma0(BoundaryCircle(1.0, -2.0))
    assert abs(sig.boundary_phi) < 1e-8
    assert sig.match_residual < 1e-10
    # re-verify the endpoint independently of the solver at 10x tighter tol
    check = integrate_profile(
        sig.params,
        StopCondition.phi_reaches(0.0),
        rtol=sig.curve.rtol / 10,
        atol=sig.curve.atol / 10,
    )
    r_end, z_end, _ = check.state_at(check.ell)
    assert np.hypot(r_end - 1.0, z_end + 2.0) < 1e-8 * 1.0


def test_sigma0_scaling_equivariance(sig053):
    mu = 2.0
    scaled = shoot_sigma0(BoundaryCircle(0.5 * mu, -3.0 * mu))
    assert scaled.params.c_o == pytest.approx(sig053.params.c_o / mu, abs=1e-8)
    assert scaled.params.z_o == pytest.approx(mu * sig053.params.z_o, abs=1e-8)


def test_sigma0_converges_from_far_seed(circle053, sig053):
    far = ModelParams(20.0, -5.0)
    sig = shoot_sigma0(circle053, seed=far)
    assert sig.params.c_o == pytest.approx(sig053.params.c_o, abs=1e-8)


@pytest.mark.parametrize("seed", [ModelParams(1.0, -0.5), ModelParams(2.0, -0.5)])
def test_sigma0_rejects_a_seed_without_tangential_disc(circle053, seed):
    # c_o z_o >= -1: log(-c_o z_o - 1) is undefined
    with pytest.raises(NotAdmissible, match=re.escape(f"({seed.c_o!r}, {seed.z_o!r})")):
        shoot_sigma0(circle053, seed=seed)


def test_unit_disc_direction_falls_strictly():
    directions = []
    for u in np.linspace(-25.0, 9.0, 40):
        curve = integrate_profile(
            ModelParams(1.0, -1.0 - np.exp(u)),
            StopCondition.phi_reaches(0.0),
            rtol=shooting_mod.SHOOT_RTOL,
            atol=shooting_mod.SHOOT_ATOL,
        )
        r, z, _ = curve.state_at(curve.ell)
        directions.append(np.arctan2(r, -z))
    assert np.all(np.diff(directions) < 0.0)


@pytest.mark.parametrize("seed, budget", [(None, 16), (ModelParams(20.0, -5.0), 24)])
def test_sigma0_integration_budget(circle053, sig053, integrations, seed, budget):
    sig = shoot_sigma0(circle053, seed=seed)
    assert integrations[0] <= budget
    assert sig.params.c_o == pytest.approx(sig053.params.c_o, rel=1e-12)


@pytest.mark.parametrize("mu", [2.0, 0.5])
def test_sigma0_scale_free(sig053, mu):
    scaled = shoot_sigma0(BoundaryCircle(0.5 * mu, -3.0 * mu))
    assert scaled.params.c_o == pytest.approx(sig053.params.c_o / mu, rel=1e-14)
    assert scaled.params.z_o == pytest.approx(mu * sig053.params.z_o, rel=1e-14)


@pytest.mark.parametrize("R, Z", [(2.5, -2.0), (0.05, -1.0)])
def test_sigma0_wide_and_narrow_circles(R, Z):
    circle = BoundaryCircle(R, Z)
    sig = shoot_sigma0(circle)
    assert sig.match_residual < shooting_mod._match_tol(circle)
    assert abs(sig.boundary_phi) < 1e-8


def test_sigma0_failure_names_the_circle():
    with pytest.raises(NoConvergence) as info:
        shoot_sigma0(BoundaryCircle(100.0, -0.01))
    assert "R/|Z| = 10000" in str(info.value)
    assert info.value.trace
    for point, value in info.value.trace:
        assert len(point) == 2 and np.isfinite(value)


def test_member_reproduces_sigma0(circle053, sig053):
    m = shoot_family_member(sig053.params.c_o, circle053, sig053)
    assert abs(m.contact_angle) < 1e-6
    assert m.match_residual < 1e-10
    assert m.z_o == pytest.approx(sig053.params.z_o, abs=1e-8)


@pytest.mark.parametrize("c", sorted(MEMBER_ANGLES_05_3))
def test_member_angles_match_continuation_oracle(c, circle053, sig053):
    m = shoot_family_member(c, circle053, sig053)
    assert m.contact_angle == pytest.approx(MEMBER_ANGLES_05_3[c], abs=1e-8)


def test_member_small_step_continuity(circle053, sig053, lin053):
    d = 1e-6
    m = shoot_family_member(sig053.params.c_o + d, circle053, sig053)
    # contact angle responds with slope -h_prime_boundary, the apex with h(0)
    assert m.contact_angle == pytest.approx(-lin053.h_prime_boundary * d, rel=1e-3)
    assert m.z_o - sig053.params.z_o == pytest.approx(
        float(lin053.h_at(0.0)) * d, rel=1e-3
    )


def test_member_first_passage(circle053, sig053):
    m = shoot_family_member(1.8, circle053, sig053)
    taus = np.linspace(0.0, m.curve.ell * (1.0 - 1e-6), 4000)
    r, z, _ = m.curve.state_at(taus)
    d2 = (r - circle053.R) ** 2 + (z - circle053.Z) ** 2
    interior_min = np.min(d2[:-50])
    # no earlier passage: the distance stays bounded away from zero until
    # the terminal match point
    assert np.sqrt(interior_min) > 1e-4 * circle053.R


def test_sweep_13_members(circle053, sig053):
    sw = family_sweep(circle053, 1.2, 1.8, 13, sigma0=sig053)
    assert len(sw.members) == 13 and not sw.failures
    angles = np.array([m.contact_angle for m in sw.members])
    cs = np.array([m.c for m in sw.members])
    assert np.all(np.diff(cs) > 0)
    assert np.all(np.diff(angles) > 0)
    assert np.sum(np.diff(np.sign(angles)) != 0) == 1
    assert not any(m.left_admissible_region for m in sw.members)
    for m in sw.members:
        check = integrate_profile(
            ModelParams(m.c, m.z_o),
            StopCondition.at_arc_length(m.curve.ell),
            rtol=m.curve.rtol / 10,
            atol=m.curve.atol / 10,
        )
        r_end, z_end, _ = check.state_at(check.ell)
        assert np.hypot(r_end - circle053.R, z_end - circle053.Z) < 1e-8 * circle053.R


def test_sweep_refinement_interleaves(circle053, sig053):
    coarse = family_sweep(circle053, 1.2, 1.8, 13, sigma0=sig053)
    fine = family_sweep(circle053, 1.2, 1.8, 25, sigma0=sig053)
    fine_by_c = {round(m.c, 12): m for m in fine.members}
    matched = 0
    for m in coarse.members:
        key = round(m.c, 12)
        if key in fine_by_c:
            assert fine_by_c[key].z_o == pytest.approx(m.z_o, abs=1e-8)
            assert fine_by_c[key].contact_angle == pytest.approx(
                m.contact_angle, abs=1e-8
            )
            matched += 1
    assert matched == 13  # the coarse grid is a subset of the fine grid

    def max_consecutive_distance(members):
        worst = 0.0
        for a, b in zip(members[:-1], members[1:]):
            ta = np.linspace(0.0, a.curve.ell, 300)
            ra, za, _ = a.curve.state_at(ta)
            tb = np.linspace(0.0, b.curve.ell, 900)
            rb, zb, _ = b.curve.state_at(tb)
            worst = max(worst, float(polyline_distance(ra, za, rb, zb).max()))
        return worst

    d_coarse = max_consecutive_distance(coarse.members)
    d_fine = max_consecutive_distance(fine.members)
    # observed order >= 1 in the grid spacing
    assert d_fine < 0.7 * d_coarse


def test_sweep_range_must_bracket(circle053, sig053):
    with pytest.raises(ValueError):
        family_sweep(circle053, 1.6, 1.8, 5, sigma0=sig053)


def test_sweep_collapsed_range_returns_sigma0(circle053, sig053):
    c0 = sig053.params.c_o
    sw = family_sweep(circle053, c0, c0, 1, sigma0=sig053)
    assert len(sw.members) == 1
    assert abs(sw.members[0].contact_angle) < 1e-6


def test_sweep_records_partial_failures(circle053, sig053, monkeypatch):
    real = shooting_mod.shoot_family_member

    def flaky(c, circle, seed, **kw):
        if abs(c - 1.25) < 1e-9:
            raise NoConvergence("synthetic failure")
        return real(c, circle, seed, **kw)

    monkeypatch.setattr(shooting_mod, "shoot_family_member", flaky)
    sw = shooting_mod.family_sweep(circle053, 1.2, 1.8, 13, sigma0=sig053)
    assert len(sw.failures) == 1 and abs(sw.failures[0][0] - 1.25) < 1e-9
    assert len(sw.members) == 12


@pytest.fixture
def integrations(monkeypatch):
    """Counter of the profile integrations that the shooting layer runs."""
    count = [0]
    real = shooting_mod.integrate_profile

    def counting(*args, **kw):
        count[0] += 1
        return real(*args, **kw)

    monkeypatch.setattr(shooting_mod, "integrate_profile", counting)
    return count


def test_member_returns_the_curve_of_its_last_residual(circle053, sig053,
                                                       integrations):
    m = shoot_family_member(sig053.params.c_o, circle053, sig053)
    assert integrations[0] == 1
    r, z, phi = m.curve.state_at(m.curve.ell)
    assert max(abs(r - circle053.R), abs(z - circle053.Z)) < 1e-10
    assert phi == pytest.approx(m.contact_angle, abs=1e-12)


def test_sweep_integration_budget(circle053, sig053, integrations):
    c0 = sig053.params.c_o
    sw = shooting_mod.family_sweep(circle053, 0.98 * c0, 1.02 * c0, 5, sigma0=sig053)
    assert len(sw.members) == 5 and not sw.failures
    assert integrations[0] <= 29


def test_member_stall_message_and_trace(circle053, sig053):
    # c = 0.6 lies past the fold below the disc, where no member exists
    with pytest.raises(NoConvergence) as info:
        shoot_family_member(0.6, circle053, sig053)
    message = str(info.value)
    assert message.startswith("c = 0.6 lies beyond the fold of the family below ")
    c_star = float(re.search(r"c\* = ([0-9.]+)", message).group(1))
    assert c_star == pytest.approx(1.184991, abs=2e-6)
    assert info.value.trace
    for point, norm in info.value.trace:
        c, z_o, length = point
        assert c > 0.0 and z_o < 0.0 < length and norm > 0.0


@pytest.mark.parametrize("c", [math.inf, math.nan, -1.0, 0.0])
def test_member_curvature_must_be_finite_and_positive(c, circle053, sig053,
                                                      integrations):
    with pytest.raises(ValueError, match="finite and positive"):
        shoot_family_member(c, circle053, sig053)
    assert integrations[0] == 0


@pytest.mark.parametrize(
    "c_min, c_max, n, message",
    [(1.2, 1.8, 0, "n >= 1"), (1.2, math.inf, 3, "finite c_min and c_max")],
)
def test_sweep_rejects_its_range_before_integrating(circle053, integrations,
                                                    c_min, c_max, n, message):
    with pytest.raises(ValueError, match=message):
        family_sweep(circle053, c_min, c_max, n)
    assert integrations[0] == 0


def test_sweep_integration_budget_over_the_fig2_range(circle053, sig053,
                                                      integrations):
    # one landing per member: the walk covers only gaps too long to land
    sw = shooting_mod.family_sweep(circle053, 1.2, 1.8, 13, sigma0=sig053)
    assert len(sw.members) == 13 and not sw.failures
    assert integrations[0] <= 50


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (1.0, -2.0)])
def test_member_jacobian_is_the_z_o_derivative(R, Z):
    circle = BoundaryCircle(R, Z)
    sig = shoot_sigma0(circle)
    x = np.array([sig.params.c_o, sig.params.z_o, sig.curve.ell])
    _, aux = shooting_mod._residual(circle, [0], x)
    column = shooting_mod._endpoint_jacobian(*aux)[:, 1]
    step = np.array([0.0, 1e-5 * abs(x[1]), 0.0])
    ends = [shooting_mod._residual(circle, [0], x + d)[0] for d in (step, -step)]
    central = (ends[0] - ends[1]) / (2.0 * step[1])
    assert np.max(np.abs(column - central)) < 1e-7 * np.max(np.abs(column))


def test_landing_keeps_the_requested_c_bit_for_bit(circle053, sig053):
    c = 1.01 * sig053.params.c_o
    trace = []
    m = shooting_mod._land(circle053, [0], trace, sig053, c)
    assert m.c == c
    assert len(trace) > 1 and all(point[0] == c for point, _ in trace)


@pytest.mark.parametrize("ds", [0.05, -0.02])
@pytest.mark.parametrize("bend", [None, np.ones(3)])
def test_arclength_step_lands_on_its_plane(circle053, sig053, ds, bend):
    base = shoot_family_member(sig053.params.c_o, circle053, sig053)
    scale = np.abs(shooting_mod._state(base))
    t = shooting_mod._tangent(base.jacobian, scale)
    point, _ = shooting_mod._arc_step(circle053, [0], base, t, scale, ds, [], bend)
    dy = (shooting_mod._state(point) - shooting_mod._state(base)) / scale
    assert abs(t @ dy - ds) <= 1e-13
    assert point.match_residual < shooting_mod._match_tol(circle053)


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (1.0, -2.0)])
def test_z_o_variation_along_the_disc_is_the_kernel(R, Z):
    sig = shoot_sigma0(BoundaryCircle(R, Z))
    curve = integrate_profile(
        sig.params,
        StopCondition.phi_reaches(0.0),
        rtol=shooting_mod.SHOOT_RTOL,
        atol=shooting_mod.SHOOT_ATOL,
        z_o_variation=True,
    )
    kernel = solve_h(sig.curve).kernel
    taus = curve.taus
    dr, dz, _ = curve.variation_at(taus)
    _, _, phi = curve.state_at(taus)
    # normal projection on (sin phi, -cos phi); it starts at 1 on the axis
    normal = dr * np.sin(phi) - dz * np.cos(phi)
    assert abs(normal[-1] - kernel.raw_boundary_value) < 1e-9
    assert np.max(np.abs(normal / normal[-1] - kernel.psi_at(taus))) < 1e-9


def test_sweep_returns_every_grid_point_at_the_start_curvature(circle053, sig053):
    c0 = sig053.params.c_o
    sw = family_sweep(circle053, c0, c0, 3, sigma0=sig053)
    assert len(sw.members) + len(sw.failures) == 3
    assert [m.c for m in sw.members] == [c0, c0, c0]


def test_sweep_integration_budget_exact_jacobian(circle053, sig053, integrations):
    c0 = sig053.params.c_o
    sw = shooting_mod.family_sweep(circle053, 0.98 * c0, 1.02 * c0, 5, sigma0=sig053)
    assert len(sw.members) == 5 and not sw.failures
    assert integrations[0] <= 17


def test_member_failure_names_curvature_and_work(circle053, sig053, integrations):
    with pytest.raises(NoConvergence) as info:
        shoot_family_member(0.6, circle053, sig053)
    match = re.search(r" \(c = ([^,]+), (\d+) integrations done\)$", str(info.value))
    assert match
    assert 0.6 <= float(match.group(1)) < sig053.params.c_o
    assert int(match.group(2)) == integrations[0]


@pytest.mark.parametrize("mu", [1e-3, 0.3, 1.0, 7.0, 1e3])
def test_deepest_unit_disc_scales_inside_the_profile_bound(mu):
    t = -1.0 - math.exp(shooting_mod._U_MAX)
    check_scale(ModelParams(1.0, t))
    check_scale(ModelParams(1.0 / mu, mu * t))


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (1.0, -2.0)])
def test_member_jacobian_is_the_c_derivative(R, Z):
    circle = BoundaryCircle(R, Z)
    sig = shoot_sigma0(circle)
    x = np.array([sig.params.c_o, sig.params.z_o, sig.curve.ell])
    _, aux = shooting_mod._residual(circle, [0], x)
    column = shooting_mod._endpoint_jacobian(*aux)[:, 0]
    step = np.array([1e-5 * x[0], 0.0, 0.0])
    ends = [shooting_mod._residual(circle, [0], x + d)[0] for d in (step, -step)]
    central = (ends[0] - ends[1]) / (2.0 * step[0])
    assert np.max(np.abs(column - central)) < 1e-7 * np.max(np.abs(column))


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (1.5, -2.0)])
def test_disc_tangent_slope_is_h_on_the_axis(R, Z):
    # along the family, dz_o/dc at the disc is the response h at the axis
    sig = shoot_sigma0(BoundaryCircle(R, Z))
    c0 = sig.params.c_o
    t = family_sweep(sig.circle, c0, c0, 1, sigma0=sig).tangent
    assert t[0] > 0.0 and np.linalg.norm(t) == pytest.approx(1.0, rel=1e-14)
    slope = t[1] * abs(sig.params.z_o) / (t[0] * c0)
    assert slope == pytest.approx(float(solve_h(sig.curve).h_at(0.0)), rel=1e-6)


@pytest.mark.parametrize(
    "R, Z, fold",
    [(1.5, -2.0, 3.692e-3), (2.5, -2.0, 3.72e-4), (2.0, -1.5, 2.84e-4)],
)
def test_sweep_locates_the_fold_above_the_disc(R, Z, fold):
    sig = shoot_sigma0(BoundaryCircle(R, Z))
    c0 = sig.params.c_o
    sw = family_sweep(sig.circle, 0.98 * c0, 1.02 * c0, 5, sigma0=sig)
    assert sw.folds["above"] / c0 - 1.0 == pytest.approx(fold, abs=2e-6)
    assert sw.folds["below"] is None
    # the members above the fold are recorded, not attempted
    assert [m.c for m in sw.members] == pytest.approx([0.98 * c0, 0.99 * c0, c0])
    assert [c for c, _ in sw.failures] == pytest.approx([1.01 * c0, 1.02 * c0])
    for c, why in sw.failures:
        assert why == f"beyond fold c* = {sw.folds['above']:.10g}"
        assert sw.beyond_fold(c, c0)


def test_sweep_finds_no_fold_in_the_window_of_a_narrow_circle(circle053, sig053):
    c0 = sig053.params.c_o
    sw = family_sweep(circle053, 0.98 * c0, 1.02 * c0, 5, sigma0=sig053)
    assert sw.folds == {"above": None, "below": None}
    assert len(sw.members) == 5 and not sw.failures


@pytest.mark.parametrize("mu", [0.25, 3.0])
def test_fold_is_scale_invariant(mu):
    folds = []
    for scale in (1.0, mu):
        sig = shoot_sigma0(BoundaryCircle(1.5 * scale, -2.0 * scale))
        c0 = sig.params.c_o
        sw = family_sweep(sig.circle, 0.98 * c0, 1.02 * c0, 5, sigma0=sig)
        folds.append((sw.folds["above"], c0))
    (fold, c0), (fold_mu, c0_mu) = folds
    assert fold_mu / c0_mu == pytest.approx(fold / c0, rel=1e-9)
    assert fold_mu == pytest.approx(fold / mu, rel=1e-9)


@pytest.mark.parametrize("R, Z, budget", [(0.5, -3.0, 13), (1.5, -2.0, 20)])
def test_sweep_integration_budget_through_folds(R, Z, budget, integrations):
    sig = shoot_sigma0(BoundaryCircle(R, Z))
    c0 = sig.params.c_o
    integrations[0] = 0
    sw = shooting_mod.family_sweep(sig.circle, 0.98 * c0, 1.02 * c0, 5, sigma0=sig)
    assert len(sw.members) + len(sw.failures) == 5
    assert integrations[0] <= budget


def test_sweep_walks_a_long_gap_to_the_fold():
    # one requested c at +70 %: the landing from the disc is too long, so
    # the sweep walks, and finds the fold at +2.84e-4 instead of stalling
    sig = shoot_sigma0(BoundaryCircle(2.0, -1.5))
    c0 = sig.params.c_o
    sw = family_sweep(sig.circle, c0, 1.7 * c0, 2, sigma0=sig)
    assert sw.folds["above"] / c0 - 1.0 == pytest.approx(2.84e-4, abs=2e-6)
    assert len(sw.members) == 1 and sw.members[0].c == c0
    assert sw.failures == [(1.7 * c0, f"beyond fold c* = {sw.folds['above']:.10g}")]


def test_fold_secant_budget_exhausted_names_the_bracket(monkeypatch):
    # with no secant point close enough to the fold, the sweep reports the
    # fold's bracket as a failure instead of an imprecise c*
    monkeypatch.setattr(shooting_mod, "_MAX_FOLD_SECANTS", 1)
    monkeypatch.setattr(shooting_mod, "_FOLD_SLOPE", 0.0)
    sig = shoot_sigma0(BoundaryCircle(1.5, -2.0))
    c0 = sig.params.c_o
    sw = family_sweep(sig.circle, 0.98 * c0, 1.02 * c0, 5, sigma0=sig)
    assert sw.folds["above"] is None
    assert [c for c, _ in sw.failures] == pytest.approx([1.01 * c0, 1.02 * c0])
    for _, why in sw.failures:
        assert why.startswith("fold between c = ")
        assert "not located: |t_c| = " in why and "after 1 secant points" in why


def test_failed_fold_walk_is_not_repeated(monkeypatch):
    # c0 (1 + 2 %) lies past the bracket the walk toward c0 (1 + 1 %) failed
    # to locate; it is recorded with that walk's message, and nothing is
    # integrated for it between that failure and the sweep's other side
    monkeypatch.setattr(shooting_mod, "_MAX_FOLD_SECANTS", 1)
    monkeypatch.setattr(shooting_mod, "_FOLD_SLOPE", 0.0)
    integrate, walk = shooting_mod.integrate_profile, shooting_mod._walk
    member = shooting_mod.shoot_family_member
    calls = [0]
    at_walk_failure, at_below = [], []

    def counted(*args, **kwargs):
        calls[0] += 1
        return integrate(*args, **kwargs)

    def walked(*args):
        try:
            return walk(*args)
        except NoConvergence:
            at_walk_failure.append(calls[0])
            raise

    def landed(c, circle, seed, **kwargs):
        if c < c0 and not at_below:
            at_below.append(calls[0])
        return member(c, circle, seed, **kwargs)

    sig = shoot_sigma0(BoundaryCircle(1.5, -2.0))
    c0 = sig.params.c_o
    monkeypatch.setattr(shooting_mod, "integrate_profile", counted)
    monkeypatch.setattr(shooting_mod, "_walk", walked)
    monkeypatch.setattr(shooting_mod, "shoot_family_member", landed)
    sw = family_sweep(sig.circle, 0.98 * c0, 1.02 * c0, 5, sigma0=sig)
    (c1, why1), (c2, why2) = sw.failures
    assert (c1, c2) == pytest.approx([1.01 * c0, 1.02 * c0])
    assert why1.startswith("fold between c = ") and why2 == why1
    assert len(at_walk_failure) == 1
    assert at_below == at_walk_failure
    assert [m.c for m in sw.members] == pytest.approx([0.98 * c0, 0.99 * c0, c0])


def test_fold_secant_retries_a_failed_corrector_at_the_midpoint(monkeypatch):
    arc_step, locate_fold = shooting_mod._arc_step, shooting_mod._locate_fold
    failed = []

    def locate(*args):
        failed.append(False)
        return locate_fold(*args)

    def flaky(*args, **kwargs):
        if failed == [False]:
            failed[0] = True
            raise NoConvergence("arclength damping stalled", [])
        return arc_step(*args, **kwargs)

    monkeypatch.setattr(shooting_mod, "_locate_fold", locate)
    monkeypatch.setattr(shooting_mod, "_arc_step", flaky)
    sig = shoot_sigma0(BoundaryCircle(1.5, -2.0))
    c0 = sig.params.c_o
    sw = family_sweep(sig.circle, 0.98 * c0, 1.02 * c0, 5, sigma0=sig)
    assert failed == [True]
    assert sw.folds["above"] / c0 - 1.0 == pytest.approx(3.692e-3, abs=2e-6)
