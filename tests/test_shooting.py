import math
import re
from dataclasses import replace

import numpy as np
import pytest

from membranelab import (
    BoundaryCircle,
    FamilyMember,
    ModelParams,
    StopCondition,
    integrate_profile,
    family_sweep,
    shoot_family_member,
    shoot_sigma0,
    solve_h,
)
from membranelab.errors import IncompleteEvidence, NoConvergence, NotAdmissible
from membranelab.profile import check_scale
from membranelab import chebyshev
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


@pytest.mark.parametrize(
    "seed, budget, collocation_budget", [(None, 2, 6), (ModelParams(20.0, -5.0), 2, 9)]
)
def test_sigma0_integration_budget(circle053, sig053, integrations, collocations,
                                   factorizations, seed, budget, collocation_budget):
    # one integration starts the collocated Newton, which factors one matrix
    # per iterate, and the collocation is the disc: as many LUs as
    # collocations, 6 and 9 measured
    sig = shoot_sigma0(circle053, seed=seed)
    assert integrations[0] == 1
    assert integrations[0] <= budget
    assert collocations[0] <= collocation_budget
    assert factorizations[0] <= collocation_budget
    assert sig.params.c_o == pytest.approx(sig053.params.c_o, rel=1e-12)


@pytest.mark.parametrize("mu", [2.0, 0.5])
def test_sigma0_scale_free(sig053, mu):
    scaled = shoot_sigma0(BoundaryCircle(0.5 * mu, -3.0 * mu))
    assert scaled.params.c_o == pytest.approx(sig053.params.c_o / mu, rel=1e-14)
    assert scaled.params.z_o == pytest.approx(mu * sig053.params.z_o, rel=1e-14)


@pytest.mark.parametrize(
    "R, Z", [(2.5, -2.0), (0.05, -1.0), (1e-5, -1.0), (1.3e-6, -1.0)]
)
def test_sigma0_wide_and_narrow_circles(R, Z):
    circle = BoundaryCircle(R, Z)
    sig = shoot_sigma0(circle)
    assert sig.match_residual < shooting_mod._match_tol(circle)
    assert abs(sig.boundary_phi) < 1e-8
    # relative in each coordinate, which _match_tol is not: the narrowest
    # disc ends 1.6e-14 R from the circle
    r, z, _ = sig.curve.state_at(sig.curve.ell)
    assert abs(r - R) <= 1e-12 * R
    assert abs(z - Z) <= 1e-12 * abs(Z)


def _against_dop853(sig):
    """DOP853 at the disc's (c_o, z_o), rtol 1e-13 and atol 1e-15, to phi =
    0: how far its end misses the circle, and its largest distance from the
    collocated curve on [0, L], both relative to max(R, |Z|, 1).  At the
    shooting tolerances DOP853 itself misses by up to 1.4e-10 past R/|Z| =
    4, so it could not tell a good disc from a bad one there."""
    circle = sig.circle
    scale = max(circle.R, abs(circle.Z), 1.0)
    curve = integrate_profile(
        sig.params, StopCondition.phi_reaches(0.0), rtol=1e-13, atol=1e-15
    )
    r, z, _ = curve.state_at(curve.ell)
    taus = np.linspace(0.0, sig.curve.ell, 400)
    ours = np.array(sig.curve.state_at(taus))
    theirs = np.array(curve.state_at(np.minimum(taus, curve.ell)))
    miss = max(abs(r - circle.R), abs(z - circle.Z))
    return miss / scale, float(np.max(np.abs(ours - theirs))) / scale


@pytest.mark.parametrize("R", [3.6, 3.8, 4.0])
def test_sigma0_matches_past_the_old_wide_edge(R):
    # the bracketed disc missed these by 5.4e-11 to 6.3e-11; the collocated
    # one is checked against DOP853 (4.2e-12 of the scale at most)
    circle = BoundaryCircle(R, -1.0)
    sig = shoot_sigma0(circle)
    assert sig.match_residual < shooting_mod._match_tol(circle)
    assert abs(sig.boundary_phi) < 1e-8
    miss, _ = _against_dop853(sig)
    assert miss < 1e-10


def test_sigma0_never_accepts_a_disc_that_misses(circle053, monkeypatch):
    # move the collocated u by 1e-8: the scaled disc then misses the circle
    # by far more than the tolerance, and is refused
    real = shooting_mod._unit_disc

    def moved(*args):
        u, *rest = real(*args)
        return (u + 1e-8, *rest)

    monkeypatch.setattr(shooting_mod, "_unit_disc", moved)
    with pytest.raises(NoConvergence, match="scaled disc misses the circle") as info:
        shoot_sigma0(circle053)
    _, norm = info.value.trace[-1]
    assert norm >= shooting_mod._match_tol(circle053)


@pytest.mark.parametrize(
    "R, Z",
    [(0.5, -3.0), (0.05, -1.0), (1e-3, -1.0), (3.5, -1.0), (4.0, -1.0), (4.2, -1.0),
     (4.3, -1.0)],
)
def test_sigma0_collocated_disc_against_dop853(R, Z):
    # DOP853 at the accepted (c_o, z_o) ends on the circle and follows the
    # collocated curve: at most 3.9e-11 and 2.7e-10 of the scale measured,
    # both at (4.2, -1)
    miss, deviation = _against_dop853(shoot_sigma0(BoundaryCircle(R, Z)))
    assert miss < 1e-10
    assert deviation < 1e-9


def _dense_start(u):
    """``shooting._start`` at the shooting tolerances, psi and the end read
    from DOP853's dense output."""
    curve = integrate_profile(
        ModelParams(1.0, -1.0 - math.exp(u)),
        StopCondition.phi_reaches(0.0),
        rtol=shooting_mod.SHOOT_RTOL,
        atol=shooting_mod.SHOOT_ATOL,
    )
    n = shooting_mod._FIRST_DEGREE
    psi = curve.state_at(curve.ell * chebyshev.points(n)[: (n + 1) // 2])[2] - math.pi
    r, z, _ = curve.state_at(curve.ell)
    return curve.ell, psi, math.atan2(r, -z)


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (0.05, -1.0), (3.5, -1.0), (4.0, -1.0)])
def test_sigma0_does_not_depend_on_its_start(R, Z, monkeypatch):
    # Newton starts O(1) away in u: a start integrated at the shooting
    # tolerances and sampled through the dense output settles on the same
    # degree and the same disc (at most 2.4e-15 relative measured)
    circle = BoundaryCircle(R, Z)
    sig = shoot_sigma0(circle)
    monkeypatch.setattr(shooting_mod, "_start", _dense_start)
    dense = shoot_sigma0(circle)
    assert dense.psi.size == sig.psi.size
    assert dense.params.c_o == pytest.approx(sig.params.c_o, rel=1e-13, abs=0.0)
    assert dense.params.z_o == pytest.approx(sig.params.z_o, rel=1e-13, abs=0.0)


def test_sigma0_failure_names_the_circle(integrations, collocations):
    with pytest.raises(NoConvergence) as info:
        shoot_sigma0(BoundaryCircle(100.0, -0.01))
    match = re.search(
        r" \(R/\|Z\| = 10000, (\d+) integrations, (\d+) collocations done\)$",
        str(info.value),
    )
    assert match
    assert int(match.group(1)) == integrations[0]
    assert int(match.group(2)) == collocations[0]
    assert info.value.trace
    for point, value in info.value.trace:
        assert len(point) == 2 and np.isfinite(value)


def test_sigma0_fails_when_no_two_disc_degrees_agree(monkeypatch):
    # a cap at the first degree leaves nothing to compare it with
    monkeypatch.setattr(shooting_mod, "_MAX_DEGREE", shooting_mod._FIRST_DEGREE)
    with pytest.raises(NoConvergence) as info:
        shoot_sigma0(BoundaryCircle(0.5, -3.0))
    message = str(info.value)
    assert message.startswith("sigma0 no two collocation degrees of the disc up to 61 agree")
    assert message.endswith("1 integrations, 5 collocations done)")


def test_family_needs_the_collocated_disc(circle053, sig053, integrations,
                                          collocations):
    bare = replace(sig053, psi=None)
    with pytest.raises(IncompleteEvidence, match="psi"):
        family_sweep(circle053, 1.2, 1.8, 3, sigma0=bare)
    with pytest.raises(IncompleteEvidence, match="psi"):
        shoot_family_member(1.4, circle053, bare)
    # nor is a member's curve drawn without its psi
    member = FamilyMember(1.5, -1.8, 1.9, 0.0, 0.0, circle053, False)
    with pytest.raises(IncompleteEvidence, match="psi") as info:
        member.curve
    assert info.value.missing == ["psi"]
    assert integrations[0] == collocations[0] == 0


def test_member_seed_without_its_fields_is_incomplete_evidence(circle053, sig053,
                                                              integrations,
                                                              collocations):
    # a hand-made member has none of the fields shoot_family_member fills,
    # and a shot one stripped of one field lacks just that one
    bare = FamilyMember(1.5, -1.8, 1.9, 0.0, 0.0, BoundaryCircle(0.5, -3), False)
    with pytest.raises(IncompleteEvidence, match="shoot_family_member") as info:
        shoot_family_member(1.52, BoundaryCircle(0.5, -3), bare)
    assert info.value.missing == ["jacobian", "psi", "psi_x", "previous", "previous_psi"]
    member = shoot_family_member(sig053.params.c_o, circle053, sig053)
    integrations[0] = collocations[0] = 0
    for name in ("psi_x", "previous_psi"):
        with pytest.raises(IncompleteEvidence, match=name) as info:
            shoot_family_member(1.52, circle053, replace(member, **{name: None}))
        assert info.value.missing == [name]
    assert integrations[0] == collocations[0] == 0


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


@pytest.mark.parametrize(
    "R, Z, window",
    [(0.5, -3.0, (1.2, 1.8, 13)), (1.5, -2.0, None), (2.0, -1.5, None)],
    ids=["fig2 range of (0.5, -3)", "certify window of (1.5, -2)", "certify window of (2, -1.5)"],
)
def test_member_curves_end_where_their_collocation_did(R, Z, window):
    # each member's curve, its collocation, ends on the circle with the
    # collocated contact angle
    circle = BoundaryCircle(R, Z)
    sig = shoot_sigma0(circle)
    c0 = sig.params.c_o
    sw = family_sweep(circle, *(window or (0.98 * c0, 1.02 * c0, 5)), sigma0=sig)
    assert len(sw.members) == (13 if window else 3)
    for m in sw.members:
        r, z, phi = m.curve.state_at(m.ell)
        assert max(abs(r - R), abs(z - Z)) < shooting_mod._match_tol(circle)
        assert phi == pytest.approx(m.contact_angle, abs=1e-10)


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


def _counter(monkeypatch, name):
    count = [0]
    real = getattr(shooting_mod, name)

    def counting(*args, **kw):
        count[0] += 1
        return real(*args, **kw)

    monkeypatch.setattr(shooting_mod, name, counting)
    return count


@pytest.fixture
def integrations(monkeypatch):
    """Counter of the profile integrations that the shooting layer runs."""
    return _counter(monkeypatch, "integrate_profile")


@pytest.fixture
def collocations(monkeypatch):
    """Counter of the shooting map's evaluations: the member collocations."""
    return _counter(monkeypatch, "_collocate")


@pytest.fixture
def factorizations(monkeypatch):
    """Counter of the LU factorizations of the shooting layer: one per Newton
    iterate, one per member's Jacobian."""
    return _counter(monkeypatch, "dgetrf")


def _settled(x, psi):
    """The collocation at x with psi re-solved at fixed x: six steps of
    Newton's method in psi alone, ample from a start within 1e-5."""
    for _ in range(6):
        sol = shooting_mod._collocate(x, psi)
        psi = sol.psi + np.linalg.solve(sol.G_psi, -sol.G)
    return shooting_mod._collocate(x, psi)


def test_member_returns_the_curve_of_its_last_residual(circle053, sig053,
                                                       integrations, collocations,
                                                       factorizations):
    # the curve is the collocation the residual was taken on: its end is
    # that collocation's, bit for bit, and nothing is integrated.  At c0
    # that is the disc's own collocation, matched on the circle: the member
    # costs that one collocation and the one LU of its Jacobian, with no
    # bordered matrix factored for a Newton step at rounding
    m = shoot_family_member(sig053.params.c_o, circle053, sig053)
    assert collocations[0] == 1 and m.psi is sig053.psi
    assert factorizations[0] == 1
    r, z, phi = m.curve.state_at(m.curve.ell)
    assert m.curve is m.curve and integrations[0] == 0
    assert m.curve.ell == m.ell and m.curve.tau0 == 0.0
    assert (r, z, phi) == (m.curve.r[-1], m.curve.z[-1], m.curve.phi[-1])
    assert max(abs(r - circle053.R), abs(z - circle053.Z)) == m.match_residual
    assert phi == m.contact_angle


def test_sweep_integration_budget(circle053, sig053, factorizations):
    c0 = sig053.params.c_o
    sw = shooting_mod.family_sweep(circle053, 0.98 * c0, 1.02 * c0, 5, sigma0=sig053)
    assert len(sw.members) == 5 and not sw.failures
    # 16 measured: a landing stops at the first iterate whose simplified
    # correction is below _DEGREE_AGREE, with no iterate collocated and
    # factored after it to confirm it (19 were), and the member at c0 is
    # the disc's collocation, with no bordered LU (17 were)
    assert factorizations[0] <= 16


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
        # a collocated end may land on the circle exactly
        assert c > 0.0 and z_o < 0.0 < length and 0.0 <= norm < math.inf


@pytest.mark.parametrize("c", [math.inf, math.nan, -1.0, 0.0])
def test_member_curvature_must_be_finite_and_positive(c, circle053, sig053,
                                                      integrations, collocations):
    with pytest.raises(ValueError, match="finite and positive"):
        shoot_family_member(c, circle053, sig053)
    assert integrations[0] == collocations[0] == 0


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
                                                      factorizations):
    # one landing per member: the walk covers only gaps too long to land
    sw = shooting_mod.family_sweep(circle053, 1.2, 1.8, 13, sigma0=sig053)
    assert len(sw.members) == 13 and not sw.failures
    # 56 measured (69 with an iterate collocated and factored after each
    # member's last step to confirm it, 57 with a bordered LU for the member
    # at c0)
    assert factorizations[0] <= 56


def _disc_map(R, Z):
    """The disc's (c0, z_o, L) and its collocation re-solved there."""
    sig = shoot_sigma0(BoundaryCircle(R, Z))
    x = shooting_mod._state(sig)
    return x, _settled(x, sig.psi)


def _jacobian_column(R, Z, k):
    """Column k of the disc's endpoint Jacobian and its central difference,
    (r, z, phi)(L) of the collocation re-solved at x +/- 1e-5 |x_k| e_k."""
    x, sol = _disc_map(R, Z)
    step = np.zeros(3)
    step[k] = 1e-5 * abs(x[k])
    ends = [_settled(x + d, sol.psi).end for d in (step, -step)]
    central = (np.array(ends[0]) - np.array(ends[1])) / (2.0 * step[k])
    return shooting_mod._endpoint_jacobian(sol)[:, k], central


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (1.0, -2.0)])
def test_member_jacobian_is_the_z_o_derivative(R, Z):
    column, central = _jacobian_column(R, Z, 1)
    assert np.max(np.abs(column - central)) < 1e-7 * np.max(np.abs(column))


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (1.0, -2.0), (2.0, -1.5)])
def test_member_jacobian_is_the_L_derivative(R, Z):
    column, central = _jacobian_column(R, Z, 2)
    assert np.max(np.abs(column - central)) < 1e-7 * np.max(np.abs(column))


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (1.0, -2.0), (2.0, -1.5), (3.5, -1.0)])
def test_member_jacobian_is_scale_equivariant(R, Z):
    # (r, z)(mu L; c/mu, mu z_o) = mu (r, z)(L; c, z_o) and phi is scale
    # free, so at mu = 1: c J_c = L J_L + z_o J_z - ((r, z)(L), 0)
    (c, z_o, length), sol = _disc_map(R, Z)
    J = shooting_mod._endpoint_jacobian(sol)
    lhs = c * J[:, 0]
    rhs = length * J[:, 2] + z_o * J[:, 1] - np.array([*sol.end[:2], 0.0])
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


def test_landing_keeps_the_requested_c_bit_for_bit(circle053, sig053):
    c = 1.01 * sig053.params.c_o
    trace = []
    m = shooting_mod._land(circle053, [0], trace, sig053, c, sig053.psi)
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
    _, sol = _disc_map(R, Z)
    kernel = solve_h(sig.curve).kernel
    # the collocated z_o derivative at the nodes, tau = L first: dpsi =
    # -G_psi^-1 G_z_o, and r = L Q_even cos psi, z = z_o + L Q_odd sin psi
    n = 2 * sol.psi.size - 1
    Q = shooting_mod.chebyshev.folded_integral(n)
    length = sol.x[2]
    dpsi = np.linalg.solve(sol.G_psi, -sol.G_x[:, 1])
    phi = np.pi + sol.psi
    dr = length * Q[1] @ (np.sin(phi) * dpsi)
    dz = 1.0 - length * Q[-1] @ (np.cos(phi) * dpsi)
    taus = length * shooting_mod.chebyshev.points(n)[: sol.psi.size]
    # normal projection on (sin phi, -cos phi); it starts at 1 on the axis
    normal = dr * np.sin(phi) - dz * np.cos(phi)
    assert abs(normal[0] - kernel.raw_boundary_value) < 1e-9
    assert np.max(np.abs(normal / normal[0] - kernel.psi_at(taus))) < 1e-9


def test_sweep_returns_every_grid_point_at_the_start_curvature(circle053, sig053):
    c0 = sig053.params.c_o
    sw = family_sweep(circle053, c0, c0, 3, sigma0=sig053)
    assert len(sw.members) + len(sw.failures) == 3
    assert [m.c for m in sw.members] == [c0, c0, c0]


def test_member_failure_names_curvature_and_work(circle053, sig053, collocations):
    with pytest.raises(NoConvergence) as info:
        shoot_family_member(0.6, circle053, sig053)
    match = re.search(r" \(c = ([^,]+), (\d+) collocations done\)$", str(info.value))
    assert match
    assert 0.6 <= float(match.group(1)) < sig053.params.c_o
    assert int(match.group(2)) == collocations[0]


@pytest.mark.parametrize("mu", [1e-3, 0.3, 1.0, 7.0, 1e3])
def test_deepest_unit_disc_scales_inside_the_profile_bound(mu):
    t = -1.0 - math.exp(shooting_mod._U_MAX)
    check_scale(ModelParams(1.0, t))
    check_scale(ModelParams(1.0 / mu, mu * t))


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (1.0, -2.0)])
def test_member_jacobian_is_the_c_derivative(R, Z):
    column, central = _jacobian_column(R, Z, 0)
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


# 16 and 20 measured (19 and 24 with an iterate collocated and factored
# after each member's last step to confirm it, 17 and 21 with a bordered LU
# for the member at c0)
@pytest.mark.parametrize("R, Z, budget", [(0.5, -3.0, 16), (1.5, -2.0, 20)])
def test_sweep_integration_budget_through_folds(R, Z, budget, factorizations):
    sig = shoot_sigma0(BoundaryCircle(R, Z))
    c0 = sig.params.c_o
    factorizations[0] = 0  # the sweep's own, not the disc's
    sw = shooting_mod.family_sweep(sig.circle, 0.98 * c0, 1.02 * c0, 5, sigma0=sig)
    assert len(sw.members) + len(sw.failures) == 5
    assert factorizations[0] <= budget


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
    # collocated for it between that failure and the sweep's other side
    monkeypatch.setattr(shooting_mod, "_MAX_FOLD_SECANTS", 1)
    monkeypatch.setattr(shooting_mod, "_FOLD_SLOPE", 0.0)
    collocate, walk = shooting_mod._collocate, shooting_mod._walk
    member = shooting_mod.shoot_family_member
    calls = [0]
    at_walk_failure, at_below = [], []

    def counted(*args, **kwargs):
        calls[0] += 1
        return collocate(*args, **kwargs)

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
    monkeypatch.setattr(shooting_mod, "_collocate", counted)
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


@pytest.mark.parametrize("R, Z", [(0.5, -3.0), (3.5, -1.0)])
def test_accepted_psi_is_the_fixed_x_solution(R, Z, monkeypatch):
    # Newton's method on (psi, x) stops on its step alone: the psi of the
    # accepted unit disc and of an accepted member solves the collocation
    # at their x
    discs = []
    unit_disc = shooting_mod._unit_disc

    def kept(*args):
        discs.append(unit_disc(*args))
        return discs[-1]

    monkeypatch.setattr(shooting_mod, "_unit_disc", kept)
    sig = shoot_sigma0(BoundaryCircle(R, Z))
    u, length, psi = discs[-1][:3]
    x = (1.0, -1.0 - math.exp(u), length)
    assert np.max(np.abs(_settled(x, psi).psi - psi)) < 1e-10
    m = shoot_family_member(0.99 * sig.params.c_o, sig.circle, sig)
    x = (m.c, m.z_o, m.ell)
    assert np.max(np.abs(_settled(x, m.psi).psi - m.psi)) < 1e-10


def test_landing_starts_from_the_predicted_psi(circle053, sig053, monkeypatch):
    # the psi predicted at a landed member's x against the member's: from
    # the member at c0, whose previous (the disc) lies at its own x, the
    # prediction is linear; from the member at c0 (1 + 1 %) it carries the
    # second-order remainder through the member at c0.  Measured: 8.5e-4
    # and 8.5e-6, where the seed's own psi is off by 3.8e-2 and 3.6e-2
    c0 = sig053.params.c_o
    seed = shoot_family_member(c0, circle053, sig053)
    xs = []
    collocate = shooting_mod._collocate

    def kept(x, psi):
        xs.append(tuple(float(v) for v in x))
        return collocate(x, psi)

    monkeypatch.setattr(shooting_mod, "_collocate", kept)
    for c, bound in ((1.01 * c0, 2e-3), (1.02 * c0, 1e-4)):
        xs.clear()
        trace = []
        member = shooting_mod._reach(circle053, [0], trace, seed, c)
        x = shooting_mod._state(member)
        predicted = shooting_mod._psi_at(seed, x, np.abs(shooting_mod._state(seed)))
        miss = np.max(np.abs(predicted - member.psi))
        assert miss < bound
        assert np.max(np.abs(seed.psi - member.psi)) >= 10.0 * miss
        # every collocation is a Newton iterate on (psi, z_o, L), from the
        # predicted state: none re-solves psi alone at an x already seen,
        # and the last is the member, with nothing collocated to confirm it
        assert len(set(xs)) == len(xs) == len(trace)
        assert xs[-1] == tuple(x) and trace[-1] == (xs[-1], member.match_residual)
        assert member.previous_psi is seed.psi
        seed = member
