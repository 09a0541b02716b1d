import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from membranelab import ModelParams, StopCondition, integrate_profile, sigma0_stop
from membranelab.profile import DEFAULT_TAU0_FACTOR, axis_seed, operator_coeffs
import membranelab.ode as ode
from membranelab.ode import _kernels as eager_kernels
import membranelab.profile as profile_mod
import membranelab.linearized as linearized
from membranelab.shooting import SHOOT_ATOL, SHOOT_RTOL

from _oracles import SIGMA0_05_3

ANCHOR = ModelParams(SIGMA0_05_3["c_o"], SIGMA0_05_3["z_o"])


def _recorded(monkeypatch, module, run):
    """run()'s result, then the arguments of the one solve_ivp call it makes
    through ``module``, and that call's result."""
    calls = []

    def record(*args, **kwargs):
        out = ode.solve_ivp(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(module, "solve_ivp", record)
    result = run()
    assert len(calls) == 1
    return result, *calls[0]


def _profile_problem(monkeypatch, params, stop, **kw):
    """The arguments integrate_profile hands its integrator, and its result."""
    return _recorded(
        monkeypatch,
        profile_mod,
        lambda: integrate_profile(params, stop, rtol=SHOOT_RTOL, atol=SHOOT_ATOL, **kw),
    )[1:]


def _counted_solve(monkeypatch, fun, *args, **kwargs):
    """ode.solve_ivp counting the calls of fun, of the step kernel and of the
    dense kernel; the counts keep growing as ``sol`` builds its segments."""
    counts = {"fun": 0, "step": 0, "built_at": []}

    def counting_kernels(n):
        step, dense = eager_kernels(n)

        def counted_step(*a):
            counts["step"] += 1
            return step(*a)

        def counted_dense(f, t_old, *a):
            counts["built_at"].append(t_old)
            return dense(f, t_old, *a)

        return counted_step, counted_dense

    def counted_fun(t, y):
        counts["fun"] += 1
        return fun(t, y)

    monkeypatch.setattr(ode, "_kernels", counting_kernels)
    out = ode.solve_ivp(counted_fun, *args, **kwargs)
    return out, counts


def _close(ours, ref):
    ref = np.asarray(ref)
    scale = np.max(np.abs(ref), initial=0.0)
    np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize(
    "params, stop",
    [
        (ANCHOR, sigma0_stop()),
        (ModelParams(1.02 * ANCHOR.c_o, ANCHOR.z_o), StopCondition.at_arc_length(2.0)),
    ],
    ids=["anchor disc, 3 rows", "member, 3 rows"],
)
def test_profile_integration_matches_scipy_dop853(monkeypatch, params, stop):
    args, kwargs, _ = _profile_problem(monkeypatch, params, stop)
    ours, counts = _counted_solve(monkeypatch, *args, **kwargs)
    ref = scipy_solve_ivp(*args, method="DOP853", dense_output=True, **kwargs)
    assert ours.y.shape[0] == 3
    assert ours.status == ref.status and ours.success
    assert ours.t.size == ref.t.size
    assert ours.nfev == counts["fun"] == 2 + 12 * counts["step"] + 3 * len(counts["built_at"])
    _close(ours.t[-1], ref.t[-1])
    _close(ours.y[:, -1], ref.y[:, -1])
    assert [te.size for te in ours.t_events] == [te.size for te in ref.t_events]
    for te, te_ref in zip(ours.t_events, ref.t_events):
        _close(te, te_ref)
    # the interpolant reproduces every node state exactly
    assert np.array_equal(ours.sol(ours.t), ours.y)
    # with every interpolant built, fun ran as often as in scipy
    assert counts["fun"] == ref.nfev
    # one float and an array give the same bits
    mid = 0.5 * (ours.t[3] + ours.t[4])
    assert np.array_equal(ours.sol(mid), ours.sol(np.array([mid]))[:, 0])


def test_vertical_tangent_found_on_first_read_matches_scipys_event(monkeypatch):
    curve, args, kwargs, _ = _recorded(
        monkeypatch,
        profile_mod,
        lambda: integrate_profile(ANCHOR, sigma0_stop(), rtol=SHOOT_RTOL, atol=SHOOT_ATOL),
    )
    # the integration carries only events that stop it
    assert all(ev.terminal for ev in kwargs["events"])
    assert "vertical_tangent_tau" not in vars(curve)
    tau_v = curve.vertical_tangent_tau
    assert curve.taus[0] < tau_v < curve.ell
    assert curve.state_at(tau_v)[2] == pytest.approx(0.5 * math.pi, abs=1e-14)

    def vertical(t, y):
        return y[2] - 0.5 * math.pi

    vertical.direction = -1.0
    # the same problem stopped at the vertical tangent: the same bits, as
    # both run Brent's root on the same step's interpolant
    stopped = ode.solve_ivp(*args, **{**kwargs, "events": [vertical]})
    assert stopped.status == 1 and stopped.t_events[0][0] == tau_v
    vertical.terminal = False
    ref = scipy_solve_ivp(
        *args, method="DOP853", dense_output=True,
        **{**kwargs, "events": kwargs["events"] + [vertical]},
    )
    _close(tau_v, ref.t_events[-1][0])


def _event(level):
    def event(t, y):
        return y[0] - level

    event.terminal = True
    event.direction = 1.0
    return event


def test_earliest_terminal_event_wins(monkeypatch):
    # y = t crosses both levels; the step that reaches the later level 0.5
    # also crosses 0.3, which must end the integration
    events = [_event(0.5), _event(0.3)]
    kw = dict(events=events, rtol=1e-8, atol=1e-10, max_step=1.0)
    ours, counts = _counted_solve(monkeypatch, lambda t, y: (1.0,), (0.0, 1.0), (0.0,), **kw)
    # only the last step, where the events change sign, was built
    assert counts["built_at"] == [ours.t[-2]]
    assert ours.nfev == counts["fun"] == 2 + 12 * counts["step"] + 3
    ref = scipy_solve_ivp(
        lambda t, y: [1.0], (0.0, 1.0), [0.0], method="DOP853", dense_output=True, **kw
    )
    assert ours.t[-2] < 0.3 and ours.status == 1
    # the same last step also reaches 0.5
    kw_alone = {**kw, "events": events[:1]}
    alone = ode.solve_ivp(lambda t, y: (1.0,), (0.0, 1.0), (0.0,), **kw_alone)
    assert alone.t[-2] == ours.t[-2] and alone.t[-1] == pytest.approx(0.5, abs=1e-15)
    assert ours.t[-1] == pytest.approx(0.3, abs=1e-15)
    assert [te.size for te in ours.t_events] == [0, 1]
    assert [te.size for te in ref.t_events] == [0, 1]
    np.testing.assert_allclose(ours.t, ref.t, rtol=1e-15)
    # with every interpolant built, fun ran as often as in scipy
    ours.sol(ours.t)
    assert counts["fun"] == ref.nfev


def test_nfev_counts_stages_of_attempted_and_accepted_steps(monkeypatch):
    args, kwargs, _ = _profile_problem(monkeypatch, ANCHOR, sigma0_stop())
    out, counts = _counted_solve(monkeypatch, *args, **kwargs)
    attempted, accepted = counts["step"], out.t.size - 1
    assert attempted > accepted  # the anchor disc rejects steps
    # the phi = 0 stop needs one interpolant
    assert len(counts["built_at"]) == 1
    assert out.nfev == counts["fun"] == 2 + 12 * attempted + 3
    # building the rest on demand costs what scipy's eager dense output does
    out.sol(out.t)
    assert counts["fun"] == 2 + 12 * attempted + 3 * accepted
    ref = scipy_solve_ivp(args[0], *args[1:], method="DOP853", dense_output=True, **kwargs)
    assert counts["fun"] == ref.nfev


def test_member_builds_interpolants_only_where_an_event_changes_sign(monkeypatch):
    params = ModelParams(1.02 * ANCHOR.c_o, ANCHOR.z_o)
    stop = StopCondition.at_arc_length(2.0)
    args, kwargs, _ = _profile_problem(monkeypatch, params, stop)
    out, counts = _counted_solve(monkeypatch, *args, **kwargs)
    sol = out.sol
    assert out.y.shape[0] == 3 and out.status == 0
    # no guard changes sign on the member, so it integrates building nothing
    assert [te.size for te in out.t_events] == [0, 0]
    assert counts["built_at"] == []
    assert out.nfev == counts["fun"] == 2 + 12 * counts["step"]

    pending = list(sol._segments)
    assert all(type(seg) is ode._Step for seg in pending)
    # reading L, as integrate_profile does, builds the last segment alone
    assert np.array_equal(sol(out.t[-1]), out.y[:, -1])
    assert counts["built_at"] == [out.t[-2]]
    assert counts["fun"] == out.nfev + 3
    # an array builds every remaining segment, once, from the step it kept
    sol(out.t)
    sol(out.t)
    ref = scipy_solve_ivp(*args, method="DOP853", dense_output=True, **kwargs)
    assert counts["fun"] == ref.nfev
    _, dense = eager_kernels(3)
    for k, seg in enumerate(pending):
        assert sol._segments[k] == dense(args[0], sol._t_old[k], sol._h[k], *seg)


def test_threads_building_one_interpolant_read_the_same_bits():
    # several threads read a fresh curve, whose segments are built on first
    # use, one tau at a time (in both orders) and as arrays
    params = ModelParams(1.02 * ANCHOR.c_o, ANCHOR.z_o)
    stop = StopCondition.at_arc_length(2.0)
    reference = integrate_profile(params, stop, rtol=SHOOT_RTOL, atol=SHOOT_ATOL)
    taus = np.linspace(reference.tau0, reference.ell, 400)
    expected = np.array(reference.state_at(taus))

    def one_at_a_time(curve, order):
        rows = {k: curve.state_at(float(taus[k])) for k in order}
        return np.array([rows[k] for k in range(taus.size)]).T

    readers = [
        lambda curve: one_at_a_time(curve, range(taus.size)),
        lambda curve: one_at_a_time(curve, range(taus.size)),
        lambda curve: one_at_a_time(curve, range(taus.size)),
        lambda curve: one_at_a_time(curve, reversed(range(taus.size))),
        lambda curve: np.array(curve.state_at(taus)),
        lambda curve: np.array(curve.state_at(taus[::-1]))[:, ::-1],
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            curve = integrate_profile(params, stop, rtol=SHOOT_RTOL, atol=SHOOT_ATOL)
            got = [None] * len(readers)

            def read(i):
                got[i] = readers[i](curve)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(len(readers))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
                assert not th.is_alive()
            for values in got:
                assert np.array_equal(values, expected)
    finally:
        sys.setswitchinterval(interval)


def test_rtol_below_the_floor_is_rejected():
    with pytest.raises(ValueError, match="rtol"):
        ode.solve_ivp(
            lambda t, y: (1.0,), (0.0, 1.0), (0.0,), rtol=0.5 * ode.MIN_RTOL, atol=0.0
        )


@pytest.mark.parametrize("rtol, atol", [(1e-8, -1e-12), (1e-8, math.nan), (math.inf, 0.0)])
def test_negative_or_nonfinite_tolerance_is_rejected(rtol, atol):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ode.solve_ivp(lambda t, y: (1.0,), (0.0, 1.0), (0.0,), rtol=rtol, atol=atol)


# ------------------------------------------------- the 7-row scipy oracle of h


def _extended_rhs_tau(c_o):
    """(r, z, phi), P[psi] = 0 and P[p] = -2 as one first order system in tau.

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


def _scipy_extended(curve):
    """scipy's DOP853 on the 7-row system from the axis series at the curve's
    offset, or the profile's default one for a collocated curve (tau0 = 0),
    tighter than the curve: the raw kernel psi (psi(axis) = 1) and the
    particular response p (p(axis) = 0) that ``solve_h`` superposes."""
    params = curve.params
    tau0 = curve.tau0 or DEFAULT_TAU0_FACTOR * abs(params.z_o)
    seed = axis_seed(params, tau0)
    y0 = (
        seed.r,
        seed.z,
        seed.phi,
        *_axis_series_start(params, 1.0, 0.0, tau0),
        *_axis_series_start(params, 0.0, 2.0, tau0),
    )
    return scipy_solve_ivp(
        _extended_rhs_tau(params.c_o),
        (tau0, curve.ell),
        y0,
        method="DOP853",
        dense_output=True,
        rtol=min(curve.rtol, 1e-13),
        atol=min(curve.atol, 1e-15),
        max_step=0.1 * abs(params.z_o),
    )


def test_scipy_extended_profile_rows_match_the_in_house_curve(sig053):
    # scipy's solve_ivp integrates the profile rows of the 7-row system
    # again, tighter than the curve; its dense output at the curve's nodes
    # must give the in-house node states
    curve = sig053.curve
    sol = _scipy_extended(curve)
    assert sol.success
    assert sol.t[-1] == curve.ell
    rows = sol.sol(curve.taus)[:3]
    nodes = np.array([curve.r, curve.z, curve.phi])
    np.testing.assert_allclose(rows, nodes, rtol=0, atol=1e-11)


@pytest.mark.parametrize("where", ["circle (0.5, -3)", "params (2, -0.6)"])
def test_solve_h_matches_scipy_dop853(where, sig053, curve26):
    # the collocated h and psi against the superposition h = p + alpha psi
    # integrated by scipy, alpha = -p/psi at the boundary
    curve = sig053.curve if where.startswith("circle") else curve26
    lin = linearized.solve_h(curve)
    ref = _scipy_extended(curve)
    assert ref.success and ref.status == 0
    psi_b, p_b = ref.y[3, -1], ref.y[5, -1]
    alpha = -p_b / psi_b
    slope = ref.y[6, -1] + alpha * ref.y[4, -1]
    assert lin.kernel.raw_boundary_value == pytest.approx(psi_b, rel=1e-10, abs=0)
    assert lin.h_prime_boundary == pytest.approx(slope, rel=1e-10, abs=0)
    assert lin.alpha == pytest.approx(alpha, rel=1e-9, abs=0)


def test_solve_h_builds_no_interpolant_until_one_is_read(monkeypatch, curve26):
    # perfbench's tracer wraps linearized.solve_ivp by name
    assert linearized.solve_ivp is ode.solve_ivp

    def no_integration(*args, **kwargs):
        raise AssertionError("solve_h integrates nothing")

    for module in (ode, profile_mod, linearized):
        monkeypatch.setattr(module, "solve_ivp", no_integration)
    reads = []
    barycentric = linearized.chebyshev.barycentric

    def counted(n, x, values):
        reads.append(np.size(x))
        return barycentric(n, x, values)

    monkeypatch.setattr(linearized.chebyshev, "barycentric", counted)
    lin = linearized.solve_h(curve26)
    # node values only: the one interpolation is the axis value
    assert reads == [1]
    # an array argument interpolates once
    taus = np.linspace(0.0, curve26.ell, 50)
    h = lin.h_at(taus)
    assert reads == [1, 50]
    assert h[-1] == 0.0  # the Dirichlet zero, as at the node
