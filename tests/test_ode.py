import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from membranelab import ModelParams, StopCondition, integrate_profile, sigma0_stop
import membranelab.ode as ode
import membranelab.profile as profile_mod
from membranelab.linearized import _integrate_extended
from membranelab.shooting import SHOOT_ATOL, SHOOT_RTOL

from _oracles import SIGMA0_05_3

ANCHOR = ModelParams(SIGMA0_05_3["c_o"], SIGMA0_05_3["z_o"])


def _profile_problem(monkeypatch, params, stop, **kw):
    """The arguments integrate_profile hands its integrator, and its result."""
    calls = []

    def record(*args, **kwargs):
        out = ode.solve_ivp(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(profile_mod, "solve_ivp", record)
    integrate_profile(params, stop, rtol=SHOOT_RTOL, atol=SHOOT_ATOL, **kw)
    assert len(calls) == 1
    return calls[0]


def _close(ours, ref):
    ref = np.asarray(ref)
    scale = np.max(np.abs(ref), initial=0.0)
    np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize(
    "stop, variation",
    [
        (sigma0_stop(), False),
        (StopCondition.at_arc_length(2.0), True),
    ],
    ids=["anchor disc, 3 rows", "member with z_o variation, 6 rows"],
)
def test_profile_integration_matches_scipy_dop853(monkeypatch, stop, variation):
    params = ANCHOR if not variation else ModelParams(1.02 * ANCHOR.c_o, ANCHOR.z_o)
    args, kwargs, ours = _profile_problem(monkeypatch, params, stop, z_o_variation=variation)
    ref = scipy_solve_ivp(*args, method="DOP853", dense_output=True, **kwargs)
    assert ours.y.shape[0] == (6 if variation else 3)
    assert ours.status == ref.status and ours.success
    assert ours.t.size == ref.t.size
    assert ours.nfev == ref.nfev
    _close(ours.t[-1], ref.t[-1])
    _close(ours.y[:, -1], ref.y[:, -1])
    assert [te.size for te in ours.t_events] == [te.size for te in ref.t_events]
    for te, te_ref in zip(ours.t_events, ref.t_events):
        _close(te, te_ref)
    # the interpolant reproduces every node state exactly
    assert np.array_equal(ours.sol(ours.t), ours.y)
    # one float and an array give the same bits
    mid = 0.5 * (ours.t[3] + ours.t[4])
    assert np.array_equal(ours.sol(mid), ours.sol(np.array([mid]))[:, 0])


def test_vertical_tangent_event_is_recorded_and_does_not_stop(monkeypatch):
    args, kwargs, ours = _profile_problem(monkeypatch, ANCHOR, sigma0_stop())
    names = [ev.__name__ for ev in kwargs["events"]]
    vertical = names.index("vertical_tangent")
    assert not kwargs["events"][vertical].terminal
    (tau_v,) = ours.t_events[vertical]
    assert ours.t[0] < tau_v < ours.t[-1]
    assert ours.sol(tau_v)[2] == pytest.approx(0.5 * math.pi, abs=1e-14)
    ref = scipy_solve_ivp(*args, method="DOP853", dense_output=True, **kwargs)
    _close(tau_v, ref.t_events[vertical][0])


def _event(level, terminal):
    def event(t, y):
        return y[0] - level

    event.terminal = terminal
    event.direction = 1.0
    return event


def test_earliest_terminal_event_wins():
    # y = t crosses all four levels; the step that reaches the later
    # terminal level 0.5 also crosses 0.3, which must end the integration
    events = [
        _event(0.5, True),
        _event(0.3, True),
        _event(0.2, False),
        _event(0.4, False),
    ]
    kw = dict(events=events, rtol=1e-8, atol=1e-10, max_step=1.0)
    ours = ode.solve_ivp(lambda t, y: (1.0,), (0.0, 1.0), (0.0,), **kw)
    ref = scipy_solve_ivp(
        lambda t, y: [1.0], (0.0, 1.0), [0.0], method="DOP853", dense_output=True, **kw
    )
    assert ours.t[-2] < 0.2 and ours.status == 1
    # the same last step also reaches 0.5
    kw_alone = {**kw, "events": events[:1]}
    alone = ode.solve_ivp(lambda t, y: (1.0,), (0.0, 1.0), (0.0,), **kw_alone)
    assert alone.t[-2] == ours.t[-2] and alone.t[-1] == pytest.approx(0.5, abs=1e-15)
    assert ours.t[-1] == pytest.approx(0.3, abs=1e-15)
    assert [te.size for te in ours.t_events] == [0, 1, 1, 0]
    assert [te.size for te in ref.t_events] == [0, 1, 1, 0]
    assert ours.t_events[2][0] == pytest.approx(0.2, abs=1e-15)
    np.testing.assert_allclose(ours.t, ref.t, rtol=1e-15)
    assert ours.nfev == ref.nfev


def test_nfev_counts_stages_of_attempted_and_accepted_steps(monkeypatch):
    calls = [0]
    attempted = [0]
    kernels = ode._kernels

    def counting_kernels(n):
        step, dense = kernels(n)

        def counted_step(*args):
            attempted[0] += 1
            return step(*args)

        return counted_step, dense

    monkeypatch.setattr(ode, "_kernels", counting_kernels)
    args, kwargs, _ = _profile_problem(monkeypatch, ANCHOR, sigma0_stop())
    fun = args[0]

    def counted_fun(t, y):
        calls[0] += 1
        return fun(t, y)

    attempted[0] = 0
    out = ode.solve_ivp(counted_fun, *args[1:], **kwargs)
    accepted = out.t.size - 1
    assert attempted[0] > accepted  # the anchor disc rejects steps
    assert out.nfev == calls[0] == 2 + 12 * attempted[0] + 3 * accepted
    ref = scipy_solve_ivp(fun, *args[1:], method="DOP853", dense_output=True, **kwargs)
    assert out.nfev == ref.nfev


def test_rtol_below_the_floor_is_rejected():
    with pytest.raises(ValueError, match="rtol"):
        ode.solve_ivp(
            lambda t, y: (1.0,), (0.0, 1.0), (0.0,), rtol=0.5 * ode.MIN_RTOL, atol=0.0
        )


def test_scipy_extended_profile_rows_match_the_in_house_curve(sig053):
    # linearized._integrate_extended integrates the profile rows again with
    # scipy's solve_ivp, tighter; its dense output at the curve's nodes must
    # give the in-house node states
    curve = sig053.curve
    sol, rtol, _ = _integrate_extended(curve)
    assert rtol < curve.rtol
    assert sol.t[-1] == curve.ell
    rows = sol.sol(curve.taus)[:3]
    nodes = np.array([curve.r, curve.z, curve.phi])
    np.testing.assert_allclose(rows, nodes, rtol=0, atol=1e-11)
