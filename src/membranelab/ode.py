"""Adaptive DOP853 with dense output and events, stepped on Python floats.

``solve_ivp`` runs the subset of ``scipy.integrate.solve_ivp(method="DOP853")``
that ``profile.integrate_profile`` uses, with
scipy's algorithm unchanged: its tableau
(``scipy.integrate._ivp.dop853_coefficients``), initial-step choice, RMS
error norm with the 5th/3rd order correction, step controller
(safety 0.9, factors 0.2 and 10, exponent -1/8, minimum step ten spacings
of t), event rules (sign change by ``direction``, Brent's root on the step
interpolant with xtol = rtol = 4 eps) and dense-output formula with
left-side segment choice (Hairer, Norsett and Wanner, *Solving ODEs I*,
Sec. II.5).  Every event is terminal: the earliest root ends the integration.

A step's interpolant needs three more right-hand-side evaluations (Sec.
II.6), and it can be formed at any time after the step is accepted.  It is
built during the integration only on the step where an event changes sign,
because Brent's root needs it there.  Every other step keeps its two states
and its stages, and ``DenseOutput`` builds its interpolant on first use,
with the same kernel and the same inputs, so every value is the same.

The profile system has 3 rows, where numpy's per-call overhead on tiny
arrays dominates.  The stages therefore run as straight-line float
arithmetic, generated once per state size from the tableau (``_kernels``).
``fun(t, y)`` takes and returns a sequence of floats.  Only the rounding of
the stage sums differs from scipy's matrix products.  At tight tolerances
the error estimate carries that rounding into the step sizes (about 1e-5
relative), yet step and evaluation counts and events agree with scipy's,
and endpoints to about 1e-15 relative.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _tableau
from scipy.optimize import brentq

EPS = float(np.finfo(float).eps)
#: smallest rtol accepted: below it round-off swamps the error estimate
MIN_RTOL = 100 * EPS
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
#: -1 / (error estimator order + 1)
_ERROR_EXPONENT = -1.0 / 8.0
#: right-hand-side evaluations: the stepped stages plus f(t + h), and the
#: extra stages of the dense output
_STEP_EVALS = _tableau.N_STAGES
_DENSE_EVALS = _tableau.N_STAGES_EXTENDED - _tableau.N_STAGES - 1
#: interpolant coefficient rows kept per step: y_old and F0..F6
_COEF_ROWS = _tableau.INTERPOLATOR_POWER + 1


class _Step(NamedTuple):
    """An accepted step whose interpolant is not built yet."""

    y_old: tuple
    y_new: tuple
    K: tuple


_MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


def _dot(row, i):
    """Source of sum_j row[j] * k{j}_{i} over the nonzero tableau entries."""
    terms = [f"{float(a)!r} * k{j}_{i}" for j, a in enumerate(row) if a != 0.0]
    return "(" + " + ".join(terms) + ")"


def _names(prefix, n):
    return "".join(f"{prefix}_{i}, " for i in range(n))


def _stage(s, n):
    """Source line evaluating stage s from stages 0..s-1."""
    a = _tableau.A[s, :s]
    args = "".join(f"y_{i} + {_dot(a, i)} * h, " for i in range(n))
    return f"    {_names(f'k{s}', n)}= fun(t + {float(_tableau.C[s])!r} * h, ({args}))"


@functools.lru_cache(maxsize=None)
def _kernels(n):
    """(step, dense) for an n-row system, compiled from the tableau.

    ``step(fun, t, y, f, h, rtol, atol)`` returns ``(y_new, f_new, err, K)``:
    the 8th order solution, fun at it, the error norm and the 13 stages as
    one flat tuple.  ``dense(fun, t, h, y, y_new, K)`` evaluates the three
    extra stages and returns y and the interpolant rows F0..F6 flat.
    """
    ys, yns, ds = _names("y", n), _names("yn", n), _names("d", n)
    ks = "".join(_names(f"k{s}", n) for s in range(_tableau.N_STAGES + 1))
    last = _tableau.N_STAGES
    src = [
        "def step(fun, t, y, f, h, rtol, atol):",
        f"    {ys}= y",
        f"    {_names('k0', n)}= f",
        *(_stage(s, n) for s in range(1, _tableau.N_STAGES)),
        *(f"    yn_{i} = y_{i} + h * {_dot(_tableau.B, i)}" for i in range(n)),
        f"    {_names(f'k{last}', n)}= fun(t + h, ({yns}))",
    ]
    for i in range(n):
        src += [
            f"    a = abs(y_{i}); b = abs(yn_{i})",
            "    sc = atol + (a if a > b else b) * rtol",
            f"    e5_{i} = {_dot(_tableau.E5, i)} / sc",
            f"    e3_{i} = {_dot(_tableau.E3, i)} / sc",
        ]
    src += [
        "    s5 = " + " + ".join(f"e5_{i} * e5_{i}" for i in range(n)),
        "    s3 = " + " + ".join(f"e3_{i} * e3_{i}" for i in range(n)),
        "    if s5 == 0.0 and s3 == 0.0:",
        "        err = 0.0",
        "    else:",
        f"        err = abs(h) * s5 / sqrt((s5 + 0.01 * s3) * {n})",
        f"    return ({yns}), ({_names(f'k{last}', n)}), err, ({ks})",
        "",
        "def dense(fun, t, h, y, yn, K):",
        f"    {ys}= y",
        f"    {yns}= yn",
        f"    {ks}= K",
        *(_stage(s, n) for s in range(last + 1, _tableau.N_STAGES_EXTENDED)),
        *(f"    d_{i} = yn_{i} - y_{i}" for i in range(n)),
        "    return (",
        f"        {ys}",
        f"        {ds}",
        "        " + "".join(f"h * k0_{i} - d_{i}, " for i in range(n)),
        "        " + "".join(f"2 * d_{i} - h * (k{last}_{i} + k0_{i}), " for i in range(n)),
        *("        " + "".join(f"h * {_dot(row, i)}, " for i in range(n))
          for row in _tableau.D),
        "    )",
    ]
    scope = {"sqrt": math.sqrt}
    exec(compile("\n".join(src), f"<dop853 kernels, n={n}>", "exec"), scope)
    return scope["step"], scope["dense"]


def _rms(values):
    return math.sqrt(sum(v * v for v in values)) / len(values) ** 0.5


def _initial_step(fun, t0, y0, t_bound, max_step, f0, rtol, atol):
    """First step size (Hairer, Norsett and Wanner, Sec. II.4), as in scipy."""
    interval = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, tuple(v + h0 * f for v, f in zip(y0, f0)))
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT)
    return min(100 * h0, h1, interval, max_step)


def _interpolate(coef, n, t_old, h, t):
    """One step's dense output at a float t, as a tuple of floats."""
    x = (t - t_old) / h
    y = [0.0] * n
    for j in range(_COEF_ROWS - 1, 0, -1):
        # F_{j-1} enters times x when j - 1 is even, times 1 - x when odd
        w = x if j % 2 else 1.0 - x
        y = [(a + f) * w for a, f in zip(y, coef[j * n:(j + 1) * n])]
    return tuple(a + y0 for a, y0 in zip(y, coef[:n]))


class DenseOutput:
    """Piecewise DOP853 interpolant over the accepted steps.

    Segment k covers [ts[k], ts[k + 1]]; a node belongs to the segment that
    ends there, so it evaluates to that step's end state.  A float argument
    is evaluated in pure Python (``at``); an array argument in numpy, one
    interpolant row at a time, and gives an (n, m) array.

    A segment whose interpolant was not built during the integration is
    built on first use: ``at`` builds the one it reads, an array argument
    builds all of them.  Each build costs three evaluations of ``fun`` and
    replaces the step's entry in one assignment, so threads that share an
    instance read either entry and get the same values.
    """

    def __init__(self, ts, t_old, h, segments, n, build):
        self._ts = ts
        self._t_old = t_old
        self._h = h
        # interpolant coefficients (y_old, F0..F6 flat), or a _Step to build
        self._segments = segments
        self._n = n
        self._build = build

    def _coef(self, k):
        coef = self._segments[k]
        if type(coef) is _Step:
            coef = self._build(self._t_old[k], self._h[k], *coef)
            self._segments[k] = coef
        return coef

    def _segment(self, t):
        return min(max(bisect.bisect_left(self._ts, t) - 1, 0), len(self._segments) - 1)

    def at(self, t):
        """State at a float t as a tuple of floats."""
        k = self._segment(t)
        return _interpolate(self._coef(k), self._n, self._t_old[k], self._h[k], t)

    @functools.cached_property
    def _arrays(self):
        # (rows, n, segments): row 0 is y_old, row j the coefficient F_{j-1}
        coefs = [self._coef(k) for k in range(len(self._segments))]
        coef = np.array(coefs).T.reshape(_COEF_ROWS, self._n, -1)
        return np.array(self._ts), np.array(self._t_old), np.array(self._h), coef

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return np.array(self.at(float(t)))
        ts, t_old, h, coef = self._arrays
        seg = np.searchsorted(ts, t, side="left") - 1
        np.clip(seg, 0, len(self._segments) - 1, out=seg)
        x = (t - np.take(t_old, seg)) / np.take(h, seg)
        one_minus_x = 1.0 - x
        y = np.zeros((self._n, t.size))
        for j in range(_COEF_ROWS - 1, 0, -1):
            y += np.take(coef[j], seg, axis=1)
            y *= x if j % 2 else one_minus_x
        y += np.take(coef[0], seg, axis=1)
        return y


@dataclass(frozen=True)
class OdeResult:
    """What ``solve_ivp`` returns; the fields mean what scipy's do."""

    t: np.ndarray
    y: np.ndarray
    sol: DenseOutput
    t_events: list
    nfev: int
    status: int
    message: str

    @property
    def success(self):
        return self.status >= 0


def _tolerance(tol, name):
    value = float(tol)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")
    return value


def solve_ivp(fun, t_span, y0, *, rtol, atol, events=(), max_step=math.inf):
    """Integrate y' = fun(t, y) forward over t_span with DOP853 and dense output.

    Behaves as scipy's ``solve_ivp(..., method="DOP853", dense_output=True)``
    with the same arguments and every event terminal, forward integration
    only.  ``events`` are callables ``event(t, y)`` with an optional
    ``direction`` attribute; the earliest root among them ends the
    integration.  rtol and atol are scalars; an rtol below ``MIN_RTOL``
    raises ValueError.  Returns an ``OdeResult``: ``t``
    and ``y`` at the accepted steps (ending at the event), the interpolant
    ``sol``, ``t_events``, ``nfev`` and ``status`` (-1 step too small, 0 end
    reached, 1 event).

    Unlike scipy, ``nfev`` counts the evaluations made during the
    integration: 2 for the first step size, 12 per attempted step and 3 for
    the step whose interpolant the event needed.  The interpolants of the other
    steps are built by ``sol`` on first use, 3 evaluations each, after
    which the total equals scipy's count.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t < t_bound:
        raise ValueError("t_span must be increasing")
    y = tuple(float(v) for v in y0)
    n = len(y)
    rtol = _tolerance(rtol, "rtol")
    atol = _tolerance(atol, "atol")
    if rtol < MIN_RTOL:
        raise ValueError(f"rtol must be >= {MIN_RTOL:.3g}, got {rtol!r}")
    max_step = float(max_step)
    if not max_step > 0.0:
        raise ValueError("max_step must be positive")
    step, dense = _kernels(n)

    f = tuple(fun(t, y))
    h_abs = _initial_step(fun, t, y, t_bound, max_step, f, rtol, atol)
    attempted = built = 0
    direction = [float(getattr(ev, "direction", 0.0)) for ev in events]
    g = [ev(t, y) for ev in events]
    t_events = [[] for _ in events]
    ts, ys, t_olds, hs, segments = [t], [y], [], [], []
    status = None
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            y_new, f_new, err, K = step(fun, t, y, f, h, rtol, atol)
            attempted += 1
            if err < 1.0:
                factor = MAX_FACTOR if err == 0.0 else min(
                    MAX_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t >= t_bound:
            status = 0
        t_end, y_end = t, y
        g_new = [ev(t, y) for ev in events]
        active = [
            i for i, (d, a, b) in enumerate(zip(direction, g, g_new))
            if (d >= 0.0 and a <= 0.0 <= b) or (d <= 0.0 and a >= 0.0 >= b)
        ]
        g = g_new
        if not active:
            coef = _Step(y_old, y, K)
        else:
            coef = dense(fun, t_old, h, y_old, y, K)
            built += 1
            t_end, first = min(
                (brentq(
                    lambda s, ev=events[i]: ev(s, _interpolate(coef, n, t_old, h, s)),
                    t_old, t, xtol=4 * EPS, rtol=4 * EPS,
                ), i)
                for i in active
            )
            t_events[first].append(t_end)
            y_end = _interpolate(coef, n, t_old, h, t_end)
            status = 1
        if len(ts) > 1 and ts[-1] == t_end:
            continue  # an event at the previous node
        ts.append(t_end)
        ys.append(y_end)
        t_olds.append(t_old)
        hs.append(h)
        segments.append(coef)

    return OdeResult(
        t=np.array(ts),
        y=np.array(ys).T,
        sol=DenseOutput(ts, t_olds, hs, segments, n, functools.partial(dense, fun)),
        t_events=[np.array(te) for te in t_events],
        nfev=2 + _STEP_EVALS * attempted + _DENSE_EVALS * built,
        status=status,
        message=_MESSAGES[status],
    )
