"""Benchmark of membranelab: closed-loop workloads over the public API and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0

Workloads are ``certify`` and ``artifacts`` (see README.md).  One
process, one thread, one client: each operation starts when the previous one
has returned.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same inputs untraced and then traced for half the time each and
prints the per-layer metrics.  A summary goes to standard error; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS threads are pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import importlib.util
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "membranelab" / "__init__.py"
ORACLES = ROOT / "tests" / "_oracles.py"
WORKDIR = ROOT / ".bench_work"

#: set-up is measured this many times per run (this process plus fresh
#: interpreters), and the median is reported
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120


class SetupError(Exception):
    """The checkout lacks the sources the benchmark builds on."""


class Outcome(NamedTuple):
    """Result of one operation as the client sees it.

    ``failed`` holds the reason an operation failed (raised, exited
    non-zero or a check failed); ``incorrect`` is set only when a check
    found a wrong output.  ``verdict`` holds why a checked certificate did
    not pass: the program answered, and the answer was negative.
    """

    latency: float
    failed: str | None = None
    verdict: str | None = None
    incorrect: bool = False
    bytes_written: int = 0


def _setup(workload, seed, workdir):
    """Imports, workload construction and the warm-up operations."""
    if not SOURCE.is_file() or not ORACLES.is_file():
        raise SetupError(f"membranelab sources not found under {ROOT}")
    sys.path.insert(0, str(SOURCE.parent.parent))
    import ops

    spec = importlib.util.spec_from_file_location("_bench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    wl = ops.WORKLOADS[workload](seed, oracles, str(workdir))
    for i, inp in enumerate(wl.warmup_inputs()):
        wl.operate(inp, -1 - i)
        wl.cleanup(-1 - i)
    return ops, wl


def _probe_setup(workload, seed):
    """Set-up time of a fresh interpreter running the same ``_setup``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _judge(wl, inp, out, error, k, latency):
    if error is not None:
        outcome = Outcome(latency, failed=error)
    else:
        try:
            failed = wl.check(inp, out, k)
            outcome = Outcome(latency, failed=failed,
                              verdict=None if failed else wl.verdict(out))
        except Exception as exc:  # any exception while checking is a wrong output
            outcome = Outcome(
                latency, failed=f"check: {type(exc).__name__}: {exc}", incorrect=True
            )
    written = wl.bytes_written(k)
    wl.cleanup(k)
    return outcome._replace(bytes_written=written)


def closed_loop(wl, seconds, tracer=None, min_ops=0):
    """Run operations until their summed latency reaches ``seconds``.

    Also runs at least ``min_ops`` operations and ends on a whole cycle of
    the workload's command mix.  Only the operation itself is timed.
    """
    outcomes = []
    busy = 0.0
    k = 0
    while busy < seconds or k < min_ops or k % wl.cycle:
        inp = wl.input(k)
        out = error = None
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            out = wl.operate(inp, k)
        except Exception as exc:  # the loop must go on; the failure is counted
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        busy += latency
        outcomes.append(_judge(wl, inp, out, error, k, latency))
        k += 1
    return outcomes, busy


def _percentile(values, q):
    import numpy as np  # imported by the timed set-up, not at module load

    return float(np.percentile(values, q))


def _reasons(texts):
    return collections.Counter(re.sub(r"[-+0-9.e]{3,}", "#", t) for t in texts if t)


def _summary(workload, seed, outcomes):
    failed = _reasons(o.failed for o in outcomes)
    verdicts = _reasons(o.verdict for o in outcomes)
    lines = [f"{workload} seed {seed}: {len(outcomes)} ops, {sum(failed.values())} failed, "
             f"{sum(verdicts.values())} certificates did not pass"]
    lines += [f"  failed {n} x {reason}" for reason, n in failed.most_common(5)]
    lines += [f"  {n} x {reason}" for reason, n in verdicts.most_common(5)]
    return lines


def _unit(name):
    if name.startswith("work."):
        return "B" if name.endswith("bytes_written") else "count"
    if name.endswith("_per_call"):
        return "count/call"
    if name.endswith(("time_s", "self_s")):
        return "s/op"
    if name.endswith(("bytes", "bytes_written")):
        return "B/op"
    if name.endswith("ratio") or name.startswith("share."):
        return "ratio"
    return "count/op"


def plain_run(ops, wl, args, setups):
    outcomes, busy = closed_loop(wl, args.seconds)
    lat = [o.latency for o in outcomes]
    tail_q = ops.TAIL_PERCENTILE[wl.name]
    tail = _percentile(lat, tail_q)
    beyond = sum(x > tail for x in lat)
    metrics = {
        "ops_per_s": (len(lat) / busy, "1/s"),
        "latency_p50_s": (_percentile(lat, 50), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"  latency_tail_s is p{tail_q}: {beyond} of {len(lat)} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: run longer)"),
        "  setup samples: " + ", ".join(f"{s:.3f}" for s in setups),
    ]
    return outcomes, metrics, notes


def traced_run(ops, wl, args):
    import membranelab
    import spans

    half = args.seconds / 2.0
    untraced, busy_u = closed_loop(wl, half)
    tracer = spans.Tracer()
    tracer.install(membranelab)
    try:
        traced, busy_t = closed_loop(wl, half, tracer, ops.WORK_OPS[wl.name])
    finally:
        tracer.restore()
    n = len(traced)
    values = spans.layer_metrics(tracer.spans, n, busy_t)
    op_bytes = [o.bytes_written for o in traced]
    values.update(spans.work_counters(tracer.spans, ops.WORK_OPS[wl.name], op_bytes))
    values["cli.bytes_written"] = sum(op_bytes) / n
    values["ops_failed_ratio"] = sum(bool(o.failed) for o in traced) / n
    values["spectral.certify.fail_verdict_ratio"] = sum(bool(o.verdict) for o in traced) / n
    values["trace.overhead_ratio"] = (n / busy_t) / (len(untraced) / busy_u)
    path = WORKDIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.dump(str(path))
    metrics = {name: (v, _unit(name)) for name, v in values.items()}
    notes = [f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}"]
    return untraced + traced, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "artifacts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        ops, wl = _setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            outcomes, metrics, notes = traced_run(ops, wl, args)
        else:
            setups = [setup_s] + [
                _probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
            ]
            outcomes, metrics, notes = plain_run(ops, wl, args, setups)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in _summary(args.workload, args.seed, outcomes) + notes:
        print(line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"metric {name} is not finite")
    result = {
        "correct": not any(o.incorrect for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(bool(o.failed) for o in outcomes),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
