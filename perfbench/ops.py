"""Workload inputs, operations and output checks for the membranelab benchmark.

Every workload is a closed loop with one client: operation k+1 starts when
operation k has returned.  Inputs come from the seed through a shifted
low-discrepancy sequence, so any prefix of a run covers the input ranges
evenly and two seeds exercise the same mix; fixed anchors come first.
Checks run between operations, outside the timed region.
"""

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

from membranelab import cli, linearized, profile, shooting, spectral

#: tail percentile per workload, chosen so that a full run leaves at least
#: ten samples beyond it (see README.md)
TAIL_PERCENTILE = {"certify": 75, "artifacts": 85}

#: deterministic work counters cover this many leading operations
WORK_OPS = {"certify": 4, "artifacts": 8}

_SAMPLED_LINES = 16


def _van_der_corput(k):
    """Radical inverse of k in base 2."""
    u, scale = 0.0, 0.5
    while k:
        k, bit = divmod(k, 2)
        u += bit * scale
        scale *= 0.5
    return u


def _kronecker_alphas(dim):
    """Additive steps of the R-sequence (generalized golden ratio) in dim dims."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return [g ** -(i + 1) for i in range(dim)]


class _Sequence:
    """Low-discrepancy points in [0, 1)^dim drawn from a seed.

    Coordinate 0 is a van der Corput sequence, each point jittered within
    a cell of width 1/64: up to 64 points, the first 2^m fall one into each
    interval of length 2^-m.  It is the coordinate that sets an operation's
    cost, so every run, whatever its seed and length, meets the same spread
    of costs.  The other coordinates follow the R-sequence with a seeded
    shift.
    """

    def __init__(self, seed, dim):
        self.seed = seed
        self.shift = np.random.default_rng(seed).random(dim)
        self.alphas = _kronecker_alphas(dim - 1)

    def __call__(self, k):
        jitter = np.random.default_rng([self.seed, k]).random()
        u0 = (_van_der_corput(k) + jitter / 64.0) % 1.0
        return [u0] + [(k * a + s) % 1.0 for a, s in zip(self.alphas, self.shift[1:])]


def _log_between(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _admissible(u_p, u_c):
    """(c_o, z_o): c_o log-uniform in [0.5, 4], -c_o z_o in (1.05, 4]."""
    c_o = _log_between(u_c, 0.5, 4.0)
    p = _log_between(1.0 - u_p, 1.05, 4.0)
    return c_o, -p / c_o


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class _Workload:
    cycle = 1

    def verdict(self, out):
        return None

    def bytes_written(self, k):
        return 0

    def cleanup(self, k):
        pass


class Certify(_Workload):
    """shoot_sigma0 -> solve_h -> certify on a boundary circle (R, Z)."""

    name = "certify"
    anchor = (0.5, -3.0)

    def __init__(self, seed, oracles, workdir):
        self.seq = _Sequence(seed, 2)
        self.oracles = oracles

    def input(self, k):
        if k == 0:
            return self.anchor
        u_ratio, u_z = self.seq(k)
        abs_z = _log_between(u_z, 1.0, 4.0)
        return _log_between(u_ratio, 0.05, 2.0) * abs_z, -abs_z

    def warmup_inputs(self):
        return [self.anchor]

    def operate(self, inp, k):
        sig = shooting.shoot_sigma0(shooting.BoundaryCircle(*inp))
        lin = linearized.solve_h(sig.curve)
        return sig, lin, spectral.certify(sig, lin)

    def check(self, inp, out, k):
        R, Z = inp
        sig, lin, cert = out
        c = sig.params
        _require(_finite(c.c_o, c.z_o, sig.boundary_phi, sig.match_residual,
                         lin.h_prime_boundary, cert.m1_zero_residual,
                         cert.m0_gap, cert.m2_gap), "non-finite output")
        for vals in cert.diagnostics["eigenvalues"].values():
            _require(_finite(vals), "non-finite eigenvalue")
        _require(c.sigma0_admissible, "tangential disc outside z_o < -1/c_o")
        _require(sig.match_residual <= 1e-11 * max(R, abs(Z), 1.0),
                 f"match residual {sig.match_residual:.3e} above the solver tolerance")
        _require(abs(sig.boundary_phi) < 1e-8, f"endpoint phi = {sig.boundary_phi:.3e}")
        _require(cert.h_prime_boundary == lin.h_prime_boundary,
                 "certificate slope differs from solve_h")
        if inp == self.anchor:
            o = self.oracles
            _require(abs(c.c_o - o.SIGMA0_05_3["c_o"]) <= 1e-9, f"anchor c_o = {c.c_o!r}")
            _require(abs(c.z_o - o.SIGMA0_05_3["z_o"]) <= 1e-9, f"anchor z_o = {c.z_o!r}")
            _require(_close(lin.h_prime_boundary, o.H_PRIME_05_3, 1e-6),
                     f"anchor h_prime_boundary = {lin.h_prime_boundary!r}")
            _require(cert.verdict == "pass", "anchor certificate did not pass")
        return None

    def verdict(self, out):
        """Why a checked certificate did not pass, or None if it passed.

        A certificate that was computed and checked but says "fail" is a
        completed operation with a negative answer, not a failed one.
        """
        cert = out[2]
        if cert.verdict == "pass":
            return None
        failing = [k for k, ok in cert.conditions.items() if not ok]
        reasons = cert.diagnostics.get("family_failures") or []
        detail = f": {reasons[0][1]}" if reasons and "i" in failing else ""
        return f"verdict {cert.verdict} (conditions {','.join(failing)} failed{detail})"


class Artifacts(_Workload):
    """In-process CLI runs writing CSV/OBJ/JSON into a scratch directory.

    One cycle is trace, linearize, eigen, mesh; a run always ends on a whole
    cycle so every run has the same command mix.  The first cycles run at
    the Table 1 points (c_o = 2), and the first mesh is the largest size
    (256 x 1000), so peak memory is set in every run.
    """

    name = "artifacts"
    cycle = 4
    anchor = (2.0, -0.6)
    commands = ("trace", "linearize", "eigen", "mesh")

    def __init__(self, seed, oracles, workdir):
        self.seq = _Sequence(seed, 3)
        self.workdir = workdir
        self.oracles = oracles
        self.table = [self.anchor] + [
            (2.0, z_o) for z_o in oracles.TABLE1_ZO if z_o != self.anchor[1]
        ]

    def input(self, k):
        cycle, slot = divmod(k, self.cycle)
        if cycle == 0:
            return self._args(slot, *self.anchor, 256, 1000)
        u_size, u_p, u_c = self.seq(cycle)
        if cycle < len(self.table):
            c_o, z_o = self.table[cycle]
        else:
            c_o, z_o = _admissible(u_p, u_c)
        # one size coordinate from 64 x 200 to 256 x 1000: mesh time follows
        # the vertex count, and a 1-D draw keeps each run's size mix even
        n_theta = round(_log_between(u_size, 64, 256))
        n_profile = round(_log_between(u_size, 200, 1000))
        return self._args(slot, c_o, z_o, n_theta, n_profile)

    def warmup_inputs(self):
        return [self._args(slot, *self.anchor, 64, 200) for slot in range(self.cycle)]

    def _args(self, slot, c_o, z_o, n_theta, n_profile):
        cmd = self.commands[slot]
        args = [cmd, "--c_o", repr(c_o), "--z_o", repr(z_o)]
        if cmd in ("trace", "linearize"):
            args += ["--samples", "4000"]
        elif cmd == "eigen":
            args += ["--eigenfunctions", "true"]
        else:
            args += ["--kind", "revolve", "--n_theta", str(n_theta),
                     "--n_profile", str(n_profile)]
        return tuple(args)

    def _out(self, k):
        return os.path.join(self.workdir, f"op{k}")

    def operate(self, inp, k):
        out = self._out(k)
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(inp) + ["--out", out])
        return code, sink.getvalue()

    def bytes_written(self, k):
        out = self._out(k)
        if not os.path.isdir(out):
            return 0
        return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))

    def cleanup(self, k):
        shutil.rmtree(self._out(k), ignore_errors=True)

    def check(self, inp, out, k):
        code, text = out
        if code != 0:
            return f"exit code {code}: {text.strip().splitlines()[-1] if text.strip() else ''}"
        outdir = self._out(k)
        cmd = inp[0]
        opts = dict(zip(inp[1::2], inp[2::2]))
        params = profile.ModelParams(float(opts["--c_o"]), float(opts["--z_o"]))
        with open(os.path.join(outdir, "run_record.json"), encoding="ascii") as fh:
            record = json.load(fh)
        _require(record["inputs"]["command"] == cmd, "run record names another command")
        for entry in record["artifacts"]:
            _require(os.path.isfile(entry["path"]), f"missing artifact {entry['path']}")
        # the reference curve is recomputed at the CLI defaults, so sampled
        # values must round-trip through the 17-digit text exactly
        curve = profile.integrate_profile(params, profile.sigma0_stop())
        rng = np.random.default_rng(k)
        getattr(self, f"_check_{cmd}")(outdir, opts, params, curve, record, rng)
        return None

    def _check_trace(self, outdir, opts, params, curve, record, rng):
        n = int(opts["--samples"])
        header, rows = _read_sampled(os.path.join(outdir, "profile.csv"), n, rng)
        _require(header == "tau,sigma,r,z,phi,H,K,nu3,kappa,q,xi", "profile CSV header")
        taus = np.linspace(0.0, curve.ell, n)
        for i, row in rows:
            tau, sigma, r, z, phi = row[:5]
            _require(tau == taus[i] and sigma == curve.ell - tau, f"row {i}: tau/sigma")
            _require(np.allclose((r, z, phi), curve.state_at(tau), rtol=1e-13, atol=1e-15),
                     f"row {i}: state does not round-trip")
            _require(abs(row[10] + params.c_o) < 1e-8, f"row {i}: xi != -c_o")
        _require(abs(rows[-1][1][4]) < 1e-8, "last row: phi != 0")

    def _check_linearize(self, outdir, opts, params, curve, record, rng):
        n = int(opts["--samples"])
        header, rows = _read_sampled(os.path.join(outdir, "linearized.csv"), n, rng)
        _require(header == "tau,sigma,psi,h,w", "linearized CSV header")
        lin = linearized.solve_h(curve)
        hp = record["derived"]["h_prime_boundary"]
        _require(hp == lin.h_prime_boundary, "run record slope differs from solve_h")
        if params.c_o == 2.0 and params.z_o in self.oracles.TABLE1_INTERNAL:
            want = self.oracles.TABLE1_INTERNAL[params.z_o]
            _require(_close(hp, want, 1e-6), f"Table 1 point {params.z_o}: {hp!r} vs {want!r}")
        for i, (tau, sigma, psi, h, w) in rows:
            want = (lin.kernel.psi_at(tau), lin.h_at(tau), lin.w_at(tau))
            _require(np.allclose((psi, h, w), want, rtol=1e-13, atol=1e-13),
                     f"row {i}: psi/h/w do not round-trip")
        last = rows[-1][1]
        _require(abs(last[2] - 1.0) < 1e-9 and abs(last[3]) < 1e-9 * max(1.0, abs(last[4])),
                 "boundary row: psi != 1 or h != 0")

    def _check_eigen(self, outdir, opts, params, curve, record, rng):
        with open(os.path.join(outdir, "eigen.json"), encoding="ascii") as fh:
            eig = json.load(fh)
        vals = eig["eigenvalues"]
        _require(eig["m"] == 1 and len(vals) == 6 and _finite(vals), "eigen.json content")
        _require(all(a < b for a, b in zip(vals, vals[1:])), "eigenvalues not ascending")
        _require(abs(vals[0]) < 1e-6 * vals[1], f"mode-1 zero eigenvalue {vals[0]:.3e}")
        n = 2 * 1536 + 1
        header, rows = _read_sampled(os.path.join(outdir, "eigenfunctions.csv"), n, rng)
        _require(header == "tau," + ",".join(f"u{j}" for j in range(6)), "eigenfunction header")
        _require(rows[0][1] == [0.0] * 7, "axis row is not a Dirichlet zero")
        _require(rows[-1][1][0] == curve.ell and rows[-1][1][1:] == [0.0] * 6,
                 "boundary row is not a Dirichlet zero at ell")
        _require(all(_finite(row) for _, row in rows), "non-finite eigenfunction")

    def _check_mesh(self, outdir, opts, params, curve, record, rng):
        n_theta = int(opts["--n_theta"])
        n_profile = int(opts["--n_profile"])
        n_vert = (n_profile - 1) * n_theta + 1
        n_face = n_theta + 2 * n_theta * (n_profile - 2)
        d = record["derived"]
        _require((d["vertices"], d["faces"]) == (n_vert, n_face), "vertex/face count formula")
        _require(d["euler_characteristic"] == 1, "mesh is not a disc")
        want_v = set(rng.integers(0, n_vert, _SAMPLED_LINES).tolist()) | {0, n_vert - 1}
        want_f = set(rng.integers(0, n_face, _SAMPLED_LINES).tolist()) | {0, n_face - 1}
        verts, faces, n_v, n_f = {}, {}, 0, 0
        with open(os.path.join(outdir, "revolve.obj"), encoding="ascii") as fh:
            for line in fh:
                if line.startswith("v "):
                    if n_v in want_v:
                        verts[n_v] = [float(x) for x in line.split()[1:]]
                    n_v += 1
                elif line.startswith("f "):
                    if n_f in want_f:
                        faces[n_f] = [int(x) - 1 for x in line.split()[1:]]
                    n_f += 1
        _require((n_v, n_f) == (n_vert, n_face), f"OBJ holds {n_v} v / {n_f} f lines")
        taus = np.linspace(0.0, curve.ell, n_profile)
        r, z, _ = curve.state_at(taus)
        for idx, (x, y, zz) in verts.items():
            ring, j = (0, 0) if idx == 0 else divmod(idx - 1, n_theta)
            ring += idx > 0
            theta = 2.0 * np.pi * j / n_theta
            want = (r[ring] * np.cos(theta), r[ring] * np.sin(theta), z[ring])
            _require(np.allclose((x, y, zz), want, rtol=1e-13, atol=1e-15),
                     f"vertex {idx} does not round-trip")
        for idx, face in faces.items():
            _require(face == _face(idx, n_theta), f"face {idx} = {face}")


def _face(idx, n_theta):
    """Vertex indices of face ``idx`` of the apex-fan disc triangulation."""
    if idx < n_theta:
        return [0, 1 + idx, 1 + (idx + 1) % n_theta]
    i, rest = divmod(idx - n_theta, 2 * n_theta)
    j, second = divmod(rest, 2)
    a, b, jn = 1 + i * n_theta, 1 + (i + 1) * n_theta, (j + 1) % n_theta
    return [a + j, b + jn, a + jn] if second else [a + j, b + j, b + jn]


def _read_sampled(path, n_rows, rng):
    """Header plus sampled data rows (always the first and last) of a CSV.

    Streams the file, so checking a large artifact adds no resident memory.
    """
    want = set(rng.integers(0, n_rows, _SAMPLED_LINES).tolist()) | {0, n_rows - 1}
    rows = []
    count = 0
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        for i, line in enumerate(fh):
            if i in want:
                rows.append((i, [float(x) for x in line.split(",")]))
            count += 1
    _require(count == n_rows, f"{os.path.basename(path)} holds {count} rows, not {n_rows}")
    return header, rows


WORKLOADS = {w.name: w for w in (Certify, Artifacts)}
