"""In-memory spans around the membranelab layer boundaries.

The benchmark never edits the package: it replaces public functions in the
module namespaces where callers look them up (``shooting.integrate_profile``,
``spectral.family_sweep``, the recursive ``shooting.shoot_family_member``,
...), plus the library calls ``solve_ivp`` and ``eigh_tridiagonal`` and the
method ``ProfileCurve.state_at``.  A wrapper records a span only while an
operation is being traced (``Tracer.op`` is set), so checks that run between
operations call straight through.
"""

import functools
import json
import os
import time

# span name -> (module name, attribute); the layer is the first name part
TARGETS = {
    "profile.integrate": ("profile", "integrate_profile"),
    "profile.solve_ivp": ("profile", "solve_ivp"),
    "profile.state_at": ("profile", "ProfileCurve.state_at"),
    "shooting.sigma0": ("shooting", "shoot_sigma0"),
    "shooting.member": ("shooting", "shoot_family_member"),
    "shooting.sweep": ("shooting", "family_sweep"),
    "linearized.solve_h": ("linearized", "solve_h"),
    "linearized.solve_ivp": ("linearized", "solve_ivp"),
    "spectral.certify": ("spectral", "certify"),
    "spectral.eigen_solve": ("spectral", "eigen_solve"),
    "spectral.assemble_mode": ("spectral", "assemble_mode"),
    "spectral.eigh_tridiagonal": ("spectral", "eigh_tridiagonal"),
    "surfaces.mesh": ("surfaces", ("revolve", "branch_linear_mesh", "family_linear_mesh")),
    "surfaces.export_obj": ("surfaces", "export_mesh_obj"),
    "surfaces.export_csv": ("surfaces", "export_profile_csv"),
    "cli.main": ("cli", "main"),
}

LAYERS = ("profile", "shooting", "linearized", "spectral", "surfaces", "cli")

# spans that never contain another span: their self time is their time
LEAVES = ("profile.solve_ivp", "linearized.solve_ivp", "profile.state_at",
          "spectral.eigh_tridiagonal", "surfaces.export_obj")


def _arg(args, kw, pos, name):
    return kw[name] if name in kw else args[pos]


def _solve_ivp_counts(rec, args, kw, out):
    rec["nfev"] = int(out.nfev)
    rec["steps"] = int(out.t.size - 1)


# per-span counters, read after the span has ended so they cost no span time
POST = {
    "profile.solve_ivp": _solve_ivp_counts,
    "linearized.solve_ivp": _solve_ivp_counts,
    "profile.state_at": lambda rec, a, kw, out: rec.update(
        points=int(getattr(_arg(a, kw, 1, "tau"), "size", 1))
    ),
    "spectral.assemble_mode": lambda rec, a, kw, out: rec.update(
        cells=int(_arg(a, kw, 2, "n"))
    ),
    "shooting.sweep": lambda rec, a, kw, out: rec.update(
        members=len(out.members), requested=int(_arg(a, kw, 3, "n"))
    ),
    "surfaces.mesh": lambda rec, a, kw, out: rec.update(
        vertices=int(out.vertices.shape[0]), faces=int(out.faces.shape[0])
    ),
    "surfaces.export_obj": lambda rec, a, kw, out: rec.update(
        bytes=os.path.getsize(out.path)
    ),
    "surfaces.export_csv": lambda rec, a, kw, out: rec.update(
        bytes=os.path.getsize(out.path)
    ),
}


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``restore`` undoes it."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        post = POST.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if tracer.op is None:
                return fn(*args, **kw)
            stack = tracer._stack
            rec = {
                "name": name,
                "op": tracer.op,
                "parent": stack[-1] if stack else -1,
                "ok": False,
            }
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kw)
                rec["ok"] = True
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(rec, args, kw, out)
            return out

        return wrapper

    def install(self, package):
        """Wrap every target wherever a package module holds a reference."""
        modules = [package] + [
            getattr(package, m)
            for m in ("profile", "shooting", "linearized", "spectral", "surfaces", "cli")
        ]
        for name, (home, attrs) in TARGETS.items():
            home_mod = getattr(package, home)
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                if "." in attr:
                    owner_name, meth = attr.split(".")
                    owner = getattr(home_mod, owner_name)
                    self._set(owner, meth, self._wrap(name, getattr(owner, meth)))
                    continue
                original = getattr(home_mod, attr)
                wrapper = self._wrap(name, original)
                # a library function (solve_ivp) is wrapped per calling module
                ours = original.__module__.startswith(package.__name__)
                for mod in modules if ours else [home_mod]:
                    if getattr(mod, attr, None) is original:
                        self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _annotate(spans):
    """Add duration, self time and the name of the nearest shooting ancestor."""
    child = [0.0] * len(spans)
    for rec in spans:
        rec["dur"] = rec["end"] - rec["start"]
        if rec["parent"] >= 0:
            child[rec["parent"]] += rec["dur"]
    for i, rec in enumerate(spans):
        rec["self"] = rec["dur"] - child[i]
        p = rec["parent"]
        same = False
        shoot = None
        while p >= 0:
            anc = spans[p]
            same = same or anc["name"] == rec["name"]
            if shoot is None and anc["name"].startswith("shooting."):
                shoot = anc["name"]
            p = anc["parent"]
        rec["nested_in_self"] = same
        rec["shooting_parent"] = shoot


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_ops, op_time):
    """Per-layer metrics of a traced pass, per operation unless a ratio.

    ``time_s`` is inclusive time (a recursive span counts once, at its
    outermost call); ``self_s`` is duration minus the child spans;
    ``share.<layer>`` is the layer's self time over all operation time, and
    ``share.other`` the rest (benchmark glue and unwrapped code).
    """
    _annotate(spans)
    by_name = {name: [] for name in TARGETS}
    for rec in spans:
        by_name[rec["name"]].append(rec)
    m = {}
    for name, recs in by_name.items():
        m[f"{name}.calls"] = len(recs) / n_ops
        m[f"{name}.time_s"] = sum(r["dur"] for r in recs if not r["nested_in_self"]) / n_ops
        if name not in LEAVES:
            m[f"{name}.self_s"] = sum(r["self"] for r in recs) / n_ops
    for name in ("profile.solve_ivp", "linearized.solve_ivp"):
        m[f"{name}.nfev"] = sum(r.get("nfev", 0) for r in by_name[name]) / n_ops
        m[f"{name}.steps"] = sum(r.get("steps", 0) for r in by_name[name]) / n_ops
    m["profile.state_at.points"] = sum(r.get("points", 0) for r in by_name["profile.state_at"]) / n_ops
    m["spectral.assemble_mode.cells"] = sum(r.get("cells", 0) for r in by_name["spectral.assemble_mode"]) / n_ops
    m["surfaces.mesh.vertices"] = sum(r.get("vertices", 0) for r in by_name["surfaces.mesh"]) / n_ops
    m["surfaces.mesh.faces"] = sum(r.get("faces", 0) for r in by_name["surfaces.mesh"]) / n_ops
    for name in ("surfaces.export_obj", "surfaces.export_csv"):
        m[f"{name}.bytes"] = sum(r.get("bytes", 0) for r in by_name[name]) / n_ops

    integ = by_name["profile.integrate"]
    m["profile.integrate.failed"] = sum(not r["ok"] for r in integ) / n_ops
    in_shooting = [r for r in integ if r["shooting_parent"]]
    m["shooting.integrate_feasible_ratio"] = _ratio(
        sum(r["ok"] for r in in_shooting), len(in_shooting)
    )
    for key, name in (("sigma0", "shooting.sigma0"), ("member", "shooting.member")):
        owned = sum(r["shooting_parent"] == name for r in in_shooting)
        m[f"shooting.{key}.integrations_per_call"] = _ratio(owned, len(by_name[name]))
    m["shooting.member.failed"] = sum(not r["ok"] for r in by_name["shooting.member"]) / n_ops
    sweeps = by_name["shooting.sweep"]
    m["shooting.sweep.success_ratio"] = _ratio(
        sum(r.get("members", 0) for r in sweeps), sum(r.get("requested", 0) for r in sweeps)
    )

    for layer in LAYERS:
        m[f"share.{layer}"] = _ratio(
            sum(r["self"] for r in spans if r["name"].startswith(layer + ".")), op_time
        )
    m["share.other"] = 1.0 - sum(m[f"share.{layer}"] for layer in LAYERS)
    return m


def work_counters(spans, first_ops, op_bytes):
    """Deterministic work of the first ``first_ops`` operations of a pass."""
    recs = [r for r in spans if r["op"] < first_ops]

    def count(name):
        return sum(r["name"] == name for r in recs)

    def total(key):
        return sum(r.get(key, 0) for r in recs)

    return {
        "work.integrations": count("profile.integrate"),
        "work.nfev": total("nfev"),
        "work.steps": total("steps"),
        "work.eigen_solves": count("spectral.eigen_solve"),
        "work.cells": total("cells"),
        "work.bytes_written": sum(op_bytes[:first_ops]),
    }
