"""Command line front end: typed configuration, dispatch, run records.

Commands: trace, sigma0, family, linearize, table1, eigen, certify, mesh,
plus bundled recipes (--recipe fig1|fig2|fig3|table1) that reproduce the
reference parameter sets.  Configuration is a flat ``key = value`` text
file mirrored one-to-one by command line flags; flags override file values,
duplicate keys in a file resolve last-wins with a warning, unknown keys are
rejected.  Every run writes a JSON run record listing inputs, tolerances,
derived scalars and all artifact paths; identical configurations produce
byte-identical artifacts.

Exit codes: 0 success, 1 usage or validation error or an unwritable output
path, 2 numerical non-convergence (diagnostics on standard error).
"""

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    IoFailure,
    MembraneLabError,
    NoConvergence,
    NotAdmissible,
    ParseError,
)
from .linearized import solve_h
from .profile import (
    DEFAULT_ATOL,
    DEFAULT_MAX_ARC_FACTOR,
    DEFAULT_RTOL,
    DEFAULT_TAU0_FACTOR,
    ModelParams,
    StopCondition,
    check_scale,
    check_tolerances,
    integrate_profile,
    sigma0_stop,
)
from .shooting import BoundaryCircle, check_family_range, family_sweep, shoot_sigma0
from .spectral import (
    certify,
    check_certify_size,
    check_eigen_size,
    check_mode,
    eigen_solve,
)
from .surfaces import (
    RunRecord,
    _require_finite_amplitude,
    branch_linear_mesh,
    check_mesh_size,
    export_csv,
    export_json,
    export_mesh_obj,
    export_profile_csv,
    family_linear_mesh,
    revolve,
)

_REQUIRED = object()

_TABLE1_ZO = (-0.55, -0.6, -0.7, -0.9, -1.2)


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ParseError(f"cannot parse boolean value: {text!r}")


def _parse_float_list(text):
    if isinstance(text, (list, tuple)):
        return [float(x) for x in text]
    return [float(x) for x in str(text).split(",") if x.strip()]


_CONVERTERS = {
    "float": float,
    "int": int,
    "str": str,
    "bool": _parse_bool,
    "float_list": _parse_float_list,
}

# only for commands that integrate at them: shooting has its own, fixed
_TOLERANCE_SPECS = {
    "rtol": ("float", DEFAULT_RTOL, "integrator relative tolerance"),
    "atol": ("float", DEFAULT_ATOL, "integrator absolute tolerance"),
}

# per-command parameter specifications: name -> (type name, default, help)
PARAM_SPECS = {
    "trace": {
        "c_o": ("float", _REQUIRED, "spontaneous curvature"),
        "z_o": ("float", _REQUIRED, "axis height (< 0)"),
        "stop": ("str", "phi0", "stop kind: phi0 (tangential) or arc"),
        "arc": ("float", 1.0, "arc length for stop=arc"),
        "samples": ("int", 400, "CSV resample count"),
        **_TOLERANCE_SPECS,
    },
    "sigma0": {
        "R": ("float", _REQUIRED, "boundary circle radius"),
        "Z": ("float", _REQUIRED, "boundary circle height (< 0)"),
        "samples": ("int", 400, "CSV resample count"),
    },
    "family": {
        "R": ("float", _REQUIRED, "boundary circle radius"),
        "Z": ("float", _REQUIRED, "boundary circle height (< 0)"),
        "c_min": ("float", _REQUIRED, "lower spontaneous curvature"),
        "c_max": ("float", _REQUIRED, "upper spontaneous curvature"),
        "n": ("int", 13, "member count"),
        "samples": ("int", 400, "per-member CSV resample count"),
    },
    "linearize": {
        "c_o": ("float", _REQUIRED, "spontaneous curvature"),
        "z_o": ("float", _REQUIRED, "axis height (< 0)"),
        "samples": ("int", 400, "CSV resample count"),
        **_TOLERANCE_SPECS,
    },
    "table1": {
        "c_o": ("float", 2.0, "spontaneous curvature"),
        "z_o_list": ("float_list", list(_TABLE1_ZO), "axis heights"),
        **_TOLERANCE_SPECS,
    },
    "eigen": {
        "c_o": ("float", _REQUIRED, "spontaneous curvature"),
        "z_o": ("float", _REQUIRED, "axis height (< 0)"),
        "m": ("int", 1, "angular mode"),
        "count": ("int", 6, "eigenpair count"),
        "n": ("int", 1536, "cells of the mesh the eigenfunctions are reported on"),
        "eigenfunctions": ("bool", False, "also export eigenfunction CSV"),
        **_TOLERANCE_SPECS,
    },
    "certify": {
        "R": ("float", _REQUIRED, "boundary circle radius"),
        "Z": ("float", _REQUIRED, "boundary circle height (< 0)"),
        "count": ("int", 6, "eigenpair count per mode (at least 2)"),
    },
    "mesh": {
        "kind": ("str", "revolve", "revolve | branch | family"),
        "c_o": ("float", None, "spontaneous curvature (kind=revolve)"),
        "z_o": ("float", None, "axis height (kind=revolve)"),
        "R": ("float", None, "circle radius (kind=branch|family)"),
        "Z": ("float", None, "circle height (kind=branch|family)"),
        "amplitude": ("float", 0.1, "perturbation amplitude"),
        "n_theta": ("int", 64, "angular resolution"),
        "n_profile": ("int", 200, "profile resolution"),
        **_TOLERANCE_SPECS,
    },
}

_GLOBAL_SPECS = {"out": ("str", None, "output directory")}

RECIPES = ("fig1", "fig2", "fig3", "table1")

_RECIPE_N_THETA = 64


@dataclass(frozen=True)
class CommandConfig:
    """Fully resolved invocation: command name plus typed parameters."""

    command: str
    params: dict


def _spec_for(command):
    if command not in PARAM_SPECS:
        raise ParseError(f"unknown command: {command!r}")
    spec = dict(_GLOBAL_SPECS)
    spec.update(PARAM_SPECS[command])
    return spec


def _read_config_file(path):
    pairs = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"{path}:{lineno}: empty key")
        if key in pairs:
            print(
                f"warning: {path}:{lineno}: duplicate key {key!r}, last value wins",
                file=sys.stderr,
            )
        pairs[key] = value
    return pairs


def load_config(path=None, command=None, flag_pairs=None):
    """Resolve a CommandConfig from a config file and/or flag overrides.

    The file is a flat ``key = value`` list (``#`` comments allowed) and may
    carry the ``command`` key; an explicitly given command wins over the
    file's.  Flags override file values.  Unknown keys are rejected.
    """
    file_pairs = _read_config_file(path) if path else {}
    file_command = file_pairs.pop("command", None)
    command = command or file_command
    if command is None:
        raise ParseError("no command given (flag or 'command =' in the config file)")
    spec = _spec_for(command)
    params = {}
    for source in (file_pairs, flag_pairs or {}):
        for key, value in source.items():
            if key not in spec:
                raise ParseError(f"unknown key {key!r} for command {command!r}")
            if value is None:
                raise ParseError(f"bad value for {key!r}: None")
            typename = spec[key][0]
            try:
                params[key] = _CONVERTERS[typename](value)
            except (ValueError, TypeError) as exc:
                raise ParseError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    for key, (typename, default, _help) in spec.items():
        if key not in params:
            if default is _REQUIRED:
                raise ParseError(f"missing required parameter {key!r}")
            params[key] = default
    if params["out"] is None:
        params["out"] = _default_out(command)
    return CommandConfig(command=command, params=params)


def _default_out(name):
    """Output directory of a command or recipe run without ``--out``."""
    return os.path.join(os.environ.get("MEMBRANELAB_OUT", "runs"), name)


def _tolerances(curve):
    """The rtol and atol a curve was integrated at."""
    return {"rtol": curve.rtol, "atol": curve.atol}


def _finish(outdir, inputs, curve, derived, artifacts):
    """Write ``run_record.json`` with the tolerances of the artifacts' ``curve``."""
    tolerances = _tolerances(curve)
    record = RunRecord(
        inputs=inputs, tolerances=tolerances, derived=derived, artifacts=artifacts
    )
    entry = export_json(record, os.path.join(outdir, "run_record.json"))
    print(f"wrote {len(artifacts)} artifact(s) + {entry.path}")
    return 0


def _scaled_params(c_o, z_o):
    params = ModelParams(c_o, z_o)
    check_scale(params)
    return params


def _disc_params(c_o, z_o):
    """Parameters of a tangential disc, checked before any output is made."""
    params = _scaled_params(c_o, z_o)
    if not params.sigma0_admissible:
        raise NotAdmissible(
            f"z_o = {z_o} is not below -1/c_o = {-1.0 / c_o}: no tangential disc"
        )
    return params


def _integrate(params, p, stop=sigma0_stop()):
    """The profile of ``params`` at the command's rtol and atol."""
    return integrate_profile(params, stop, rtol=p["rtol"], atol=p["atol"])


def _run_trace(config):
    p = config.params
    if p["stop"] == "phi0":
        params = _disc_params(p["c_o"], p["z_o"])
        stop = sigma0_stop()
    elif p["stop"] == "arc":
        params = _scaled_params(p["c_o"], p["z_o"])
        stop = StopCondition.at_arc_length(p["arc"])
        guard = stop.arc_guard(params)
        if stop.arc_length > guard:
            raise ValueError(
                f"arc = {p['arc']!r} lies beyond the arc guard "
                f"{guard:.6g} = {DEFAULT_MAX_ARC_FACTOR:g} |z_o|"
            )
    else:
        raise ParseError(f"unknown stop kind {p['stop']!r}")
    outdir = _ensure_out(p["out"])
    curve = _integrate(params, p, stop)
    artifacts = [
        export_profile_csv(curve, os.path.join(outdir, "profile.csv"), n=p["samples"])
    ]
    derived = {
        "ell": curve.ell,
        "stop_reason": curve.stop_reason.value,
        "endpoint": list(curve.state_at(curve.ell)),
    }
    print(f"trace: ell = {curve.ell:.12g}, stop = {curve.stop_reason.value}")
    return outdir, curve, derived, artifacts


def _circle_from(config):
    return BoundaryCircle(config.params["R"], config.params["Z"])


def _run_sigma0(config):
    p = config.params
    circle = _circle_from(config)
    outdir = _ensure_out(p["out"])
    sig = shoot_sigma0(circle)
    artifacts = [
        export_profile_csv(
            sig.curve, os.path.join(outdir, "sigma0_profile.csv"), n=p["samples"]
        )
    ]
    derived = {
        "c_o": sig.params.c_o,
        "z_o": sig.params.z_o,
        "ell": sig.curve.ell,
        "boundary_phi": sig.boundary_phi,
        "match_residual": sig.match_residual,
    }
    print(
        f"sigma0: c_o = {sig.params.c_o:.12g}, z_o = {sig.params.z_o:.12g}, "
        f"mismatch = {sig.match_residual:.3e}"
    )
    return outdir, sig.curve, derived, artifacts


def _family_csv(members, path):
    columns = [
        [m.c for m in members],
        [m.z_o for m in members],
        [m.contact_angle for m in members],
        [m.ell for m in members],
        [m.match_residual for m in members],
    ]
    return export_csv(path, "c,z_o,contact_angle,ell,match_residual", columns, "family")


def _run_family(config):
    p = config.params
    check_family_range(p["c_min"], p["c_max"], p["n"])
    circle = _circle_from(config)
    outdir = _ensure_out(p["out"])
    sweep = family_sweep(circle, p["c_min"], p["c_max"], p["n"])
    if not sweep.members:
        failed = "; ".join(f"c = {c}: {why}" for c, why in sweep.failures)
        raise NoConvergence(f"no family member converged ({failed})")
    artifacts = [_family_csv(sweep.members, os.path.join(outdir, "family.csv"))]
    for i, m in enumerate(sweep.members):
        artifacts.append(
            export_profile_csv(
                m.curve, os.path.join(outdir, f"member_{i:02d}.csv"), n=p["samples"]
            )
        )
    derived = {
        "member_count": len(sweep.members),
        "failures": sweep.failures,
        "contact_angles": [m.contact_angle for m in sweep.members],
    }
    print(f"family: {len(sweep.members)} members, {len(sweep.failures)} failures")
    return outdir, sweep.members[0].curve, derived, artifacts


def _run_linearize(config):
    p = config.params
    params = _disc_params(p["c_o"], p["z_o"])
    outdir = _ensure_out(p["out"])
    curve = _integrate(params, p)
    lin = solve_h(curve)
    taus = np.linspace(0.0, curve.ell, p["samples"])
    psi, h, w = lin.fields_at(taus)
    artifacts = [
        export_csv(
            os.path.join(outdir, "linearized.csv"),
            "tau,sigma,psi,h,w",
            [taus, curve.ell - taus, psi, h, w],
            "linearized",
        )
    ]
    derived = {
        "h_prime_boundary": lin.h_prime_boundary,
        "alpha": lin.alpha,
    }
    print(f"linearize: h_prime_boundary = {lin.h_prime_boundary:.10g}")
    return outdir, curve, derived, artifacts


def _run_table1(config):
    p = config.params
    z_list = p["z_o_list"]
    if not z_list:
        raise ValueError("table1 needs at least one z_o")
    discs = [_disc_params(p["c_o"], z_o) for z_o in z_list]
    outdir = _ensure_out(p["out"])
    slopes, counts = [], []
    for z_o, params in zip(z_list, discs):
        curve = _integrate(params, p)
        lin = solve_h(curve)
        slopes.append(lin.h_prime_boundary)
        counts.append(curve.taus.size)
        print(f"table1: z_o = {z_o:g}  h_prime_boundary = {lin.h_prime_boundary:.6f}")
    artifacts = [
        export_csv(
            os.path.join(outdir, "table1.csv"),
            "c_o,z_o,h_prime_boundary",
            [[p["c_o"]] * len(z_list), z_list, slopes],
            "table",
        )
    ]
    meta = {
        "tolerances": _tolerances(curve),
        "tau0_factor": DEFAULT_TAU0_FACTOR,
        "sample_counts": {str(z): n for z, n in zip(z_list, counts)},
    }
    artifacts.append(export_json(meta, os.path.join(outdir, "table1_meta.json")))
    derived = {
        "h_prime_boundary": {str(z): h for z, h in zip(z_list, slopes)},
    }
    return outdir, curve, derived, artifacts


def _run_eigen(config):
    p = config.params
    params = _disc_params(p["c_o"], p["z_o"])
    check_mode(p["m"])
    check_eigen_size(p["n"], p["count"])
    outdir = _ensure_out(p["out"])
    curve = _integrate(params, p)
    res = eigen_solve(curve, (p["m"],), p["count"], n=p["n"])[p["m"]]
    payload = {
        "m": res.m,
        "eigenvalues": res.eigenvalues.tolist(),
        "eigenvalues_coarse": res.eigenvalues_coarse.tolist(),
        "discrete_residuals": res.discrete_residuals.tolist(),
    }
    artifacts = [export_json(payload, os.path.join(outdir, "eigen.json"))]
    if p["eigenfunctions"]:
        count = p["count"]
        artifacts.append(
            export_csv(
                os.path.join(outdir, "eigenfunctions.csv"),
                "tau," + ",".join(f"u{k}" for k in range(count)),
                [res.mesh] + [res.eigenfunctions[:, k] for k in range(count)],
                "eigenfunctions",
            )
        )
    print(f"eigen m={res.m}: {np.array2string(res.eigenvalues, precision=8)}")
    return outdir, curve, payload, artifacts


def _run_certify(config):
    p = config.params
    check_certify_size(p["count"])
    circle = _circle_from(config)
    outdir = _ensure_out(p["out"])
    sig = shoot_sigma0(circle)
    lin = solve_h(sig.curve)
    cert = certify(sig, lin, count=p["count"])
    payload = {
        "verdict": cert.verdict,
        "conditions": cert.conditions,
        "kernel_dim_even": cert.kernel_dim_even,
        "h_prime_boundary": cert.h_prime_boundary,
        "m1_zero_residual": cert.m1_zero_residual,
        "m0_gap": cert.m0_gap,
        "m2_gap": cert.m2_gap,
        "fold_c": cert.fold_c,
        "disc_tangent": cert.disc_tangent,
        "contact_angle_slope": cert.contact_angle_slope,
        "diagnostics": cert.diagnostics,
        "sigma0": {"c_o": sig.params.c_o, "z_o": sig.params.z_o, "ell": sig.curve.ell},
    }
    artifacts = [export_json(payload, os.path.join(outdir, "certificate.json"))]
    derived = {
        "verdict": cert.verdict,
        "h_prime_boundary": cert.h_prime_boundary,
    }
    print(f"certify: verdict = {cert.verdict}, conditions = {cert.conditions}")
    return outdir, sig.curve, derived, artifacts


def _run_mesh(config):
    p = config.params
    kind = p["kind"]
    _require_finite_amplitude(p["amplitude"])
    check_mesh_size(p["n_theta"], p["n_profile"])
    if kind == "revolve":
        if p["c_o"] is None or p["z_o"] is None:
            raise ParseError("mesh kind=revolve needs c_o and z_o")
        params = _disc_params(p["c_o"], p["z_o"])
    elif kind in ("branch", "family"):
        if p["R"] is None or p["Z"] is None:
            raise ParseError(f"mesh kind={kind} needs R and Z")
        circle = _circle_from(config)
    else:
        raise ParseError(f"unknown mesh kind {kind!r}")
    outdir = _ensure_out(p["out"])
    if kind == "revolve":
        curve = _integrate(params, p)
        mesh = revolve(curve, p["n_theta"], p["n_profile"])
    else:
        sig = shoot_sigma0(circle)
        curve = sig.curve
        if kind == "branch":
            mesh = branch_linear_mesh(sig, p["amplitude"], p["n_theta"], p["n_profile"])
        else:
            mesh = family_linear_mesh(
                sig, solve_h(sig.curve), p["amplitude"], p["n_theta"], p["n_profile"]
            )
    artifacts = [export_mesh_obj(mesh, os.path.join(outdir, f"{kind}.obj"))]
    derived = {
        "vertices": int(mesh.vertices.shape[0]),
        "faces": int(mesh.faces.shape[0]),
        "euler_characteristic": int(mesh.euler_characteristic()),
        "amplitude": p["amplitude"],
    }
    print(f"mesh: {derived['vertices']} vertices, {derived['faces']} faces")
    return outdir, curve, derived, artifacts


# each command returns (outdir, curve, derived, artifacts), ``curve`` being
# the profile the artifacts came from; ``run`` writes the record
_DISPATCH = {
    "trace": _run_trace,
    "sigma0": _run_sigma0,
    "family": _run_family,
    "linearize": _run_linearize,
    "table1": _run_table1,
    "eigen": _run_eigen,
    "certify": _run_certify,
    "mesh": _run_mesh,
}


@contextlib.contextmanager
def _cleared_on_failure(outdir):
    """On failure, remove the directories toward ``outdir`` that are new.

    Only those that did not exist before the command and are still empty
    go, so a failing command leaves no empty ``--out`` behind and never
    deletes a directory that existed, or any file.
    """
    missing = []
    path = os.path.abspath(outdir)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    try:
        yield
    except BaseException:
        for path in missing:
            try:
                os.rmdir(path)
            except OSError:
                break
        raise


def _ensure_out(outdir):
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {outdir}: {exc}") from exc
    return outdir


def run(config):
    """Execute a resolved configuration; returns the process exit code."""
    if "rtol" in config.params:
        check_tolerances(config.params["rtol"], config.params["atol"])
    if config.params.get("samples", 2) < 2:
        raise ValueError(f"samples must be at least 2, not {config.params['samples']}")
    outdir, curve, derived, artifacts = _DISPATCH[config.command](config)
    inputs = {"command": config.command, **config.params}
    return _finish(outdir, inputs, curve, derived, artifacts)


def _recipe_profile(outdir, curve, csv_name, obj_name=None):
    """A recipe's 400-row profile CSV, plus its 64-ray surface if named."""
    artifacts = [export_profile_csv(curve, os.path.join(outdir, csv_name), n=400)]
    if obj_name:
        mesh = revolve(curve, _RECIPE_N_THETA)
        artifacts.append(export_mesh_obj(mesh, os.path.join(outdir, obj_name)))
    return artifacts


def _recipe_fig1(outdir):
    artifacts = []
    for z_o in _TABLE1_ZO:
        curve = integrate_profile(ModelParams(2.0, z_o), sigma0_stop())
        tag = ("m%.2f" % -z_o).replace(".", "p")
        artifacts += _recipe_profile(
            outdir, curve, f"profile_{tag}.csv", f"surface_{tag}.obj"
        )
    inputs = {"c_o": 2.0, "z_o_list": list(_TABLE1_ZO)}
    return inputs, curve, {"dashed_line": -0.5}, artifacts


def _recipe_fig2(outdir):
    sweep = family_sweep(BoundaryCircle(0.5, -3.0), 1.2, 1.8, 13)
    artifacts = [_family_csv(sweep.members, os.path.join(outdir, "family.csv"))]
    for m in sweep.members:
        tag = ("c%.2f" % m.c).replace(".", "p")
        drawn = any(abs(m.c - c) < 1e-9 for c in (1.8, 1.5, 1.3, 1.2))
        surface = f"surface_{tag}.obj" if drawn else None
        artifacts += _recipe_profile(outdir, m.curve, f"member_{tag}.csv", surface)
    inputs = {"R": 0.5, "Z": -3.0, "c_min": 1.2, "c_max": 1.8, "n": 13}
    derived = {"contact_angles": [m.contact_angle for m in sweep.members]}
    return inputs, sweep.members[0].curve, derived, artifacts


def _recipe_fig3(outdir):
    sig = shoot_sigma0(BoundaryCircle(0.5, -3.0))
    artifacts = _recipe_profile(outdir, sig.curve, "sigma0_profile.csv", "sigma0.obj")
    amplitudes = (-0.2, -0.1, 0.1, 0.2)
    for s in amplitudes:
        tag = ("s%+.2f" % s).replace(".", "p").replace("+", "p").replace("-", "m")
        artifacts.append(
            export_mesh_obj(
                branch_linear_mesh(sig, s, _RECIPE_N_THETA),
                os.path.join(outdir, f"branch_{tag}.obj"),
            )
        )
    inputs = {"R": 0.5, "Z": -3.0, "amplitudes": list(amplitudes)}
    derived = {"c_o": sig.params.c_o, "z_o": sig.params.z_o}
    return inputs, sig.curve, derived, artifacts


# figure recipes: outdir -> (inputs, curve, derived, artifacts)
_FIGURE_RECIPES = {"fig1": _recipe_fig1, "fig2": _recipe_fig2, "fig3": _recipe_fig3}


def _run_recipe(name, out):
    if name == "table1":
        return run(load_config(command="table1", flag_pairs={"out": out}))
    outdir = _ensure_out(out)
    inputs, curve, derived, artifacts = _FIGURE_RECIPES[name](outdir)
    return _finish(outdir, {"recipe": name, **inputs}, curve, derived, artifacts)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser():
    # an option left out is absent from the namespace, so a subparser cannot
    # reset an --out or --config given before its command
    omit = argparse.SUPPRESS
    shared = argparse.ArgumentParser(add_help=False, argument_default=omit)
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--config", help="flat key = value configuration file")
    parser = _Parser(
        prog="membranelab",
        description=__doc__.splitlines()[0],
        parents=[shared],
        argument_default=omit,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--recipe", choices=RECIPES, help="run a bundled recipe")
    sub = parser.add_subparsers(dest="command")
    for command, spec in PARAM_SPECS.items():
        p = sub.add_parser(command, parents=[shared], argument_default=omit)
        for key, (_typename, _default, help_text) in spec.items():
            p.add_argument(f"--{key}", help=help_text)
    return parser


def main(argv=None):
    # what is left after the pops are the given parameter flags, --out included
    flags = vars(_build_parser().parse_args(argv))
    command = flags.pop("command")
    recipe = flags.pop("recipe", None)
    path = flags.pop("config", None)
    try:
        if recipe:
            if command or path:
                raise ParseError("--recipe takes neither a command nor --config")
            out = flags.get("out", _default_out(recipe))
            with _cleared_on_failure(out):
                return _run_recipe(recipe, out)
        if not (command or path):
            raise ParseError(
                "a command, --config with a command, or --recipe is required"
            )
        config = load_config(path=path, command=command, flag_pairs=flags)
        with _cleared_on_failure(config.params["out"]):
            return run(config)
    except (ParseError, NotAdmissible, IoFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # sizes too large to allocate, such as --samples 1e12
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except MembraneLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if getattr(exc, "trace", None):
            for step in exc.trace[-5:]:
                print(f"  trace: {step}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
