import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import membranelab
from membranelab import cli, linearized, spectral
from membranelab.cli import load_config, main
from membranelab.errors import ParseError
from membranelab.shooting import SHOOT_ATOL, SHOOT_RTOL
from membranelab.surfaces import read_profile_csv


def run_cli(args):
    return main(args)


# ------------------------------------------------------------ configuration


def test_load_config_flags_only():
    cfg = load_config(command="trace", flag_pairs={"c_o": "2", "z_o": "-0.6"})
    assert cfg.command == "trace"
    assert cfg.params["c_o"] == 2.0 and cfg.params["z_o"] == -0.6
    assert cfg.params["stop"] == "phi0"
    assert cfg.params["rtol"] == 1e-10


def test_load_config_file_and_override(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("command = trace\nc_o = 2\nz_o = -0.6\n# comment\n")
    cfg = load_config(path=str(p), flag_pairs={"z_o": "-0.7"})
    assert cfg.params["z_o"] == -0.7  # flags override file values
    assert cfg.params["c_o"] == 2.0


def test_load_config_duplicate_last_wins(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("command = trace\nc_o = 2\nz_o = -0.6\nz_o = -0.9\n")
    cfg = load_config(path=str(p))
    assert cfg.params["z_o"] == -0.9
    assert "duplicate key" in capsys.readouterr().err


def test_load_config_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("command = trace\nc_o = 2\nz_o = -0.6\nbogus = 1\n")
    with pytest.raises(ParseError):
        load_config(path=str(p))


def test_load_config_missing_required():
    with pytest.raises(ParseError):
        load_config(command="trace", flag_pairs={"c_o": "2"})


def test_load_config_bad_value():
    with pytest.raises(ParseError):
        load_config(command="trace", flag_pairs={"c_o": "two", "z_o": "-0.6"})


@pytest.mark.parametrize(
    "command, key",
    [("trace", "c_o"), ("trace", "stop"), ("trace", "out"), ("eigen", "eigenfunctions")],
)
def test_load_config_none_value_names_the_key(command, key):
    flags = {"c_o": "2", "z_o": "-0.6", key: None}
    with pytest.raises(ParseError, match=f"bad value for '{key}': None"):
        load_config(command=command, flag_pairs=flags)


def test_load_config_empty_file_plus_flags(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("")
    cfg = load_config(path=str(p), command="sigma0",
                      flag_pairs={"R": "0.5", "Z": "-3"})
    assert cfg.params["R"] == 0.5


# ------------------------------------------------------------------ commands


def test_cli_table1(tmp_path, capsys):
    out = tmp_path / "t1"
    assert run_cli(["table1", "--out", str(out)]) == 0
    lines = (out / "table1.csv").read_text().strip().splitlines()
    assert lines[0] == "c_o,z_o,h_prime_boundary"
    assert len(lines) == 6
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    assert [r[1] for r in rows] == [-0.55, -0.6, -0.7, -0.9, -1.2]
    assert rows[1][2] == pytest.approx(-13.577, rel=0.02)
    assert (out / "table1_meta.json").exists()
    record = json.loads((out / "run_record.json").read_text())
    assert record["inputs"]["command"] == "table1"
    paths = [a["path"] for a in record["artifacts"]]
    assert str(out / "table1.csv") in paths


def test_cli_trace_inadmissible_exit_1(tmp_path, capsys):
    rc = run_cli(["trace", "--c_o", "2", "--z_o", "-0.2", "--out", str(tmp_path)])
    assert rc == 1
    assert "not below -1/c_o" in capsys.readouterr().err


def test_cli_trace_arc(tmp_path):
    trace = ["trace", "--c_o", "2", "--z_o", "-0.6", "--stop", "arc", "--arc", "0.4"]
    after, before = tmp_path / "after", tmp_path / "before"
    # --out is honoured after the command and before it
    for out, args in [
        (after, trace + ["--out", str(after)]),
        (before, ["--out", str(before)] + trace),
    ]:
        assert run_cli(args) == 0
        data = read_profile_csv(out / "profile.csv")
        assert data["tau"][-1] == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("arc", ["-1", "0"])
def test_cli_trace_bad_arc_exit_1(tmp_path, capsys, arc):
    out = tmp_path / "tr"
    rc = run_cli(["trace", "--c_o", "2", "--z_o", "-0.6", "--stop", "arc",
                  "--arc", arc, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: arc length")
    assert not out.exists()


@pytest.mark.parametrize(
    "R, Z", [("1e300", "-1"), ("1e-300", "-1"), ("1", "-1e300"), ("1e-300", "-1e300")]
)
def test_cli_sigma0_unreachable_direction_exit_2(tmp_path, capsys, R, Z):
    # no unit disc ends in these directions: the Newton in u runs to a flat
    # disc (t rounds to -1) or to the deepest one (t = -1e4); the last
    # direction underflows to 0
    out = tmp_path / "s"
    assert run_cli(["sigma0", "--R", R, f"--Z={Z}", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("numerical failure: sigma0 ")
    assert lines[0].endswith("collocations done)")
    assert all(line.startswith("  trace: ") for line in lines[1:])
    assert not out.exists()


def test_cli_sigma0_underflowing_iterate_exit_2(tmp_path, capsys):
    # a Newton step drives log c_o so low that exp underflows to c_o = 0
    rc = run_cli(["sigma0", "--R", "100", "--Z", "-0.01", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["trace", "--c_o", "2", "--z_o", "-0.6", "--samples", "10000000000000000"],
        ["eigen", "--c_o", "2", "--z_o", "-0.6", "--n", "10000000000000000",
         "--eigenfunctions", "true"],
    ],
)
def test_cli_unallocatable_size_exit_1(tmp_path, capsys, args):
    # 10**16 samples or cells ask for 71 PiB, more than a 64-bit process can
    # map, so the allocation fails whatever the memory overcommit policy; the
    # eigen mesh is built only when the eigenfunctions are written
    assert run_cli(args + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_failure_removes_only_the_out_it_made(tmp_path, capsys, monkeypatch):
    # numpy refuses the 71 PiB of 10**16 samples after --out is made
    args = ["trace", "--c_o", "2", "--z_o", "-0.6", "--samples", "10000000000000000"]
    made = tmp_path / "new" / "out"
    assert run_cli(args + ["--out", str(made)]) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert list(tmp_path.iterdir()) == []
    # a directory that existed stays, with what it holds
    kept = tmp_path / "kept"
    (kept / "old").mkdir(parents=True)
    assert run_cli(args + ["--out", str(kept)]) == 1
    assert list(kept.iterdir()) == [kept / "old"]
    # a directory the command made stays once a file is in it
    def half_written(curve, path, n):
        open(path, "w").close()
        raise MemoryError("Unable to allocate the rest")

    monkeypatch.setattr(cli, "export_profile_csv", half_written)
    assert run_cli(args[:-2] + ["--out", str(made)]) == 1
    assert list(made.iterdir()) == [made / "profile.csv"]


def test_cli_sigma0(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["sigma0", "--R", "0.5", "--Z", "-3", "--out", str(out)]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["derived"]["c_o"] == pytest.approx(1.5139, abs=1e-3)


def test_cli_certify(tmp_path):
    out = tmp_path / "cert"
    assert run_cli(["certify", "--R", "0.5", "--Z", "-3", "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "pass"
    assert cert["conditions"] == {"i": True, "ii": True, "iii": True}
    members = cert["diagnostics"]["family_members"]
    assert len(members) == cert["diagnostics"]["family_count"] == 5
    assert [sorted(m) for m in members] == [["c", "contact_angle", "ell", "z_o"]] * 5
    assert [m["c"] for m in members] == sorted(m["c"] for m in members)
    # the member at the disc: its curvature, tangent and length
    disc = members[2]
    assert disc["c"] == cert["sigma0"]["c_o"]
    assert abs(disc["contact_angle"]) < 1e-8
    assert disc["z_o"] == pytest.approx(cert["sigma0"]["z_o"], rel=1e-10)
    assert disc["ell"] == pytest.approx(cert["sigma0"]["ell"], rel=1e-10)


def test_cli_certify_reports_the_fold(tmp_path):
    out = tmp_path / "cert"
    assert run_cli(["certify", "--R", "1.5", "--Z", "-2", "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["conditions"]["i"] is True
    assert cert["fold_c"]["above"] > cert["sigma0"]["c_o"]
    assert cert["fold_c"]["below"] is None
    assert len(cert["disc_tangent"]) == 3


def test_cli_eigen_with_functions(tmp_path):
    out = tmp_path / "e"
    rc = run_cli([
        "eigen", "--c_o", "2", "--z_o", "-0.6", "--m", "1", "--count", "3",
        "--n", "400", "--eigenfunctions", "true", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "eigen.json").read_text())
    assert abs(payload["eigenvalues"][0]) < 1e-6
    lines = (out / "eigenfunctions.csv").read_text().splitlines()
    assert lines[0] == "tau,u0,u1,u2"


@pytest.mark.parametrize("count", [1, 40])
def test_cli_eigen_count(tmp_path, count):
    # count 1 of the default mode 1 is its zero alone; 40 starts above degree 61
    out = tmp_path / "e"
    rc = run_cli([
        "eigen", "--c_o", "2", "--z_o", "-0.6", "--count", str(count),
        "--n", "200", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "eigen.json").read_text())
    assert payload["m"] == 1 and len(payload["eigenvalues"]) == count
    assert abs(payload["eigenvalues"][0]) < 1e-6


def test_cli_eigen_unsettled_exit_2(tmp_path, capsys, monkeypatch):
    # no two collocation degrees below the cap: a numerical failure, and the
    # --out the command made is removed again
    monkeypatch.setattr(spectral, "_MAX_DEGREE", spectral._FIRST_DEGREE)
    out = tmp_path / "e"
    assert run_cli(["eigen", "--c_o", "2", "--z_o", "-0.6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: mode 1: no two collocation degrees")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_family(tmp_path):
    out = tmp_path / "f"
    rc = run_cli([
        "family", "--R", "0.5", "--Z", "-3", "--c_min", "1.4",
        "--c_max", "1.6", "--n", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "family.csv").read_text().strip().splitlines()
    assert lines[0] == "c,z_o,contact_angle,ell,match_residual"
    assert len(lines) == 6
    assert (out / "member_00.csv").exists()


def test_cli_linearize(tmp_path):
    out = tmp_path / "lin"
    rc = run_cli(["linearize", "--c_o", "2", "--z_o", "-0.6", "--out", str(out)])
    assert rc == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["derived"]["h_prime_boundary"] == pytest.approx(-13.577, rel=0.02)
    lines = (out / "linearized.csv").read_text().splitlines()
    assert lines[0] == "tau,sigma,psi,h,w"


def test_cli_linearize_unsettled_exit_2(tmp_path, capsys, monkeypatch):
    # h's degree capped at its first: a numerical failure, and the --out the
    # command made is removed again
    monkeypatch.setattr(linearized, "_MAX_DEGREE", linearized._FIRST_DEGREE)
    out = tmp_path / "lin"
    assert run_cli(["linearize", "--c_o", "2", "--z_o", "-0.6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: h: no two collocation degrees")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_mesh_kinds(tmp_path):
    assert run_cli(["mesh", "--kind", "revolve", "--c_o", "2", "--z_o", "-0.6",
                    "--n_theta", "24", "--n_profile", "60",
                    "--out", str(tmp_path / "m1")]) == 0
    assert (tmp_path / "m1" / "revolve.obj").exists()
    assert run_cli(["mesh", "--kind", "branch", "--R", "0.5", "--Z", "-3",
                    "--amplitude", "0.1", "--n_theta", "24",
                    "--n_profile", "60", "--out", str(tmp_path / "m2")]) == 0
    assert (tmp_path / "m2" / "branch.obj").exists()
    # missing parameters for the requested kind
    assert run_cli(["mesh", "--kind", "branch", "--out", str(tmp_path / "m3")]) == 1


@pytest.mark.parametrize(
    "args, blocked",
    [
        (["linearize", "--c_o", "2", "--z_o", "-0.6"], "linearized.csv"),
        (["trace", "--c_o", "2", "--z_o", "-0.6", "--samples", "20"], "profile.csv"),
    ],
)
def test_cli_unwritable_artifact_exit_1(tmp_path, capsys, args, blocked):
    # a directory squatting on the artifact path makes the write fail
    (tmp_path / blocked).mkdir()
    assert run_cli(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


def test_cli_out_under_regular_file_exit_1(tmp_path, capsys):
    blocker = tmp_path / "plain"
    blocker.write_text("")
    rc = run_cli(["trace", "--c_o", "2", "--z_o", "-0.6", "--samples", "20",
                  "--out", str(blocker / "sub")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot write")


@pytest.mark.parametrize(
    "args",
    [
        ["trace", "--c_o", "2", "--z_o", "-0.6"],
        ["sigma0", "--R", "0.5", "--Z", "-3"],
        ["family", "--R", "0.5", "--Z", "-3", "--c_min", "1.4", "--c_max", "1.6"],
        ["linearize", "--c_o", "2", "--z_o", "-0.6"],
        ["table1"],
        ["eigen", "--c_o", "2", "--z_o", "-0.6"],
        ["certify", "--R", "0.5", "--Z", "-3"],
    ],
)
def test_cli_unwritable_out_found_before_compute(tmp_path, capsys, monkeypatch, args):
    def computed(*_args, **_kw):
        raise AssertionError("computed before the output directory was made")

    for name in ("integrate_profile", "shoot_sigma0", "family_sweep"):
        monkeypatch.setattr(cli, name, computed)
    blocker = tmp_path / "plain"
    blocker.write_text("")
    assert run_cli(args + ["--out", str(blocker / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_cli_family_without_members_exit_2(tmp_path, capsys):
    out = tmp_path / "f"
    rc = run_cli([
        "family", "--R", "0.5", "--Z", "-3", "--c_min", "0.01",
        "--c_max", "20", "--n", "2", "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no family member converged" in err and "c = 20.0" in err
    assert not (out / "family.csv").exists()
    assert run_cli(["family", "--R", "0.5", "--Z", "-3", "--c_min", "1.4",
                    "--c_max", "1.6", "--n", "0", "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "revolve", "--c_o", "2", "--z_o", "-0.6", "--n_profile", "1"],
        ["--kind", "revolve", "--c_o", "2", "--z_o", "-0.6", "--n_profile", "0"],
        ["--kind", "branch", "--R", "0.5", "--Z", "-3", "--amplitude", "nan"],
        ["--kind", "family", "--R", "0.5", "--Z", "-3", "--amplitude", "inf"],
        ["--kind", "revolve", "--c_o", "2", "--z_o", "-0.6", "--amplitude", "nan"],
    ],
)
def test_cli_mesh_bad_input_exit_1(tmp_path, capsys, args):
    out = tmp_path / "m"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["mesh"] + args + ["--n_theta", "16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("n_profile" in err or "amplitude" in err)
    assert not any(out.glob("*.obj"))


@pytest.mark.parametrize(
    "args",
    [
        ["mesh", "--kind", "family", "--R", "0.5", "--Z", "-3",
         "--n_theta", "2", "--n_profile", "50"],
        ["table1", "--z_o_list=-0.55,-0.1"],
        ["table1", "--z_o_list="],
        ["eigen", "--c_o", "2", "--z_o", "-0.6", "--count", "0"],
        ["eigen", "--c_o", "2", "--z_o", "-0.6", "--count", "500", "--n", "200"],
        ["eigen", "--c_o", "2", "--z_o", "-0.6", "--n", "100"],
        ["certify", "--R", "0.5", "--Z", "-3", "--count", "0"],
        ["certify", "--R", "0.5", "--Z", "-3", "--count", "77"],
        ["trace", "--c_o", "2", "--z_o", "-0.6", "--rtol", "0"],
        ["trace", "--c_o", "2", "--z_o", "-0.6", "--rtol", "nan"],
        ["linearize", "--c_o", "2", "--z_o", "-0.6", "--atol", "-1"],
        ["mesh", "--kind", "branch"],
        ["mesh", "--kind", "cone"],
        ["mesh", "--kind", "revolve", "--c_o", "2"],
        ["mesh", "--kind", "revolve", "--c_o", "2", "--z_o", "-0.2"],
        ["eigen", "--c_o", "2", "--z_o", "-0.6", "--m", "-1"],
        ["sigma0", "--R", "-1", "--Z", "-3"],
        ["certify", "--R", "0.5", "--Z", "3"],
        ["family", "--R", "0.5", "--Z", "3", "--c_min", "1", "--c_max", "2"],
        ["mesh", "--kind", "branch", "--R", "0.5", "--Z", "3"],
        ["trace", "--c_o", "1", "--z_o=-1e7"],
        ["linearize", "--c_o", "1", "--z_o=-1e7"],
        ["eigen", "--c_o", "1", "--z_o=-1e7"],
        ["mesh", "--kind", "revolve", "--c_o", "1", "--z_o=-1e7"],
        ["table1", "--c_o", "1", "--z_o_list=-2,-1e7"],
        ["--recipe", "table1", "trace", "--c_o", "2", "--z_o", "-0.6"],
        ["--recipe", "fig1", "--config", "run.cfg"],
        ["--config", "run.cfg", "--recipe", "table1"],
        ["family", "--R", "0.5", "--Z", "-3", "--c_min", "nan", "--c_max", "2"],
        ["family", "--R", "0.5", "--Z", "-3", "--c_min", "1", "--c_max", "inf"],
        ["family", "--R", "0.5", "--Z", "-3", "--c_min", "-1", "--c_max", "2"],
        ["family", "--R", "0.5", "--Z", "-3", "--c_min", "2", "--c_max", "1"],
        ["trace", "--c_o", "2", "--z_o", "-0.6", "--samples", "-5"],
        ["trace", "--c_o", "2", "--z_o", "-0.6", "--samples", "1"],
        ["sigma0", "--R", "0.5", "--Z", "-3", "--samples", "0"],
        ["family", "--R", "0.5", "--Z", "-3", "--c_min", "1.2", "--c_max", "1.8",
         "--samples", "1"],
        ["linearize", "--c_o", "2", "--z_o", "-0.6", "--samples", "-5"],
        ["trace", "--c_o", "2", "--z_o", "-0.6", "--stop", "arc", "--arc", "1e9"],
        ["certify", "--R", "0.5", "--Z", "-3", "--count", "1"],
        ["family", "--R", "0.5", "--Z", "-3", "--c_min", "1.2", "--c_max", "1.8",
         "--n", "0"],
        ["sigma0", "--R", "inf", "--Z", "-3"],
        ["certify", "--R", "0.5", "--Z=-inf"],
    ],
)
def test_cli_bad_input_exit_1_before_compute(tmp_path, capsys, monkeypatch, args):
    def computed(*_args, **_kw):
        raise AssertionError("computed before the input was checked")

    for name in ("integrate_profile", "shoot_sigma0"):
        monkeypatch.setattr(cli, name, computed)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_trace_huge_axis_product_exit_1_fast(tmp_path, capsys):
    # used to integrate for minutes without output
    out = tmp_path / "o"
    start = time.perf_counter()
    assert run_cli(["trace", "--c_o", "1", "--z_o=-1e7", "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_cli_tolerances_only_where_they_act(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(["sigma0", "--R", "0.5", "--Z", "-3", "--rtol", "1e-3",
                 "--out", str(out)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --rtol" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = certify\nR = 0.5\nZ = -3\nrtol = 1e-3\nout = {out}\n")
    assert run_cli(["--config", str(cfg)]) == 1
    assert "unknown key 'rtol'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, rtol, atol",
    [
        (["sigma0", "--R", "0.5", "--Z", "-3"], SHOOT_RTOL, SHOOT_ATOL),
        (["linearize", "--c_o", "2", "--z_o", "-0.6", "--rtol", "1e-9"], 1e-9, 1e-12),
    ],
)
def test_cli_record_tolerances_of_the_curve(tmp_path, args, rtol, atol):
    out = tmp_path / "o"
    assert run_cli(args + ["--samples", "20", "--out", str(out)]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["tolerances"] == {"rtol": rtol, "atol": atol}
    assert ("rtol" in record["inputs"]) == (args[0] == "linearize")


def test_python_dash_m_prints_version():
    src = os.path.dirname(os.path.dirname(membranelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "membranelab", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == membranelab.__version__


def test_cli_no_command(capsys):
    assert run_cli([]) == 1
    assert "required" in capsys.readouterr().err


def test_cli_unknown_flag_value(tmp_path, capsys):
    rc = run_cli(["trace", "--c_o", "abc", "--z_o", "-0.6",
                  "--out", str(tmp_path)])
    assert rc == 1


def test_cli_config_file_only(tmp_path):
    # --config is read alone, before the command and after it
    for i, around in enumerate([([], []), ([], ["trace"]), (["trace"], [])]):
        out = tmp_path / f"cfgrun{i}"
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text(
            f"command = trace\nc_o = 2\nz_o = -0.6\nout = {out}\nsamples = 50\n"
        )
        assert run_cli(around[0] + ["--config", str(cfg)] + around[1]) == 0
        data = read_profile_csv(out / "profile.csv")
        assert data["tau"].size == 50


def test_cli_rerun_byte_identical(tmp_path):
    out = tmp_path / "det"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"command = linearize\nc_o = 2\nz_o = -0.7\nout = {out}\n"
    )
    assert run_cli(["--config", str(cfg)]) == 0
    first = {
        name: (out / name).read_bytes() for name in os.listdir(out)
    }
    assert run_cli(["--config", str(cfg)]) == 0
    second = {
        name: (out / name).read_bytes() for name in os.listdir(out)
    }
    assert first == second
    assert "run_record.json" in first and "linearized.csv" in first
