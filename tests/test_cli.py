import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from capax.cli import _NORMS, main, parse_args, parse_atoms, parse_set_spec
from capax.grid import (Field, Grid, Params, ball_mask, cube_mask, field_from_json,
                        field_to_json, mask_to_json)
from capax.capacity import capacity, choquet_integral
from capax.potentials import potential
from capax.spaces import NormEstimate, otilde_norm
from capax.verify import CHECK_NAMES


def run_cli(*args):
    return main(list(args))


def test_parse_set_spec(g64):
    m = parse_set_spec(g64, "ball:0.25")
    assert m == ball_mask(g64, 0.25)
    u = parse_set_spec(g64, "ball:0.1+cube:0.6")
    assert u == (ball_mask(g64, 0.1) | cube_mask(g64, 0.6))
    with pytest.raises(ValueError):
        parse_set_spec(g64, "blob:1")
    with pytest.raises(ValueError):
        parse_set_spec(g64, "annulus:0.5")


def test_parse_atoms():
    pos, masses = parse_atoms("0.1:1.0;-0.2:2.5", 1)
    assert pos == [[0.1], [-0.2]] and masses == [1.0, 2.5]
    pos2, masses2 = parse_atoms("0.1,0.2:1.0", 2)
    assert pos2 == [[0.1, 0.2]]
    assert parse_atoms("; 0.1:1.0;;", 1) == ([[0.1]], [1.0])   # empty parts are skipped
    with pytest.raises(ValueError):
        parse_atoms("0.1,0.2:1.0", 1)


def test_capacity_command_matches_library(tmp_path):
    out = tmp_path / "cap.json"
    code = run_cli("capacity", "--set", "ball:0.25", "--alpha", "0.4", "--s", "2",
                   "--n", "1", "--N", "64", "--tol", "1e-7",
                   "--output", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    lib = capacity(ball_mask(Grid(1, 1.0, 64), 0.25), Params(1, 0.4, 2.0), tol=1e-7)
    assert doc["value"] == lib.value
    assert doc["converged"]
    keys = ("value", "residual", "gap", "iterations", "converged")
    assert doc == {k: getattr(lib, k) for k in keys}
    manifest = json.loads((tmp_path / "cap.json.manifest.json").read_text())
    assert manifest["config"]["command"] == "capacity"
    assert "wall_time_s" in manifest


def test_cli_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--check", "csim", "--n", "1", "--alpha", "0.4", "--s", "2",
            "--N", "32", "--count", "3", "--levels", "16", "--seed", "7"]
    assert run_cli(*args, "--output", str(a)) == 0
    assert run_cli(*args, "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_byte_reproducible_across_processes(tmp_path):
    # n=1, N=64 solves with the dense operator, so BLAS is on this path
    import capax

    src = str(Path(capax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    g = Grid(1, 1.0, 64)
    field = tmp_path / "field.json"
    field.write_text(field_to_json(Field(g, np.exp(-g.axis**2 / 0.08), nonneg=True)))
    commands = {
        "cap": ["capacity", "--set", "ball:0.25+cube:0.6", "--alpha", "0.4", "--s", "1.5"],
        # the lambda functional repeats superlevel sets, so it runs on memo hits
        "lam": ["norm", "--norm", "lambda", "--input", str(field), "--alpha", "0.4",
                "--s", "2", "--q", "1"],
    }
    for run in ("a", "b"):
        for name, args in commands.items():
            extra = (["--extremal-out", str(tmp_path / f"{run}.extremal.json")]
                     if name == "cap" else [])
            subprocess.run([sys.executable, "-m", "capax.cli", *args, "--n", "1", "--N", "64",
                            "--output", str(tmp_path / f"{run}.{name}.json"), *extra],
                           env=env, check=True, capture_output=True)
    for name in (*commands, "extremal"):
        assert ((tmp_path / f"a.{name}.json").read_bytes()
                == (tmp_path / f"b.{name}.json").read_bytes())
    assert json.loads((tmp_path / "a.lam.json.manifest.json").read_text())["solver"]["memo_hits"] > 0


def test_threads_flag_removed(tmp_path, capsys):
    assert run_cli("capacity", "--set", "ball:0.2", "--N", "32", "--threads", "2") == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("set=ball:0.2\nN=32\nthreads=2\n")
    assert run_cli("capacity", "--config", str(cfg)) == 1
    capsys.readouterr()


def test_verify_ibp_identity(tmp_path, capsys):
    code = run_cli("verify", "--check", "ibp", "--t", "1", "--n", "1", "--alpha",
                   "0.4", "--s", "2", "--N", "32", "--count", "3")
    assert code == 0
    assert "max_ratio=1" in capsys.readouterr().out


def test_potential_and_choquet_commands(tmp_path):
    g = Grid(1, 1.0, 32)
    f = Field(g, ball_mask(g, 0.3).members.astype(float), nonneg=True)
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(f))
    out = tmp_path / "pot.json"
    assert run_cli("potential", "--input", str(fpath), "--alpha", "0.4",
                   "--output", str(out)) == 0
    pot = field_from_json(out.read_text())
    from capax.potentials import potential

    assert np.array_equal(pot.values, potential(f, 0.4, "riesz").values)
    cout = tmp_path / "choq.json"
    assert run_cli("choquet", "--input", str(fpath), "--alpha", "0.4", "--s", "2",
                   "--N", "32", "--output", str(cout)) == 0
    assert json.loads(cout.read_text())["value"] > 0


def test_wolff_command(tmp_path):
    out = tmp_path / "w.json"
    code = run_cli("wolff", "--atoms", "0.0:1.0", "--alpha", "0.4", "--s", "2",
                   "--n", "1", "--N", "64", "--output", str(out))
    assert code == 0
    w = field_from_json(out.read_text())
    assert np.all(w.values > 0)


def test_norm_command(tmp_path):
    g = Grid(1, 1.0, 32)
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(ball_mask(g, 0.2).indicator()))
    out = tmp_path / "norm.json"
    code = run_cli("norm", "--norm", "f", "--input", str(fpath), "--n", "1",
                   "--alpha", "0.4", "--s", "2", "--r", "1.0", "--output", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["upper"] > 0 and doc["lower"] <= doc["upper"]
    code2 = run_cli("norm", "--norm", "lqcap", "--q", "1.5", "--input", str(fpath),
                    "--n", "1", "--alpha", "0.4", "--s", "2", "--N", "32",
                    "--levels", "16")
    assert code2 == 0


def test_norm_command_passes_levels(tmp_path):
    g = Grid(1, 1.0, 64)
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(Field(g, np.exp(-(g.axis - 0.1)**2 / 0.08), nonneg=True)))
    out = tmp_path / "norm.json"
    code = run_cli("norm", "--norm", "otilde", "--input", str(fpath), "--alpha", "0.4",
                   "--s", "2", "--q", "1.5", "--levels", "16", "--output", str(out))
    assert code == 0
    f = field_from_json(fpath.read_text())
    lib = otilde_norm(f, Params(1, 0.4, 2.0, q=1.5), levels=16)
    assert json.loads(out.read_text())["upper"] == lib.upper


def test_report_command(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    run_cli("verify", "--check", "ibp", "--t", "2", "--n", "1", "--alpha", "0.4",
            "--s", "2", "--N", "32", "--count", "2", "--output", str(rep))
    capsys.readouterr()
    csv_out = tmp_path / "rep.csv2"
    assert run_cli("report", "--input", str(rep), "--output", str(csv_out)) == 0
    out = capsys.readouterr().out
    assert "inequality: ibp" in out
    assert csv_out.read_text().startswith("sample_id,lhs,rhs,ratio")


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    # comments, blank lines and a command key are skipped
    cfg.write_text("# a capacity run\n\ncommand=verify\n"
                   "n=1\nalpha=0.4\ns=2.0\nN=32\nset=ball:0.25\ntol=1e-7\n")
    out = tmp_path / "out.json"
    code = run_cli("capacity", "--config", str(cfg), "--output", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    # flag overrides the config value
    out2 = tmp_path / "out2.json"
    code = run_cli("capacity", "--config", str(cfg), "--set", "ball:0.1",
                   "--output", str(out2))
    assert code == 0
    assert json.loads(out2.read_text())["value"] < doc["value"]


def test_invalid_inputs_exit_one(tmp_path, capsys):
    assert run_cli("capacity", "--n", "1", "--N", "32") == 1           # no set
    assert run_cli("capacity", "--set", "blob:1", "--N", "32") == 1    # bad spec
    assert run_cli("verify", "--N", "32") == 1                         # no check
    assert run_cli("verify", "--check", "ibp", "--refine", "") == 1    # no grid size
    assert run_cli("norm", "--norm", "m", "--N", "32") == 1            # no input
    assert run_cli("capacity", "--set", "ball:0.2", "--alpha", "0.9") == 1  # bad params
    assert run_cli("report", "--input", str(tmp_path / "missing.json")) == 1
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    capsys.readouterr()
    assert run_cli("report", "--input", str(not_object)) == 1
    assert "JSON is not an object" in capsys.readouterr().err
    # a NaN atom coordinate was reported as an overflowing Wolff potential
    assert run_cli("wolff", "--atoms", "nan:1", "--N", "32") == 1
    assert "is not a finite point of the box" in capsys.readouterr().err
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("whatever\n")
    assert run_cli("capacity", "--config", str(bad_cfg)) == 1
    # a NaN or negative radius or side printed the capacity of the empty set
    for spec in ("ball:nan", "ball:-1", "cube:nan", "cube:-0.5"):
        assert run_cli("capacity", "--set", spec, "--N", "32") == 1
    # t = inf printed max_ratio=nan, and a negative count ran no sample
    assert run_cli("verify", "--check", "ibp", "--t", "inf", "--count", "1", "--N", "8") == 1
    assert run_cli("verify", "--check", "csim", "--count", "-1", "--N", "8") == 1
    capsys.readouterr()


def test_verify_infinite_ratio_exits_one(tmp_path, monkeypatch, capsys):
    # a nonpositive quantity makes the kv band infinite: a hard failure that
    # writes no report
    monkeypatch.setattr("capax.verify.kv_norm", lambda *a, **k: NormEstimate(0.0, 0.0))
    out = tmp_path / "rep.json"
    assert run_cli("verify", "--check", "kv", "--q", "1.5", "--N", "16", "--count", "2",
                   "--levels", "8", "--output", str(out)) == 1
    captured = capsys.readouterr()
    assert "max_ratio=inf" in captured.out
    assert "infinite ratio" in captured.err and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["capacity", "--set", "ball:0.2", "--L", "inf", "--N", "32"],
    ["norm", "--norm", "n", "--p", "inf", "--r", "1"],
    ["norm", "--norm", "lqcap", "--q", "inf"],
    ["norm", "--norm", "m", "--p", "inf", "--r", "2"],
])
def test_non_finite_width_or_exponent_exits_one_without_traceback(tmp_path, capsys, args):
    g = Grid(1, 1.0, 32)
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(Field(g, np.exp(-g.axis**2 / 0.08), nonneg=True)))
    extra = ["--input", str(fpath)] if args[0] == "norm" else []
    assert run_cli(*args, *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err and "Traceback" not in err


def test_mask_input_refine_lines_and_missing_flags(tmp_path, capsys):
    # the capacity of a mask file, its extremal written out and checked as the
    # cap2d benchmark op checks its own
    g, tol = Grid(2, 1.0, 16), 1e-6
    mask = ball_mask(g, 0.3) | cube_mask(g, 0.4)
    mpath, out, ext = tmp_path / "mask.json", tmp_path / "cap.json", tmp_path / "ext.json"
    mpath.write_text(mask_to_json(mask))
    assert run_cli("capacity", "--input", str(mpath), "--alpha", "0.7", "--s", "2",
                   "--tol", str(tol), "--output", str(out), "--extremal-out", str(ext)) == 0
    value = json.loads(out.read_text())["value"]
    f = field_from_json(ext.read_text())
    assert f.grid == g and value > 0
    assert np.min(potential(f, 0.7, "riesz").values[mask.members]) >= 1.0 - tol
    assert abs(g.cell_volume * np.sum(f.values**2) - value) <= 1e-9 * value
    # one summary line per grid size of a refinement study
    capsys.readouterr()
    assert run_cli("verify", "--check", "ibp", "--t", "1", "--refine", "32,64",
                   "--count", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["  N=32: max_ratio=1", "  N=64: max_ratio=1"]
    # a missing flag is an input error, named in the message
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(f))
    for args, message in [(["wolff"], "wolff needs --atoms and/or --input density"),
                          (["norm", "--input", str(fpath)], "norm needs --norm"),
                          (["norm", "--norm", "lqcap", "--input", str(fpath)],
                           "lqcap needs --q")]:
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_too_wide_bessel_box_exits_one(capsys):
    # K_nu underflows to 0 at offsets beyond r ~ 700; here they reach 700
    assert run_cli("capacity", "--kind", "bessel", "--L", "400", "--N", "8",
                   "--set", "ball:100") == 1
    assert "half-width 400.0" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["riesz", "bessel"])
@pytest.mark.parametrize("s", ["1.001", "1.003"])
def test_s_near_one_exits_two_without_traceback(tmp_path, capsys, kind, s):
    out = tmp_path / "cap.json"
    code = run_cli("capacity", "--set", "ball:0.2", "--kind", kind, "--alpha", "0.4",
                   "--s", s, "--n", "1", "--N", "64", "--output", str(out))
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["converged"] is False and np.isfinite(doc["value"]) and np.isfinite(doc["gap"])


def test_zero_levels_exit_one(tmp_path, capsys):
    g = Grid(1, 1.0, 64)
    fpath = tmp_path / "ramp.json"
    fpath.write_text(field_to_json(Field(g, np.linspace(0.0, 1.0, 64), nonneg=True)))
    assert run_cli("choquet", "--input", str(fpath), "--N", "64", "--levels", "0") == 1
    err = capsys.readouterr().err
    assert "levels must be at least 1" in err and "Traceback" not in err
    assert run_cli("norm", "--norm", "lqcap", "--q", "1.5", "--input", str(fpath),
                   "--levels", "0") == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", [["choquet"], ["norm", "--norm", "lqcap", "--q", "1.5"],
                                     ["capacity", "--set", "ball:0.3"]])
def test_unconverged_solve_exits_two(tmp_path, monkeypatch, command):
    mod = sys.modules["capax.capacity"]
    orig = mod.obstacle_program

    def small_budget(table, obstacle, s, **kw):
        return orig(table, obstacle, s, **dict(kw, max_iter=1))

    monkeypatch.setattr(mod, "obstacle_program", small_budget)
    g = Grid(1, 1.0, 64)
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(ball_mask(g, 0.3).indicator()))
    out = tmp_path / "out.json"
    code = run_cli(*command, "--input", str(fpath), "--n", "1", "--N", "64",
                   "--alpha", "0.4", "--s", "2", "--output", str(out))
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["value"] > 0
    if command[0] == "capacity":
        assert doc["converged"] is False
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["solver"]["nonconverged"] > 0


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_verify_runs_every_registered_check(tmp_path, capsys, check):
    out = tmp_path / "rep.json"
    code = run_cli("verify", "--check", check, "--n", "1", "--alpha", "0.4", "--s", "2",
                   "--q", "1.5", "--p", "2", "--r", "1", "--t", "1.5", "--R", "0.5",
                   "--N", "16", "--count", "2", "--levels", "8", "--output", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert (tmp_path / "rep.csv").read_text().startswith("sample_id,lhs,rhs,ratio")
    # csim is the q = s case whatever --q says; t and R reach only the checks taking them
    assert doc["params"]["q"] == (2.0 if check == "csim" else 1.5)
    assert doc["meta"].get("t") == (1.5 if check == "ibp" else None)
    assert doc["meta"].get("R") == (0.5 if check == "boundedness" else None)
    capsys.readouterr()


@pytest.mark.parametrize("check", ["main2", "newnorm2", "kv", "upper_tri", "main3"])
def test_verify_without_required_exponent_exits_one(capsys, check):
    assert run_cli("verify", "--check", check, "--N", "16", "--count", "2",
                   "--levels", "8") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command, line", [("potential", "kind=foo"),
                                           ("potential", "method=dense"),
                                           ("norm", "norm=bogus")])
def test_config_values_get_the_flag_checks(tmp_path, capsys, command, line):
    g = Grid(1, 1.0, 32)
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(ball_mask(g, 0.3).indicator()))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha=0.4\n{line}\n")
    assert run_cli(command, "--config", str(cfg), "--input", str(fpath)) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_family_config_key_and_flag_removed(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("check=csim\nN=16\nfamily=mixed\n")
    assert run_cli("verify", "--config", str(cfg)) == 1
    assert "unknown config key 'family'" in capsys.readouterr().err
    assert run_cli("verify", "--check", "csim", "--N", "16", "--family", "mixed") == 1
    capsys.readouterr()


def test_zero_tol_exits_one(tmp_path, capsys):
    g = Grid(1, 1.0, 32)
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(ball_mask(g, 0.3).indicator()))
    assert run_cli("choquet", "--input", str(fpath), "--N", "32", "--tol", "0") == 1
    assert "tol must be positive" in capsys.readouterr().err


def test_method_flag_and_config_key_removed(tmp_path, capsys):
    g = Grid(1, 1.0, 32)
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(ball_mask(g, 0.3).indicator()))
    assert run_cli("potential", "--input", str(fpath), "--method", "fast") == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method=fast\n")
    assert run_cli("potential", "--config", str(cfg), "--input", str(fpath)) == 1
    assert "unknown config key 'method'" in capsys.readouterr().err


def test_input_grid_sets_exponent_dimension(tmp_path, capsys):
    # alpha * s = 1.4 lies within n/s only for n = 2, whatever --n says
    g1, g2 = Grid(1, 1.0, 32), Grid(2, 1.0, 16)
    f1 = tmp_path / "f1d.json"
    f1.write_text(field_to_json(Field(g1, np.exp(-g1.axis**2 / 0.08), nonneg=True)))
    f2 = Field(g2, np.exp(-g2.radii**2 / 0.08), nonneg=True)
    f2path = tmp_path / "f2d.json"
    f2path.write_text(field_to_json(f2))
    args = ["--alpha", "0.7", "--s", "2", "--levels", "4"]
    assert run_cli("choquet", "--input", str(f1), "--n", "2", *args) == 1
    assert "alpha must lie in" in capsys.readouterr().err
    out = tmp_path / "ch.json"
    assert run_cli("choquet", "--input", str(f2path), *args, "--output", str(out)) == 0
    lib = choquet_integral(f2, Params(2, 0.7, 2.0), levels=4)
    assert json.loads(out.read_text())["value"] == lib
    capsys.readouterr()


def test_wolff_atoms_read_on_density_grid(tmp_path, capsys):
    g = Grid(2, 1.0, 16)
    fpath = tmp_path / "dens.json"
    fpath.write_text(field_to_json(Field(g, np.exp(-g.radii**2 / 0.08), nonneg=True)))
    args = ["wolff", "--input", str(fpath), "--atoms", "0.1,0.2:1.0", "--alpha", "0.4",
            "--s", "2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--output", str(a)) == 0
    assert run_cli(*args, "--n", "2", "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_report_csv_matches_verify_csv(tmp_path, capsys):
    rep = tmp_path / "v.json"
    assert run_cli("verify", "--check", "csim", "--n", "1", "--N", "32", "--count", "3",
                   "--levels", "8", "--output", str(rep)) == 0
    out = tmp_path / "r.csv"
    assert run_cli("report", "--input", str(rep), "--output", str(out)) == 0
    assert out.read_bytes() == (tmp_path / "v.csv").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("norm", list(_NORMS))
def test_norm_runs_every_registered_norm(tmp_path, capsys, norm):
    g = Grid(1, 1.0, 32)
    fpath = tmp_path / "field.json"
    fpath.write_text(field_to_json(Field(g, np.exp(-g.axis**2 / 0.08), nonneg=True)))
    out = tmp_path / "norm.json"
    code = run_cli("norm", "--norm", norm, "--input", str(fpath), "--n", "1", "--N", "32",
                   "--alpha", "0.4", "--s", "2", "--q", "1.5", "--p", "2", "--r", "1",
                   "--levels", "8", "--output", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.isfinite(doc["upper"] if "upper" in doc else doc["value"])
    capsys.readouterr()
