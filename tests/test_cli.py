"""Command-line interface: determinism, config files, exit codes, formats."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdrecon import elliptic
from cdrecon.boundary import ElectrodeSet
from cdrecon.bregman import BregmanConfig, split_bregman_minimize
from cdrecon.cli import _COMMANDS, _parser, main
from cdrecon.fields import ScalarField, boundary_trace, make_grid, read_field, write_field
from cdrecon.phantom import read_pgm
from cdrecon.recon import ReconConfig, reconstruct


def run(args):
    return main(args)


def test_phantom_deterministic(tmp_path, capsys):
    out1 = tmp_path / "s1.fld"
    out2 = tmp_path / "s2.fld"
    args = ["phantom", "--kind", "blobs", "--n", "48", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # no temp files left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s1.fld", "s2.fld"]


def test_forward_writes_nonnegative_data(tmp_path):
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    u = tmp_path / "u.fld"
    assert run(["phantom", "--kind", "blobs", "--n", "33", "--seed", "1",
                "--margin", "0.15", "--out", str(sig)]) == 0
    assert run(["forward", "--sigma", str(sig), "--epsilon", "5e-4", "--z", "1",
                "--current", "1", "--aperture", "1", "--noise", "1e-5",
                "--seed", "1", "--out-a", str(a), "--out-u", str(u)]) == 0
    field = read_field(a)
    assert np.all(field.values >= 0.0)
    assert read_field(u).grid.n == 33


def test_forward_deterministic(tmp_path):
    sig = tmp_path / "sigma.fld"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "3", "--out", str(sig)])
    a1, a2 = tmp_path / "a1.fld", tmp_path / "a2.fld"
    base = ["forward", "--sigma", str(sig), "--noise", "1e-5", "--seed", "9"]
    assert run(base + ["--out-a", str(a1)]) == 0
    assert run(base + ["--out-a", str(a2)]) == 0
    assert a1.read_bytes() == a2.read_bytes()


def test_compare_output_format(tmp_path, capsys):
    g = make_grid(9)
    f1 = tmp_path / "f1.fld"
    f2 = tmp_path / "f2.fld"
    write_field(ScalarField.constant(g, 1.8), f1)
    write_field(ScalarField.constant(g, 1.0), f2)
    assert run(["compare", "--rec", str(f1), "--ref", str(f2)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("rel_l2_error=")
    assert float(line.split("=", 1)[1]) == pytest.approx(0.8, rel=1e-10)


def test_config_file_equals_flags(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# phantom settings\n"
        "kind=blobs\n"
        "n=21\n"
        "seed=5\n"
        "margin=0.2\n"
    )
    out1, out2 = tmp_path / "c.fld", tmp_path / "f.fld"
    assert run(["phantom", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["phantom", "--kind", "blobs", "--n", "21", "--seed", "5",
                "--margin", "0.2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind=blobs\nn=21\nseed=5\n")
    out1, out2 = tmp_path / "a.fld", tmp_path / "b.fld"
    assert run(["phantom", "--config", str(cfg), "--seed", "6", "--out", str(out1)]) == 0
    assert run(["phantom", "--kind", "blobs", "--n", "21", "--seed", "6",
                "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_usage(capsys):
    assert run(["phantom", "--kind", "blobs", "--n", "16", "--bogus", "1"]) == 1
    assert run(["phantom", "--kind", "blobs", "--n", "16"]) == 1  # missing --out
    assert run([]) == 1
    for factor in ("0.5", "nan"):
        capsys.readouterr()
        assert run(["study", "--a", "x.fld", "--factor", factor, "--out", "y.csv"]) == 1
        assert "--factor" in capsys.readouterr().err
    # a flag of the wrong type and a polarity that names no side: exit 1,
    # one error line that names the option, before any file is read
    for args, option in ((["phantom", "--n", "abc", "--out", "y.fld"], "--n: expected int"),
                         (["forward", "--sigma", "x.fld", "--polarity", "sideways",
                           "--out-a", "y.fld"], "--polarity must be top or bottom")):
        capsys.readouterr()
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cdrecon: error: {option}") and err.count("\n") == 1


def test_exit_code_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind=blobs\nnonsense=1\n")
    assert run(["phantom", "--config", str(cfg), "--out", str(tmp_path / "o.fld")]) == 1


def test_exit_code_io(tmp_path):
    assert run(["compare", "--rec", "missing.fld", "--ref", "missing.fld"]) == 2
    bad = tmp_path / "bad.fld"
    bad.write_bytes(b"FLD1 9 9\nshort")
    assert run(["compare", "--rec", str(bad), "--ref", str(bad)]) == 2


def test_exit_code_numeric(tmp_path):
    # conductivity with a zero makes assembly fail
    g = make_grid(9)
    vals = np.ones(g.num_nodes)
    vals[40] = 0.0
    sig = tmp_path / "zero.fld"
    write_field(ScalarField(g, vals), sig)
    assert run(["forward", "--sigma", str(sig), "--out-a", str(tmp_path / "a.fld")]) == 3



def test_bad_tolerance_is_one_error_line(tmp_path, capsys):
    sig, a, u = (tmp_path / f"{k}.fld" for k in ("sigma", "a", "u"))
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a), "--out-u", str(u)])
    out = str(tmp_path / "out.fld")
    bregman = ["bregman", "--a", str(a), "--u", str(u), "--out", out]
    reconstruct = ["reconstruct", "--a", str(a), "--out", out]
    # NaN fails every comparison, so each check must be written to reject it
    cases = [
        bregman + ["--grad-floor", "0"],
        bregman + ["--grad-floor", "inf"],
        bregman + ["--grad-floor", "1"],
        bregman + ["--rho", "nan"],
        bregman + ["--tol", "nan"],
        reconstruct + ["--stop-tol", "nan"],
        reconstruct + ["--delta", "nan"],
        reconstruct + ["--delta", "inf"],
        reconstruct + ["--grad-floor", "inf"],
        reconstruct + ["--current", "nan"],
        ["forward", "--sigma", str(sig), "--out-a", out, "--tol", "0"],
        ["forward", "--sigma", str(sig), "--out-a", out, "--z", "nan"],
        ["forward", "--sigma", str(sig), "--out-a", out, "--width", "nan"],
        ["forward", "--sigma", str(sig), "--out-a", out, "--noise", "nan"],
        reconstruct + ["--width", "nan"],
        # an infinite impedance or current ran the solve and failed late
        ["forward", "--sigma", str(sig), "--out-a", out, "--z", "inf"],
        ["forward", "--sigma", str(sig), "--out-a", out, "--current", "inf"],
        reconstruct + ["--z", "inf"],
        reconstruct + ["--current", "inf"],
        # a negative seed ended in a numpy traceback
        ["forward", "--sigma", str(sig), "--out-a", out, "--noise", "1e-3", "--seed", "-1"],
        ["study", "--a", str(a), "--out", str(tmp_path / "study.csv"), "--seed", "-1"],
    ]
    capsys.readouterr()
    for args in cases:
        assert run(args) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("cdrecon: error: ") and err.count("\n") == 1, args
        assert "Traceback" not in err
        option = args[-2].lstrip("-").replace("-", "_")
        assert option in err, args
    # neither run has a solver tolerance to set: the v-step solve is exact,
    # and the sweep's solves are fixed to SOLVE_TOL
    for args in (bregman, reconstruct):
        assert run(args + ["--inner-tol", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cdrecon: error: ") and err.count("\n") == 1
        assert "--inner-tol" in err


def test_reconstruct_cli_roundtrip(tmp_path, capsys):
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    rec = tmp_path / "rec.fld"
    report = tmp_path / "report.csv"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--count", "1",
         "--margin", "0.2", "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a)])
    assert run(["reconstruct", "--a", str(a), "--max-iter", "8", "--out", str(rec),
                "--report", str(report), "--truth", str(sig)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert "rel_l2_error=" in line
    assert " stop_reason=cap converged=false " in line  # 8 sweeps cannot converge
    assert read_field(rec).values.min() > 0.0
    assert report.read_text().startswith("iteration,")


def test_reconstruct_cli_prints_its_sweeps_and_solve_iterations(tmp_path, capsys):
    # the line carries the run's sweeps and CG iterations, as the library
    # reports them for the same data and the default settings, and no
    # factorization count: no solve factors a matrix
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--count", "1",
         "--margin", "0.2", "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a)])
    capsys.readouterr()
    assert run(["reconstruct", "--a", str(a), "--out", str(tmp_path / "rec.fld")]) == 0
    fields = dict(item.split("=", 1) for item in capsys.readouterr().out.split()
                  if "=" in item)
    data = read_field(a)
    _, _, report = reconstruct(data, ElectrodeSet(), ReconConfig(), data.grid)
    assert int(fields["iterations"]) == report.iterations
    assert "factorizations" not in fields
    # and the CG iterations of every solve: the sweeps and the final one
    assert int(fields["solve_iterations"]) == (
        sum(r.solve_iterations for r in report.records) + report.final_solve.iterations)


@pytest.mark.parametrize("aperture, ceiling", [("1", 2.5e-2), ("0.5", 2.2e-2)])
def test_epsilon_0_selects_the_sharp_model_in_forward_and_reconstruct(tmp_path, capsys,
                                                                      aperture, ceiling):
    # criterion 6's phantom at n=64: forward --epsilon 0 data reconstructed
    # with --epsilon 0 stop on tol; the ceilings sit about 25 % above the
    # errors measured when this was written, 1.968e-2 in 40 sweeps and
    # 1.781e-2 in 53
    sig, a = tmp_path / "sigma.fld", tmp_path / "a.fld"
    run(["phantom", "--kind", "blobs", "--n", "64", "--seed", "7", "--lo", "1", "--hi", "1.8",
         "--margin", "0.15", "--width-lo", "0.05", "--width-hi", "0.1", "--out", str(sig)])
    sharp = ["--epsilon", "0", "--aperture", aperture]
    assert run(["forward", "--sigma", str(sig), "--noise", "1e-5", "--seed", "1",
                "--out-a", str(a)] + sharp) == 0
    capsys.readouterr()
    assert run(["reconstruct", "--a", str(a), "--truth", str(sig),
                "--out", str(tmp_path / "rec.fld")] + sharp) == 0
    fields = dict(item.split("=", 1) for item in capsys.readouterr().out.split()
                  if "=" in item)
    assert fields["stop_reason"] == "tol"
    assert float(fields["rel_l2_error"]) <= ceiling


@pytest.mark.parametrize("aperture, ceiling", [("1", 1.5e-2), ("0.5", 1.3e-2)])
def test_reconstruct_from_cem_data_with_their_voltage(tmp_path, capsys, aperture, ceiling):
    # criterion 6's phantom at n=128: forward --cem data reconstructed with
    # --epsilon 0 --cem-voltage V stop on tol, with the sharp model's error
    # (1.398e-2 and 1.221e-2 when this was written); the line echoes lambda
    sig, a = tmp_path / "sigma.fld", tmp_path / "a.fld"
    run(["phantom", "--kind", "blobs", "--n", "128", "--seed", "7", "--lo", "1", "--hi", "1.8",
         "--margin", "0.15", "--width-lo", "0.05", "--width-hi", "0.1", "--out", str(sig)])
    capsys.readouterr()
    assert run(["forward", "--sigma", str(sig), "--cem", "--aperture", aperture, "--noise",
                "1e-5", "--seed", "1", "--out-a", str(a)]) == 0
    voltage = capsys.readouterr().out.split("cem_voltage=")[1].split()[0]
    rec = ["reconstruct", "--a", str(a), "--epsilon", "0", "--aperture", aperture,
           "--truth", str(sig), "--out", str(tmp_path / "rec.fld")]
    assert run(rec + ["--cem-voltage", voltage]) == 0
    fields = dict(item.split("=", 1) for item in capsys.readouterr().out.split()
                  if "=" in item)
    assert fields["stop_reason"] == "tol"
    assert float(fields["rel_l2_error"]) <= ceiling
    assert float(fields["cem_lambda"]) == float(voltage) / (1.0 * 1.0)  # V/(zI), z = I = 1
    # a voltage whose lambda is not positive and finite: exit 1, one line
    assert run(rec[:-1] + [str(tmp_path / "bad.fld"), "--cem-voltage", "-" + voltage]) == 1
    assert capsys.readouterr().err.startswith("cdrecon: error: the CEM voltage")
    assert not (tmp_path / "bad.fld").exists()


def test_reconstruct_cli_prints_stop_change(tmp_path, capsys):
    # a run that stopped by its rule printed a stop_change within stop_tol;
    # with calibration that is the change off the reparametrization family,
    # never more than the plain sigma change; without calibration the rule
    # compares the plain sigma change
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    run(["phantom", "--kind", "blobs", "--n", "33", "--seed", "2", "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a)])
    for extra in ([], ["--no-calibrate"]):
        capsys.readouterr()
        assert run(["reconstruct", "--a", str(a), "--out", str(tmp_path / "rec.fld"),
                    "--stop-tol", "1e-6"] + extra) == 0
        fields = dict(item.split("=", 1) for item in capsys.readouterr().out.split()
                      if "=" in item)
        assert fields["stop_reason"] == "tol"
        assert float(fields["stop_change"]) <= 1e-6
        if extra:
            assert fields["stop_change"] == fields["sigma_change"]
        else:
            assert float(fields["stop_change"]) <= float(fields["sigma_change"])


def test_bregman_cli(tmp_path, capsys):
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    u = tmp_path / "u.fld"
    out = tmp_path / "breg.fld"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--count", "0",
         "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a), "--out-u", str(u)])
    assert run(["bregman", "--a", str(a), "--u", str(u), "--max-iter", "20",
                "--out", str(out)]) == 0
    assert read_field(out).grid.n == 17
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("bregman: iterations=20 stop_reason=cap converged=false ")
    # a run that stops by its rule prints the change that met --tol
    assert run(["bregman", "--a", str(a), "--u", str(u), "--tol", "1e-5",
                "--out", str(out)]) == 0
    fields = dict(item.split("=", 1) for item in capsys.readouterr().out.split()
                  if "=" in item)
    assert fields["stop_reason"] == "tol"
    assert float(fields["v_change"]) <= 1e-5


def test_cap_warning_on_stderr_only(tmp_path, capsys):
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    u = tmp_path / "u.fld"
    out = tmp_path / "out.fld"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--count", "1",
         "--margin", "0.2", "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a), "--out-u", str(u)])
    capsys.readouterr()
    commands = {
        "reconstruct": ["reconstruct", "--a", str(a), "--out", str(out)],
        "bregman": ["bregman", "--a", str(a), "--u", str(u), "--out", str(out)],
    }
    for name, args in commands.items():
        assert run(args + ["--max-iter", "3"]) == 0
        captured = capsys.readouterr()
        # stdout keeps its one line; the warning repeats its iteration count
        iterations = captured.out.split("iterations=", 1)[1].split()[0]
        assert captured.out.startswith(f"{name}: iterations={iterations} "
                                       "stop_reason=cap converged=false ")
        assert captured.out.count("\n") == 1 and captured.out.endswith(f" wrote {out}\n")
        assert captured.err == (f"cdrecon: warning: {name} stopped at the iteration "
                                f"cap after {iterations} iterations without converging\n")
    # a run that stops by its rule warns of nothing
    assert run(commands["bregman"]) == 0
    captured = capsys.readouterr()
    assert " stop_reason=tol converged=true " in captured.out
    assert captured.err == ""


def test_study_cli(tmp_path, capsys):
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    out = tmp_path / "study.csv"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--count", "0",
         "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a)])
    assert run(["study", "--a", str(a), "--steps", "4", "--max-iter", "5",
                "--out", str(out)]) == 0
    assert "tail_ratio=" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "step,delta,eta,g_delta,g_clean,rel_error"
    assert len(rows) == 5
    # three steps leave one value per third, which always read as converged
    assert run(["study", "--a", str(a), "--steps", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "cdrecon: error: --steps must be at least 4\n"


def test_study_warns_when_a_step_capped(tmp_path, capsys):
    # every step's run stopped at 20 sweeps, yet the study printed
    # converged=true and nothing on stderr; the warning leaves stdout alone
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    out = tmp_path / "study.csv"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a)])
    capsys.readouterr()
    study = ["study", "--a", str(a), "--steps", "4", "--out", str(out)]
    assert run(study + ["--max-iter", "20"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("study: steps=4 ") and captured.out.count("\n") == 1
    assert captured.err == ("cdrecon: warning: study stopped at the iteration cap "
                            "in 4 of 4 steps without converging\n")
    # at the default cap every step stops by its rule
    assert run(study) == 0
    assert capsys.readouterr().err == ""


def test_study_rejects_bad_tail_fraction(tmp_path, capsys):
    # a NaN or negative fraction ran the whole schedule and exited 0 with
    # converged=false
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    out = tmp_path / "study.csv"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a)])
    for bad in ("nan", "-1"):
        capsys.readouterr()
        assert run(["study", "--a", str(a), "--steps", "4", "--max-iter", "5",
                    "--tail-fraction", bad, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cdrecon: error: tail fraction ") and err.count("\n") == 1
    assert not out.exists()


def test_export_pgm_rejects_empty_range(tmp_path, capsys):
    sig = tmp_path / "sigma.fld"
    pgm = tmp_path / "sigma.pgm"
    run(["phantom", "--kind", "blobs", "--n", "9", "--seed", "2", "--out", str(sig)])
    base = ["export-pgm", "--field", str(sig), "--out", str(pgm)]
    # each of these wrote an all-black image and exited 0
    for extra, option in ((["--lo", "nan"], "lo"), (["--hi", "inf"], "hi"),
                          (["--lo", "2", "--hi", "1"], "lo")):
        capsys.readouterr()
        assert run(base + extra) == 1, extra
        err = capsys.readouterr().err
        assert err.startswith(f"cdrecon: error: {option} ") and err.count("\n") == 1
    assert not pgm.exists()


def test_phantom_rejects_nan_ellipse(tmp_path, capsys):
    out = tmp_path / "e.fld"
    base = ["phantom", "--kind", "ellipses", "--n", "9", "--out", str(out)]
    # a NaN axis drew nothing and exited 0
    for spec in ("0.5,0.5,nan,0.2,0,1.5", "0.5,0.5,0.3,0.2,nan,1.5",
                 "0.5,0.5,0.3,inf,0,1.5", "0.5,0.5,0.3,0.2,0", "0.5,0.5,x,0.2,0,1.5"):
        capsys.readouterr()
        assert run(base + ["--ellipse", spec]) == 1, spec
        err = capsys.readouterr().err
        assert err.startswith("cdrecon: error: ") and err.count("\n") == 1, spec
        assert "ellipse" in err, spec
    assert not out.exists()


def test_help_describes_every_command(capsys, monkeypatch):
    # each command's help line is its own description, not the help of one
    # of its options
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("positional arguments:")
    for name, command in _COMMANDS.items():
        for k, line in enumerate(lines[start:], start):
            if line.split()[:1] == [name]:
                described = " ".join(line.split()[1:]) or lines[k + 1].strip()
                break
        else:
            raise AssertionError(f"{name} is missing from --help")
        assert described == command.help
        assert described not in {o.help for o in command.opts}


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # main parses every call with one parser built once per process; a call
    # after others gives the exit code, stdout and stderr it gives alone,
    # with a parser of its own: the parser keeps no state between calls
    g = make_grid(9)
    rec, ref = tmp_path / "rec.fld", tmp_path / "ref.fld"
    write_field(ScalarField.constant(g, 1.8), rec)
    write_field(ScalarField.constant(g, 1.0), ref)
    compare = ["compare", "--rec", str(rec), "--ref", str(ref)]
    phantom = ["phantom", "--n", "9", "--seed", "3", "--out", str(tmp_path / "s.fld")]
    calls = [compare, phantom, phantom + ["--rec", str(rec)], compare]

    def outcome(args):
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for args in calls:
        _parser.cache_clear()
        alone.append(outcome(args))
    _parser.cache_clear()
    assert [outcome(args) for args in calls] == alone
    assert _parser.cache_info().misses == 1
    assert [code for code, _, _ in alone] == [0, 0, 1, 0]
    assert "--rec" in alone[2][2]


def test_export_pgm_cli(tmp_path):
    sig = tmp_path / "sigma.fld"
    pgm = tmp_path / "sigma.pgm"
    run(["phantom", "--kind", "blobs", "--n", "21", "--seed", "2", "--out", str(sig)])
    assert run(["export-pgm", "--field", str(sig), "--out", str(pgm)]) == 0
    gray, maxval = read_pgm(pgm)
    assert maxval == 65535
    assert gray.shape == (21, 21)
    assert gray.max() == 65535.0


def test_cem_forward_cli(tmp_path, capsys):
    sig = tmp_path / "sigma.fld"
    a = tmp_path / "a.fld"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--count", "0",
         "--out", str(sig)])
    assert run(["forward", "--sigma", str(sig), "--cem", "--out-a", str(a)]) == 0
    out = capsys.readouterr().out
    assert "cem_voltage=" in out
    v = float(out.split("cem_voltage=")[1].split()[0])
    assert v == pytest.approx(1.5, abs=1e-8)


def test_forward_rejects_a_sharp_electrode_of_fewer_than_two_nodes(tmp_path, capsys):
    # sharp coefficients and the CEM read one electrode rule: an electrode
    # that spans no node (n=4, aperture 0.25) or one node (n=17, aperture
    # 0.05) is a validation error, not an all-zero forward problem
    for n, aperture in ((4, "0.25"), (17, "0.05")):
        sig = tmp_path / f"sigma{n}.fld"
        out = tmp_path / f"a{n}.fld"
        run(["phantom", "--kind", "blobs", "--n", str(n), "--seed", "2", "--out", str(sig)])
        capsys.readouterr()
        assert run(["forward", "--sigma", str(sig), "--epsilon", "0", "--aperture", aperture,
                    "--out-a", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cdrecon: error: ") and err.count("\n") == 1
        assert "spans fewer than two nodes" in err
        assert not out.exists()


def test_a_boundary_term_that_rounds_away_is_one_error_line(tmp_path, capsys):
    # at z >= 1e16 and n=17 the Robin term b = 1/z leaves every boundary
    # diagonal as it was, the singular pure-Neumann matrix, and at z = 1e14
    # the smoothed term grows none by more than two rounding units, where CG
    # stopped late: validation errors before any solve, with no output
    # written; z=1e12 still solves
    sig, a = tmp_path / "sigma.fld", tmp_path / "a.fld"
    out = tmp_path / "bad.fld"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a)])
    capsys.readouterr()
    for args in (["forward", "--sigma", str(sig), "--z", "1e14", "--out-a", str(out)],
                 ["forward", "--sigma", str(sig), "--z", "1e16", "--out-a", str(out)],
                 ["forward", "--sigma", str(sig), "--z", "1e200", "--out-a", str(out)],
                 ["reconstruct", "--a", str(a), "--z", "1e200", "--out", str(out)]):
        assert run(args) == 1, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cdrecon: error: ") and captured.err.count("\n") == 1
        assert "rounds away" in captured.err and "z = 1e+" in captured.err
        assert not out.exists()
    for epsilon in ("0", "5e-4"):
        assert run(["forward", "--sigma", str(sig), "--z", "1e12", "--epsilon", epsilon,
                    "--out-a", str(out)]) == 0
        assert np.all(np.isfinite(read_field(out).values))


def test_bregman_checks_truth_before_the_run(tmp_path, capsys):
    # a missing truth file or one on another grid fails before the loop and
    # leaves no output behind
    sig, a, u = (tmp_path / f"{k}.fld" for k in ("sigma", "a", "u"))
    other = tmp_path / "other.fld"
    run(["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--out", str(sig)])
    run(["phantom", "--kind", "blobs", "--n", "21", "--seed", "2", "--out", str(other)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a), "--out-u", str(u)])
    outs = {k: tmp_path / f"breg-{k}" for k in ("out", "out-v", "report")}
    bregman = ["bregman", "--a", str(a), "--u", str(u)]
    for flag, path in outs.items():
        bregman += [f"--{flag}", str(path)]
    capsys.readouterr()
    for truth, code, label in ((tmp_path / "missing.fld", 2, "i/o error"),
                               (other, 1, "error")):
        assert run(bregman + ["--truth", str(truth)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cdrecon: {label}: ")
        assert captured.err.count("\n") == 1
        assert not any(path.exists() for path in outs.values())


# runs in a fresh interpreter: this process has loaded scipy.sparse.linalg
# through test_elliptic.py
_IMPORT_BOUNDARY_SCRIPT = """
import sys
from pathlib import Path

import cdrecon.cli as cli

LU_STACK = ("scipy.sparse.linalg", "scipy.linalg")
d = Path(sys.argv[1])
f = lambda name: str(d / name)
for args in (
    ["phantom", "--kind", "blobs", "--n", "17", "--seed", "2", "--out", f("sigma.fld")],
    ["forward", "--sigma", f("sigma.fld"), "--out-a", f("a.fld"), "--out-u", f("u.fld")],
    ["forward", "--sigma", f("sigma.fld"), "--cem", "--out-a", f("a-cem.fld")],
    ["bregman", "--a", f("a.fld"), "--u", f("u.fld"), "--max-iter", "20",
     "--out", f("breg.fld")],
    ["compare", "--rec", f("breg.fld"), "--ref", f("sigma.fld")],
    ["export-pgm", "--field", f("sigma.fld"), "--out", f("sigma.pgm")],
    ["reconstruct", "--a", f("a.fld"), "--out", f("rec.fld")],
    ["reconstruct", "--a", f("a.fld"), "--z", "1e-2", "--epsilon", "0", "--out", f("rec2.fld")],
    ["study", "--a", f("a.fld"), "--steps", "4", "--max-iter", "5", "--out", f("study.csv")],
):
    assert cli.main(args) == 0, args
print("loaded", *(m in sys.modules for m in LU_STACK))
"""


def test_no_command_loads_the_lu_stack(tmp_path):
    # every command, the reconstruction's transform preconditioner with and
    # without its boundary correction included, runs without
    # scipy.sparse.linalg or scipy.linalg
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "loaded False False" in done.stdout.splitlines()


# the same calls in two fresh interpreters, one under each BLAS thread
# count; each prints its stdout lines with the directory taken out and
# whether scipy.fft was loaded
_THREAD_COUNT_SCRIPT = """
import contextlib
import io
import sys
from pathlib import Path

import cdrecon.cli as cli

d = Path(sys.argv[1])
f = lambda name: str(d / name)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    for args in (
        ["phantom", "--kind", "blobs", "--n", "64", "--seed", "7", "--margin", "0.15",
         "--out", f("sigma.fld")],
        ["forward", "--sigma", f("sigma.fld"), "--out-a", f("a.fld"), "--out-u", f("u.fld")],
        ["reconstruct", "--a", f("a.fld"), "--truth", f("sigma.fld"), "--out", f("rec.fld")],
    ):
        assert cli.main(args) == 0, args
print(out.getvalue().replace(str(d), "DIR"), end="")
print("scipy.fft loaded", "scipy.fft" in sys.modules)
"""


def test_forward_and_reconstruct_at_n64_load_no_fft_and_ignore_the_thread_count(tmp_path):
    # up to n = 64 the transform preconditioner applies its DCT by dense
    # products, so a z = 1 forward solve and a reconstruction never import
    # scipy.fft, and they write the same bytes and print the same lines
    # under one BLAS thread and under two
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for threads in ("1", "2"):
        d = tmp_path / threads
        d.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _THREAD_COUNT_SCRIPT, str(d)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "scipy.fft loaded False"
        runs.append((done.stdout, [(d / name).read_bytes()
                                   for name in ("a.fld", "u.fld", "rec.fld")]))
    assert runs[0] == runs[1]


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cdrecon: error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


def _data(tmp_path, n=17):
    """A blobs phantom's sigma, interior data and potential files at n."""
    sig, a, u = (tmp_path / f"{k}.fld" for k in ("sigma", "a", "u"))
    run(["phantom", "--kind", "blobs", "--n", str(n), "--seed", "2", "--out", str(sig)])
    run(["forward", "--sigma", str(sig), "--out-a", str(a), "--out-u", str(u)])
    return sig, a, u


def test_reconstruct_bounds_write_the_bounded_library_result(tmp_path, capsys):
    _, a, _ = _data(tmp_path)
    out, ref = tmp_path / "rec.fld", tmp_path / "ref.fld"
    assert run(["reconstruct", "--a", str(a), "--sigma-min", "0.9", "--sigma-max", "1.9",
                "--out", str(out)]) == 0
    data = read_field(a)
    sigma, _, _ = reconstruct(data, ElectrodeSet(), ReconConfig(sigma_bounds=(0.9, 1.9)),
                              data.grid)
    write_field(sigma, ref)
    assert out.read_bytes() == ref.read_bytes()
    # either bound alone is a usage error
    bad = tmp_path / "bad.fld"
    for one in (["--sigma-min", "0.9"], ["--sigma-max", "1.9"]):
        capsys.readouterr()
        assert run(["reconstruct", "--a", str(a), *one, "--out", str(bad)]) == 1
        assert "--sigma-min and --sigma-max" in _one_error_line(capsys)
        assert not bad.exists()


def test_config_file_booleans_equal_the_switches(tmp_path, capsys):
    sig, a, _ = _data(tmp_path)
    cfg = tmp_path / "run.cfg"
    cases = (
        ("cem=yes", ["forward", "--sigma", str(sig), "--out-a"],
         ["forward", "--sigma", str(sig), "--cem", "--out-a"]),
        ("no-calibrate=false", ["reconstruct", "--a", str(a), "--out"],
         ["reconstruct", "--a", str(a), "--out"]),
    )
    for line, with_config, with_flags in cases:
        cfg.write_text(line + "\n")
        one, two = tmp_path / "one.fld", tmp_path / "two.fld"
        assert run(with_config[:1] + ["--config", str(cfg)] + with_config[1:] + [str(one)]) == 0
        assert run(with_flags + [str(two)]) == 0
        assert one.read_bytes() == two.read_bytes(), line
    # a value that is not a boolean names the option
    cfg.write_text("cem=maybe\n")
    bad = tmp_path / "bad.fld"
    capsys.readouterr()
    assert run(["forward", "--config", str(cfg), "--sigma", str(sig), "--out-a", str(bad)]) == 1
    assert "--cem" in _one_error_line(capsys)
    assert not bad.exists()


def test_an_unusable_config_file_is_one_error_line(tmp_path, capsys):
    no_equals = tmp_path / "no-equals.cfg"
    no_equals.write_text("kind=blobs\nn 17\n")
    out = tmp_path / "o.fld"
    # missing, a directory, and a line without "="
    for cfg in (tmp_path / "missing.cfg", tmp_path, no_equals):
        assert run(["phantom", "--config", str(cfg), "--out", str(out)]) == 1
        _one_error_line(capsys)
        assert not out.exists()


def test_bregman_out_v_writes_the_returned_potential(tmp_path):
    _, a, u = _data(tmp_path)
    v_out, ref = tmp_path / "v.fld", tmp_path / "ref.fld"
    assert run(["bregman", "--a", str(a), "--u", str(u), "--max-iter", "30",
                "--out-v", str(v_out), "--out", str(tmp_path / "breg.fld")]) == 0
    data = read_field(a)
    v, _ = split_bregman_minimize(data, boundary_trace(read_field(u)),
                                  BregmanConfig(max_iterations=30), data.grid)
    write_field(v, ref)
    assert v_out.read_bytes() == ref.read_bytes()


def test_settings_the_run_cannot_use_fail_up_front(tmp_path, capsys, monkeypatch):
    # an epsilon outside (0, 1] fails when the config is built, before the
    # data file is read (a missing one would exit 2); a contact impedance
    # whose electrode term rounds away, or so small that the edge terms round
    # away against it, fails the CEM assembly, before any solve, at every
    # size: the small z are those that wrote near-zero data with exit 0
    out = tmp_path / "bad.fld"
    assert run(["reconstruct", "--a", str(tmp_path / "missing.fld"), "--epsilon", "2",
                "--out", str(out)]) == 1
    assert "epsilon" in _one_error_line(capsys)
    sigmas = []
    for n in (17, 64):
        sigmas.append(tmp_path / f"sigma{n}.fld")
        run(["phantom", "--kind", "blobs", "--n", str(n), "--seed", "2",
             "--out", str(sigmas[-1])])
    capsys.readouterr()
    monkeypatch.setattr(elliptic, "_cg", None)  # a solve would raise TypeError
    for sig, small in zip(sigmas, (("1e-297", "1e-283", "1e-22"), ("1e-269", "1e-50"))):
        for z in ("1e300", *small):
            assert run(["forward", "--sigma", str(sig), "--cem", "--z", z,
                        "--out-a", str(out)]) == 1
            assert "rounds away" in _one_error_line(capsys)
            assert not out.exists()
