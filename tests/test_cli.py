"""Command-line interface: determinism, config files, exit codes, formats."""

import numpy as np
import pytest

from cdrecon.boundary import ElectrodeSet
from cdrecon.cli import main
from cdrecon.fields import ScalarField, make_grid, read_field, write_field
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


def test_exit_code_usage():
    assert run(["phantom", "--kind", "blobs", "--n", "16", "--bogus", "1"]) == 1
    assert run(["phantom", "--kind", "blobs", "--n", "16"]) == 1  # missing --out
    assert run([]) == 1
    assert run(["study", "--a", "x.fld", "--factor", "0.5", "--out", "y.csv"]) == 1


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
        bregman + ["--inner-tol", "0"],
        bregman + ["--grad-floor", "0"],
        bregman + ["--rho", "nan"],
        bregman + ["--tol", "nan"],
        reconstruct + ["--inner-tol", "0"],
        reconstruct + ["--stop-tol", "nan"],
        reconstruct + ["--delta", "nan"],
        reconstruct + ["--current", "nan"],
        ["forward", "--sigma", str(sig), "--out-a", out, "--tol", "0"],
        ["forward", "--sigma", str(sig), "--out-a", out, "--z", "nan"],
    ]
    capsys.readouterr()
    for args in cases:
        assert run(args) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("cdrecon: error: ") and err.count("\n") == 1, args
        assert "Traceback" not in err
        option = args[-2].lstrip("-").replace("-", "_")
        assert option in err, args


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


def test_reconstruct_cli_prints_factorizations(tmp_path, capsys):
    # the line carries the run's LU factorizations, as the library reports
    # them for the same data and the default settings
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
    assert int(fields["factorizations"]) == report.factorizations >= 1


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
    assert run(["study", "--a", str(a), "--steps", "3", "--max-iter", "5",
                "--out", str(out)]) == 0
    assert "tail_ratio=" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "step,delta,eta,g_delta,g_clean,rel_error"
    assert len(rows) == 4


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
