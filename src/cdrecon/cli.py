"""Command-line toolkit wiring phantoms, forward simulation, reconstruction,
the split Bregman comparator, schedule studies, and PGM export into
reproducible experiments.

Every command accepts ``--config FILE`` with flat ``key=value`` lines
(``#`` starts a comment); explicit flags override config values.  Outputs
are written atomically (temp file then rename).  Exit codes: 0 success,
1 usage or validation, 2 I/O or file format, 3 numeric failure, as the
error classes in ``cdrecon.errors`` declare; an OSError counts as an I/O
error.  Option defaults are those of ReconConfig, BregmanConfig,
ElectrodeSet and PhantomSpec.  ``reconstruct``, ``bregman`` and ``study``
read ``--truth`` and check its grid before they solve, so a bad truth file
writes no output.

The stdout line of ``reconstruct`` and ``bregman`` starts with the run's
``iterations= stop_reason=tol|cap converged=true|false``; ``reconstruct``
adds ``cem_lambda=`` (with ``--cem-voltage`` only), ``sigma_change=``,
``stop_change=`` and ``solve_iterations=`` (the CG iterations of all its
solves, the final one's included), ``bregman`` adds ``v_change=`` (its
report's stop_change).  A run that stops at ``cap``, or a study with a
capped step, also writes one ``cdrecon: warning:`` line to stderr; stdout
stays the same.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .boundary import ElectrodeSet, robin_coefficients
from .bregman import BregmanConfig, split_bregman_minimize
from .elliptic import SOLVE_TOL
from .errors import CdreconError, FormatError, UsageError
from .fields import boundary_trace, read_field, rel_l2_error, require_same_grid, write_field
from .forward import add_noise, robin_data, solve_cem_forward, solve_forward
from .phantom import Ellipse, PhantomSpec, field_to_pgm, generate_phantom
from .recon import (
    MIN_STUDY_STEPS,
    STUDY_SEED,
    STUDY_TAIL_FRACTION,
    ReconConfig,
    ReconReport,
    convergence_study,
    reconstruct,
    sigma_from_potential,
)


@dataclass(frozen=True)
class Opt:
    name: str
    type: type = float  # bool makes a switch
    default: object = None
    help: str = ""
    append: bool = False    # repeatable
    required: bool = False


@dataclass(frozen=True)
class Command:
    run: Callable[[dict], int]  # takes the resolved option values
    help: str
    opts: tuple[Opt, ...]


_COMMON = (Opt("config", str, None, "key=value config file; flags override"),)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The parser of every command with all of its options, built once per
    process; argparse keeps no state between ``parse_args`` calls."""
    parser = _Parser(prog="cdrecon", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        for o in _COMMON + command.opts:
            how = (dict(action="store_const", const=True) if o.type is bool
                   else dict(action="append") if o.append else dict(type=str))
            p.add_argument("--" + o.name, dest=o.name, default=None, help=o.help, **how)
    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {s!r}")
        key, value = s.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _coerce(o: Opt, raw, from_config: bool):
    if o.type is bool:
        if isinstance(raw, bool):
            return raw
        s = str(raw).strip().lower()
        if s in ("1", "true", "yes", "on"):
            return True
        if s in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"--{o.name}: expected a boolean, got {raw!r}")
    if o.append:
        items = raw.split(";") if from_config else list(raw)
        return [s for s in (i.strip() for i in items) if s]
    try:
        return o.type(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--{o.name}: expected {o.type.__name__}, got {raw!r}") from exc


def _resolve(opts: tuple[Opt, ...], ns: argparse.Namespace) -> dict:
    cfg_raw = {}
    cfg_path = getattr(ns, "config", None)
    if cfg_path:
        cfg_raw = _load_config(cfg_path)
        known = {o.name for o in opts}
        for key in cfg_raw:
            if key not in known:
                raise UsageError(f"unknown config key {key!r}")
    values = {}
    for o in opts:
        given = getattr(ns, o.name, None)
        if given is not None:
            values[o.name] = _coerce(o, given, from_config=False)
        elif o.name in cfg_raw:
            values[o.name] = _coerce(o, cfg_raw[o.name], from_config=True)
        else:
            values[o.name] = o.default
        if o.required and values[o.name] is None:
            raise UsageError(f"missing required option --{o.name}")
    return values


def _atomic_write(path: str, writer) -> None:
    """Write via a temp file in the destination directory, then rename."""
    target = Path(path)
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    try:
        writer(tmp)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _electrodes(v: dict) -> ElectrodeSet:
    if v["polarity"] not in ("top", "bottom"):
        raise UsageError(f"--polarity must be top or bottom, got {v['polarity']!r}")
    return ElectrodeSet(
        aperture=v["aperture"], z=v["z"], current=v["current"],
        top_positive=(v["polarity"] == "top"),
    )


def _finish(command: str, v: dict, write_out: Callable[[str], None], line: str,
            report: ReconReport | None = None, capped: str = "") -> int:
    """End a command: write --out and a run's --report CSV, print the one
    stdout line (a run's iterations= stop_reason= converged= first), and warn
    on stderr in one line when a run, or a study step (``capped`` says
    where), stopped at its iteration cap: no unconverged result is silent."""
    _atomic_write(v["out"], write_out)
    if report is not None:
        if v["report"]:
            _atomic_write(v["report"], report.write_csv)
        line = (f"iterations={report.iterations} stop_reason={report.stop_reason} "
                f"converged={str(report.converged).lower()} {line}")
        if not report.converged:
            capped = f"after {report.iterations} iterations"
    print(f"{command}: {line} wrote {v['out']}")
    if capped:
        print(f"cdrecon: warning: {command} stopped at the iteration cap {capped} "
              "without converging", file=sys.stderr)
    return 0


def _error_field(sigma, truth) -> str:
    """A run's `` rel_l2_error=`` field against ``truth``, or "" without one."""
    return "" if truth is None else f" rel_l2_error={rel_l2_error(sigma, truth):.6g}"


def _cmd_phantom(v: dict) -> int:
    ellipses = []
    for spec in v["ellipse"] or []:
        try:
            cx, cy, ax, ay, deg, val = (float(p) for p in spec.split(","))
        except ValueError as exc:
            raise UsageError(
                f"--ellipse needs six numbers cx,cy,ax,ay,angle_deg,value, got {spec!r}"
            ) from exc
        ellipses.append(Ellipse(cx, cy, ax, ay, math.radians(deg), val))
    spec = PhantomSpec(
        kind=v["kind"], n=v["n"], lo=v["lo"], hi=v["hi"], seed=v["seed"],
        blob_count=v["count"], blob_width=(v["width-lo"], v["width-hi"]),
        ellipses=tuple(ellipses), image_path=v["image"], margin=v["margin"],
    )
    sigma = generate_phantom(spec)
    return _finish("phantom", v, lambda p: write_field(sigma, p), f"kind={v['kind']} n={v['n']}")


def _cmd_forward(v: dict) -> int:
    electrodes = _electrodes(v)
    sigma = read_field(v["sigma"])
    grid = sigma.grid
    if v["cem"]:
        result = solve_cem_forward(sigma, electrodes, grid, tol=v["tol"])
        info = f"cem_voltage={result.cem_voltage:.12g}"
    else:
        coeffs = robin_coefficients(electrodes, grid, v["epsilon"], v["width"])
        result = solve_forward(sigma, coeffs, grid, tol=v["tol"])
        info = f"epsilon={v['epsilon']:g}"
    a = add_noise(result.a, v["noise"], v["seed"])
    _atomic_write(v["out-a"], lambda p: write_field(a, p))
    if v["out-u"]:
        _atomic_write(v["out-u"], lambda p: write_field(result.u, p))
    print(
        f"forward: n={grid.n} {info} solver_iterations={result.stats.iterations} "
        f"wrote {v['out-a']}"
    )
    return 0


def _cmd_reconstruct(v: dict) -> int:
    electrodes = _electrodes(v)
    bounds = None
    if (v["sigma-min"] is None) != (v["sigma-max"] is None):
        raise UsageError("--sigma-min and --sigma-max must be given together")
    if v["sigma-min"] is not None:
        bounds = (v["sigma-min"], v["sigma-max"])
    config = ReconConfig(
        epsilon=v["epsilon"], delta=v["delta"],
        max_outer_iterations=v["max-iter"], stop_tol=v["stop-tol"],
        grad_floor=v["grad-floor"], sigma_bounds=bounds,
        initial_sigma=v["init-sigma"], transition_width=v["width"],
        calibrate=not v["no-calibrate"], calibration_band=v["calibration-band"],
    )
    a = read_field(v["a"])
    grid = a.grid
    truth = read_field(v["truth"]) if v["truth"] else None
    cem = ""
    if v["cem-voltage"] is not None:
        a, lam = robin_data(a, v["cem-voltage"], electrodes)
        cem = f"cem_lambda={lam:.12g} "
    sigma, u, report = reconstruct(a, electrodes, config, grid, truth)
    solve_iterations = (sum(r.solve_iterations for r in report.records)
                        + report.final_solve.iterations)
    return _finish("reconstruct", v, lambda p: write_field(sigma, p), (
        f"{cem}sigma_change={report.records[-1].sigma_change:.3e} "
        f"stop_change={report.stop_change:.3e} "
        f"solve_iterations={solve_iterations}{_error_field(sigma, truth)}"
    ), report)


def _cmd_bregman(v: dict) -> int:
    a = read_field(v["a"])
    u = read_field(v["u"])
    grid = a.grid
    # read and checked before the run, so that a bad truth writes nothing
    truth = read_field(v["truth"]) if v["truth"] else None
    require_same_grid(a, truth)
    config = BregmanConfig(rho=v["rho"], max_iterations=v["max-iter"], tol=v["tol"],
                           grad_floor=v["grad-floor"])
    vfield, report = split_bregman_minimize(a, boundary_trace(u), config, grid)
    sigma = sigma_from_potential(a, vfield, config.grad_floor)
    if v["out-v"]:
        _atomic_write(v["out-v"], lambda p: write_field(vfield, p))
    return _finish("bregman", v, lambda p: write_field(sigma, p),
                   f"v_change={report.stop_change:.3e}{_error_field(sigma, truth)}", report)


def _cmd_compare(v: dict) -> int:
    rec = read_field(v["rec"])
    ref = read_field(v["ref"])
    print(f"rel_l2_error={rel_l2_error(rec, ref):.12g}")
    return 0


def _cmd_study(v: dict) -> int:
    electrodes = _electrodes(v)
    # written as `not x > 1` so that NaN is rejected too
    if not v["factor"] > 1.0:
        raise UsageError(f"--factor must exceed 1, got {v['factor']}")
    if v["steps"] < MIN_STUDY_STEPS:
        raise UsageError(f"--steps must be at least {MIN_STUDY_STEPS}")
    deltas = [v["delta0"] * v["factor"] ** (-k) for k in range(v["steps"])]
    etas = [v["eta-ratio"] * d for d in deltas]
    config = ReconConfig(
        epsilon=v["epsilon"], transition_width=v["width"],
        max_outer_iterations=v["max-iter"], stop_tol=v["stop-tol"],
    )
    a_clean = read_field(v["a"])
    grid = a_clean.grid
    truth = read_field(v["truth"]) if v["truth"] else None
    study = convergence_study(
        a_clean, electrodes, grid, deltas, etas, config,
        seed=v["seed"], tail_fraction=v["tail-fraction"], ground_truth=truth,
    )
    capped = study.stop_reasons.count("cap")
    return _finish("study", v, study.write_csv, (
        f"steps={v['steps']} tail_ratio={study.tail_ratio:.6g} "
        f"converged={str(study.tail_converged).lower()}"
    ), capped=f"in {capped} of {v['steps']} steps" if capped else "")


def _cmd_export_pgm(v: dict) -> int:
    f = read_field(v["field"])
    return _finish("export-pgm", v, lambda p: field_to_pgm(f, p, v["lo"], v["hi"]),
                   f"n={f.grid.n}")


_ELECTRODE_OPTS = (
    Opt("z", float, ElectrodeSet.z, "contact impedance"),
    Opt("current", float, ElectrodeSet.current, "injected net current I"),
    Opt("aperture", float, ElectrodeSet.aperture, "electrode length fraction in (0,1]"),
    Opt("polarity", str, "top", "which electrode injects: top or bottom"),
)
# the Robin coefficients' model, shared by forward, reconstruct and study
_MODEL_OPTS = (
    Opt("epsilon", float, ReconConfig.epsilon,
        "coefficient floor; 0 selects sharp coefficients"),
    Opt("width", float, None, "smoothing arc length (default 4h)"),
)

# every command once: its handler, its one-line help and its options; a
# default that a config dataclass holds is read from that dataclass
_COMMANDS: dict[str, Command] = {
    "phantom": Command(_cmd_phantom, "generate a ground-truth conductivity field", (
        Opt("kind", str, "blobs", "blobs | ellipses | image"),
        Opt("n", int, 128, "grid nodes per side"),
        Opt("seed", int, PhantomSpec.seed, "random seed"),
        Opt("lo", float, PhantomSpec.lo, "background conductivity"),
        Opt("hi", float, PhantomSpec.hi, "peak conductivity"),
        Opt("count", int, PhantomSpec.blob_count, "number of blobs"),
        Opt("width-lo", float, PhantomSpec.blob_width[0], "minimum blob width"),
        Opt("width-hi", float, PhantomSpec.blob_width[1], "maximum blob width"),
        Opt("ellipse", str, None,
            "cx,cy,ax,ay,angle_deg,value (repeatable; ';'-separated in config)",
            append=True),
        Opt("image", str, None, "P5 PGM file for kind=image"),
        Opt("margin", float, PhantomSpec.margin, "background margin around the image"),
        Opt("out", str, None, "output field file", required=True),
    )),
    "forward": Command(_cmd_forward, "simulate the interior data of a conductivity",
                       _ELECTRODE_OPTS + _MODEL_OPTS + (
        Opt("sigma", str, None, "conductivity field file", required=True),
        Opt("noise", float, 0.0, "multiplicative noise level"),
        Opt("seed", int, 0, "noise seed"),
        Opt("cem", bool, False, "solve the complete electrode model instead"),
        Opt("tol", float, SOLVE_TOL, "linear solver tolerance"),
        Opt("out-a", str, None, "output file for the interior data", required=True),
        Opt("out-u", str, None, "optional output file for the potential"),
    )),
    "reconstruct": Command(_cmd_reconstruct, "reconstruct the conductivity from interior data",
                           _ELECTRODE_OPTS + _MODEL_OPTS + (
        Opt("a", str, None, "interior data field file", required=True),
        Opt("delta", float, ReconConfig.delta, "regularization weight"),
        Opt("max-iter", int, ReconConfig.max_outer_iterations, "outer iteration cap"),
        Opt("stop-tol", float, ReconConfig.stop_tol, "relative conductivity change threshold"),
        Opt("grad-floor", float, ReconConfig.grad_floor, "relative gradient magnitude floor"),
        Opt("sigma-min", float, None, "optional lower projection bound"),
        Opt("sigma-max", float, None, "optional upper projection bound"),
        Opt("init-sigma", float, ReconConfig.initial_sigma,
            "initial conductivity (background value)"),
        Opt("no-calibrate", bool, False, "disable the background level calibration"),
        Opt("calibration-band", float, ReconConfig.calibration_band,
            "margin band width for calibration"),
        Opt("cem-voltage", float, None,
            "electrode voltage V of forward --cem: a is divided by V/(zI)"),
        Opt("truth", str, None, "optional ground-truth field for error reporting"),
        Opt("out", str, None, "output conductivity file", required=True),
        Opt("report", str, None, "optional per-iteration CSV report"),
    )),
    "bregman": Command(_cmd_bregman, "split Bregman comparator reconstruction", (
        Opt("a", str, None, "interior data (TV weight) field file", required=True),
        Opt("u", str, None, "potential file whose trace fixes the Dirichlet data",
            required=True),
        Opt("rho", float, BregmanConfig.rho, "quadratic penalty weight"),
        Opt("max-iter", int, BregmanConfig.max_iterations, "iteration cap"),
        Opt("tol", float, BregmanConfig.tol, "relative change threshold"),
        Opt("grad-floor", float, BregmanConfig.grad_floor,
            "gradient floor for the conductivity"),
        Opt("truth", str, None, "optional ground-truth field; prints the error"),
        Opt("out", str, None, "output conductivity file", required=True),
        Opt("out-v", str, None, "optional output for the minimizing potential"),
        Opt("report", str, None, "optional per-iteration CSV report"),
    )),
    "compare": Command(_cmd_compare, "print the relative L2 error against a reference", (
        Opt("rec", str, None, "reconstruction field file", required=True),
        Opt("ref", str, None, "reference field file", required=True),
    )),
    "study": Command(_cmd_study, "run a regularization-schedule convergence study",
                     _ELECTRODE_OPTS + _MODEL_OPTS + (
        Opt("a", str, None, "clean interior data field file", required=True),
        Opt("delta0", float, ReconConfig.delta, "initial regularization weight"),
        Opt("factor", float, 2.0, "geometric decay factor (> 1)"),
        Opt("steps", int, 7, f"number of schedule steps (at least {MIN_STUDY_STEPS})"),
        Opt("eta-ratio", float, 1.0, "noise amplitude as a multiple of delta"),
        Opt("seed", int, STUDY_SEED, "noise seed base"),
        Opt("tail-fraction", float, STUDY_TAIL_FRACTION, "tail convergence threshold"),
        Opt("max-iter", int, ReconConfig.max_outer_iterations, "outer iteration cap per step"),
        Opt("stop-tol", float, ReconConfig.stop_tol, "stopping threshold per step"),
        Opt("truth", str, None, "optional ground-truth field for error columns"),
        Opt("out", str, None, "output CSV", required=True),
    )),
    "export-pgm": Command(_cmd_export_pgm, "export a field as a 16-bit grayscale PGM", (
        Opt("field", str, None, "input field file", required=True),
        Opt("lo", float, None, "fixed lower gray-range bound"),
        Opt("hi", float, None, "fixed upper gray-range bound"),
        Opt("out", str, None, "output 16-bit P5 PGM", required=True),
    )),
}


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
        if not getattr(ns, "command", None):
            raise UsageError("missing command (try --help)")
        command = _COMMANDS[ns.command]
        return command.run(_resolve(_COMMON + command.opts, ns))
    except (CdreconError, OSError) as exc:
        kind = exc if isinstance(exc, CdreconError) else FormatError
        print(f"cdrecon: {kind.label}: {exc}", file=sys.stderr)
        return kind.exit_code


if __name__ == "__main__":
    sys.exit(main())
