"""Command-line toolkit wiring phantoms, forward simulation, reconstruction,
the split Bregman comparator, schedule studies, and PGM export into
reproducible experiments.

Every command accepts ``--config FILE`` with flat ``key=value`` lines
(``#`` starts a comment); explicit flags override config values.  Outputs
are written atomically (temp file then rename).  Exit codes: 0 success,
1 usage or validation, 2 I/O or file format, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bregman as bregman_mod
from . import recon as recon_mod
from .boundary import ElectrodeSet, base_coefficients, smoothed_coefficients
from .errors import (
    AssemblyError,
    CdreconError,
    DataError,
    DimensionError,
    FormatError,
    GridError,
    NotSPDError,
    SolverError,
    UsageError,
)
from .fields import boundary_trace, read_field, rel_l2_error, write_field
from .forward import add_noise, solve_cem_forward, solve_forward
from .phantom import Ellipse, PhantomSpec, field_to_pgm, generate_phantom


@dataclass(frozen=True)
class Opt:
    name: str
    type: type = float
    default: object = None
    help: str = ""
    flag: bool = False      # boolean switch
    append: bool = False    # repeatable
    required: bool = False


_COMMON = (Opt("config", str, None, "key=value config file; flags override"),)

_ELECTRODE_OPTS = (
    Opt("z", float, 1.0, "contact impedance"),
    Opt("current", float, 1.0, "injected net current I"),
    Opt("aperture", float, 1.0, "electrode length fraction in (0,1]"),
    Opt("polarity", str, "top", "which electrode injects: top or bottom"),
)

_COMMANDS: dict[str, tuple[Opt, ...]] = {
    "phantom": _COMMON + (
        Opt("kind", str, "blobs", "blobs | ellipses | image"),
        Opt("n", int, 128, "grid nodes per side"),
        Opt("seed", int, 0, "random seed"),
        Opt("lo", float, 1.0, "background conductivity"),
        Opt("hi", float, 1.8, "peak conductivity"),
        Opt("count", int, 4, "number of blobs"),
        Opt("width-lo", float, 0.06, "minimum blob width"),
        Opt("width-hi", float, 0.18, "maximum blob width"),
        Opt("ellipse", str, None,
            "cx,cy,ax,ay,angle_deg,value (repeatable; ';'-separated in config)",
            append=True),
        Opt("image", str, None, "P5 PGM file for kind=image"),
        Opt("margin", float, 0.0, "background margin around the image"),
        Opt("out", str, None, "output field file", required=True),
    ),
    "forward": _COMMON + _ELECTRODE_OPTS + (
        Opt("sigma", str, None, "conductivity field file", required=True),
        Opt("epsilon", float, 5e-4, "coefficient floor; 0 selects sharp coefficients"),
        Opt("width", float, None, "smoothing arc length (default 4h)"),
        Opt("noise", float, 0.0, "multiplicative noise level"),
        Opt("seed", int, 0, "noise seed"),
        Opt("cem", bool, False, "solve the complete electrode model instead", flag=True),
        Opt("tol", float, 1e-10, "linear solver tolerance"),
        Opt("out-a", str, None, "output file for the interior data", required=True),
        Opt("out-u", str, None, "optional output file for the potential"),
    ),
    "reconstruct": _COMMON + _ELECTRODE_OPTS + (
        Opt("a", str, None, "interior data field file", required=True),
        Opt("epsilon", float, 5e-4, "coefficient floor"),
        Opt("delta", float, 3e-3, "regularization weight"),
        Opt("width", float, None, "smoothing arc length (default 4h)"),
        Opt("max-iter", int, 200, "outer iteration cap"),
        Opt("stop-tol", float, 1e-6, "relative conductivity change threshold"),
        Opt("grad-floor", float, 1e-8, "relative gradient magnitude floor"),
        Opt("sigma-min", float, None, "optional lower projection bound"),
        Opt("sigma-max", float, None, "optional upper projection bound"),
        Opt("init-sigma", float, 1.0, "initial conductivity (background value)"),
        Opt("no-calibrate", bool, False,
            "disable the background level calibration", flag=True),
        Opt("calibration-band", float, 0.12, "margin band width for calibration"),
        Opt("inner-tol", float, 1e-10, "linear solver tolerance"),
        Opt("truth", str, None, "optional ground-truth field for error reporting"),
        Opt("out", str, None, "output conductivity file", required=True),
        Opt("report", str, None, "optional per-iteration CSV report"),
    ),
    "bregman": _COMMON + (
        Opt("a", str, None, "interior data (TV weight) field file", required=True),
        Opt("u", str, None, "potential file whose trace fixes the Dirichlet data",
            required=True),
        Opt("rho", float, 1.0, "quadratic penalty weight"),
        Opt("max-iter", int, 500, "iteration cap"),
        Opt("tol", float, 1e-6, "relative change threshold"),
        Opt("grad-floor", float, 1e-8, "gradient floor for the conductivity"),
        Opt("inner-tol", float, 1e-10, "linear solver tolerance"),
        Opt("truth", str, None, "optional ground-truth field; prints the error"),
        Opt("out", str, None, "output conductivity file", required=True),
        Opt("out-v", str, None, "optional output for the minimizing potential"),
        Opt("report", str, None, "optional per-iteration CSV report"),
    ),
    "compare": _COMMON + (
        Opt("rec", str, None, "reconstruction field file", required=True),
        Opt("ref", str, None, "reference field file", required=True),
    ),
    "study": _COMMON + _ELECTRODE_OPTS + (
        Opt("a", str, None, "clean interior data field file", required=True),
        Opt("epsilon", float, 5e-4, "coefficient floor"),
        Opt("width", float, None, "smoothing arc length (default 4h)"),
        Opt("delta0", float, 3e-3, "initial regularization weight"),
        Opt("factor", float, 2.0, "geometric decay factor (> 1)"),
        Opt("steps", int, 7, "number of schedule steps"),
        Opt("eta-ratio", float, 1.0, "noise amplitude as a multiple of delta"),
        Opt("seed", int, 0, "noise seed base"),
        Opt("tail-fraction", float, 0.1, "tail convergence threshold"),
        Opt("max-iter", int, 200, "outer iteration cap per step"),
        Opt("stop-tol", float, 1e-6, "stopping threshold per step"),
        Opt("truth", str, None, "optional ground-truth field for error columns"),
        Opt("out", str, None, "output CSV", required=True),
    ),
    "export-pgm": _COMMON + (
        Opt("field", str, None, "input field file", required=True),
        Opt("lo", float, None, "fixed lower gray-range bound"),
        Opt("hi", float, None, "fixed upper gray-range bound"),
        Opt("out", str, None, "output 16-bit P5 PGM", required=True),
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cdrecon", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, opts in _COMMANDS.items():
        p = sub.add_parser(name, help=opts[-1].help if opts else "")
        for o in opts:
            flag = "--" + o.name
            if o.flag:
                p.add_argument(flag, dest=o.name, action="store_const", const=True,
                               default=None, help=o.help)
            elif o.append:
                p.add_argument(flag, dest=o.name, action="append", default=None,
                               help=o.help)
            else:
                p.add_argument(flag, dest=o.name, type=str, default=None, help=o.help)
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
    if raw is None:
        return None
    if o.flag:
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


def _cmd_phantom(v: dict) -> int:
    ellipses = []
    for spec in v["ellipse"] or []:
        parts = spec.split(",")
        if len(parts) != 6:
            raise UsageError(f"--ellipse needs cx,cy,ax,ay,angle_deg,value, got {spec!r}")
        cx, cy, ax, ay, deg, val = (float(p) for p in parts)
        ellipses.append(Ellipse(cx, cy, ax, ay, math.radians(deg), val))
    spec = PhantomSpec(
        kind=v["kind"], n=v["n"], lo=v["lo"], hi=v["hi"], seed=v["seed"],
        blob_count=v["count"], blob_width=(v["width-lo"], v["width-hi"]),
        ellipses=tuple(ellipses), image_path=v["image"], margin=v["margin"],
    )
    sigma = generate_phantom(spec)
    _atomic_write(v["out"], lambda p: write_field(sigma, p))
    print(f"phantom: kind={v['kind']} n={v['n']} wrote {v['out']}")
    return 0


def _cmd_forward(v: dict) -> int:
    electrodes = _electrodes(v)
    sigma = read_field(v["sigma"])
    grid = sigma.grid
    if v["cem"]:
        result = solve_cem_forward(sigma, electrodes, grid, tol=v["tol"])
        info = f"cem_voltage={result.cem_voltage:.12g}"
    else:
        if v["epsilon"] == 0.0:
            coeffs = base_coefficients(electrodes, grid)
        else:
            coeffs = smoothed_coefficients(electrodes, grid, v["epsilon"], v["width"])
        result = solve_forward(sigma, coeffs, grid, tol=v["tol"])
        info = f"epsilon={v['epsilon']:g}"
    a = add_noise(result.a, v["noise"], v["seed"]) if v["noise"] > 0.0 else result.a
    _atomic_write(v["out-a"], lambda p: write_field(a, p))
    if v["out-u"]:
        _atomic_write(v["out-u"], lambda p: write_field(result.u, p))
    print(
        f"forward: n={grid.n} {info} solver_iterations={result.stats.iterations} "
        f"wrote {v['out-a']}"
    )
    return 0


def _warn_if_capped(command: str, report) -> None:
    """One stderr line when a run stopped at its iteration cap, so a result
    that did not converge never passes silently; stdout is left alone."""
    if report.stop_reason == "cap":
        print(f"cdrecon: warning: {command} stopped at the iteration cap after "
              f"{report.iterations} iterations without converging", file=sys.stderr)


def _cmd_reconstruct(v: dict) -> int:
    electrodes = _electrodes(v)
    bounds = None
    if (v["sigma-min"] is None) != (v["sigma-max"] is None):
        raise UsageError("--sigma-min and --sigma-max must be given together")
    if v["sigma-min"] is not None:
        bounds = (v["sigma-min"], v["sigma-max"])
    config = recon_mod.ReconConfig(
        epsilon=v["epsilon"], delta=v["delta"],
        max_outer_iterations=v["max-iter"], stop_tol=v["stop-tol"],
        grad_floor=v["grad-floor"], sigma_bounds=bounds,
        initial_sigma=v["init-sigma"], transition_width=v["width"],
        inner_tol=v["inner-tol"], calibrate=not v["no-calibrate"],
        calibration_band=v["calibration-band"],
    )
    config.validate()
    a = read_field(v["a"])
    grid = a.grid
    truth = read_field(v["truth"]) if v["truth"] else None
    sigma, u, report = recon_mod.reconstruct(a, electrodes, config, grid, truth)
    _atomic_write(v["out"], lambda p: write_field(sigma, p))
    if v["report"]:
        _atomic_write(v["report"], report.write_csv)
    last = report.records[-1]
    line = (
        f"reconstruct: iterations={report.iterations} stop_reason={report.stop_reason} "
        f"converged={str(report.converged).lower()} sigma_change={last.sigma_change:.3e} "
        f"stop_change={report.stop_change:.3e} factorizations={report.factorizations}"
    )
    if truth is not None:
        line += f" rel_l2_error={rel_l2_error(sigma, truth):.6g}"
    print(line + f" wrote {v['out']}")
    _warn_if_capped("reconstruct", report)
    return 0


def _cmd_bregman(v: dict) -> int:
    a = read_field(v["a"])
    u = read_field(v["u"])
    grid = a.grid
    config = bregman_mod.BregmanConfig(
        rho=v["rho"], max_iterations=v["max-iter"], tol=v["tol"],
        grad_floor=v["grad-floor"], inner_tol=v["inner-tol"],
    )
    vfield, report = bregman_mod.split_bregman_minimize(
        a, boundary_trace(u), config, grid
    )
    sigma = bregman_mod.sigma_from_potential(a, vfield, config.grad_floor)
    _atomic_write(v["out"], lambda p: write_field(sigma, p))
    if v["out-v"]:
        _atomic_write(v["out-v"], lambda p: write_field(vfield, p))
    if v["report"]:
        _atomic_write(v["report"], report.write_csv)
    line = (
        f"bregman: iterations={report.iterations} stop_reason={report.stop_reason} "
        f"converged={str(report.converged).lower()} "
        f"v_change={report.records[-1].v_change:.3e}"
    )
    if v["truth"]:
        line += f" rel_l2_error={rel_l2_error(sigma, read_field(v['truth'])):.6g}"
    print(line + f" wrote {v['out']}")
    _warn_if_capped("bregman", report)
    return 0


def _cmd_compare(v: dict) -> int:
    rec = read_field(v["rec"])
    ref = read_field(v["ref"])
    print(f"rel_l2_error={rel_l2_error(rec, ref):.12g}")
    return 0


def _cmd_study(v: dict) -> int:
    electrodes = _electrodes(v)
    if v["factor"] <= 1.0:
        raise UsageError(f"--factor must exceed 1, got {v['factor']}")
    if v["steps"] < 2:
        raise UsageError("--steps must be at least 2")
    deltas = [v["delta0"] * v["factor"] ** (-k) for k in range(v["steps"])]
    etas = [v["eta-ratio"] * d for d in deltas]
    config = recon_mod.ReconConfig(
        epsilon=v["epsilon"], transition_width=v["width"],
        max_outer_iterations=v["max-iter"], stop_tol=v["stop-tol"],
    )
    a_clean = read_field(v["a"])
    grid = a_clean.grid
    truth = read_field(v["truth"]) if v["truth"] else None
    study = recon_mod.convergence_study(
        a_clean, electrodes, grid, deltas, etas, config,
        seed=v["seed"], tail_fraction=v["tail-fraction"], ground_truth=truth,
    )
    _atomic_write(v["out"], study.write_csv)
    print(
        f"study: steps={v['steps']} tail_ratio={study.tail_ratio:.6g} "
        f"converged={str(study.tail_converged).lower()} wrote {v['out']}"
    )
    return 0


def _cmd_export_pgm(v: dict) -> int:
    f = read_field(v["field"])
    _atomic_write(v["out"], lambda p: field_to_pgm(f, p, v["lo"], v["hi"]))
    print(f"export-pgm: n={f.grid.n} wrote {v['out']}")
    return 0


_DISPATCH = {
    "phantom": _cmd_phantom,
    "forward": _cmd_forward,
    "reconstruct": _cmd_reconstruct,
    "bregman": _cmd_bregman,
    "compare": _cmd_compare,
    "study": _cmd_study,
    "export-pgm": _cmd_export_pgm,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "command", None):
            raise UsageError("missing command (try --help)")
        values = _resolve(_COMMANDS[ns.command], ns)
        return _DISPATCH[ns.command](values)
    except (UsageError, DataError, DimensionError, GridError) as exc:
        print(f"cdrecon: error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"cdrecon: i/o error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NotSPDError, AssemblyError) as exc:
        print(f"cdrecon: numeric error: {exc}", file=sys.stderr)
        return 3
    except CdreconError as exc:
        print(f"cdrecon: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
