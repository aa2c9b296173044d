"""The benchmark's workloads.  Each one builds its inputs from the workload
seed in ``setup`` (untimed), runs one op in ``op`` (timed) and checks the
op's outputs in ``check`` (untimed), returning an ``Outcome``.

The phantom is fixed at criterion 6's settings (blobs, seed 7, margin 0.15,
width 0.05-0.10); the workload seed drives the 1e-5 multiplicative noise on
the interior data.  So every seed poses the same problem at the same cost
and the seed changes the data the program sees.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cdrecon as cd

PHANTOM = dict(kind="blobs", seed=7, lo=1.0, hi=1.8, margin=0.15,
               blob_width=(0.05, 0.10))
NOISE = 1e-5
# Ceilings on the rel-L2 error, about 10 % above the values the seed code
# returns (recon 2.2763e-2, Bregman 4.1415e-2); the CEM check is criterion 2's.
RECON_ERROR_CEILING = 2.5e-2
BREGMAN_ERROR_CEILING = 4.6e-2
CEM_GAP_CEILING = 1e-6


@dataclass
class Outcome:
    digest: str
    rel_l2_error: float
    counts: dict[str, int]
    problems: list[str] = field(default_factory=list)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _sigma_problems(sigma, truth, ceiling: float) -> tuple[float, list[str]]:
    problems = []
    if not np.all(np.isfinite(sigma.values)):
        problems.append("sigma has non-finite values")
    elif not np.all(sigma.values > 0.0):
        problems.append("sigma has nonpositive values")
    err = cd.rel_l2_error(sigma, truth)
    if not err <= ceiling:
        problems.append(f"rel_l2_error {err:.6g} above ceiling {ceiling:g}")
    return err, problems


class _BlobData:
    """Phantom, smoothed full-aperture Robin forward data and noisy a at n=64."""

    n = 64

    def setup(self, seed: int, workdir: Path) -> None:
        self.grid = cd.make_grid(self.n)
        self.truth = cd.generate_phantom(cd.PhantomSpec(n=self.n, **PHANTOM))
        self.electrodes = cd.ElectrodeSet(aperture=1.0)
        coeffs = cd.smoothed_coefficients(self.electrodes, self.grid, 5e-4)
        self.fwd = cd.solve_forward(self.truth, coeffs, self.grid)
        self.a = cd.add_noise(self.fwd.a, NOISE, seed)


class ReconN64(_BlobData):
    name = "recon-n64"

    def op(self):
        return cd.reconstruct(self.a, self.electrodes, cd.ReconConfig(), self.grid)

    def check(self, raw) -> Outcome:
        sigma, u, report = raw
        err, problems = _sigma_problems(sigma, self.truth, RECON_ERROR_CEILING)
        iterations = sum(r.solve_iterations for r in report.records)
        counts = {
            "recon.sweeps": report.iterations,
            "elliptic.solve_iterations": iterations + report.final_solve.iterations,
        }
        digest = _digest(sigma.values.tobytes(), u.values.tobytes(),
                         repr(sorted(counts.items())).encode())
        return Outcome(digest, err, counts, problems)


class BregmanN64(_BlobData):
    name = "bregman-n64"

    def op(self):
        config = cd.BregmanConfig()
        v, report = cd.split_bregman_minimize(
            self.a, cd.boundary_trace(self.fwd.u), config, self.grid)
        return cd.sigma_from_potential(self.a, v, config.grad_floor), v, report

    def check(self, raw) -> Outcome:
        sigma, v, report = raw
        err, problems = _sigma_problems(sigma, self.truth, BREGMAN_ERROR_CEILING)
        counts = {
            "bregman.iterations": report.iterations,
            "elliptic.solve_iterations": sum(r.solve_iterations for r in report.records),
        }
        digest = _digest(sigma.values.tobytes(), v.values.tobytes(),
                         repr(sorted(counts.items())).encode())
        return Outcome(digest, err, counts, problems)


class ForwardN256:
    name = "forward-n256"

    n = 256
    _ITERATIONS = re.compile(r"solver_iterations=(\d+)")

    def setup(self, seed: int, workdir: Path) -> None:
        from cdrecon import cli

        self.cli = cli  # call cli.main through the module, so tracing sees it
        self.files = {k: workdir / f"{k}.fld" for k in ("sigma", "a0", "u0", "a1", "u1")}
        f = {k: str(p) for k, p in self.files.items()}
        self.commands = [
            ["phantom", "--kind", PHANTOM["kind"], "--n", str(self.n),
             "--seed", str(PHANTOM["seed"]), "--lo", str(PHANTOM["lo"]),
             "--hi", str(PHANTOM["hi"]), "--margin", str(PHANTOM["margin"]),
             "--width-lo", str(PHANTOM["blob_width"][0]),
             "--width-hi", str(PHANTOM["blob_width"][1]), "--out", f["sigma"]],
            ["forward", "--sigma", f["sigma"], "--epsilon", "0", "--noise", str(NOISE),
             "--seed", str(seed), "--out-a", f["a0"], "--out-u", f["u0"]],
            ["forward", "--sigma", f["sigma"], "--cem", "--out-a", f["a1"], "--out-u", f["u1"]],
        ]
        self._clear()

    def _clear(self) -> None:
        for p in self.files.values():
            p.unlink(missing_ok=True)

    def op(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [self.cli.main(argv) for argv in self.commands]
        return codes, out.getvalue()

    def check(self, raw) -> Outcome:
        codes, text = raw
        problems = [f"cli {argv[0]} exited {c}"
                    for argv, c in zip(self.commands, codes) if c != 0]
        iterations = [int(m) for m in self._ITERATIONS.findall(text)]
        counts = {"elliptic.solve_iterations": sum(iterations)}
        gap, blobs = float("nan"), [text.encode()]
        if not problems:
            if len(iterations) != 2:
                problems.append(f"expected 2 solver_iterations= lines, got {len(iterations)}")
            u0 = cd.read_field(self.files["u0"])
            u1 = cd.read_field(self.files["u1"])
            robin = cd.ForwardResult(u=u0, a=cd.read_field(self.files["a0"]), stats=None)
            lam = cd.cem_scaling(robin, cd.ElectrodeSet(), u0.grid)
            gap = cd.rel_l2_error(cd.ScalarField(u0.grid, lam * u0.values), u1)
            if not gap <= CEM_GAP_CEILING:
                problems.append(f"CEM vs lambda*Robin gap {gap:.3g} above {CEM_GAP_CEILING:g}")
            blobs += [self.files[k].read_bytes() for k in sorted(self.files)]
        self._clear()
        return Outcome(_digest(*blobs), gap, counts, problems)


WORKLOADS = {w.name: w for w in (ReconN64, BregmanN64, ForwardN256)}
