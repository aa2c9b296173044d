"""Comparator reconstruction: alternating split Bregman minimization of the
weighted total variation with Dirichlet data fixed to a given boundary trace.

The splitting introduces a cell-centered auxiliary field d for grad v and a
Bregman multiplier g.  Each sweep shrinks d toward grad v + g with the
threshold (cell-mean weight)/rho, accumulates the multiplier, and solves
the five-point Poisson problem for v with the trace eliminated (exactly, by
the sine transform): a linearized Goldstein-Osher step, as that operator is
not -div of the cell ``gradient``.  One gradient per iterate serves both its
recorded weighted TV and the next shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import SolveStats, SparseSystem, assemble_laplace_dirichlet, sine_solve
from .errors import DataError
from .fields import (
    BoundaryValues,
    Grid,
    ScalarField,
    _divergence2d,
    _gradient2d,
    _weighted_tv,
    cell_average,
)
from .recon import IterationRecord, ReconReport, sigma_from_potential

__all__ = [
    "BregmanConfig",
    "BregmanReport",
    "split_bregman_minimize",
    "sigma_from_potential",
]


@dataclass(frozen=True)
class BregmanConfig:
    rho: float = 1.0
    max_iterations: int = 500
    tol: float = 1e-6
    grad_floor: float = 1e-8
    inner_tol: float = 1e-10

    def validate(self) -> None:
        # written as `not x > 0` so that NaN is rejected too
        if not self.rho > 0.0:
            raise DataError(f"rho must be positive, got {self.rho}")
        if self.max_iterations < 1:
            raise DataError("need at least one iteration")
        if not self.tol > 0.0:
            raise DataError(f"tol must be positive, got {self.tol}")
        if not self.grad_floor > 0.0:
            raise DataError(f"grad_floor must be positive, got {self.grad_floor}")
        if not (0.0 < self.inner_tol < 1.0):
            raise DataError(f"inner_tol must be in (0, 1), got {self.inner_tol}")


@dataclass
class BregmanIteration:
    index: int
    weighted_tv: float
    v_change: float
    solve_iterations: int
    solve_residual: float


@dataclass
class BregmanReport:
    records: list[BregmanIteration] = field(default_factory=list)
    # "tol" when the v-change stop rule fired, "cap" at max_iterations
    stop_reason: str = ""

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def converged(self) -> bool:
        return self.stop_reason != "cap"

    def tv_values(self) -> list[float]:
        return [r.weighted_tv for r in self.records]

    def write_csv(self, path) -> None:
        """Same columns as the reconstruction report: the functional columns
        hold the weighted TV, sigma_change the v-change, unused terms zero."""
        ReconReport([
            IterationRecord(r.index, r.weighted_tv, 0.0, 0.0, r.v_change, None,
                            r.solve_iterations, r.solve_residual)
            for r in self.records
        ]).write_csv(path)


def split_bregman_minimize(
    a: ScalarField,
    dirichlet_trace: BoundaryValues,
    config: BregmanConfig,
    grid: Grid,
) -> tuple[ScalarField, BregmanReport]:
    """Approximately minimize the weighted TV of v subject to the fixed
    boundary trace.

    The trace constraint holds exactly at every iteration (Dirichlet rows
    are eliminated, not penalized).  A zero weight reduces the problem to
    the discrete harmonic extension of the trace, returned immediately.
    """
    config.validate()
    if a.grid.n != grid.n or dirichlet_trace.grid.n != grid.n:
        raise DataError("data, trace and grid sizes disagree")
    if np.any(a.values < 0.0):
        raise DataError("TV weight must be nonnegative")

    base = assemble_laplace_dirichlet(dirichlet_trace, grid)
    h, h2 = grid.h, grid.h * grid.h

    def solve_v(div: np.ndarray | None) -> tuple[ScalarField, SolveStats]:
        # the Dirichlet rows keep the trace, which the sine solve copies
        # through bit for bit; the source -div enters the interior rows only
        rhs = base.rhs.copy()
        if div is not None:
            rhs.reshape(grid.n, grid.n)[1:-1, 1:-1] -= h2 * div[1:-1, 1:-1]
        x, stats = sine_solve(SparseSystem(base.matrix, rhs), tol=config.inner_tol)
        return ScalarField(grid, x), stats

    report = BregmanReport()
    v, stats = solve_v(None)  # harmonic extension of the trace
    if float(a.values.max()) == 0.0:
        report.records.append(BregmanIteration(
            0, 0.0, 0.0, stats.iterations, stats.relative_residual))
        report.stop_reason = "tol"  # the harmonic extension is the minimizer
        return v, report

    weight = cell_average(a)
    thresh = weight / config.rho
    gx, gy = np.zeros_like(weight), np.zeros_like(weight)
    # one gradient per iterate, for both its recorded TV and the next shrink
    vx, vy = _gradient2d(v.values2d, h)

    report.stop_reason = "cap"
    for k in range(config.max_iterations):
        wx = vx + gx
        wy = vy + gy
        mag = np.hypot(wx, wy)
        shrink = np.maximum(mag - thresh, 0.0)
        scale = np.divide(shrink, mag, out=np.zeros_like(mag), where=mag > 0.0)
        dx = scale * wx
        dy = scale * wy
        gx += vx - dx
        gy += vy - dy

        v_new, stats = solve_v(_divergence2d(dx - gx, dy - gy, h))
        vx, vy = _gradient2d(v_new.values2d, h)
        denom = float(np.linalg.norm(v.values))
        change = (
            float(np.linalg.norm(v_new.values - v.values)) / denom
            if denom > 0.0 else float(np.linalg.norm(v_new.values))
        )
        report.records.append(BregmanIteration(
            k, _weighted_tv(np.hypot(vx, vy), weight, h), change,
            stats.iterations, stats.relative_residual,
        ))
        v = v_new
        if change <= config.tol:
            report.stop_reason = "tol"
            break
    return v, report
