"""Comparator reconstruction: alternating split Bregman minimization of the
weighted total variation with Dirichlet data fixed to a given boundary trace.

The splitting introduces a cell-centered auxiliary field d for grad v and a
Bregman multiplier g.  Each sweep solves a five-point Poisson problem for v
with the trace eliminated (exactly, by the sine transform), shrinks d
toward grad v + g with the spatially varying threshold (cell-mean
weight)/rho, and accumulates the multiplier.
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
    VectorField,
    cell_average,
    divergence,
    gradient,
    weighted_tv,
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
        if self.rho <= 0.0:
            raise DataError(f"rho must be positive, got {self.rho}")
        if self.max_iterations < 1:
            raise DataError("need at least one iteration")
        if self.tol <= 0.0:
            raise DataError(f"tol must be positive, got {self.tol}")


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
            IterationRecord(r.index, r.weighted_tv, r.weighted_tv, r.weighted_tv,
                            0.0, 0.0, r.v_change, None,
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
    h2 = grid.h * grid.h
    interior = np.ones((grid.n, grid.n), dtype=bool)
    interior[0, :] = interior[-1, :] = interior[:, 0] = interior[:, -1] = False
    interior = interior.reshape(-1)

    def solve_v(rhs_source: np.ndarray | None) -> tuple[ScalarField, SolveStats]:
        # the Dirichlet rows keep the trace, which the sine solve copies
        # through bit for bit
        rhs = base.rhs.copy()
        if rhs_source is not None:
            rhs[interior] += h2 * rhs_source[interior]
        x, stats = sine_solve(SparseSystem(base.matrix, rhs), tol=config.inner_tol)
        return ScalarField(grid, x), stats

    report = BregmanReport()
    v, stats = solve_v(None)  # harmonic extension of the trace
    if float(a.values.max()) == 0.0:
        report.records.append(BregmanIteration(
            0, 0.0, 0.0, stats.iterations, stats.relative_residual))
        report.stop_reason = "tol"  # the harmonic extension is the minimizer
        return v, report

    thresh = cell_average(a) / config.rho
    m = grid.n - 1
    gx = np.zeros((m, m))
    gy = np.zeros((m, m))

    report.stop_reason = "cap"
    for k in range(config.max_iterations):
        grad_v = gradient(v)
        wx = grad_v.x2d + gx
        wy = grad_v.y2d + gy
        mag = np.hypot(wx, wy)
        shrink = np.maximum(mag - thresh, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(mag > 0.0, shrink / mag, 0.0)
        dx = scale * wx
        dy = scale * wy
        gx += grad_v.x2d - dx
        gy += grad_v.y2d - dy

        source = -divergence(
            VectorField(grid, (dx - gx).reshape(-1), (dy - gy).reshape(-1))
        ).values
        v_new, stats = solve_v(source)
        denom = float(np.linalg.norm(v.values))
        change = (
            float(np.linalg.norm(v_new.values - v.values)) / denom
            if denom > 0.0 else float(np.linalg.norm(v_new.values))
        )
        report.records.append(BregmanIteration(
            k, weighted_tv(v_new, a), change, stats.iterations,
            stats.relative_residual,
        ))
        v = v_new
        if change <= config.tol:
            report.stop_reason = "tol"
            break
    return v, report
