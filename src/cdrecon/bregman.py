"""Comparator reconstruction: alternating split Bregman minimization of the
weighted total variation with Dirichlet data fixed to a given boundary trace.

The splitting introduces a cell-centered auxiliary field d for grad v and a
Bregman multiplier g.  Each sweep shrinks d toward grad v + g with the
threshold (cell-mean weight)/rho, accumulates the multiplier, and solves
the five-point Poisson problem for v with the trace eliminated (exactly, by
the sine transform): a linearized Goldstein-Osher step, as that operator is
not -div of the cell ``gradient``.  One gradient per iterate serves both its
recorded weighted TV and the next shrink.

The loop runs in place: each call allocates its cell arrays, the two v
buffers and the v-step rhs once, in the wide layout of the ``fields``
stencil kernels, and every step writes into them.  Only the returned v is
wrapped in a ``ScalarField``; the true-residual check that ends every
v-step is what rejects a non-finite iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import SparseSystem, _sine_solve_into, assemble_laplace_dirichlet
from .errors import DataError
from .fields import (
    BoundaryValues,
    Grid,
    ScalarField,
    _divergence_wide,
    _gradient_wide,
    _weighted_tv,
    _wide_cells,
    _wide_interior,
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
    if not np.all(np.isfinite(dirichlet_trace.values)):
        raise DataError("Dirichlet trace contains non-finite values")

    n, h = grid.n, grid.h
    base = assemble_laplace_dirichlet(dirichlet_trace, grid)
    # v and v_new swap between two buffers.  The one v-step system keeps the
    # Dirichlet rows of the trace, which the sine solve copies through bit
    # for bit, and takes the source -h^2 div(d - g) in its interior rows.
    v, v_new = np.empty(n * n), np.empty(n * n)
    step = SparseSystem(base.matrix, base.rhs.copy())
    step_inner = step.rhs.reshape(n, n)[1:-1, 1:-1]
    base_inner = base.rhs.reshape(n, n)[1:-1, 1:-1]

    report = BregmanReport()
    _, stats = _sine_solve_into(base, config.inner_tol, v)  # harmonic extension
    if float(a.values.max()) == 0.0:
        report.records.append(BregmanIteration(
            0, 0.0, 0.0, stats.iterations, stats.relative_residual))
        report.stop_reason = "tol"  # the harmonic extension is the minimizer
        return ScalarField(grid, v), report

    # the cell arrays, in the wide layout of ``fields`` and each vector field
    # one (2, cells) array: grad v, w = grad v + g, |w|, the shrink factor,
    # d and the multiplier g.  A junk cell has threshold 0, so its d is its
    # w and its g stays at the roundoff of its (finite) gradient.
    weight = cell_average(a)
    cells = (n - 1) * n
    grad_v, w, d, g = np.zeros((4, 2, cells))
    thresh, mag, scale = np.zeros((3, cells))
    _wide_cells(thresh, n)[...] = weight / config.rho
    is_zero = np.empty(cells, dtype=bool)
    weighted = np.empty((n - 1, n - 1))
    # the divergence goes to a contiguous buffer first: the same arithmetic
    # on the strided interior of the rhs took 2.5 times as long at n = 64
    div, work = np.zeros((2, (n - 2) * n))
    div_inner = _wide_interior(div, n)
    diff = np.empty(n * n)
    # one gradient per iterate, for both its recorded TV and the next shrink
    _gradient_wide(v, n, h, *grad_v)

    report.stop_reason = "cap"
    for k in range(config.max_iterations):
        np.add(grad_v, g, out=w)
        np.hypot(*w, out=mag)
        np.subtract(mag, thresh, out=scale)
        np.maximum(scale, 0.0, out=scale)
        # dividing by |w| + (|w| == 0) is exact: where |w| = 0 the shrink
        # is already 0, as the threshold is >= 0
        np.equal(mag, 0.0, out=is_zero)
        mag += is_zero
        scale /= mag
        np.multiply(scale, w, out=d)
        np.subtract(grad_v, d, out=w)
        g += w
        d -= g

        _divergence_wide(*d, n, h, div, work)
        div *= h * h
        np.subtract(base_inner, div_inner, out=step_inner)
        _, stats = _sine_solve_into(step, config.inner_tol, v_new)
        _gradient_wide(v_new, n, h, *grad_v)
        denom = float(np.linalg.norm(v))
        np.subtract(v_new, v, out=diff)
        change = (
            float(np.linalg.norm(diff)) / denom
            if denom > 0.0 else float(np.linalg.norm(v_new))
        )
        np.hypot(*grad_v, out=mag)
        report.records.append(BregmanIteration(
            k, _weighted_tv(_wide_cells(mag, n), weight, h, out=weighted), change,
            stats.iterations, stats.relative_residual,
        ))
        v, v_new = v_new, v
        if change <= config.tol:
            report.stop_reason = "tol"
            break
    return ScalarField(grid, v), report
