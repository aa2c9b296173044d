"""Comparator reconstruction: alternating split Bregman minimization of the
weighted total variation with Dirichlet data fixed to a given boundary trace.

The splitting introduces a cell-centered auxiliary field d for grad v and a
Bregman multiplier g.  Each sweep shrinks d toward grad v + g with the
threshold (cell-mean weight)/rho, accumulates the multiplier, and solves
the five-point Poisson problem for v with the trace eliminated (exactly, by
the sine transform): a linearized Goldstein-Osher step, as that operator is
not -div of the cell ``gradient``.  One gradient per iterate serves both its
recorded weighted TV and the next shrink; both take their magnitudes from
``fields._magnitude``.

The loop allocates its cell arrays and the v-step rhs once per call, in
the wide layout of the ``fields`` stencil kernels, and every step writes
into them; each v-step returns a new v.  Only the returned v is wrapped in
a ``ScalarField``; the true-residual check that ends every v-step, at
``elliptic.SOLVE_TOL`` (the sine solve is exact, so the tolerance only
bounds roundoff), is what rejects a non-finite iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import SparseSystem, assemble_laplace_dirichlet, sine_solve
from .errors import DataError
from .fields import (
    BoundaryValues,
    Grid,
    ScalarField,
    _divergence_wide,
    _gradient_wide,
    _magnitude,
    _weighted_tv,
    _wide_cells,
    _wide_interior,
    cell_average,
    require_same_grid,
)
from .recon import IterationRecord, ReconReport, _check_grad_floor, _check_iteration_cap


@dataclass(frozen=True)
class BregmanConfig:
    """Settings of ``split_bregman_minimize``, checked when built (DataError):
    ``rho`` and ``tol`` positive, ``max_iterations`` an integer of at least
    1 and ``grad_floor`` by the rule of ``sigma_from_potential``.  The
    v-step is exact, so there is no solver tolerance to set."""

    rho: float = 1.0
    max_iterations: int = 500
    tol: float = 1e-6
    grad_floor: float = 1e-8

    def __post_init__(self):
        # written as `not x > 0` so that NaN is rejected too
        if not self.rho > 0.0:
            raise DataError(f"rho must be positive, got {self.rho}")
        _check_iteration_cap("max_iterations", self.max_iterations)
        if not self.tol > 0.0:
            raise DataError(f"tol must be positive, got {self.tol}")
        _check_grad_floor(self.grad_floor)


def split_bregman_minimize(
    a: ScalarField,
    dirichlet_trace: BoundaryValues,
    config: BregmanConfig,
    grid: Grid,
) -> tuple[ScalarField, ReconReport]:
    """Approximately minimize the weighted TV of v subject to the fixed
    boundary trace.

    The trace constraint holds exactly at every iteration (Dirichlet rows
    are eliminated, not penalized).  A zero weight reduces the problem to
    the discrete harmonic extension of the trace, returned immediately.  A
    negative weight or a non-finite trace is a DataError.  The run stops
    with ``stop_reason`` "tol" once the relative change of v is at most
    ``config.tol``, and "cap" after ``config.max_iterations`` iterations.
    The report is that of ``reconstruct``: a record's ``tv_term`` is the
    weighted TV and its ``sigma_change`` the relative change of v, which
    ``stop_change`` repeats for the last record.
    """
    require_same_grid(grid, a, dirichlet_trace)
    if np.any(a.values < 0.0):
        raise DataError("TV weight must be nonnegative")
    if not np.all(np.isfinite(dirichlet_trace.values)):
        raise DataError("Dirichlet trace contains non-finite values")

    n, h = grid.n, grid.h
    base = assemble_laplace_dirichlet(dirichlet_trace, grid)
    # the one v-step system keeps the Dirichlet rows of the trace, which the
    # sine solve copies through bit for bit, and takes the source
    # -h^2 div(d - g) in its interior rows
    step = SparseSystem(base.table, base.rhs.copy())
    step_inner = step.rhs.reshape(n, n)[1:-1, 1:-1]
    base_inner = base.rhs.reshape(n, n)[1:-1, 1:-1]

    report = ReconReport()
    v, stats = sine_solve(base)  # harmonic extension
    if float(a.values.max()) == 0.0:
        report.records.append(IterationRecord(
            0.0, 0.0, 0.0, 0.0, None, stats.iterations, stats.relative_residual))
        # the harmonic extension is the minimizer
        report.stop_reason, report.stop_change = "tol", 0.0
        return ScalarField(grid, v), report

    # the cell arrays, in the wide layout of ``fields`` and each vector field
    # one (2, cells) array: grad v, w = grad v + g, |w|, the shrink factor,
    # d and the multiplier g.  The padding column of grad v is zero, and so
    # stay its d and g.
    weight = cell_average(a)
    cells = (n - 1) * n
    grad_v, w, d, g = np.zeros((4, 2, cells))
    thresh, mag, scale = np.zeros((3, cells))
    _wide_cells(thresh, n)[...] = weight / config.rho
    is_zero = np.empty(cells, dtype=bool)
    # the divergence goes to a contiguous buffer first: the same arithmetic
    # on the strided interior of the rhs took 2.5 times as long at n = 64
    div, work = np.zeros((2, (n - 2) * n))
    div_inner = _wide_interior(div, n)
    # one gradient per iterate, for both its recorded TV and the next shrink
    _gradient_wide(v, n, h, *grad_v)

    report.stop_reason = "cap"
    for _ in range(config.max_iterations):
        np.add(grad_v, g, out=w)
        _magnitude(*w, mag)
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
        v_new, stats = sine_solve(step)
        _gradient_wide(v_new, n, h, *grad_v)
        denom = float(np.linalg.norm(v))
        change = (
            float(np.linalg.norm(v_new - v)) / denom
            if denom > 0.0 else float(np.linalg.norm(v_new))
        )
        _magnitude(*grad_v, mag)
        report.records.append(IterationRecord(
            _weighted_tv(_wide_cells(mag, n), weight, h), 0.0, 0.0,
            change, None, stats.iterations, stats.relative_residual,
        ))
        report.stop_change = change
        v = v_new
        if change <= config.tol:
            report.stop_reason = "tol"
            break
    return ScalarField(grid, v), report
