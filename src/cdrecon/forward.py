"""End-to-end forward simulation: Robin and complete-electrode-model solves,
interior current-density magnitude, noise injection and the CEM-Robin
scaling factor.  The electrode footprint is ``boundary``'s alone: the CEM
system comes whole from ``elliptic.assemble_cem``, and the scaling reads u
on the grid rows of ``boundary.electrode_quadrature`` as they are."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import ElectrodeSet, RobinCoefficients, electrode_quadrature
from .elliptic import SOLVE_TOL, SolveStats, assemble_cem, assemble_robin, pcg_solve
from .errors import DataError
from .fields import (
    Grid,
    ScalarField,
    cell_average,
    cells_to_nodes,
    gradient,
    require_same_grid,
)


@dataclass
class ForwardResult:
    """Solution of a forward problem together with its interior data.

    ``cem_voltage`` is the electrode voltage V (CEM solves only).
    """

    u: ScalarField
    a: ScalarField
    stats: SolveStats
    cem_voltage: float | None = None


def interior_data(sigma: ScalarField, u: ScalarField) -> ScalarField:
    """Magnitude of the current density |sigma grad u| at the nodes.

    The cell-centered |grad u| is weighted by the cell-mean conductivity and
    averaged back to nodes over each node's adjacent cells.
    """
    grid = require_same_grid(sigma, u)
    amag = cell_average(sigma) * gradient(u).magnitude2d()
    return ScalarField(grid, cells_to_nodes(amag, grid).reshape(-1))


def solve_forward(
    sigma: ScalarField,
    coeffs: RobinCoefficients,
    grid: Grid,
    tol: float = SOLVE_TOL,
) -> ForwardResult:
    """Solve the Robin problem for the given coefficients and synthesize the
    interior data a = |sigma grad u|."""
    system = assemble_robin(sigma, coeffs, grid)
    x, stats = pcg_solve(system, tol=tol)
    u = ScalarField(grid, x)
    return ForwardResult(u=u, a=interior_data(sigma, u), stats=stats)


def solve_cem_forward(
    sigma: ScalarField,
    electrodes: ElectrodeSet,
    grid: Grid,
    tol: float = SOLVE_TOL,
) -> ForwardResult:
    """Solve the complete electrode model; the bordered unknown is the
    electrode voltage, returned as ``cem_voltage``.

    The CEM system (``assemble_cem``) is the sharp Robin system bordered by
    V, so its solution is lambda (u0, zI), u0 the sharp Robin solution and
    lambda = ``cem_scaling``.  After every check of the CEM assembly, its
    grid block, the sharp Robin system (``system.block``, whose table the
    CEM system holds), is solved as ``solve_forward`` solves it, and
    lambda (u0, zI) is the guess of the CEM solve: where it meets ``tol``
    on the bordered system (as it does unless z is small) it is returned
    as it is, with no preconditioner applied; elsewhere CG polishes it, preconditioned by the
    Robin solve's transform preconditioner extended to V
    (``SparseSystem.preconditioner``).  ``stats`` counts the iterations
    of both solves.  Where 1/lambda is degenerate (``cem_scaling``: z
    below about 1e-12) there is no guess, and the DataError that names z
    is raised after the Robin solve, before any CEM iteration (a CEM solve
    from zero ends in SolverError or NotSPDError there).
    """
    system = assemble_cem(sigma, electrodes, grid)
    x, robin_stats = pcg_solve(system.block, tol=tol)
    lam = _scaling(ScalarField(grid, x), electrodes, grid)
    x0 = np.append(lam * x, lam * (electrodes.z * electrodes.current))
    x, stats = pcg_solve(system, tol=tol, x0=x0)
    stats.iterations += robin_stats.iterations
    v = ScalarField(grid, x[:-1])
    return ForwardResult(
        u=v, a=interior_data(sigma, v), stats=stats, cem_voltage=float(x[-1])
    )


def cem_scaling(
    result: ForwardResult, electrodes: ElectrodeSet, grid: Grid
) -> float:
    """Scaling factor lambda between the sharp Robin solution u0 and the CEM
    solution: 1/lambda = |e| - (1/(zI)) * integral of u0 over e+.

    Length and integral run over the faces of ``electrode_quadrature``, on
    which the sharp Robin system integrates its data, with u read on that
    function's grid rows as they are, so the equivalent expression through
    e- agrees by discrete conservation at every aperture; the returned
    value averages the two.  Raises on degenerate scaling.
    """
    require_same_grid(grid, result.u)
    return _scaling(result.u, electrodes, grid)


def robin_data(a: ScalarField, cem_voltage: float,
               electrodes: ElectrodeSet) -> tuple[ScalarField, float]:
    """The interior data of the sharp Robin problem from those of the CEM
    solve whose electrode voltage is ``cem_voltage``, and lambda: the CEM
    solution is lambda times the sharp Robin one with lambda = V/(zI)
    (``solve_cem_forward``), so its data divided by lambda are sharp Robin
    data.  A lambda that is not positive and finite is a DataError."""
    lam = cem_voltage / (electrodes.z * electrodes.current)
    if not (math.isfinite(lam) and lam > 0.0):
        raise DataError(f"the CEM voltage {cem_voltage:g} gives lambda = V/(zI) = {lam:g}, "
                        "which is not positive and finite")
    return ScalarField(a.grid, a.values / lam), lam


def _scaling(u: ScalarField, electrodes: ElectrodeSet, grid: Grid) -> float:
    """``cem_scaling`` of the nodal u, read on the grid rows of
    ``electrode_quadrature`` as they are; DataError where 1/lambda is
    below 1e-12 in magnitude, naming z."""
    zi = electrodes.z * electrodes.current
    (pos, w_pos), (neg, w_neg) = electrode_quadrature(electrodes, grid)
    length = float(w_pos.sum())
    inv_plus = length - float(w_pos @ u.values[pos]) / zi
    inv_minus = length + float(w_neg @ u.values[neg]) / zi
    inv = 0.5 * (inv_plus + inv_minus)
    if abs(inv) < 1e-12:
        raise DataError(f"degenerate CEM scaling: 1/lambda = {inv:.3e} at contact "
                        f"impedance z = {electrodes.z:g}")
    return 1.0 / inv


def add_noise(a: ScalarField, level: float, seed: int) -> ScalarField:
    """Multiplicative uniform noise a * (1 + level * xi), xi ~ U[-1, 1] from
    a seeded generator, clamped at zero from below.  A seed that is not a
    nonnegative integer is a DataError."""
    if not (math.isfinite(level) and level >= 0.0):
        raise DataError(f"noise level must be finite and nonnegative, got {level}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataError(f"noise seed must be a nonnegative integer, got {seed!r}")
    if level == 0.0:
        return ScalarField(a.grid, a.values.copy())
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-1.0, 1.0, size=a.values.size)
    return ScalarField(a.grid, np.maximum(a.values * (1.0 + level * xi), 0.0))
