"""Assembly of the discrete elliptic systems (Robin, CEM, Laplace-Dirichlet)
and the linear solvers that every caller shares.

All systems are assembled in a symmetric, h^2-scaled finite-volume form:
an interior row reads sum_edges w_edge * sigma_edge * (u_i - u_j), where
edge conductivities are harmonic means of the two adjacent node values and
edges lying in a boundary row/column carry half weight.  Robin data enters
boundary rows scaled by the face quadrature weights from
``boundary.boundary_faces``, which keeps the matrix symmetric and makes the
discrete solution exact on affine potentials for the sharp full-aperture
configuration.

The Robin and Laplace-Dirichlet systems share one five-point stencil
(``_stencil``), whose table in DIA layout each system keeps as its matrix;
each adds its own boundary treatment.  The CEM system is the sharp Robin
system bordered by its electrode voltage, on the Robin system's table.
Every product of every solve goes through one operator per system, the
finest multigrid level built on that table (``SparseSystem.operator``), so
no solve builds a CSR matrix.

Two solves, each returning ``SolveStats``: ``pcg_solve`` (conjugate
gradients) for the Robin and CEM systems, and ``sine_solve`` (exact) for
the Laplace-Dirichlet system of the Bregman v-step.  ``pcg_solve`` takes
its preconditioner from the caller or builds a multigrid hierarchy
coarsened from the system's table: the forward Robin and CEM problems,
solved once, use the multigrid (the CEM solve starts from lambda times the
Robin solution, ``forward.solve_cem_forward``, and builds none where that
guess meets the tolerance); the slowly varying Robin systems of the
reconstruction sweeps share one fast-transform preconditioner built from
the first of them (``_transform_preconditioner``).  Both end in one
true-residual check (``_checked``) at ``SOLVE_TOL`` unless the caller
passes ``tol``, the only place a solve fails (SolverError).

The transform preconditioner imports ``scipy.fft`` (which loads
``scipy.special``, about 7 MiB) when it is first built, not with this
module, so ``import cdrecon``, the forward solves and the Bregman
comparator never load it.  No solve loads ``scipy.sparse.linalg`` or
``scipy.linalg``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .boundary import (
    ElectrodeSet,
    RobinCoefficients,
    base_coefficients,
    boundary_faces,
    electrode_quadrature,
)
from .errors import AssemblyError, DataError, DimensionError, NotSPDError, SolverError
from .fields import BoundaryValues, Grid, ScalarField, boundary_nodes, require_same_grid

# the relative residual every solve meets unless its caller asks otherwise
SOLVE_TOL = 1e-10

# the transform preconditioner corrects each boundary row whose term is at
# least this share of the mean conductivity exactly; the smaller terms it
# spreads over the grid.  At z = 1 an electrode row's term is h = 1/(n-1),
# below a tenth of any sigma_bar >= 1 from n = 12 up
_CORRECTED_TERM = 0.1

# pcg_solve raises SolverError after this many iterations per grid side,
# 40 n on an n x n grid (the V-cycle needs at most 13, the sweeps'
# transform preconditioner at most about 20 on media of contrast 2)
_CG_CAP_PER_SIDE = 40
# multigrid preconditioner of pcg_solve
_COARSEST = 300  # unknowns of the coarsest level, which is solved densely
_SMOOTHING_SWEEPS = 3  # damped Jacobi sweeps before and after each coarse correction
# weak diagonal dominance puts the spectrum of D^-1 A in (0, 2], so this
# damping makes every sweep a contraction in the energy norm
_DAMPING = 2.0 / 3.0
# factor on the piecewise-constant coarse correction, which alone corrects
# too little (Braess, Computing 55, 1995); any positive factor keeps the
# V-cycle SPD, and 1.9 needed the fewest CG iterations of 1.4-1.9
_OVERCORRECTION = 1.9


class SparseSystem:
    """Symmetric sparse linear system A x = rhs on an n x n grid.

    ``table`` holds A's n x n grid block as its five-point table in scipy's
    DIA layout, a (5, n*n) array whose rows are the diagonals at the
    offsets -n, -1, 0, 1, n, row r's entry at offset k stored at column
    r + k (+0.0 where A has no entry); ``voltage``, for the CEM system, is
    V's column over the grid nodes and V's diagonal entry (None without V).

    ``operator``, A as the finest multigrid level on the table's own array
    (``_Level``), is built at its first use and kept: every product of
    ``pcg_solve`` and ``sine_solve`` goes through it.
    """

    def __init__(self, table: np.ndarray, rhs: np.ndarray,
                 voltage: tuple[np.ndarray, float] | None = None) -> None:
        self.table = table
        self.rhs = rhs
        self.voltage = voltage

    @cached_property
    def operator(self) -> _Level:
        return _level(self.table, self.voltage)

    @property
    def dimension(self) -> int:
        return self.table.shape[1] + (self.voltage is not None)


@dataclass
class SolveStats:
    """Outcome of one verified solve; ``method`` is "multigrid",
    "transform" or "sine" and ``iterations`` counts CG iterations (0 for
    the exact sine solve)."""

    iterations: int
    relative_residual: float
    method: str


def _harmonic_mean(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """2 a b / (a + b) into ``out``, rounded as that expression is."""
    np.multiply(2.0, a, out=out)
    out *= b
    out /= a + b


@lru_cache(maxsize=4)
def _faces(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boundary faces of the n x n grid in the order of
    ``boundary.boundary_faces``: the global node of the row each adds to,
    the loop index of the coefficient on it and its length, shared by the
    Robin and CEM systems of this size and ``boundary_net_flux``."""
    grid = Grid(n)
    node_f, val_f, w_f = boundary_faces(grid)
    faces = (boundary_nodes(grid)[node_f], val_f, w_f)
    for a in faces:
        a.flags.writeable = False  # shared by every system of this size
    return faces


def _offsets(n: int) -> np.ndarray:
    """The offsets of the five-point diagonals on an n x n grid, in the
    order of the rows of a DIA table."""
    return np.array([-n, -1, 0, 1, n], dtype=np.int32)


def _stencil(sigma: np.ndarray, n: int) -> np.ndarray:
    """Flux part of the operator for the flat nodal conductivities ``sigma``
    as a five-point table in DIA layout (``SparseSystem``): a (5, n*n)
    array of the diagonals at the offsets -n, -1, 0, 1, n, row r's entry at
    offset k stored at column r + k; entries off the grid are zero.

    Edge conductances are weighted harmonic means of the two end nodes.  The
    x-edge k -> k+1 sits at ex[k+1] and the y-edge k -> k+n at ey[k+n], with
    zeros for the edges off the grid, so that each diagonal is one
    contiguous slice of ex or ey: the diagonal at -n holds at column c the
    entry of row c+n, the edge c -> c+n, and the one at -1 the edge
    c -> c+1; those at +1 and +n hold the edges c-1 -> c and c-n -> c.
    """
    N = n * n
    ex, ey = np.zeros(N + 1), np.zeros(N + n)
    east, west, north, south = ex[1:], ex[:-1], ey[n:], ey[:N]
    _harmonic_mean(sigma[:-1], sigma[1:], east[:-1])
    east[n - 1::n] = 0.0  # no x-edge leaves the last node of a row
    # x-edges carry half weight in the bottom/top rows
    east[:n] *= 0.5
    east[N - n:] *= 0.5
    _harmonic_mean(sigma[:-n], sigma[n:], north[:N - n])
    # y-edges carry half weight in the left/right columns
    north[::n] *= 0.5
    north[n - 1::n] *= 0.5
    table = np.empty((5, N))
    # zero minus each edge, so that an entry off the grid is +0.0, as A
    # reads where it stores no entry
    np.subtract(0.0, north, out=table[0])
    np.subtract(0.0, east, out=table[1])
    np.subtract(0.0, west, out=table[3])
    np.subtract(0.0, south, out=table[4])
    # the diagonal adds its terms in a fixed order (east, west, north, south
    # edge; a missing edge adds an exact zero), the order in which
    # converting an edge list to CSR sums them, so the systems match such a
    # build bit for bit
    diag = table[2]
    np.add(east, west, out=diag)
    diag += north
    diag += south
    return table


def _check_positive_sigma(sigma: ScalarField) -> None:
    v = sigma.values
    if np.any(v <= 0.0):
        k = int(np.flatnonzero(v <= 0.0)[0])
        n = sigma.grid.n
        raise AssemblyError(
            f"nonpositive conductivity {v[k]:g} at node (i={k % n}, j={k // n})"
        )


def _add_boundary_term(diagonal: np.ndarray, rows: np.ndarray, terms: np.ndarray,
                       b_max: float, sigma: ScalarField) -> None:
    """Add the boundary ``terms`` to the ``diagonal`` entries of ``rows`` (a
    row listed twice takes both).  Where no entry grows by more than two
    rounding units, the term rounds away: the matrix keeps the constants in
    its null space, or holds the term as rounding alone (blobs seed 2 at
    n=256: z=1e13 moved the CEM's electrode diagonals by one unit and the
    smoothed Robin's by two, and CG stopped late on a nonpositive <r, Mr>;
    at n = 17, 64, 256 and z = 1e11 to 1e15 every z that solved moved some
    diagonal by four units or more).  That is a DataError that names the
    contact impedance z = 1/``b_max`` and the conductivity scale."""
    before = diagonal[rows]
    np.add.at(diagonal, rows, terms)
    if not np.any(diagonal[rows] - before > 2.0 * np.spacing(before)):
        raise DataError(f"the boundary term rounds away: contact impedance z = "
                        f"{1.0 / b_max if b_max > 0.0 else math.inf:g} is too large for "
                        f"conductivities up to {float(sigma.values.max()):g}")


def assemble_robin(
    sigma_eff: ScalarField, coeffs: RobinCoefficients, grid: Grid
) -> SparseSystem:
    """Discrete system for div(sigma_eff grad u) = 0 with
    sigma_eff du/dnu + b u = c on the boundary: the stencil with the
    boundary-face terms of b added to its diagonal and those of c as rhs.

    A b too small to grow any face row's diagonal by more than two rounding
    units is a DataError (``_add_boundary_term``).
    """
    require_same_grid(grid, sigma_eff, coeffs)
    _check_positive_sigma(sigma_eff)

    n = grid.n
    rows, value, weight = _faces(n)
    table = _stencil(sigma_eff.values, n)
    # the boundary faces add to the diagonal after the edges
    b = coeffs.b.values
    _add_boundary_term(table[2], rows, weight * b[value], float(b.max()), sigma_eff)
    rhs = np.zeros(n * n)
    np.add.at(rhs, rows, weight * coeffs.c.values[value])
    return SparseSystem(table, rhs)


def _cem_border(table: np.ndarray, sigma: ScalarField, electrodes: ElectrodeSet,
                grid: Grid) -> tuple[np.ndarray, float]:
    """The coupling of each grid node to the voltage V in the CEM system whose
    grid block is the sharp Robin matrix of the DIA ``table``, -w/z on e+
    and +w/z on e-, and V's diagonal entry, the sum of w/z over both
    electrodes; DataError when some electrode node's diagonal in the table
    is w/z alone (``assemble_cem``)."""
    nodes = boundary_nodes(grid)
    border = np.zeros(table.shape[1])
    corner = 0.0
    for (idx, w), sign in zip(electrode_quadrature(electrodes, grid), (-1.0, 1.0)):
        wz = w * (1.0 / electrodes.z)  # rounded as the Robin face terms
        border[nodes[idx]] = sign * wz
        corner += float(wz.sum())
    coupled = np.flatnonzero(border)
    if np.any(table[2, coupled] == np.abs(border[coupled])):
        raise DataError(f"the conductivity rounds away on an electrode: contact impedance "
                        f"z = {electrodes.z:g} is too small for conductivities down to "
                        f"{float(sigma.values.min()):g}")
    return border, corner


def assemble_cem(
    sigma: ScalarField, electrodes: ElectrodeSet, grid: Grid
) -> SparseSystem:
    """Bordered symmetric complete-electrode-model system in (v, V).

    Electrode faces carry the impedance condition v + z sigma dv/dnu = +/-V;
    the extra row is the symmetrized net-current constraint (the sum of the
    per-electrode current integrals, each equal to I; their difference is
    implied by discrete conservation).  Off-electrode faces are natural
    (zero flux).  The grid block is the sharp Robin matrix of
    ``base_coefficients`` (b = 1/z on the faces of ``electrode_quadrature``),
    so the solution v is lambda times the sharp Robin one at every aperture.
    The voltage V is the last unknown, N = n*n: the system holds the Robin
    table and V's column -/+w/z and diagonal (``SparseSystem.voltage``).

    The Robin assembly's checks apply (``assemble_robin``), and a w/z so
    large that an electrode node's diagonal loses its edge terms is a
    DataError too: the voltage difference V - v that carries that node's
    current then lies below a rounding unit of V, and a near-zero (v, V)
    can pass the residual check.
    """
    robin = assemble_robin(sigma, base_coefficients(electrodes, grid), grid)
    return _bordered(robin, *_cem_border(robin.table, sigma, electrodes, grid),
                     electrodes.current)


def _bordered(robin: SparseSystem, border: np.ndarray, corner: float,
              current: float) -> SparseSystem:
    """The system of ``assemble_cem`` from the sharp Robin system of its grid
    block and the V column and diagonal of ``_cem_border``: it holds the
    Robin system's table, not a copy."""
    rhs = np.zeros(robin.table.shape[1] + 1)
    rhs[-1] = 2.0 * current
    return SparseSystem(robin.table, rhs, (border, corner))


def assemble_laplace_dirichlet(data: BoundaryValues, grid: Grid) -> SparseSystem:
    """Five-point Laplace system with Dirichlet data: the stencil at
    sigma = 1 with the boundary rows eliminated symmetrically (identity
    rows, couplings folded into the rhs); the table holds +0.0 for the
    dropped couplings.
    """
    require_same_grid(grid, data)
    n = grid.n
    N = n * n
    table = _stencil(np.ones(N), n)
    kb = boundary_nodes(grid)
    inner = np.ones(N, dtype=bool)  # nodes with all four neighbours
    inner[kb] = False
    k = np.flatnonzero(inner)
    trace = np.zeros(N)
    trace[kb] = data.values

    rhs = np.zeros(N)
    # fold the couplings to Dirichlet nodes into the rhs: east, west, north,
    # south neighbour, whose entry in row r sits at column r + step
    for row, step in ((3, 1), (1, -1), (4, n), (0, -n)):
        fold = k[~inner[k + step]]
        rhs[fold] -= table[row, fold + step] * trace[fold + step]
        table[row, fold + step] = 0.0
    for row, off in enumerate(_offsets(n)):
        at = kb + off
        table[row, at[(at >= 0) & (at < N)]] = 1.0 if off == 0 else 0.0
    rhs[kb] = data.values
    return SparseSystem(table, rhs)


def _cg(A, b: np.ndarray, apply_m, tol: float, max_iter: int,
        x0: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients from x0 or zero.

    Returns (x, iterations, true relative residual ||b - Ax|| / ||b||).  The
    recurrence residual only triggers the check; the iteration restarts from
    the recomputed true residual when the two disagree.  A warm start that
    already meets ``tol`` is returned after 0 iterations.  The returned
    residual exceeds ``tol`` only when the iteration cap was reached.
    Raises SolverError when <r, Mr> or <p, Ap> is not finite (a NaN or inf
    in the system), and NotSPDError on a direction of
    nonpositive curvature, and on a residual that the preconditioner maps
    to a nonpositive <r, Mr>.
    """
    dim = b.size
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros(dim), 0, 0.0
    if x0 is None:
        x = np.zeros(dim)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - A @ x
        res = float(np.linalg.norm(r)) / nb
        if res <= tol:
            return x, 0, res
    k = 0
    rz_old = 0.0
    p = None
    fresh = True
    while k < max_iter:
        k += 1
        zv = apply_m(r)
        rz = float(r @ zv)
        if not math.isfinite(rz):
            raise SolverError(f"<r, Mr> = {rz} is not finite at iteration {k}")
        if fresh:
            p = zv.copy()
            fresh = False
        else:
            p = zv + (rz / rz_old) * p
        rz_old = rz
        Ap = A @ p
        pAp = float(p @ Ap)
        if not math.isfinite(pAp):
            raise SolverError(f"<p, Ap> = {pAp} is not finite at iteration {k}")
        if pAp <= 0.0:
            raise NotSPDError(
                f"nonpositive curvature <p, Ap> = {pAp:.3e} at iteration {k}"
            )
        if rz <= 0.0:  # r != 0 here: M is not positive definite
            raise NotSPDError(f"nonpositive <r, Mr> = {rz:.3e} at iteration {k}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if float(np.linalg.norm(r)) / nb <= tol:
            # guard against recurrence drift before declaring victory
            r = b - A @ x
            true_res = float(np.linalg.norm(r)) / nb
            if true_res <= tol:
                return x, k, true_res
            fresh = True
    return x, k, float(np.linalg.norm(b - A @ x)) / nb


def _checked(x: np.ndarray, iterations: int, residual: float, tol: float,
             method: str) -> tuple[np.ndarray, SolveStats]:
    """Accept a solution whose true relative residual meets ``tol``, or raise
    SolverError: the single failure path of every solve."""
    if not residual <= tol:
        raise SolverError(
            f"{method} solve stopped at relative residual {residual:.3e} "
            f"(tolerance {tol:.1e}) after {iterations} iterations"
        )
    return x, SolveStats(iterations, residual, method)


def _check_call(system: SparseSystem, tol: float, x0: np.ndarray | None) -> None:
    """DataError unless 0 < tol < 1, DimensionError for a guess whose shape
    is not (dimension,) and SolverError for a NaN or inf in the guess, before
    the solve makes any product (an (N, 1) guess would broadcast the
    residual to N x N, and a non-finite one would run a preconditioner on a
    non-finite residual)."""
    if not (0.0 < tol < 1.0):
        raise DataError(f"tol must be in (0, 1), got {tol}")
    if x0 is None:
        return
    if np.shape(x0) != (system.dimension,):
        raise DimensionError(f"the guess has shape {np.shape(x0)}, not "
                             f"({system.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise SolverError("the guess holds a NaN or inf")


@dataclass(frozen=True)
class _Level:
    """One level of the multigrid hierarchy above the coarsest: the matrix A
    of an n x n grid (its first n*n unknowns, coupled by part of the
    five-point pattern) and at most one further unknown, the CEM voltage
    V; its diagonal, whose damped inverse the smoother computes at its
    first use, so an operator that no V-cycle reads (a sweep system's)
    never builds it; and the transfers to the next level,
    whose aggregates are the grid's 2 x 2 blocks (the last row and column
    alone when n is odd) and V alone.  A system's finest level is its one
    product operator (``SparseSystem.operator``) at every size, also where
    the hierarchy has no level above the coarsest.

    ``level @ x`` goes through scipy's DIA kernel on the level's DIA table:
    a five-point matrix lies on five constant offsets, which DIA storage
    holds without column indices (Bell & Garland, SC'09).  It is scipy's
    CSR product A x bit for bit, so no product needs a CSR matrix.  The CSR
    kernel adds a row's terms in ascending column order to a zero; so does
    the DIA kernel of the grid block over the ascending offsets -n, -1, 0,
    1, n, zero where A stores no entry (a sum that starts at +0 is never
    -0, so a zero term leaves it as it is).  V's column entry, last in its
    rows, is added after them, and V's row is the running sum of its terms
    in column order from a zero.  The transfers are strided slices of the
    grid that add in the order of ``np.bincount`` over the aggregate
    numbers and of the gather e[aggregate], so they are those bit for bit,
    signs of zeros included.
    """

    stencil: sp.dia_matrix  # square, zero outside the grid block
    # without V both are None
    border: tuple[np.ndarray, np.ndarray] | None  # the grid rows coupled to V, their entries
    voltage: tuple[np.ndarray, np.ndarray] | None  # V's row: its columns (V last), entries
    diagonal: np.ndarray
    n: int

    @cached_property
    def damped_inverse_diagonal(self) -> np.ndarray:
        return _DAMPING / self.diagonal

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.stencil @ x
        if self.voltage is not None:
            rows, values = self.border
            y[rows] += values * x[-1]
            columns, values = self.voltage
            y[-1] = np.cumsum(np.concatenate(([0.0], values * x[columns])))[-1]
        return y

    def sweep(self, b: np.ndarray, x: np.ndarray) -> None:
        """One damped Jacobi sweep on A x = b, in place: x += D (b - A x),
        the residual held in the product's own array."""
        r = self @ x
        np.subtract(b, r, out=r)
        r *= self.damped_inverse_diagonal
        x += r

    def restrict(self, r: np.ndarray) -> np.ndarray:
        """The sum of r over each aggregate, the block's nodes added to a zero
        in ascending order."""
        n, m = self.n, (self.n + 1) // 2
        out = np.zeros(m * m + r.size - n * n)
        _add_block_sums(r[:n * n].reshape(n, n), out[:m * m].reshape(m, m))
        out[m * m:] += r[n * n:]
        return out

    def prolong(self, e: np.ndarray, x: np.ndarray) -> None:
        """Add to x the coarse e, each unknown taking its aggregate's value."""
        n, h, m = self.n, self.n // 2, (self.n + 1) // 2
        fine, coarse = x[:n * n].reshape(n, n), e[:m * m].reshape(m, m)
        fine[::2, ::2] += coarse
        fine[::2, 1::2] += coarse[:, :h]
        fine[1::2, ::2] += coarse[:h]
        fine[1::2, 1::2] += coarse[:h, :h]
        x[n * n:] += e[m * m:]


def _add_block_sums(fine: np.ndarray, coarse: np.ndarray) -> None:
    """Add to each entry of the m x m ``coarse`` the 2 x 2 block of the n x n
    ``fine`` over it, m = ceil(n/2): the block's lower left, lower right,
    upper left and upper right entry in that order, the missing ones of the
    last row and column of blocks skipped when n is odd."""
    h = fine.shape[0] // 2
    coarse += fine[::2, ::2]
    coarse[:, :h] += fine[::2, 1::2]
    coarse[:h] += fine[1::2, ::2]
    coarse[:h, :h] += fine[1::2, 1::2]


def _coarsen(table: np.ndarray, border: np.ndarray | None,
             n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The Galerkin table P'AP of the next level from the DIA table of a
    symmetric A on an n x n grid, and the coarse V column from A's: sums
    over the 2 x 2 blocks, m = ceil(n/2) to a side, by strided slices
    (``_add_block_sums`` order).  A is symmetric, so its diagonals at -n
    and -1 hold each node's north and east entry at the node's own column.
    The coarse centre is the sum of the block's four centres plus twice the
    sum of the couplings inside it (the east entries of its lower left and
    upper left node, then the north entries of its lower left and lower
    right node); the coarse east entry is the sum of the east entries of
    the block's lower right and upper right node, the north entry that of
    the north entries of its upper left and upper right node, and the V
    entry the block sum of A's.  The diagonals at +1 and +n are those at -1
    and -n shifted by their offset.  V's own row and diagonal stay as they
    are."""
    m, h = (n + 1) // 2, n // 2
    north, east, centre = (t.reshape(n, n) for t in table[:3])
    coarse = np.zeros((5, m * m))
    north_c, east_c, centre_c = coarse[:3]
    inside = np.zeros((m, m))
    inside += east[::2, ::2]
    inside[:h] += east[1::2, ::2]
    inside += north[::2, ::2]
    inside[:, :h] += north[::2, 1::2]
    inside *= 2.0
    _add_block_sums(centre, centre_c.reshape(m, m))
    centre_c += inside.reshape(-1)
    east_c.reshape(m, m)[:, :h] = east[::2, 1::2]
    east_c.reshape(m, m)[:h, :h] += east[1::2, 1::2]
    north_c.reshape(m, m)[:h] = north[1::2, ::2]
    north_c.reshape(m, m)[:h, :h] += north[1::2, 1::2]
    coarse[3, 1:] = east_c[:-1]
    coarse[4, m:] = north_c[:-m]
    if border is None:
        return coarse, None
    border_c = np.zeros((m, m))
    _add_block_sums(border.reshape(n, n), border_c)
    return coarse, border_c.reshape(-1)


def _check_diagonal(d: np.ndarray) -> None:
    if np.any(d <= 0.0):  # on a coarse level 1'A1 over an aggregate, > 0 for SPD A
        raise NotSPDError("matrix has a nonpositive diagonal entry")


def _level(table: np.ndarray, voltage: tuple[np.ndarray, float] | None) -> _Level:
    """The level of the DIA table of an n x n grid, whose DIA matrix holds
    the table's own array, and of V's column and diagonal (None without V);
    NotSPDError on a nonpositive diagonal entry."""
    n = math.isqrt(table.shape[1])
    column = row = None
    if voltage is None:
        d = table[2]
    else:
        border, corner = voltage
        d = np.append(table[2], corner)
        coupled = np.flatnonzero(border)
        column = (coupled, border[coupled])
        row = (np.append(coupled, n * n), np.append(column[1], corner))
    _check_diagonal(d)
    return _Level(sp.dia_matrix((table, _offsets(n)), shape=(d.size, d.size)), column, row, d, n)


def _multigrid(system: SparseSystem) -> tuple[list[_Level], np.ndarray]:
    """The hierarchy of plain aggregation multigrid for the matrix A of
    ``system``: its levels above the coarsest, the first of them the
    system's own operator, and the symmetrized dense inverse of the
    coarsest matrix; ``_v_cycle`` makes them a preconditioner (an SPD
    approximation of the inverse when A is SPD and weakly diagonally
    dominant, as every system assembled here is).

    The hierarchy starts from the system's DIA ``table``, aggregated in
    2 x 2 blocks, and V's column; V (the CEM voltage) forms an aggregate of
    its own on every level, whose row is its column, then its diagonal.
    Each coarser level is the Galerkin product P'AP of the one above, P the
    0/1 aggregation matrix, summed by strided slices of its DIA table in
    the order ``_coarsen`` states, which reads A as symmetric; it keeps the
    five-point pattern, the symmetry and the diagonal dominance.  The first
    table of at most ``_COARSEST`` unknowns fills the dense coarsest
    matrix, so a system of at most that size has no level.  Raises
    NotSPDError on a nonpositive diagonal entry or a singular coarsest
    matrix.
    """
    table, n = system.table, math.isqrt(system.table.shape[1])
    border, corner = system.voltage or (None, None)
    levels = []
    while n * n + (border is not None) > _COARSEST:
        levels.append(_level(table, None if border is None else (border, corner))
                      if levels else system.operator)
        table, border = _coarsen(table, border, n)
        n = (n + 1) // 2
    _check_diagonal(table[2])
    coarsest = np.zeros((n * n + (border is not None),) * 2)
    for row, off in zip(table, _offsets(n)):
        r = np.arange(max(-off, 0), n * n - max(off, 0))  # column r + off in the block
        coarsest[r, r + off] = row[r + off]
    if border is not None:
        coarsest[-1, :-1] = coarsest[:-1, -1] = border
        coarsest[-1, -1] = corner
    try:
        inverse = np.linalg.inv(coarsest)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"coarsest multigrid matrix is singular: {exc}") from exc
    return levels, 0.5 * (inverse + inverse.T)


def _v_cycle(levels: list[_Level], coarsest_inverse: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply the multigrid preconditioner to b: on the way down, damped
    Jacobi sweeps from the zero guess and restriction of the residual by
    summing over each aggregate; on the way up, the over-corrected
    piecewise-constant coarse correction and as many Jacobi sweeps again.
    Every product is the level's own and every transfer goes through the
    level's strided slices, so the result is that of CSR products,
    ``np.bincount`` and gathers bit for bit."""
    rhs, sols = [], []
    for lv in levels:
        x = lv.damped_inverse_diagonal * b
        for _ in range(_SMOOTHING_SWEEPS - 1):
            lv.sweep(b, x)
        rhs.append(b)
        sols.append(x)
        r = lv @ x
        b = lv.restrict(np.subtract(b, r, out=r))
    e = coarsest_inverse @ b
    for lv, b, x in zip(reversed(levels), reversed(rhs), reversed(sols)):
        lv.prolong(_OVERCORRECTION * e, x)
        for _ in range(_SMOOTHING_SWEEPS):
            lv.sweep(b, x)
        e = x
    return e


def pcg_solve(
    system: SparseSystem, tol: float = SOLVE_TOL, x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Conjugate gradients from the guess ``x0`` (zero when None),
    preconditioned by ``preconditioner`` (the reconstruction sweeps pass
    the ``_transform_preconditioner`` of their first system) or, when None,
    by one aggregation multigrid V-cycle (``_multigrid``) built on the
    system's DIA table at the first apply.  Every product, the guess's
    residual included, goes through the system's operator, so no CSR
    matrix is built.  A guess whose residual already meets ``tol`` is
    returned as it is, after 0 iterations (``_cg``), so no preconditioner
    is applied and no hierarchy built.

    The V-cycle needs about as many iterations at every grid size (at most
    13 on the forward systems for n = 65 to 1025) and no sparse factor.
    Returns once the true relative residual ||Ax-b||/||b|| is at most
    ``tol``; raises SolverError when max(1, ``_CG_CAP_PER_SIDE``
    sqrt(dimension)) iterations do not get there or when CG meets a
    non-finite value (``_cg``), NotSPDError on a nonpositive diagonal or
    nonpositive-curvature direction, and a guess that ``_check_call``
    rejects fails before any work.
    """
    _check_call(system, tol, x0)
    method = "multigrid" if preconditioner is None else "transform"
    if preconditioner is None:
        hierarchy = []  # built at the first apply: a guess that meets tol needs none

        def preconditioner(b: np.ndarray) -> np.ndarray:
            if not hierarchy:
                hierarchy.extend(_multigrid(system))
            return _v_cycle(*hierarchy, b)

    max_iter = max(1, _CG_CAP_PER_SIDE * int(round(math.sqrt(system.dimension))))
    return _checked(*_cg(system.operator, system.rhs, preconditioner, tol, max_iter, x0),
                    tol, method)


def _transform_preconditioner(system: SparseSystem) -> Callable[[np.ndarray], np.ndarray]:
    """An SPD approximation of the inverse of the Robin matrix A of
    ``system`` that stays good while the conductivity varies slowly, so the
    sweeps build it once, from their first system.

    It is the exact inverse of M = M0 + U D U'.  M0 = sigma_bar L + beta is
    the fast Poisson preconditioner of variable-coefficient problems (Concus
    & Golub, SIAM J. Numer. Anal. 10, 1973): sigma_bar is the geometric mean
    of a quarter of A's interior diagonal, and L the five-point Neumann
    Laplacian of the n x n grid, which the orthonormal 2-D DCT-II
    diagonalizes with the eigenvalues mu_j + mu_k, mu_k = 4 sin^2(pi k/2n).
    The boundary term of each row is its row sum (the flux rows sum to
    zero).  Each term of at least ``_CORRECTED_TERM`` sigma_bar is an entry
    of the diagonal D on its row (U's column), and beta is the sum of the
    others over n^2.  Where D takes nearly every term, beta would leave M0
    singular in the constant mode, which only the boundary terms hold, so
    that mode's eigenvalue is at least a thousandth of the whole sum over
    n^2: one positive rank-one term in M, at most a thousandth of M's own
    in that mode.

    M0 is applied by ``scipy.fft``'s DCT-II and D by Woodbury's identity in
    the symmetric form of the capacitance matrix method (Buzbee, Dorr,
    George & Golub, SIAM J. Numer. Anal. 8, 1971): M^-1 = M0^-1 - M0^-1 U S
    C^-1 S U' M0^-1, with S = D^(1/2) and C = I + S U' M0^-1 U S, filled by
    ``_boundary_inverse`` and inverted once.  An apply is one transform and
    one inverse transform.  Where D has entries (none at z = 1 and
    sigma_bar >= 1 from n = 12 up) it also reads M0^-1 r on the four
    boundary lines from the transform, multiplies by C^-1 and subtracts the
    transform of the result, each a product of O(n^2) (O(k^2) with C^-1, k
    the entries of D).
    """
    import scipy.fft  # here: it loads scipy.special, which no other solve needs

    n = math.isqrt(system.table.shape[1])
    N = n * n
    kb = boundary_nodes(Grid(n))
    quarter = 0.25 * system.table[2].reshape(n, n)[1:-1, 1:-1]
    sigma_bar = math.exp(float(np.mean(np.log(quarter))))
    terms = (system.operator @ np.ones(N))[kb]
    corrected = terms >= _CORRECTED_TERM * sigma_bar
    mu = 4.0 * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2
    eig = sigma_bar * (mu[:, None] + mu) + float(terms[~corrected].sum()) / N
    # at least a thousandth of the whole term, in the constant mode alone
    eig[0, 0] = max(eig[0, 0], 1e-3 * float(terms.sum()) / N)
    inverse = 1.0 / eig
    phi = scipy.fft.idct(np.eye(n), axis=0, norm="ortho")  # x = Phi x_hat along an axis
    ends = [0, n - 1]
    edge = phi[ends]  # the modes on the first and last grid line
    rows = kb[corrected]
    s = np.sqrt(terms[corrected])
    c_inv = np.linalg.inv(np.eye(rows.size) + s[:, None] * _boundary_inverse(rows, inverse, phi) * s)
    c_inv = 0.5 * (c_inv + c_inv.T)

    def apply_m(r: np.ndarray) -> np.ndarray:
        r_hat = scipy.fft.dctn(r.reshape(n, n), norm="ortho")
        if rows.size:  # less the transform of U S C^-1 S U' M0^-1 r
            x_hat = r_hat * inverse
            y = np.zeros((n, n))  # M0^-1 r on the boundary lines
            y[ends] = (edge @ x_hat) @ phi.T
            y[:, ends] = phi @ (x_hat @ edge.T)
            t = np.zeros((n, n))
            t.flat[rows] = s * (c_inv @ (s * y.flat[rows]))
            # on the bottom and top lines, then between them
            r_hat -= edge.T @ (t[ends] @ phi) + (phi[1:-1].T @ t[1:-1][:, ends]) @ edge
        r_hat *= inverse
        return scipy.fft.idctn(r_hat, norm="ortho").reshape(-1)

    return apply_m


def _boundary_inverse(rows: np.ndarray, inverse: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """U' M0^-1 U for the boundary nodes ``rows`` of the n x n grid, M0^-1 =
    Phi diag(``inverse``) Phi' in 2-D with ``phi`` the orthonormal DCT-II
    matrix (``_transform_preconditioner``).

    The entry of nodes (j, i) and (j', i') is the sum over (a, b) of
    Phi_ja Phi_j'a W_ab Phi_ib Phi_i'b, W = ``inverse`` (symmetric).  On a
    boundary line one index is fixed (j on the bottom and top sides, which
    take the corners, i on the left and right ones), so the block of two
    parallel lines at t and t' is Phi diag(W (Phi_t * Phi_t')) Phi', and
    that of a line at t and a crossing line at t' is
    Phi diag(Phi_t') W diag(Phi_t) Phi', each O(n^3) to fill.
    """
    n = inverse.shape[0]
    j, i = np.divmod(rows, n)
    along = (j == 0) | (j == n - 1)  # on the bottom or top side
    fixed, moving = np.where(along, j, i), np.where(along, i, j)
    line = fixed + n * along
    lines = [np.flatnonzero(line == v) for v in np.unique(line)]
    out = np.empty((rows.size, rows.size))
    for p in lines:
        for q in lines:
            a, b = phi[moving[p]], phi[moving[q]]
            t, t2 = phi[fixed[p[0]]], phi[fixed[q[0]]]
            if along[p[0]] == along[q[0]]:
                block = (a * (inverse @ (t * t2))) @ b.T
            else:
                block = (a * t2) @ inverse @ (b * t).T
            out[np.ix_(p, q)] = block
    return out


@lru_cache(maxsize=4)
def _sine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DST-I matrix S of size n-2 (symmetric, S S = I) and the
    eigenvalues lam_j + lam_k of the h^2-scaled five-point Laplacian on the
    interior nodes, lam_k = 4 sin^2(pi k / (2 (n-1)))."""
    m = n - 2
    k = np.arange(1, m + 1)
    # reduce j*k modulo the period 2(m+1) so every sine argument stays small
    S = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * (m + 1))) / (m + 1))
    lam = 4.0 * np.sin(0.5 * np.pi * k / (m + 1)) ** 2
    eig = lam[:, None] + lam[None, :]
    S.flags.writeable = False
    eig.flags.writeable = False
    return S, eig


def sine_solve(system: SparseSystem) -> tuple[np.ndarray, SolveStats]:
    """Exact solve of a system built by ``assemble_laplace_dirichlet``.

    The interior block is the five-point Laplacian T x I + I x T, which the
    DST-I matrix diagonalizes: x = S ((S b S) / Lambda) S on the interior
    nodes.  The Dirichlet rows are identities, so their values are copied
    from the rhs bit for bit.  The solve is exact and takes no tolerance;
    its true residual, through the system's operator, is checked against
    ``SOLVE_TOL`` like every other solve, which also rejects a NaN in the
    rhs (SolverError).  A dimension
    that is not that of an n x n grid, n >= 3, is a DimensionError.  Every
    call returns a new solution array.
    """
    dim = system.dimension
    n = math.isqrt(dim)
    if n * n != dim or n < 3:
        raise DimensionError(f"dimension {dim} is not that of an n x n grid, n >= 3")
    S, eig = _sine_basis(n)
    b = system.rhs
    x = b.copy()
    inner = x.reshape(n, n)[1:-1, 1:-1]
    np.matmul(S @ ((S @ inner @ S) / eig), S, out=inner)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        res = 0.0
    else:  # a NaN in b makes res NaN, which _checked rejects
        r = system.operator @ x
        np.subtract(b, r, out=r)
        res = float(np.linalg.norm(r)) / nb
    return _checked(x, 0, res, SOLVE_TOL, "sine")


def boundary_net_flux(coeffs: RobinCoefficients, u: ScalarField) -> float:
    """Face quadrature of the boundary flux sum (c - b u) ds.

    Vanishes (to solver tolerance) for any discrete Robin solution: total
    current in equals current out.  Reads the faces of the assembly's own
    pattern, so the identity is exact up to the linear-solver residual.
    """
    grid = require_same_grid(u, coeffs)
    rows, value, weight = _faces(grid.n)
    c, b = coeffs.c.values[value], coeffs.b.values[value]
    return float(np.sum(weight * (c - b * u.values[rows])))
