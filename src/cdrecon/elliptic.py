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
The CSR form is built from the table only where it is read.

Three solves, one per kind of caller, each returning ``SolveStats``:
``pcg_solve`` (multigrid CG) for the systems solved once, the forward Robin
and CEM problems, with a hierarchy built from the five-point table that the
assembly kept (the CEM solve starts from lambda times the Robin solution,
``forward.solve_cem_forward``, and builds none where that guess meets the
tolerance); ``solve_reusing_factor`` (CG on an earlier LU factor) for the
slowly varying Robin systems of the reconstruction sweeps; and
``sine_solve`` (exact) for the Laplace-Dirichlet system of the Bregman
v-step.  All three end in one true-residual check (``_checked``) at
``SOLVE_TOL`` unless the caller passes ``tol``, the only place a solve
fails (SolverError).

Only ``solve_reusing_factor`` factors a matrix, so ``scipy.sparse.linalg``
(and the ``scipy.linalg`` it loads, about 10 MiB and a sizeable part of the
package's import time) is imported at the first factorization, not with
this module: ``import cdrecon``, the forward solves and the Bregman
comparator never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    import scipy.sparse.linalg as spla


# the relative residual every solve meets unless its caller asks otherwise
SOLVE_TOL = 1e-10

# a factor may waste this many CG iterations before the matrix is
# refactored.  One sparse LU factorization from ``_factor`` costs 22 to 28
# solves with its factor on the Robin systems for n = 64 to 256; the budget
# stays above that because 25 moves the sweep's iterates and raises the
# reconstruction error at n = 64 to 256 (at n = 64 the sweeps go 42 -> 38
# and the error 1.9732e-2 -> 1.9795e-2)
_FACTOR_COST = 35

# pcg_solve raises SolverError after this many iterations per grid side,
# 40 n on an n x n grid (the V-cycle needs at most 13)
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
    """Symmetric sparse linear system A x = rhs.

    ``SparseSystem(A, rhs)`` holds a CSR matrix A.  The assembly functions
    of this module hold A as ``table`` instead: the five-point table of its
    n x n grid block in scipy's DIA layout, a (5, n*n) array whose rows are
    the diagonals at the offsets -n, -1, 0, 1, n, row r's entry at offset k
    stored at column r + k (+0.0 where A stores no entry); and, for the CEM
    system, ``voltage``, V's column over the grid nodes and V's diagonal
    entry (None without V).  ``pcg_solve`` builds its multigrid on that
    table without a copy.  ``matrix``, A in CSR form, is built from the
    table at its first read, for the code that reads it: SuperLU's factor,
    the products on a system of at most ``_COARSEST`` unknowns, and callers
    of ``matrix``.
    """

    def __init__(self, matrix: sp.csr_matrix | None, rhs: np.ndarray) -> None:
        self._matrix = matrix
        self.rhs = rhs
        self.table: np.ndarray | None = None
        self.voltage: tuple[np.ndarray, float] | None = None

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = _csr(self.table, self.voltage)
        return self._matrix

    @property
    def dimension(self) -> int:
        if self._matrix is not None:
            return self._matrix.shape[0]
        return self.table.shape[1] + (self.voltage is not None)


@dataclass
class SolveStats:
    """Outcome of one verified solve; ``method`` is "multigrid", "lu" or
    "sine" and ``iterations`` counts CG iterations (0 for the exact sine
    solve)."""

    iterations: int
    relative_residual: float
    method: str


def _harmonic_mean(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """2 a b / (a + b) into ``out``, rounded as that expression is."""
    np.multiply(2.0, a, out=out)
    out *= b
    out /= a + b


@dataclass(frozen=True)
class _StencilPattern:
    """CSR structure of the five-point operator on one grid size, shared by
    the Robin, CEM and Laplace-Dirichlet systems.

    Row k holds the stencil columns k-n, k-1, k, k+1, k+n (already sorted)
    that lie on the grid; ``gather`` holds the place of each of its entries
    in the flattened DIA table of ``_stencil``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray
    face_rows: np.ndarray  # global node of each boundary face
    face_value: np.ndarray  # loop index of the coefficient on each face
    face_weight: np.ndarray


@lru_cache(maxsize=4)
def _stencil_pattern(n: int) -> _StencilPattern:
    grid = Grid(n)
    N = n * n
    jj, ii = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    present = np.stack(
        [jj > 0, ii > 0, np.ones((n, n), dtype=bool), ii < n - 1, jj < n - 1], axis=-1
    ).reshape(N, 5)
    column = np.arange(N)[:, None] + _offsets(n)
    indices = column[present].astype(np.int32)
    gather = (np.arange(5) * N + column)[present]
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))]).astype(np.int32)
    node_f, val_f, w_f = boundary_faces(grid)
    arrays = (indptr, indices, gather, boundary_nodes(grid)[node_f], val_f, w_f)
    for a in arrays:
        a.flags.writeable = False  # shared by every matrix of this size
    return _StencilPattern(*arrays)


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


def _csr(table: np.ndarray, voltage: tuple[np.ndarray, float] | None) -> sp.csr_matrix:
    """A in canonical CSR form from its DIA table and V's column and
    diagonal (``SparseSystem``), every entry of the five-point pattern
    stored.  V's column entry comes last in each coupled node's row, and
    V's row, the last, holds the couplings in ascending node order, then
    the diagonal."""
    n = math.isqrt(table.shape[1])
    N = n * n
    pat = _stencil_pattern(n)
    data = np.take(table, pat.gather)
    if voltage is None:
        return sp.csr_matrix((data, pat.indices, pat.indptr), shape=(N, N))
    border, corner = voltage
    coupled = np.flatnonzero(border)
    m = coupled.size
    at = np.concatenate([pat.indptr[coupled + 1], np.full(m + 1, data.size)])
    data = np.insert(data, at, np.concatenate([border[coupled], border[coupled], [corner]]))
    indices = np.insert(pat.indices, at, np.concatenate([np.full(m, N), coupled, [N]]))
    extra = np.zeros(N + 2, dtype=np.int32)  # entries after the grid block, per row
    extra[coupled + 1] = 1
    extra[N + 1] = m + 1
    indptr = np.append(pat.indptr, pat.indptr[-1]) + np.cumsum(extra, dtype=np.int32)
    return sp.csr_matrix((data, indices, indptr), shape=(N + 1, N + 1))


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
    sigma_eff: ScalarField,
    coeffs: RobinCoefficients,
    grid: Grid,
    out: SparseSystem | None = None,
) -> SparseSystem:
    """Discrete system for div(sigma_eff grad u) = 0 with
    sigma_eff du/dnu + b u = c on the boundary: the stencil with the
    boundary-face terms of b added to its diagonal and those of c as rhs.

    A b too small to grow any face row's diagonal by more than two rounding
    units is a DataError (``_add_boundary_term``).

    With ``out``, a system that this function built for the same grid size,
    the system is written into its arrays (the entries of its CSR matrix in
    place, on the pattern they share), its table is replaced by the new
    one, and ``out`` is returned: a caller that solves one system after
    another builds one matrix.
    """
    require_same_grid(grid, sigma_eff, coeffs)
    _check_positive_sigma(sigma_eff)

    n = grid.n
    N = n * n
    pat = _stencil_pattern(n)
    if out is not None and (out.matrix.shape != (N, N) or out.matrix.nnz != pat.indices.size):
        raise DimensionError("out is not a Robin system of this grid size")
    table = _stencil(sigma_eff.values, n)
    # the boundary faces add to the diagonal after the edges
    b = coeffs.b.values
    _add_boundary_term(table[2], pat.face_rows, pat.face_weight * b[pat.face_value],
                       float(b.max()), sigma_eff)
    if out is None:
        out = SparseSystem(None, np.zeros(N))
    else:
        np.take(table, pat.gather, out=out.matrix.data)
        out.rhs.fill(0.0)
    np.add.at(out.rhs, pat.face_rows, pat.face_weight * coeffs.c.values[pat.face_value])
    out.table = table
    return out


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
    The voltage V is the last unknown, N = n*n: its column entry -/+w/z
    comes last in each electrode node's row of the CSR form, and row N
    holds the couplings to the electrode nodes in ascending node order,
    then the diagonal corner (``_csr``).

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
    Robin system's table, not a copy, and builds no CSR matrix."""
    rhs = np.zeros(robin.table.shape[1] + 1)
    rhs[-1] = 2.0 * current
    system = SparseSystem(None, rhs)
    system.table, system.voltage = robin.table, (border, corner)
    return system


def assemble_laplace_dirichlet(data: BoundaryValues, grid: Grid) -> SparseSystem:
    """Five-point Laplace system with Dirichlet data: the stencil at
    sigma = 1 with the boundary rows eliminated symmetrically (identity
    rows, couplings folded into the rhs).  Its CSR matrix, which
    ``sine_solve`` reads, stores no zeros for the dropped couplings.
    """
    require_same_grid(grid, data)
    n = grid.n
    N = n * n
    pat = _stencil_pattern(n)
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

    vals = np.take(table, pat.gather)
    keep = vals != 0.0  # store no zeros for the dropped couplings
    indptr = np.concatenate([[0], np.cumsum(keep)[pat.indptr[1:] - 1]])
    system = SparseSystem(
        sp.csr_matrix((vals[keep], pat.indices[keep], indptr), shape=(N, N)), rhs)
    system.table = table
    return system


def _cg(A, b: np.ndarray, apply_m, tol: float, max_iter: int,
        x0: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients from x0 or zero.

    Returns (x, iterations, true relative residual ||b - Ax|| / ||b||).  The
    recurrence residual only triggers the check; the iteration restarts from
    the recomputed true residual when the two disagree.  A warm start that
    already meets ``tol`` is returned after 0 iterations.  The returned
    residual exceeds ``tol`` only when the iteration cap was reached.
    Raises SolverError when <r, Mr> or <p, Ap> is not finite (a NaN or inf
    in the guess or the system), and NotSPDError on a direction of
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
    """DataError unless 0 < tol < 1, and DimensionError for a guess whose
    shape is not (dimension,), before the solve makes any product (an
    (N, 1) guess would broadcast the residual to N x N)."""
    if not (0.0 < tol < 1.0):
        raise DataError(f"tol must be in (0, 1), got {tol}")
    if x0 is not None and np.shape(x0) != (system.dimension,):
        raise DimensionError(f"the guess has shape {np.shape(x0)}, not "
                             f"({system.dimension},)")


@dataclass(frozen=True)
class _Level:
    """One level of the multigrid hierarchy above the coarsest: the matrix A
    of an n x n grid (its first n*n unknowns, coupled by part of the
    five-point pattern) and at most one further unknown, the CEM voltage
    V; its damped inverse diagonal; and the transfers to the next level,
    whose aggregates are the grid's 2 x 2 blocks (the last row and column
    alone when n is odd) and V alone.

    ``level @ x`` goes through scipy's DIA kernel on the level's DIA table:
    a five-point matrix lies on five constant offsets, which DIA storage
    holds without column indices (Bell & Garland, SC'09).  It is scipy's
    CSR product A x bit for bit, so no level keeps a CSR matrix.  The CSR
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
    damped_inverse_diagonal: np.ndarray
    n: int

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


def _level(table: np.ndarray, voltage: tuple[np.ndarray, float] | None, n: int) -> _Level:
    """The level of the DIA table of an n x n grid, whose DIA matrix holds
    the table's own array, and of V's column and diagonal (None without V);
    NotSPDError on a nonpositive diagonal entry."""
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
    return _Level(sp.dia_matrix((table, _offsets(n)), shape=(d.size, d.size)), column, row,
                  _DAMPING / d, n)


def _finest(system: SparseSystem) -> _Level | None:
    """The finest level of the system's multigrid, A itself on the table
    that the assembly built (no copy), or None for a system of at most
    ``_COARSEST`` unknowns; DimensionError above that size for a system
    with no table (one that no assembly function built)."""
    if system.dimension <= _COARSEST:
        return None
    if system.table is None:
        raise DimensionError(
            f"a system of {system.dimension} unknowns, more than {_COARSEST}, needs the "
            "five-point table of assemble_robin, assemble_cem or assemble_laplace_dirichlet")
    return _level(system.table, system.voltage, math.isqrt(system.table.shape[1]))


def _multigrid(system: SparseSystem, finest: _Level | None) -> tuple[list[_Level], np.ndarray]:
    """The hierarchy of plain aggregation multigrid for the matrix A of
    ``system`` from its finest level ``finest`` (``_finest``): its levels
    above the coarsest and the symmetrized dense inverse of the coarsest
    matrix; ``_v_cycle`` makes them a preconditioner (an SPD approximation
    of the inverse when A is SPD and weakly diagonally dominant, as every
    system assembled here is).

    A matrix of at most ``_COARSEST`` unknowns (``finest`` None) is its own
    coarsest and may be any SPD matrix, read in CSR form.  Above that the
    hierarchy starts from the system's DIA ``table``, aggregated in 2 x 2
    blocks, and V's column; V (the CEM voltage) forms an aggregate of its
    own on every level, whose row is its column, then its diagonal.  Each
    coarser level is the Galerkin product P'AP of the one above, P the 0/1
    aggregation matrix, summed by strided slices of its DIA table in the
    order ``_coarsen`` states, which reads A as symmetric; it keeps the
    five-point pattern, the symmetry and the diagonal dominance.  Raises
    NotSPDError on a nonpositive diagonal entry or a singular coarsest
    matrix.
    """
    if finest is None:
        A = system.matrix
        _check_diagonal(A.diagonal())
        levels, coarsest = [], A.toarray()
    else:
        levels = [finest]
        table, n = system.table, finest.n
        border, corner = system.voltage or (None, None)
        while True:
            table, border = _coarsen(table, border, n)
            n = (n + 1) // 2
            if n * n + (border is not None) <= _COARSEST:
                break
            levels.append(_level(table, None if border is None else (border, corner), n))
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
) -> tuple[np.ndarray, SolveStats]:
    """Conjugate gradients from the guess ``x0`` (zero when None),
    preconditioned by one aggregation multigrid V-cycle (``_multigrid``)
    built on the DIA table that the assembly kept.  Every product, the
    guess's residual included, goes through the finest level's DIA
    product, so no CSR matrix is built.  A system of at most ``_COARSEST``
    unknowns has no level and may hold any SPD matrix, whose CSR form takes
    the products.  A guess whose residual already meets ``tol`` is returned
    as it is, after 0 iterations and with no hierarchy built.

    The V-cycle needs about as many iterations at every grid size (at most
    13 on the forward systems for n = 65 to 1025) and no sparse factor.
    Returns once the true relative residual ||Ax-b||/||b|| is at most
    ``tol``; raises SolverError when max(1, ``_CG_CAP_PER_SIDE``
    sqrt(dimension)) iterations do not get there or when CG meets a
    non-finite value (``_cg``), NotSPDError on a nonpositive diagonal or
    nonpositive-curvature direction, and DimensionError on a guess whose
    shape is not (dimension,) and on a system of more than ``_COARSEST``
    unknowns that ``assemble_robin``, ``assemble_cem`` or
    ``assemble_laplace_dirichlet`` did not build.
    """
    _check_call(system, tol, x0)
    finest = _finest(system)
    A = system.matrix if finest is None else finest
    if x0 is not None:  # no iteration, so no preconditioner is called
        x, _, res = _cg(A, system.rhs, None, tol, 0, x0)
        if res <= tol:
            return _checked(x, 0, res, tol, "multigrid")
    max_iter = max(1, _CG_CAP_PER_SIDE * int(round(math.sqrt(system.dimension))))
    levels, coarsest_inverse = _multigrid(system, finest)
    return _checked(*_cg(A, system.rhs, partial(_v_cycle, levels, coarsest_inverse), tol,
                         max_iter, x0),
                    tol, "multigrid")


@dataclass
class FactorCache:
    """The sparse LU factor carried along one sequence of slowly varying
    systems, the CG iterations it has wasted (those beyond the first of each
    solve since it was built) and the number of factorizations made so far.

    Create one per sequence and drop it with the sequence: a factor carried
    into another sequence would change that sequence's iterates.
    """

    lu: spla.SuperLU | None = None
    wasted: int = 0
    factorizations: int = 0


def _factor(A: sp.csr_matrix) -> spla.SuperLU:
    """SuperLU's factor of the bit-symmetric A, with the minimum-degree
    ordering on A^T + A and one column per panel; SolverError when it fails.

    One-column panels give the same fill as the default panels but a smaller
    panel workspace (Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999): at
    n = 256 a factorization raises the peak resident memory by about 36 MiB
    instead of 59 MiB, and it takes about a quarter less time (2-core
    machine, one BLAS thread).  A is symmetric bit for bit, so A.T, a CSC
    view of the same arrays, is A in the CSC form SuperLU reads, and no CSC
    copy is made.
    """
    import scipy.sparse.linalg as spla  # here: a run that never factors skips its import
    try:
        # minimum degree on A^T + A: about half the fill of COLAMD here
        return spla.splu(A.T, permc_spec="MMD_AT_PLUS_A", panel_size=1)
    except RuntimeError as exc:  # SuperLU reports a singular matrix this way
        raise SolverError(f"LU factorization failed: {exc}") from exc


def solve_reusing_factor(
    system: SparseSystem, cache: FactorCache, tol: float = SOLVE_TOL,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Solve an SPD system by conjugate gradients preconditioned with the
    cached LU factor of an earlier matrix of the same sequence, starting
    from the guess ``x0`` (zero when None).

    A factor of the current matrix would need one iteration, so each further
    one counts against the factor's budget of ``_FACTOR_COST`` wasted
    iterations over its lifetime.  When the solve would overrun what is
    left of it, the stale factor is released, the current matrix is factored
    into ``cache``, and the solve continues from the abandoned iterate with
    the fresh factor, under the same budget; the reported iterations include
    the abandoned ones.  ``_FACTOR_COST`` is about the cost of one
    factorization in solves, so this ski-rental rule does at most twice the
    work of the best refactor schedule.  The products stay CSR: the matrix
    changes with every system of the sequence.  A guess whose shape is not
    (dimension,) is a DimensionError before any factorization, and a NaN or
    inf in it a SolverError at CG's first iteration (``_cg``).
    """
    _check_call(system, tol, x0)
    A, b = system.matrix, system.rhs
    spent = 0
    if cache.lu is not None:
        x, k, res = _cg(A, b, cache.lu.solve, tol, 1 + _FACTOR_COST - cache.wasted, x0)
        if res <= tol:
            cache.wasted += max(k - 1, 0)
            return _checked(x, k, res, tol, "lu")
        spent, x0 = k, x
        cache.lu = None  # release the stale factor before building the next
    cache.lu = _factor(A)
    cache.factorizations += 1
    x, k, res = _cg(A, b, cache.lu.solve, tol, 1 + _FACTOR_COST, x0)
    cache.wasted = max(k - 1, 0)
    return _checked(x, spent + k, res, tol, "lu")


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
    its true residual is checked against ``SOLVE_TOL`` like every other
    solve, which also rejects a NaN in the rhs (SolverError).  A dimension
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
        r = system.matrix @ x
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
    pat = _stencil_pattern(grid.n)
    c = coeffs.c.values[pat.face_value]
    bb = coeffs.b.values[pat.face_value]
    return float(np.sum(pat.face_weight * (c - bb * u.values[pat.face_rows])))
