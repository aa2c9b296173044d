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
Every product of every solve goes through one operator per system, a
product on that table plus V's border (``SparseSystem.operator``), so no
solve builds a CSR matrix.

Two solves, each returning ``SolveStats``: ``pcg_solve`` (conjugate
gradients) for the Robin and CEM systems, and ``sine_solve`` (exact) for
the Laplace-Dirichlet system of the Bregman v-step.  Every CG solve has one
preconditioner, the fast-transform one (``_TransformPreconditioner``): a
system's own, built at the first apply (the forward Robin and CEM solves;
the CEM solve extends that of its Robin block, and starts from lambda
times the Robin solution, ``forward.solve_cem_forward``, so it builds none
where that guess meets the tolerance), or the one that the reconstruction
sweeps build from their first system and pass.  Both solves end in one
true-residual check (``_checked``) at ``SOLVE_TOL`` unless the caller
passes ``tol``, the only place a solve fails (SolverError).

The preconditioner applies its 2-D cosine transform by dense products with
the DCT matrix up to n = ``_DENSE_DCT``, where they are the faster and
give the same bytes at every BLAS thread count, and by ``scipy.fft`` above
it.  ``scipy.fft`` (which loads ``scipy.special``, about 7 MiB) is imported
at the first build of a preconditioner on such a grid, not with this
module, so ``import cdrecon``, every solve up to n = 64 and the Bregman
comparator never load it.  No solve loads ``scipy.sparse.linalg`` or
``scipy.linalg``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

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
# ... and takes each row whose term is at least this share apart, by its
# diagonal (a Dirichlet-like row: z = 1e-16 makes it about 1e14 sigma_bar)
_CLAMPED_TERM = 1e6
# the largest n whose DCT the transform preconditioner applies by dense
# products with the DCT matrix: the pair takes 35 us against scipy.fft's
# 63 us at n = 64 (one BLAS thread, Xeon), and its products round alike at
# one and two BLAS threads up to n = 65 but not at n = 100; scipy.fft is
# the faster from n = 128 on
_DENSE_DCT = 64

# pcg_solve raises SolverError after this many iterations per grid side,
# 40 n on an n x n grid (the forward systems need at most about 20 on
# media of contrast 2 down to z = 1e-6, as do the sweeps)
_CG_CAP_PER_SIDE = 40


class SparseSystem:
    """Symmetric sparse linear system A x = rhs on an n x n grid.

    ``table`` holds A's n x n grid block as its five-point table in scipy's
    DIA layout, a (5, n*n) array whose rows are the diagonals at the
    offsets -n, -1, 0, 1, n, row r's entry at offset k stored at column
    r + k (+0.0 where A has no entry); ``voltage``, for the CEM system, is
    V's column over the grid nodes and V's diagonal entry (None without V),
    and ``block`` the Robin system whose table it holds.

    ``operator``, the product with A on the table's own array
    (``_Operator``), and ``preconditioner``, that of ``pcg_solve``, are
    built at their first use and kept: every product of ``pcg_solve`` and
    ``sine_solve`` goes through the operator.
    """

    def __init__(self, table: np.ndarray, rhs: np.ndarray,
                 voltage: tuple[np.ndarray, float] | None = None,
                 block: SparseSystem | None = None) -> None:
        self.table = table
        self.rhs = rhs
        self.voltage = voltage
        self.block = block

    @cached_property
    def operator(self) -> _Operator:
        return _Operator(self.table, self.voltage)

    @cached_property
    def preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """The transform preconditioner of the grid block
        (``_TransformPreconditioner``), for the CEM extended to V through
        V's Schur complement (``_TransformPreconditioner.bordered``).

        That extension is SPD, its s positive, when M corrects every row
        coupled to V: M is then a model of the bordered matrix that is SPD
        too.  The CEM system takes its Robin block's preconditioner, built
        for the Robin solve, where it does so (h/2z at least a tenth of
        sigma_bar, so one ``solve_cem_forward`` builds one), and otherwise
        builds one with every coupled row corrected (where M spreads those
        terms, s is negative at a mid-range z: sigma_bar z below about 1/2).
        """
        if self.voltage is None:
            return _TransformPreconditioner(self)
        border, corner = self.voltage
        grid = self.block.preconditioner
        if not np.all(np.isin(np.flatnonzero(border), grid.rows)):
            grid = _TransformPreconditioner(self.block, border != 0.0)
        return grid.bordered(border, corner)

    @property
    def dimension(self) -> int:
        return self.table.shape[1] + (self.voltage is not None)


@dataclass
class SolveStats:
    """Outcome of one verified solve; ``method`` is "transform" (CG) or
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


def _bordered(robin: SparseSystem, sigma: ScalarField, electrodes: ElectrodeSet,
              grid: Grid) -> SparseSystem:
    """The system of ``assemble_cem`` from the sharp Robin system of its grid
    block: it holds the Robin system's table, not a copy, and the Robin
    system itself, whose preconditioner it extends.  V's column couples
    each grid node to V, -w/z on e+ and +w/z on e-, and V's diagonal entry
    is the sum of w/z over both electrodes; DataError when some electrode
    node's diagonal in the table is w/z alone (``assemble_cem``)."""
    nodes = boundary_nodes(grid)
    border = np.zeros(robin.table.shape[1])
    corner = 0.0
    for (idx, w), sign in zip(electrode_quadrature(electrodes, grid), (-1.0, 1.0)):
        wz = w * (1.0 / electrodes.z)  # rounded as the Robin face terms
        border[nodes[idx]] = sign * wz
        corner += float(wz.sum())
    coupled = np.flatnonzero(border)
    if np.any(robin.table[2, coupled] == np.abs(border[coupled])):
        raise DataError(f"the conductivity rounds away on an electrode: contact impedance "
                        f"z = {electrodes.z:g} is too small for conductivities down to "
                        f"{float(sigma.values.min()):g}")
    rhs = np.zeros(border.size + 1)
    rhs[-1] = 2.0 * electrodes.current
    return SparseSystem(robin.table, rhs, (border, corner), robin)


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
    return _bordered(assemble_robin(sigma, base_coefficients(electrodes, grid), grid),
                     sigma, electrodes, grid)


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


class _Operator:
    """The product A x of a system: its grid block on the DIA table of an
    n x n grid, the table's own array, and at most one further unknown,
    the CEM voltage V, coupled by V's column and diagonal.

    ``operator @ x`` goes through scipy's DIA kernel on the table: a
    five-point matrix lies on five constant offsets, which DIA storage
    holds without column indices (Bell & Garland, SC'09).  It is scipy's
    CSR product A x bit for bit, so no product needs a CSR matrix.  The CSR
    kernel adds a row's terms in ascending column order to a zero; so does
    the DIA kernel of the grid block over the ascending offsets -n, -1, 0,
    1, n, zero where A stores no entry (a sum that starts at +0 is never
    -0, so a zero term leaves it as it is).  V's column entry, last in its
    rows, is added after them, and V's row is the running sum of its terms
    in column order from a zero.
    """

    def __init__(self, table: np.ndarray, voltage: tuple[np.ndarray, float] | None) -> None:
        n = math.isqrt(table.shape[1])
        dim = n * n + (voltage is not None)
        self.stencil = sp.dia_matrix((table, _offsets(n)), shape=(dim, dim))
        self.voltage = voltage
        if voltage is not None:
            self.coupled = np.flatnonzero(voltage[0])  # the grid rows coupled to V

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.stencil @ x
        if self.voltage is not None:
            border, corner = self.voltage
            column = border[self.coupled]
            y[self.coupled] += column * x[-1]
            y[-1] = np.cumsum(np.concatenate(([0.0], column * x[self.coupled],
                                              [corner * x[-1]])))[-1]
        return y


def pcg_solve(
    system: SparseSystem, tol: float = SOLVE_TOL, x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Conjugate gradients from the guess ``x0`` (zero when None),
    preconditioned by ``preconditioner`` (the reconstruction sweeps pass
    their first system's) or, when None, by the system's own
    (``SparseSystem.preconditioner``: the transform preconditioner of its
    grid block, extended to the CEM voltage), built at the first apply and
    kept on the system.  Every product, the guess's residual included, goes
    through the system's operator, so no CSR matrix is built.  A guess
    whose residual already meets ``tol`` is returned as it is, after 0
    iterations (``_cg``), so no preconditioner is applied or built.

    The forward systems take at most about 20 iterations at every grid
    size: the Robin ones at every z from 1 down to 1e-16, the CEM ones down
    to z = 1e-6 (below that the tolerance nears the CEM's rounding floor,
    and the count grows).
    Returns once the true relative residual ||Ax-b||/||b|| is at most
    ``tol``; raises SolverError when max(1, ``_CG_CAP_PER_SIDE``
    sqrt(dimension)) iterations do not get there or when CG meets a
    non-finite value (``_cg``), NotSPDError on a nonpositive diagonal or
    nonpositive-curvature direction, and a guess that ``_check_call``
    rejects fails before any work.
    """
    _check_call(system, tol, x0)
    if preconditioner is None:  # built at its first apply
        preconditioner = lambda r: system.preconditioner(r)
    max_iter = max(1, _CG_CAP_PER_SIDE * int(round(math.sqrt(system.dimension))))
    return _checked(*_cg(system.operator, system.rhs, preconditioner, tol, max_iter, x0),
                    tol, "transform")


@lru_cache(maxsize=4)
def _cosine_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix Phi of size n, x = Phi x_hat along an axis:
    Phi_jk = c_k cos(pi k (2j+1) / 2n), c_0 = sqrt(1/n), c_k = sqrt(2/n)."""
    j, k = np.arange(n), np.arange(n)
    # reduce k(2j+1) modulo the period 4n so every cosine argument stays small
    phi = math.sqrt(2.0 / n) * np.cos(np.pi * (np.outer(2 * j + 1, k) % (4 * n)) / (2 * n))
    phi[:, 0] = math.sqrt(1.0 / n)
    phi.flags.writeable = False
    return phi


class _TransformPreconditioner:
    """An SPD approximation of the inverse of the Robin matrix A of a
    system that stays good while the conductivity varies slowly, so the
    sweeps build it once, from their first system; calling it applies it.

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
    that mode's eigenvalue is at least a hundredth of sigma_bar mu_1: one
    positive rank-one term in M, a hundredth of the least that sigma_bar L
    puts on any other mode.  It stays below beta at z = 1 (below 2/n^2
    while sigma_bar < 20), and it does not grow with the boundary terms:
    a floor of a thousandth of their sum over n^2 would put 200 times A's
    least eigenvalue on the constant mode at z = 1e-6, n = 17.

    So small an eigenvalue would leave the Woodbury correction up to a
    hundredfold M0^-1 to cancel on the constant mode (an apply's symmetry
    defect reached 2e-12 at z = 1e-2 to 1e-4), so where D has entries M is
    split as M_r - gamma e e', e the unit constant vector: M_r's M0 takes
    the constant mode at the eigenvalue of the next one, mu_1 sigma_bar +
    beta, gamma the difference, and Sherman & Morrison give M^-1 = M_r^-1
    + kappa m m', m = M_r^-1 e, kappa = gamma / (1 - gamma e'm), two
    positive terms.  Where D has none nothing cancels, and M_r is M.

    M0 is applied by the 2-D DCT-II pair, by dense products with
    ``_cosine_basis`` up to n = ``_DENSE_DCT`` and by ``scipy.fft`` above
    it (imported at the first such build), and D by Woodbury's
    identity, the capacitance matrix method (Buzbee, Dorr, George & Golub,
    SIAM J. Numer. Anal. 8, 1971): M^-1 = M0^-1 - M0^-1 U C^-1 U' M0^-1,
    with C = D^-1 + U' M0^-1 U, filled by ``_boundary_inverse`` and
    inverted once.  A row whose term is at least ``_CLAMPED_TERM``
    sigma_bar is Dirichlet-like: its D^-1 entry is zero, D infinite, which
    makes M^-1 zero on its row and column, and the preconditioner takes r_i
    / A_ii there instead, so M^-1 on such a row is not the rounding of two
    cancelling Woodbury terms (at z = 1e-16 that rounding made <r, Mr>
    negative); m is zero there.  An apply is one transform and one inverse
    transform, and the rank-one term of m.  Where D has entries (none at z
    = 1 and sigma_bar >= 1 from n = 12 up) it also reads M_r's M0^-1 r on
    the four boundary lines from the transform, multiplies by C^-1 and
    subtracts the transform of the result, each a product of O(n^2) (O(k^2)
    with C^-1, k the entries of D).  NotSPDError on a nonpositive diagonal
    entry of A.

    The boolean ``coupled`` over the grid nodes, for a CEM's grid block,
    marks rows that D takes whatever their term
    (``SparseSystem.preconditioner``).
    """

    def __init__(self, system: SparseSystem, coupled: np.ndarray | None = None) -> None:
        n = math.isqrt(system.table.shape[1])
        N = n * n
        diagonal = system.table[2]
        if np.any(diagonal <= 0.0):
            raise NotSPDError("matrix has a nonpositive diagonal entry")
        kb = boundary_nodes(Grid(n))
        quarter = 0.25 * diagonal.reshape(n, n)[1:-1, 1:-1]
        sigma_bar = math.exp(float(np.mean(np.log(quarter))))
        terms = (system.operator @ np.ones(N))[kb]
        corrected = terms >= _CORRECTED_TERM * sigma_bar
        if coupled is not None:
            corrected |= coupled[kb]
        mu = 4.0 * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2
        eig = sigma_bar * (mu[:, None] + mu) + float(terms[~corrected].sum()) / N
        # M's constant mode takes at least a hundredth of sigma_bar mu_1;
        # where D has entries, M_r's takes the next mode's eigenvalue,
        # gamma more
        eig[0, 0] = max(eig[0, 0], 1e-2 * sigma_bar * mu[1])
        gamma = eig[0, 1] - eig[0, 0] if corrected.any() else 0.0
        eig[0, 0] += gamma
        self.n = n
        self.inverse = 1.0 / eig
        self.phi = phi = _cosine_basis(n)  # x = Phi x_hat along an axis
        self.ends = [0, n - 1]
        self.edge = phi[self.ends]  # the modes on the first and last grid line
        # the orthonormal 2-D DCT-II and its inverse: two dense products up
        # to _DENSE_DCT, and scipy.fft's above it
        if n <= _DENSE_DCT:
            self.dct, self.idct = (lambda a: phi.T @ a @ phi), (lambda a: phi @ a @ phi.T)
        else:
            import scipy.fft  # here: it loads scipy.special, which no smaller grid needs

            self.dct = partial(scipy.fft.dctn, norm="ortho")
            self.idct = partial(scipy.fft.idctn, norm="ortho")
        self.rows = kb[corrected]  # U's columns
        self.clamp = terms[corrected] >= _CLAMPED_TERM * sigma_bar
        self.clamped = self.rows[self.clamp]
        self.jacobi = 1.0 / diagonal[self.rows]  # read on the clamped rows
        self.d_inv = np.where(self.clamp, 0.0, 1.0 / terms[corrected])
        c_inv = np.linalg.inv(np.diag(self.d_inv)
                              + _boundary_inverse(self.rows, self.inverse, self.phi))
        self.c_inv = 0.5 * (c_inv + c_inv.T)
        self.m = None  # M is M_r
        if gamma:
            e = np.full(N, 1.0 / n)
            m = self._woodbury(e)  # M_r^-1 e
            m[self.clamped] = 0.0
            den = 1.0 - gamma * float(e @ m)
            if not den > 0.0:
                raise NotSPDError(f"the constant mode's Sherman-Morrison term {den:.3e} "
                                  "is not positive")
            self.m, self.kappa = m, gamma / den

    def __call__(self, r: np.ndarray) -> np.ndarray:
        x = self._woodbury(r)
        if self.m is not None:
            x += (self.kappa * float(self.m @ r)) * self.m
        x[self.clamped] = r[self.clamped] * self.jacobi[self.clamp]
        return x

    def _woodbury(self, r: np.ndarray) -> np.ndarray:
        """M_r^-1 r off the clamped rows, where r is taken as zero (its
        entries on them are rounding)."""
        n, phi, ends, edge = self.n, self.phi, self.ends, self.edge
        free = r
        if self.clamped.size:
            free = r.copy()
            free[self.clamped] = 0.0
        r_hat = self.dct(free.reshape(n, n))
        if self.rows.size:  # less the transform of U C^-1 U' M0^-1 r
            x_hat = r_hat * self.inverse
            y = np.zeros((n, n))  # M0^-1 r on the boundary lines
            y[ends] = (edge @ x_hat) @ phi.T
            y[:, ends] = phi @ (x_hat @ edge.T)
            r_hat -= self._lifted(self.c_inv @ y.flat[self.rows])
        r_hat *= self.inverse
        return self.idct(r_hat).reshape(-1)

    def _lifted(self, w: np.ndarray) -> np.ndarray:
        """The transform of U w, w on the corrected rows: Phi' t Phi for
        the grid t that is w there and zero elsewhere, read off the
        boundary lines, the bottom and top ones, then those between."""
        n, phi, ends, edge = self.n, self.phi, self.ends, self.edge
        t = np.zeros((n, n))
        t.flat[self.rows] = w
        return edge.T @ (t[ends] @ phi) + (phi[1:-1].T @ t[1:-1][:, ends]) @ edge

    def bordered(self, border: np.ndarray, corner: float) -> Callable[[np.ndarray], np.ndarray]:
        """The exact inverse of the bordered [[M, c], [c', d]], c V's
        column ``border``, zero off the corrected rows, and d V's diagonal
        ``corner``, through V's scalar Schur complement s = d - c'M^-1 c:
        (r, rho) goes to (M^-1 r - t M^-1 c, t) with t = (rho - (M^-1 c)'r)
        / s, which is M^-1 + vv'/s on r, v = (M^-1 c, -1), SPD as s > 0.

        Woodbury gives M_r^-1 c = M0^-1 U C^-1 q and c'M_r^-1 c = c'D^-1 c
        - q'C^-1 q, q = D^-1 c, so s = (d - sum |c|) + sum (|c| - c^2/D) +
        q'C^-1 q - kappa (m'c)^2: where D is |c| (a CEM's electrode rows)
        each of the first three terms is small or positive, free of the
        cancellation of d - c'M_r^-1 c, whose terms grow as 1/z.  On a
        clamped row M_r^-1 c is c/A_ii, and A_ii stands for D in its term.
        NotSPDError where s is not positive (rounding).
        """
        c = border[self.rows]
        q = self.d_inv * c
        w = self.c_inv @ q
        m_c = self.idct(self._lifted(w) * self.inverse).reshape(-1)
        m_c[self.clamped] = border[self.clamped] * self.jacobi[self.clamp]
        g = np.where(self.clamp, self.jacobi, self.d_inv)
        a = np.abs(c)
        s = (corner - float(a.sum())) + float(np.sum(a - c * c * g)) + float(q @ w)
        if self.m is not None:
            mc = float(self.m @ border)
            m_c += (self.kappa * mc) * self.m
            s -= self.kappa * mc * mc
        if not s > 0.0:
            raise NotSPDError(f"the voltage's Schur complement {s:.3e} is not positive")

        def apply_m(r: np.ndarray) -> np.ndarray:
            x = self(r[:-1])
            t = (r[-1] - float(m_c @ r[:-1])) / s
            x -= t * m_c
            return np.append(x, t)

        return apply_m


def _boundary_inverse(rows: np.ndarray, inverse: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """U' M0^-1 U for the boundary nodes ``rows`` of the n x n grid, M0^-1 =
    Phi diag(``inverse``) Phi' in 2-D with ``phi`` the orthonormal DCT-II
    matrix (``_TransformPreconditioner``).

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
