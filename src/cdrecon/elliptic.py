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

The three systems share one five-point stencil (``_stencil``) on one CSR
pattern per grid size (``_stencil_pattern``): Robin adds the boundary-face
terms to its diagonal; CEM adds the electrode terms and borders the matrix
with one row and column for the electrode voltage; Laplace-Dirichlet is the
stencil at sigma = 1 with identity Dirichlet rows and the couplings to them
folded into the rhs.

Three solves, one per kind of caller, all ending in the same true-residual
check (``_checked``), the only place a solve fails:

* ``pcg_solve``: conjugate gradients preconditioned by one aggregation
  multigrid V-cycle built from the matrix, for systems solved once (forward
  Robin and CEM problems);
* ``solve_reusing_factor``: conjugate gradients from a caller's guess,
  preconditioned by the sparse LU factor of an earlier matrix of a slowly
  varying sequence (the reconstruction sweeps).  A current factor needs
  about one iteration, so every further one is waste; the factor is
  rebuilt once its waste would exceed ``_FACTOR_COST``, the cost of one
  factorization in solves (the ski-rental rule: at most twice the work of
  the best refactor schedule);
* ``sine_solve``: the exact sine-transform solve of the constant-coefficient
  Laplace-Dirichlet system (harmonic lift, Bregman v-step).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .boundary import (
    ElectrodeSet,
    RobinCoefficients,
    boundary_faces,
    electrode_quadrature,
    positive_electrode_side,
)
from .errors import AssemblyError, DataError, DimensionError, NotSPDError, SolverError
from .fields import BoundaryValues, Grid, ScalarField, boundary_loop


# one sparse LU factorization costs about as much as this many solves with
# its factor (MMD_AT_PLUS_A on the Robin systems: 34 to 39 for n = 64 to
# 256), so a factor may waste this many CG iterations before the matrix is
# refactored
_FACTOR_COST = 35

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


@dataclass
class SparseSystem:
    """Symmetric sparse linear system A x = rhs in CSR form."""

    matrix: sp.csr_matrix
    rhs: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass
class SolveStats:
    """Outcome of one verified solve; ``method`` is "multigrid", "lu" or
    "sine" and ``iterations`` counts CG iterations (0 for the exact sine
    solve)."""

    iterations: int
    relative_residual: float
    method: str


def _harmonic_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


def _edge_conductances(sigma2d: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted harmonic-mean conductances of the x-edges (i,j)-(i+1,j),
    shape (n, n-1), and the y-edges (i,j)-(i,j+1), shape (n-1, n)."""
    # x-edges carry half weight in the top/bottom rows
    vx = _harmonic_mean(sigma2d[:, :-1], sigma2d[:, 1:])
    vx[[0, -1], :] *= 0.5
    # y-edges carry half weight in the left/right columns
    vy = _harmonic_mean(sigma2d[:-1, :], sigma2d[1:, :])
    vy[:, [0, -1]] *= 0.5
    return vx, vy


@dataclass(frozen=True)
class _StencilPattern:
    """CSR structure of the five-point operator on one grid size, shared by
    the Robin, CEM and Laplace-Dirichlet systems.

    Row k holds the stencil columns k-n, k-1, k, k+1, k+n (already sorted)
    that lie on the grid; ``present`` marks them in an (n*n, 5) table.
    """

    indptr: np.ndarray
    indices: np.ndarray
    present: np.ndarray
    face_rows: np.ndarray  # global node of each boundary face
    face_value: np.ndarray  # loop index of the coefficient on each face
    face_weight: np.ndarray


@lru_cache(maxsize=4)
def _stencil_pattern(n: int) -> _StencilPattern:
    grid = Grid(n)
    jj, ii = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    present = np.stack(
        [jj > 0, ii > 0, np.ones((n, n), dtype=bool), ii < n - 1, jj < n - 1], axis=-1
    ).reshape(n * n, 5)
    node = np.arange(n * n, dtype=np.int32)[:, None]
    indices = (node + np.array([-n, -1, 0, 1, n], dtype=np.int32))[present]
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))]).astype(np.int32)
    li, lj = boundary_loop(grid)
    node_f, val_f, w_f = boundary_faces(grid)
    arrays = (indptr, indices, present, (lj * n + li)[node_f], val_f, w_f)
    for a in arrays:
        a.flags.writeable = False  # shared by every matrix of this size
    return _StencilPattern(*arrays)


def _stencil(sigma2d: np.ndarray, n: int) -> np.ndarray:
    """Flux part of the operator as an (n*n, 5) table whose columns are the
    south, west, centre, east and north neighbour of each node; entries off
    the grid are zero."""
    vx, vy = _edge_conductances(sigma2d, n)
    stencil = np.zeros((n, n, 5))
    stencil[1:, :, 0] = -vy
    stencil[:, 1:, 1] = -vx
    stencil[:, :-1, 3] = -vx
    stencil[:-1, :, 4] = -vy
    # the diagonal adds its terms one at a time in a fixed order (east,
    # west, north, south edge), the order in which converting an edge list
    # to CSR sums them, so the systems match such a build bit for bit
    diag = stencil[:, :, 2]
    diag[:, :-1] += vx
    diag[:, 1:] += vx
    diag[:-1, :] += vy
    diag[1:, :] += vy
    return stencil.reshape(n * n, 5)


def _check_positive_sigma(sigma: ScalarField) -> None:
    v = sigma.values
    if np.any(v <= 0.0):
        k = int(np.flatnonzero(v <= 0.0)[0])
        n = sigma.grid.n
        raise AssemblyError(
            f"nonpositive conductivity {v[k]:g} at node (i={k % n}, j={k // n})"
        )


def assemble_robin(
    sigma_eff: ScalarField,
    coeffs: RobinCoefficients,
    grid: Grid,
) -> SparseSystem:
    """Discrete system for div(sigma_eff grad u) = 0 with
    sigma_eff du/dnu + b u = c on the boundary."""
    if sigma_eff.grid.n != grid.n or coeffs.grid.n != grid.n:
        raise DimensionError("sigma, coefficients and grid sizes disagree")
    _check_positive_sigma(sigma_eff)

    n = grid.n
    pat = _stencil_pattern(n)
    stencil = _stencil(sigma_eff.values2d, n)
    # the boundary faces add to the diagonal after the edges
    np.add.at(stencil, (pat.face_rows, 2), pat.face_weight * coeffs.b.values[pat.face_value])
    A = sp.csr_matrix((stencil[pat.present], pat.indices, pat.indptr), shape=(n * n, n * n))

    rhs = np.zeros(n * n)
    np.add.at(rhs, pat.face_rows, pat.face_weight * coeffs.c.values[pat.face_value])
    return SparseSystem(A, rhs)


def assemble_cem(
    sigma: ScalarField, electrodes: ElectrodeSet, grid: Grid
) -> SparseSystem:
    """Bordered symmetric complete-electrode-model system in (v, V).

    Electrode faces carry the impedance condition v + z sigma dv/dnu = +/-V;
    the extra row is the symmetrized net-current constraint (the sum of the
    per-electrode current integrals, each equal to I; their difference is
    implied by discrete conservation).  Off-electrode faces are natural
    (zero flux).
    """
    if sigma.grid.n != grid.n:
        raise DimensionError("sigma and grid sizes disagree")
    _check_positive_sigma(sigma)

    n = grid.n
    N = n * n
    pat = _stencil_pattern(n)
    stencil = _stencil(sigma.values2d, n)
    li, lj = boundary_loop(grid)
    pos_side = positive_electrode_side(electrodes)
    border = np.zeros(N)  # coupling of each node to the voltage V
    corner = 0.0
    for side in ("top", "bottom"):
        idx, w = electrode_quadrature(electrodes, grid, side)
        g = (lj * n + li)[idx]  # distinct nodes, so += adds each weight once
        wz = w / electrodes.z
        stencil[g, 2] += wz
        border[g] = -wz if side == pos_side else wz
        corner += float(wz.sum())
    K = sp.csr_matrix((stencil[pat.present], pat.indices, pat.indptr), shape=(N, N))
    col = sp.csr_matrix(border[:, None])
    A = sp.bmat([[K, col], [col.T, [[corner]]]], format="csr")
    rhs = np.zeros(N + 1)
    rhs[N] = 2.0 * electrodes.current
    return SparseSystem(A, rhs)


def assemble_laplace_dirichlet(data: BoundaryValues, grid: Grid) -> SparseSystem:
    """Five-point Laplace system with Dirichlet data, boundary rows
    eliminated symmetrically (identity rows, couplings folded into the rhs).
    """
    if data.grid.n != grid.n:
        raise DimensionError("data and grid sizes disagree")
    n = grid.n
    N = n * n
    pat = _stencil_pattern(n)
    stencil = _stencil(np.ones((n, n)), n)
    inner = pat.present.all(axis=1)  # nodes with all four neighbours
    k = np.flatnonzero(inner)
    li, lj = boundary_loop(grid)
    kb = lj * n + li
    trace = np.zeros(N)
    trace[kb] = data.values

    rhs = np.zeros(N)
    # fold the couplings to Dirichlet nodes into the rhs: east, west, north,
    # south neighbour
    for col, step in ((3, 1), (1, -1), (4, n), (0, -n)):
        fold = k[~inner[k + step]]
        rhs[fold] -= stencil[fold, col] * trace[fold + step]
        stencil[fold, col] = 0.0
    stencil[kb] = (0.0, 0.0, 1.0, 0.0, 0.0)
    rhs[kb] = data.values

    vals = stencil[pat.present]
    keep = vals != 0.0  # store no zeros for the dropped couplings
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(stencil, axis=1))])
    A = sp.csr_matrix((vals[keep], pat.indices[keep], indptr), shape=(N, N))
    return SparseSystem(A, rhs)


def _cg(A, b: np.ndarray, apply_m, tol: float, max_iter: int,
        x0: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients from x0 or zero.

    Returns (x, iterations, true relative residual ||b - Ax|| / ||b||).  The
    recurrence residual only triggers the check; the iteration restarts from
    the recomputed true residual when the two disagree.  A warm start that
    already meets ``tol`` is returned after 0 iterations.  The returned
    residual exceeds ``tol`` only when the iteration cap was reached.
    Raises NotSPDError on a direction of nonpositive curvature.
    """
    dim = A.shape[0]
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
        if fresh:
            p = zv.copy()
            fresh = False
        else:
            p = zv + (rz / rz_old) * p
        rz_old = rz
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise NotSPDError(
                f"nonpositive curvature <p, Ap> = {pAp:.3e} at iteration {k}"
            )
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


def _check_tol(tol: float) -> None:
    if not (0.0 < tol < 1.0):
        raise DataError(f"tol must be in (0, 1), got {tol}")


@dataclass(frozen=True)
class _Level:
    """One level of the multigrid hierarchy above the coarsest."""

    matrix: sp.csr_matrix
    damped_inverse_diagonal: np.ndarray
    aggregate: np.ndarray  # the next level's unknown that each unknown joins


def _multigrid(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """The symmetric V-cycle of plain aggregation multigrid for A, as a
    preconditioner (an SPD approximation of the inverse when A is SPD and
    weakly diagonally dominant, as every system assembled here is).

    The first n*n unknowns, n = isqrt(dimension), are read as an n x n grid
    and aggregated in 2 x 2 blocks; any further unknown (the CEM voltage)
    forms an aggregate of its own on every level.  Each coarse matrix is the
    Galerkin sum of the entries over aggregate pairs, which keeps the
    five-point pattern, the symmetry and the diagonal dominance; the one of
    at most ``_COARSEST`` unknowns is inverted densely.  Raises NotSPDError
    on a nonpositive diagonal entry or a singular coarsest matrix.
    """
    A = A.tocsr()
    dim = A.shape[0]
    n = math.isqrt(dim)
    extra = dim - n * n
    levels = []
    while True:
        d = A.diagonal()
        if np.any(d <= 0.0):  # on a coarse level 1'A1 over an aggregate, > 0 for SPD A
            raise NotSPDError("matrix has a nonpositive diagonal entry")
        if dim <= _COARSEST or n == 1:
            break
        m = (n + 1) // 2
        j, i = np.divmod(np.arange(n * n, dtype=np.int32), n)
        aggregate = np.concatenate([(j // 2) * m + i // 2,
                                    m * m + np.arange(extra, dtype=np.int32)])
        levels.append(_Level(A, _DAMPING / d, aggregate))
        dim, n = m * m + extra, m
        rows = np.repeat(aggregate, np.diff(A.indptr))
        A = sp.csr_matrix((A.data, (rows, aggregate[A.indices])), shape=(dim, dim))
    try:
        inverse = np.linalg.inv(A.toarray())
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"coarsest multigrid matrix is singular: {exc}") from exc
    return partial(_v_cycle, levels, 0.5 * (inverse + inverse.T))


def _v_cycle(levels: list[_Level], coarsest_inverse: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply the multigrid preconditioner to b: on the way down, damped
    Jacobi sweeps from the zero guess and restriction of the residual by
    summing over each aggregate; on the way up, the over-corrected
    piecewise-constant coarse correction and as many Jacobi sweeps again."""
    rhs, sols = [], []
    for lv in levels:
        x = lv.damped_inverse_diagonal * b
        for _ in range(_SMOOTHING_SWEEPS - 1):
            x += lv.damped_inverse_diagonal * (b - lv.matrix @ x)
        rhs.append(b)
        sols.append(x)
        b = np.bincount(lv.aggregate, weights=b - lv.matrix @ x)
    e = coarsest_inverse @ b
    for lv, b, x in zip(reversed(levels), reversed(rhs), reversed(sols)):
        x += _OVERCORRECTION * e[lv.aggregate]
        for _ in range(_SMOOTHING_SWEEPS):
            x += lv.damped_inverse_diagonal * (b - lv.matrix @ x)
        e = x
    return e


def pcg_solve(
    system: SparseSystem, tol: float = 1e-10, max_iter: int | None = None
) -> tuple[np.ndarray, SolveStats]:
    """Conjugate gradients from the zero initial guess, preconditioned by one
    aggregation multigrid V-cycle (``_multigrid``) built from the matrix.

    The V-cycle needs about as many iterations at every grid size (at most
    13 on the forward systems for n = 65 to 1025) and no sparse factor.
    Returns once the true relative residual ||Ax-b||/||b|| is at most
    ``tol``; raises SolverError when ``max_iter`` iterations (default
    40 sqrt(dimension), i.e. 40 n on an n x n grid) do not get there, and
    NotSPDError on a nonpositive diagonal or nonpositive-curvature direction.
    """
    _check_tol(tol)
    A = system.matrix
    if max_iter is None:
        max_iter = max(1, 40 * int(round(math.sqrt(A.shape[0]))))
    if max_iter < 1:
        raise DataError(f"max_iter must be >= 1, got {max_iter}")
    precondition = _multigrid(A)
    return _checked(*_cg(A, system.rhs, precondition, tol, max_iter), tol, "multigrid")


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
    try:
        # minimum degree on A^T + A: about half the fill of COLAMD here
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports a singular matrix this way
        raise SolverError(f"LU factorization failed: {exc}") from exc


def solve_reusing_factor(
    system: SparseSystem, cache: FactorCache, tol: float = 1e-10,
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
    the abandoned ones.
    """
    _check_tol(tol)
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


def sine_solve(system: SparseSystem, tol: float = 1e-10) -> tuple[np.ndarray, SolveStats]:
    """Exact solve of a system built by ``assemble_laplace_dirichlet``.

    The interior block is the five-point Laplacian T x I + I x T, which the
    DST-I matrix diagonalizes: x = S ((S b S) / Lambda) S on the interior
    nodes.  The Dirichlet rows are identities, so their values are copied
    from the rhs bit for bit.  The true residual is checked against ``tol``
    like every other solve.
    """
    _check_tol(tol)
    dim = system.dimension
    n = math.isqrt(dim)
    if n * n != dim or n < 3:
        raise DimensionError(f"dimension {dim} is not that of an n x n grid, n >= 3")
    return _sine_solve_into(system, tol, np.empty(dim))


def _sine_solve_into(system: SparseSystem, tol: float,
                     x: np.ndarray) -> tuple[np.ndarray, SolveStats]:
    """``sine_solve`` into the caller's flat buffer ``x`` (not aliasing the
    rhs), for a caller that has checked ``tol`` and the dimension."""
    n = math.isqrt(system.dimension)
    S, eig = _sine_basis(n)
    b = system.rhs
    np.copyto(x, b)
    inner = x.reshape(n, n)[1:-1, 1:-1]
    np.matmul(S @ ((S @ inner @ S) / eig), S, out=inner)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        res = 0.0
    else:  # a NaN in b makes res NaN, which _checked rejects
        r = system.matrix @ x
        np.subtract(b, r, out=r)
        res = float(np.linalg.norm(r)) / nb
    return _checked(x, 0, res, tol, "sine")


def boundary_net_flux(coeffs: RobinCoefficients, u: ScalarField) -> float:
    """Face quadrature of the boundary flux sum (c - b u) ds.

    Vanishes (to solver tolerance) for any discrete Robin solution: total
    current in equals current out.  Uses the same face decomposition as the
    assembly, so the identity is exact up to the linear-solver residual.
    """
    grid = u.grid
    from .fields import boundary_trace

    tr = boundary_trace(u).values
    node_f, val_f, w_f = boundary_faces(grid)
    c = coeffs.c.values
    bb = coeffs.b.values
    return float(np.sum(w_f * (c[val_f] - bb[val_f] * tr[node_f])))


def quadratic_energy(system: SparseSystem, x: np.ndarray) -> float:
    """Energy 0.5 x'Ax - rhs'x whose minimizer solves the system."""
    return float(0.5 * x @ (system.matrix @ x) - system.rhs @ x)
