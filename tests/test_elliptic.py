"""System assembly (Robin, CEM, Laplace-Dirichlet) and the linear solvers."""

import math
import re
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdrecon import elliptic
from cdrecon.boundary import (
    ElectrodeSet,
    RobinCoefficients,
    base_coefficients,
    boundary_faces,
    electrode_quadrature,
    robin_coefficients,
    smoothed_coefficients,
)
from cdrecon.bregman import BregmanConfig, split_bregman_minimize
from cdrecon.elliptic import (
    SparseSystem,
    _transform_preconditioner,
    assemble_cem,
    assemble_laplace_dirichlet,
    assemble_robin,
    boundary_net_flux,
    pcg_solve,
    sine_solve,
)
from cdrecon.errors import AssemblyError, DataError, DimensionError, NotSPDError, SolverError
from cdrecon.fields import (
    BoundaryValues,
    ScalarField,
    boundary_loop,
    boundary_trace,
    make_grid,
)
from cdrecon.forward import solve_cem_forward, solve_forward
from cdrecon.phantom import PhantomSpec, generate_phantom
from cdrecon.recon import ReconConfig, reconstruct
from csr_reference import csr_of


def _matrix_symmetry_defect(A) -> float:
    d = A - A.T
    return np.abs(d.data).max() if d.nnz else 0.0


def _quadratic_energy(system: SparseSystem, x: np.ndarray) -> float:
    """Energy 0.5 x'Ax - rhs'x whose minimizer solves the system."""
    return float(0.5 * x @ (system.operator @ x) - system.rhs @ x)


def _spd_probe(A, seed=0, trials=5) -> float:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        x = rng.normal(size=A.shape[0])
        worst = min(worst, float(x @ (A @ x)))
    return worst


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 40), sigma=st.floats(0.1, 10.0), z=st.floats(0.1, 10.0),
       current=st.floats(0.1, 10.0))
def test_robin_affine_exact_any_n(n, sigma, z, current):
    # sharp full-aperture coefficients and a constant sigma admit the exact
    # affine solution u = alpha y + beta of the 1-D Robin problem
    #   sigma u'(1) + u(1)/z = I,  -sigma u'(0) + u(0)/z = -I,
    # so alpha = 2 I z / (2 sigma z + 1) and beta = -I z / (2 sigma z + 1)
    # (2/3 and -1/3 at sigma = z = I = 1)
    g = make_grid(n)
    el = ElectrodeSet(z=z, current=current)
    system = assemble_robin(
        ScalarField.constant(g, sigma), base_coefficients(el, g), g
    )
    alpha = 2.0 * current * z / (2.0 * sigma * z + 1.0)
    beta = -current * z / (2.0 * sigma * z + 1.0)
    exact = ScalarField.from_function(g, lambda x, y: alpha * y + beta)
    A = csr_of(system)
    residual = A @ exact.values - system.rhs
    scale = abs(A) @ np.abs(exact.values) + np.abs(system.rhs)
    assert np.abs(residual).max() <= 1e-14 * scale.max()


def test_robin_homogeneous_zero_solution():
    g = make_grid(9)
    el = ElectrodeSet()
    rc = smoothed_coefficients(el, g, epsilon=0.5)
    zero_c = RobinCoefficients(rc.b, BoundaryValues(g, np.zeros_like(rc.c.values)))
    system = assemble_robin(ScalarField.constant(g, 1.0), zero_c, g)
    assert np.all(system.rhs == 0.0)
    x, stats = pcg_solve(system)
    assert np.abs(x).max() == 0.0  # zero rhs short-circuits to zero


def _random_robin(n, seed, aperture, z, epsilon, decades):
    """Robin system on a random medium whose conductivity spans
    10**-decades to 10**decades node by node, with sharp (epsilon 0) or
    smoothed coefficients.  A sharp electrode of fewer than two nodes is a
    DataError."""
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    sigma = ScalarField(g, 10.0 ** rng.uniform(-decades, decades, g.num_nodes))
    el = ElectrodeSet(aperture=aperture, z=z)
    coeffs = (base_coefficients(el, g) if epsilon == 0.0
              else smoothed_coefficients(el, g, epsilon))
    return assemble_robin(sigma, coeffs, g)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1),
       decades=st.floats(0.0, 3.0), aperture=st.floats(0.05, 1.0),
       epsilon=st.sampled_from([0.0, 1e-6, 5e-4, 1.0]), z=st.floats(1e-3, 1e3))
def test_robin_matrix_symmetric_and_spd(n, seed, decades, aperture, epsilon, z):
    # bit-for-bit symmetry: the multigrid's coarsening reads only the
    # diagonals at -n and -1 (elliptic._coarsen)
    try:
        system = _random_robin(n, seed, aperture, z, epsilon, decades)
    except DataError:
        assume(False)  # the sharp aperture spans fewer than two nodes
    A = csr_of(system)
    assert (A != A.T).nnz == 0
    np.linalg.cholesky(A.toarray())  # raises LinAlgError unless SPD


def test_robin_reflection_antisymmetry():
    # symmetric sigma: the solution is odd under y -> 1-y
    g = make_grid(21)
    el = ElectrodeSet()
    sigma = ScalarField.from_function(g, lambda x, y: 1 + 0.5 * np.sin(np.pi * y) * x)
    rc = base_coefficients(el, g)
    system = assemble_robin(sigma, rc, g)
    x, stats = pcg_solve(system, tol=1e-12)
    U = x.reshape(g.n, g.n)
    assert np.abs(U + U[::-1, :]).max() < 1e-9


def test_robin_rejects_nonpositive_sigma():
    g = make_grid(5)
    vals = np.ones(g.num_nodes)
    vals[7] = -0.5
    with pytest.raises(AssemblyError, match=r"\(i=2, j=1\)"):
        assemble_robin(ScalarField(g, vals), base_coefficients(ElectrodeSet(), g), g)


def test_cem_exact_affine_and_voltage():
    g = make_grid(17)
    el = ElectrodeSet()
    system = assemble_cem(ScalarField.constant(g, 1.0), el, g)
    exact = np.concatenate([
        ScalarField.from_function(g, lambda x, y: y - 0.5).values, [1.5]
    ])
    A = csr_of(system)
    assert np.abs(A @ exact - system.rhs).max() < 1e-14
    assert _matrix_symmetry_defect(A) == 0.0
    assert _spd_probe(A, seed=3) > 0.0


def test_cem_linearity_in_current():
    g = make_grid(13)
    s = ScalarField.constant(g, 1.0)
    x1, _ = pcg_solve(assemble_cem(s, ElectrodeSet(current=1.0), g), tol=1e-12)
    x2, _ = pcg_solve(assemble_cem(s, ElectrodeSet(current=2.0), g), tol=1e-12)
    assert np.abs(x2 - 2 * x1).max() < 1e-9


def test_cem_electrode_current_integral():
    g = make_grid(33)
    el = ElectrodeSet(z=0.8, current=1.7, aperture=0.75)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=33, seed=2))
    x, stats = pcg_solve(assemble_cem(sigma, el, g), tol=1e-12)
    V = x[-1]
    tr = boundary_trace(ScalarField(g, x[:-1])).values
    (idx, w), _ = electrode_quadrature(el, g)
    injected = float(np.sum(w * (V - tr[idx]) / el.z))
    assert injected == pytest.approx(el.current, abs=1e-8)


def test_laplace_dirichlet_constant_and_affine():
    g = make_grid(17)
    for fn in (lambda x, y: np.full_like(x, 3.0), lambda x, y: x):
        f = ScalarField.from_function(g, fn)
        system = assemble_laplace_dirichlet(boundary_trace(f), g)
        x, stats = pcg_solve(system, tol=1e-12)
        assert np.abs(x - f.values).max() < 1e-10


def test_laplace_dirichlet_harmonic_quadratic_is_stencil_exact():
    # x^2 - y^2 lies in the null space of the five-point truncation error,
    # so the discrete solution matches the continuum at solver tolerance
    g = make_grid(33)
    f = ScalarField.from_function(g, lambda x, y: x * x - y * y)
    system = assemble_laplace_dirichlet(boundary_trace(f), g)
    x, stats = pcg_solve(system, tol=1e-12)
    assert np.abs(x - f.values).max() < 1e-9


def test_laplace_dirichlet_second_order_on_quartic():
    errs = []
    for n in (17, 33, 65):
        g = make_grid(n)
        f = ScalarField.from_function(g, lambda x, y: x**4 - 6 * x**2 * y**2 + y**4)
        system = assemble_laplace_dirichlet(boundary_trace(f), g)
        x, stats = pcg_solve(system, tol=1e-12)
        errs.append(np.abs(x - f.values).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def _dense_inverse(A):
    """The preconditioner that multiplies by the dense inverse of A."""
    return partial(np.matmul, np.linalg.inv(A.toarray()))


def test_pcg_identity_one_iteration():
    # the identity as a five-point table on a 5 x 5 grid: its coarsest
    # matrix is the whole system, so one V-cycle solves it exactly
    table = np.zeros((5, 25))
    table[2] = 1.0
    b = np.arange(25, dtype=float) + 1
    x, stats = pcg_solve(SparseSystem(table, b))
    assert stats.iterations == 1
    assert np.allclose(x, b)


def test_pcg_matches_dense_oracle():
    # 1-D Poisson tridiagonal, rhs = first basis vector, through the CG of
    # every solve with the dense inverse as preconditioner
    n = 10
    A = sp.diags([[-1.0] * (n - 1), [2.0] * n, [-1.0] * (n - 1)], [-1, 0, 1]).tocsr()
    b = np.zeros(n)
    b[0] = 1.0
    x, iterations, residual = elliptic._cg(A, b, _dense_inverse(A), 1e-12, n)
    expected = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - expected).max() < 1e-10
    assert residual <= 1e-12 and iterations <= 2


def test_pcg_cap_raises(monkeypatch):
    # above the coarsest multigrid size, so one iteration cannot solve it;
    # a zero cap per grid side leaves the cap at its floor of one iteration
    g = make_grid(33)
    system = assemble_robin(ScalarField.constant(g, 1.0),
                            base_coefficients(ElectrodeSet(), g), g)
    monkeypatch.setattr(elliptic, "_CG_CAP_PER_SIDE", 0)
    with pytest.raises(SolverError, match="after 1 iterations"):
        pcg_solve(system, tol=1e-12)


def test_pcg_detects_indefinite():
    # positive diagonal, so the preconditioner (here the dense inverse of
    # the whole small matrix) exists, but the matrix has eigenvalue -1 and b
    # is its eigenvector: <p, Ap> < 0 at once
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    b = np.array([1.0, -1.0])
    with pytest.raises(NotSPDError, match="nonpositive curvature"):
        elliptic._cg(A, b, _dense_inverse(A), 1e-10, 10)


def test_cg_detects_an_indefinite_preconditioner():
    # an SPD matrix and a preconditioner that maps the residual to -r:
    # <r, Mr> < 0 is a NotSPDError at once, not a later division by a zero
    # <r, Mr> or a run to the cap
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(NotSPDError, match=r"nonpositive <r, Mr> = -2.000e\+00 at iteration 1"):
        elliptic._cg(A, np.array([1.0, 1.0]), np.negative, 1e-10, 10)


def test_pcg_robin_system_converges():
    g = make_grid(33)
    el = ElectrodeSet()
    rc = smoothed_coefficients(el, g, epsilon=5e-4)
    system = assemble_robin(ScalarField.constant(g, 1.0), rc, g)
    x, stats = pcg_solve(system, tol=1e-10)
    assert stats.relative_residual <= 1e-10
    assert stats.iterations <= 20 * g.n


def _forward_system(n, seed, aperture, z, epsilon, cem):
    """Robin (sharp when epsilon is 0) or CEM system on a blob phantom."""
    g = make_grid(n)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=n, seed=seed))
    el = ElectrodeSet(aperture=aperture, z=z)
    if cem:
        return assemble_cem(sigma, el, g)
    coeffs = (base_coefficients(el, g) if epsilon == 0.0
              else smoothed_coefficients(el, g, epsilon))
    return assemble_robin(sigma, coeffs, g)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 60), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.3, 1.0), z=st.floats(0.3, 3.0),
       epsilon=st.sampled_from([0.0, 1e-3, 0.5]), cem=st.booleans())
def test_multigrid_preconditioner_spd_and_pcg_matches_direct(n, seed, aperture, z,
                                                             epsilon, cem):
    try:
        system = _forward_system(n, seed, aperture, z, epsilon, cem)
    except DataError:
        assume(False)  # the aperture spans fewer than two nodes
    levels, coarsest_inverse = elliptic._multigrid(system)
    precondition = partial(elliptic._v_cycle, levels, coarsest_inverse)
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(2, system.dimension))
    mx, my = precondition(x), precondition(y)
    assert abs(mx @ y - x @ my) <= 1e-12 * np.linalg.norm(mx) * np.linalg.norm(y)
    assert mx @ x > 0.0 and my @ y > 0.0
    sol, stats = pcg_solve(system, tol=1e-12)
    expected = spla.spsolve(csr_of(system).tocsc(), system.rhs)
    assert np.linalg.norm(sol - expected) <= 1e-8 * np.linalg.norm(expected)
    assert stats.method == "multigrid"


@pytest.mark.parametrize("n", [65, 129, 257])
def test_multigrid_iterations_independent_of_n(n):
    # criterion 6's phantom and Robin data, and the CEM system on it
    g = make_grid(n)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=n, seed=7, lo=1.0, hi=1.8,
                                         margin=0.15, blob_width=(0.05, 0.10)))
    systems = [assemble_cem(sigma, ElectrodeSet(), g)]
    for aperture in (1.0, 0.5):
        el = ElectrodeSet(aperture=aperture)
        systems.append(assemble_robin(sigma, base_coefficients(el, g), g))
        systems.append(assemble_robin(sigma, smoothed_coefficients(el, g, 5e-4), g))
    for system in systems:
        x, stats = pcg_solve(system)
        assert stats.iterations <= 25


def _galerkin_by_node(A, n, extra):
    """The next level's matrix P'AP of the CSR matrix A on an n x n grid and
    ``extra`` (0 or 1) further unknowns, as a CSR matrix built node by node
    in the summation order ``_multigrid`` documents: per 2 x 2 block (lower
    left a, lower right b, upper left c, upper right d; the missing ones of
    the last row and column skipped when n is odd), the centre is
    0 + Ca + Cb + Cc + Cd plus twice 0 + Ea + Ec + Na + Nb, the east entry
    Eb + Ed, the north entry Nc + Nd, the entry in the voltage column
    0 + Ba + Bb + Bc + Bd, and the voltage's diagonal is A's; the west and
    south entries are the east and north entries of the blocks to the left
    and below, and the voltage row is the voltage column."""
    entries = dict(zip(zip(*A.nonzero()), A[A.nonzero()].A1))
    nn, m = n * n, (n + 1) // 2

    def east(j, i):
        return entries.get((j * n + i, j * n + i + 1), 0.0) if i < n - 1 else 0.0

    def north(j, i):
        return entries.get((j * n + i, j * n + i + n), 0.0) if j < n - 1 else 0.0

    centre, east_c, north_c, border = {}, {}, {}, {}
    for J in range(m):
        for I in range(m):
            a = (2 * J, 2 * I)
            b = (2 * J, 2 * I + 1) if 2 * I + 1 < n else None
            c = (2 * J + 1, 2 * I) if 2 * J + 1 < n else None
            d = (2 * J + 1, 2 * I + 1) if b and c else None
            block = [p for p in (a, b, c, d) if p is not None]
            total = 0.0
            for j, i in block:
                total += entries.get((j * n + i, j * n + i), 0.0)
            inside = 0.0 + east(*a)
            if c:
                inside += east(*c)
            inside += north(*a)
            if b:
                inside += north(*b)
            centre[J, I] = total + 2.0 * inside
            east_c[J, I] = (east(*b) + east(*d) if d else east(*b)) if b else 0.0
            north_c[J, I] = (north(*c) + north(*d) if d else north(*c)) if c else 0.0
            border[J, I] = 0.0
            for j, i in block:
                border[J, I] += entries.get((j * n + i, nn), 0.0)
    rows, cols, vals = [], [], []

    def put(row, col, value):
        if value != 0.0:
            rows.append(row)
            cols.append(col)
            vals.append(value)

    for J in range(m):
        for I in range(m):
            k = J * m + I
            put(k, k - m, north_c[J - 1, I] if J > 0 else 0.0)
            put(k, k - 1, east_c[J, I - 1] if I > 0 else 0.0)
            put(k, k, centre[J, I])
            put(k, k + 1, east_c[J, I])
            put(k, k + m, north_c[J, I])
            if extra:
                put(k, m * m, border[J, I])
    if extra:
        for J in range(m):
            for I in range(m):
                put(m * m, J * m + I, border[J, I])
        put(m * m, m * m, entries[nn, nn])
    dim = m * m + extra
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def _former_multigrid(A):
    """The CSR multigrid that ``_multigrid`` replaced: each level keeps its
    CSR matrix, built node by node (``_galerkin_by_node``), and the
    aggregate number of each unknown, and the V-cycle restricts with
    ``np.bincount`` and prolongs with a gather.  Returns the levels
    (matrix, damped inverse diagonal, aggregate) and the V-cycle."""
    A = A.tocsr()
    dim = A.shape[0]
    n = math.isqrt(dim)
    extra = dim - n * n
    levels = []
    while True:
        d = A.diagonal()
        if np.any(d <= 0.0):
            raise NotSPDError("matrix has a nonpositive diagonal entry")
        if dim <= elliptic._COARSEST or n == 1:
            break
        m = (n + 1) // 2
        j, i = np.divmod(np.arange(n * n, dtype=np.int32), n)
        aggregate = np.concatenate([(j // 2) * m + i // 2,
                                    m * m + np.arange(extra, dtype=np.int32)])
        levels.append((A, elliptic._DAMPING / d, aggregate))
        A = _galerkin_by_node(A, n, extra)
        dim, n = m * m + extra, m
    inverse = np.linalg.inv(A.toarray())
    return levels, partial(_former_v_cycle, levels, 0.5 * (inverse + inverse.T))


def _former_v_cycle(levels, coarsest_inverse, b):
    rhs, sols = [], []
    for matrix, damped_inverse_diagonal, aggregate in levels:
        x = damped_inverse_diagonal * b
        for _ in range(elliptic._SMOOTHING_SWEEPS - 1):
            x += damped_inverse_diagonal * (b - matrix @ x)
        rhs.append(b)
        sols.append(x)
        b = np.bincount(aggregate, weights=b - matrix @ x)
    e = coarsest_inverse @ b
    for (matrix, damped_inverse_diagonal, aggregate), b, x in zip(
            reversed(levels), reversed(rhs), reversed(sols)):
        x += elliptic._OVERCORRECTION * e[aggregate]
        for _ in range(elliptic._SMOOTHING_SWEEPS):
            x += damped_inverse_diagonal * (b - matrix @ x)
        e = x
    return e


_SYSTEM_KINDS = ("robin", "smoothed", "cem", "cem-half", "laplace")


def _random_system(kind, n, rng):
    """A system of ``kind`` on an n x n grid with a random sigma (or random
    Dirichlet data); DataError where the electrode spans fewer than two
    nodes."""
    g = make_grid(n)
    if kind == "laplace":
        return assemble_laplace_dirichlet(
            BoundaryValues(g, rng.normal(size=g.num_boundary_nodes)), g)
    sigma = ScalarField(g, 10.0 ** rng.uniform(-1.0, 1.0, g.num_nodes))
    el = ElectrodeSet(aperture=0.5 if kind == "cem-half" else 1.0)
    if kind.startswith("cem"):
        return assemble_cem(sigma, el, g)
    coeffs = (base_coefficients(el, g) if kind == "robin"
              else smoothed_coefficients(el, g, 1e-3))
    return assemble_robin(sigma, coeffs, g)


def _with_signed_zeros(rng, size):
    x = rng.normal(size=size)
    x[rng.random(size) < 0.2] = -0.0
    x[rng.random(size) < 0.1] = 0.0
    return x


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 70), kind=st.sampled_from(_SYSTEM_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_grid_operator_and_transfers_match_csr_bincount_and_gather(n, kind, seed):
    # the system's one operator, at every size, and every level's DIA
    # product equal scipy's CSR product of that level's Galerkin matrix (for
    # the Laplace system a CSR matrix without the dropped couplings' zeros),
    # and the strided transfers equal np.bincount and the gather, bit for
    # bit and signs of zeros included, at odd and even n
    rng = np.random.default_rng(seed)
    try:
        system = _random_system(kind, n, rng)
    except DataError:
        assume(False)
    levels, _ = _former_multigrid(csr_of(system))
    hierarchy, _ = elliptic._multigrid(system)
    assert len(hierarchy) == len(levels)
    assert not hierarchy or hierarchy[0] is system.operator
    x = _with_signed_zeros(rng, system.dimension)  # every solve's product
    product = system.operator @ x
    assert product.tobytes() == (csr_of(system) @ x).tobytes()
    for (matrix, damped_inverse_diagonal, aggregate), level in zip(levels, hierarchy):
        x = _with_signed_zeros(rng, matrix.shape[0])
        assert (level @ x).tobytes() == (matrix @ x).tobytes()
        assert level.damped_inverse_diagonal.tobytes() == damped_inverse_diagonal.tobytes()
    # the transfers of the drawn grid itself, with and without a further
    # unknown, against the aggregate numbers spelled out
    m = (n + 1) // 2
    j, i = np.divmod(np.arange(n * n), n)
    for extra in (0, 1):
        aggregate = np.concatenate([(j // 2) * m + i // 2, m * m + np.arange(extra)])
        level = elliptic._Level(None, None, None, None, n)
        r = _with_signed_zeros(rng, n * n + extra)
        assert level.restrict(r).tobytes() == np.bincount(aggregate, weights=r).tobytes()
        e, x = _with_signed_zeros(rng, m * m + extra), _with_signed_zeros(rng, n * n + extra)
        expected = x + e[aggregate]
        level.prolong(e, x)
        assert x.tobytes() == expected.tobytes()


@settings(max_examples=15, deadline=None)
@given(n=st.integers(18, 90), kind=st.sampled_from(_SYSTEM_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_v_cycle_matches_former_csr_v_cycle(n, kind, seed):
    # above the coarsest size, so the V-cycle has levels: the preconditioner
    # and the whole solve return the bits of the CSR multigrid they replaced
    rng = np.random.default_rng(seed)
    try:
        system = _random_system(kind, n, rng)
    except DataError:
        assume(False)
    A = csr_of(system)
    _, former = _former_multigrid(A)
    levels, coarsest_inverse = elliptic._multigrid(system)
    b = _with_signed_zeros(rng, system.dimension)
    assert elliptic._v_cycle(levels, coarsest_inverse, b).tobytes() == former(b).tobytes()
    x, stats = pcg_solve(system)
    max_iter = elliptic._CG_CAP_PER_SIDE * int(round(math.sqrt(system.dimension)))
    x0, iterations, residual = elliptic._cg(A, system.rhs, former,
                                            elliptic.SOLVE_TOL, max_iter)
    assert x.tobytes() == x0.tobytes()
    assert (stats.iterations, stats.relative_residual) == (iterations, residual)


def _aggregation(n, extra):
    """The 0/1 aggregation matrix P of an n x n grid's 2 x 2 blocks, each
    further unknown an aggregate of its own."""
    m = (n + 1) // 2
    j, i = np.divmod(np.arange(n * n), n)
    aggregate = np.concatenate([(j // 2) * m + i // 2, m * m + np.arange(extra)])
    return sp.csr_matrix((np.ones(aggregate.size), (np.arange(aggregate.size), aggregate)),
                         shape=(aggregate.size, m * m + extra))


def _level_matrix(level):
    """A level's matrix in CSR form: its DIA grid block, V's column and V's row."""
    M = level.stencil.tocoo()
    rows, cols, vals = [M.row], [M.col], [M.data]
    if level.voltage is not None:
        (coupled, column), (columns, row) = level.border, level.voltage
        last = M.shape[0] - 1
        rows += [coupled, np.full(columns.size, last)]
        cols += [np.full(coupled.size, last), columns]
        vals += [column, row]
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=M.shape)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 90), kind=st.sampled_from(_SYSTEM_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_every_coarse_level_is_the_galerkin_product(n, kind, seed):
    # each level below the finest, the coarsest included (the matrix handed
    # to the dense inverse), is P'AP of the level above, P the 0/1
    # aggregation matrix, within the rounding of its sums: an entry sums at
    # most 12 products of A's entries, so two summation orders differ by at
    # most 11 eps times the sum of their magnitudes, P'|A|P
    rng = np.random.default_rng(seed)
    try:
        system = _random_system(kind, n, rng)
    except DataError:
        assume(False)
    coarsest, inv = [], np.linalg.inv
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "inv", lambda M: coarsest.append(M.copy()) or inv(M))
        levels, _ = elliptic._multigrid(system)
    matrices = [_level_matrix(lv) for lv in levels] + [sp.csr_matrix(coarsest[0])]
    assert abs(matrices[0] - csr_of(system)).max() == 0.0
    extra = system.dimension - math.isqrt(system.dimension) ** 2
    for fine, coarse, level in zip(matrices, matrices[1:], levels):
        P = _aggregation(level.n, extra)
        galerkin = (P.T @ fine @ P).tocsr()
        bound = 11 * np.finfo(float).eps * (P.T @ abs(fine) @ P)
        assert (abs(coarse - galerkin) > bound).nnz == 0
        assert coarse.shape == galerkin.shape and abs(coarse - coarse.T).max() == 0.0


def test_a_guess_that_meets_tol_is_returned_with_no_hierarchy():
    # the guess's own bits after 0 iterations, and no multigrid built (a
    # build would call None); a guess short of tol is polished by CG
    g = make_grid(65)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=65, seed=2))
    system = assemble_cem(sigma, ElectrodeSet(z=1e-3), g)
    x, _ = pcg_solve(system, tol=1e-12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elliptic, "_multigrid", None)
        y, stats = pcg_solve(system, x0=x)
    assert y.tobytes() == x.tobytes() and y is not x
    assert stats.iterations == 0 and stats.relative_residual <= elliptic.SOLVE_TOL
    y, stats = pcg_solve(system, x0=0.5 * x)
    assert stats.iterations > 0
    assert np.linalg.norm(system.rhs - csr_of(system) @ y) <= (
        elliptic.SOLVE_TOL * np.linalg.norm(system.rhs))


def test_a_guess_that_meets_tol_is_returned_unpreconditioned():
    # the sweeps' path: with a preconditioner passed, a guess that meets
    # the tolerance is returned after 0 iterations, its true residual
    # measured and checked, and the preconditioner never applied; a nearby
    # guess takes fewer iterations than the zero guess and is not modified
    g = make_grid(33)
    coeffs = smoothed_coefficients(ElectrodeSet(aperture=0.8), g, 5e-4)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=33, seed=4))
    system = assemble_robin(sigma, coeffs, g)
    transform = _transform_preconditioner(assemble_robin(ScalarField.constant(g, 1.0), coeffs, g))
    x, cold = pcg_solve(system, 1e-10, None, transform)
    again, stats = pcg_solve(system, 1e-10, x, None)
    assert (stats.iterations, stats.method) == (0, "multigrid")
    again, stats = pcg_solve(system, 1e-10, x, lambda r: None)  # an apply is a TypeError
    assert (stats.iterations, stats.method) == (0, "transform")
    assert again.tobytes() == x.tobytes() and again is not x
    nb = np.linalg.norm(system.rhs)
    true_res = np.linalg.norm(system.rhs - csr_of(system) @ x) / nb
    assert stats.relative_residual == pytest.approx(true_res, rel=1e-12)
    assert stats.relative_residual <= 1e-10
    moved = assemble_robin(ScalarField(g, sigma.values * 1.01 + 0.01), coeffs, g)
    guess = x.copy()
    y, warm = pcg_solve(moved, 1e-10, guess, transform)
    assert guess.tobytes() == x.tobytes()
    assert np.linalg.norm(moved.rhs - csr_of(moved) @ y) <= 1e-10 * np.linalg.norm(moved.rhs)
    _, zero = pcg_solve(moved, 1e-10, None, transform)
    assert warm.iterations < zero.iterations


def _table_read_off(A, n):
    """The DIA table of the first n*n unknowns of A (the diagonals at the
    offsets -n, -1, 0, 1, n, row r's entry at offset k at column r + k)
    and its column n*n with its diagonal entry (None when A has no further
    unknown), read entry by entry, +0.0 off the grid."""
    nodes = np.arange(n * n)
    j, i = np.divmod(nodes, n)
    table = np.zeros((5, n * n))
    for k, (off, on) in enumerate(((-n, j > 0), (-1, i > 0), (0, i >= 0), (1, i < n - 1),
                                   (n, j < n - 1))):
        r = nodes[on]
        table[k, r + off] = np.asarray(A[r, r + off]).ravel()
    voltage = None
    if A.shape[0] > n * n:
        voltage = (np.asarray(A[nodes, np.full(n * n, n * n)]).ravel(), A[n * n, n * n])
    return table, voltage


def _assert_table_is_the_matrix(system, n):
    expected_table, expected_voltage = _table_read_off(csr_of(system), n)
    assert system.table.tobytes() == expected_table.tobytes()
    assert (system.voltage is None) == (expected_voltage is None)
    if system.voltage is not None:
        (column, corner), (expected_column, expected_corner) = system.voltage, expected_voltage
        assert column.tobytes() == expected_column.tobytes()
        assert np.float64(corner).tobytes() == np.float64(expected_corner).tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 90), kind=st.sampled_from(_SYSTEM_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_the_table_each_assembly_keeps_is_its_matrix(n, kind, seed):
    # the table and V column from which every product and the multigrid
    # are built are the matrix byte for byte, with +0.0 wherever the matrix
    # has no entry (a CSR matrix drops zeros, so a -0.0 or a value there
    # shows)
    rng = np.random.default_rng(seed)
    try:
        system = _random_system(kind, n, rng)
    except DataError:
        assume(False)
    _assert_table_is_the_matrix(system, n)


def test_the_finest_level_is_the_assemblys_table():
    # the operator's DIA data are the table each assembly built, not a copy
    # of it, the multigrid's finest level is that operator, and the CEM
    # system holds its Robin block's table
    g = make_grid(20)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=20, seed=3))
    robin = assemble_robin(sigma, base_coefficients(ElectrodeSet(), g), g)
    cem = elliptic._bordered(robin, *elliptic._cem_border(robin.table, sigma, ElectrodeSet(),
                                                          g), 1.0)
    laplace = assemble_laplace_dirichlet(BoundaryValues(g, np.ones(g.num_boundary_nodes)), g)
    for system in (robin, cem, laplace):
        assert system.dimension > elliptic._COARSEST
        assert np.shares_memory(system.operator.stencil.data, system.table)
        assert elliptic._multigrid(system)[0][0] is system.operator
    assert cem.table is robin.table


def _record_csr_builds(mp):
    """Record each csr_matrix construction from now on; returns the record
    list."""
    built = []
    init = sp.csr_matrix.__init__
    mp.setattr(sp.csr_matrix, "__init__",
               lambda self, *args, **kwargs: built.append(True) or init(self, *args, **kwargs))
    return built


@pytest.mark.parametrize("n", [65, 257])
@pytest.mark.parametrize("kind", ["smoothed", "sharp", "cem", "cem-small-z"])
def test_forward_solves_build_no_csr_matrix(n, kind):
    # every product of a forward solve, the CEM guess's residual included,
    # goes through the DIA table: no CSR matrix is constructed
    g = make_grid(n)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=n, seed=7))
    el = ElectrodeSet(z=1e-6 if kind == "cem-small-z" else 1.0)
    with pytest.MonkeyPatch.context() as mp:
        built = _record_csr_builds(mp)
        if kind.startswith("cem"):
            result = solve_cem_forward(sigma, el, g)
        else:
            coeffs = (base_coefficients(el, g) if kind == "sharp"
                      else smoothed_coefficients(el, g, 5e-4))
            result = solve_forward(sigma, coeffs, g)
    assert built == []
    assert result.stats.relative_residual <= elliptic.SOLVE_TOL
    assert kind != "cem-small-z" or result.stats.iterations > 0


def test_sweeps_and_bregman_build_no_csr_matrix():
    # the sweeps' CG products and residuals go through the DIA table too,
    # and so do the Bregman comparator's sine solves: neither constructs a
    # CSR matrix
    g = make_grid(33)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=33, seed=7))
    el = ElectrodeSet()
    forward = solve_forward(sigma, smoothed_coefficients(el, g, 5e-4), g)
    with pytest.MonkeyPatch.context() as mp:
        built = _record_csr_builds(mp)
        _, _, report = reconstruct(forward.a, el, ReconConfig(), g)
    assert built == [] and report.final_solve.method == "transform"
    with pytest.MonkeyPatch.context() as mp:
        built = _record_csr_builds(mp)
        _, breg = split_bregman_minimize(forward.a, boundary_trace(forward.u), BregmanConfig(), g)
    assert built == [] and breg.iterations > 0


_GUESS_SHAPES = st.sampled_from(["column", "row", "short", "long", "scalar", "two"])


def _guess_of_shape(shape, dim):
    return np.ones({"column": (dim, 1), "row": (1, dim), "short": (dim - 1,),
                    "long": (dim + 1,), "scalar": (), "two": (dim, 2)}[shape])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 24), seed=st.integers(0, 2**32 - 1), shape=_GUESS_SHAPES,
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.floats(0.0, 1.0))
def test_a_malformed_guess_fails_before_any_work(n, seed, shape, bad, where):
    # a guess of another shape is a DimensionError, and a NaN or inf
    # anywhere in a guess of the right shape a SolverError, before any
    # product, hierarchy or preconditioner apply, with the multigrid and
    # with the sweeps' transform preconditioner alike
    g = make_grid(n)
    sigma = ScalarField(g, np.random.default_rng(seed).uniform(0.1, 10.0, g.num_nodes))
    system = assemble_robin(sigma, smoothed_coefficients(ElectrodeSet(), g, 1e-3), g)
    dim = system.dimension
    x0 = np.zeros(dim)
    x0[min(int(where * dim), dim - 1)] = bad
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_multigrid", "_cg"):
            mp.setattr(elliptic, name, None)  # any call is a TypeError
        for preconditioner in (None, lambda r: None):
            solve = partial(pcg_solve, system, preconditioner=preconditioner)
            with pytest.raises(DimensionError, match="the guess has shape"):
                solve(x0=_guess_of_shape(shape, dim))
            with pytest.raises(SolverError, match="the guess holds a NaN or inf"):
                solve(x0=x0)


def _sweep_coefficients(n, aperture, log_z, epsilon):
    """The grid and the Robin coefficients of a reconstruction's sweeps in
    the sharp (epsilon 0) or smoothed model; DataError where a sharp
    electrode spans fewer than two nodes."""
    g = make_grid(n)
    return g, robin_coefficients(ElectrodeSet(aperture=aperture, z=10.0**log_z), g, epsilon)


def _boundary_terms(g, coeffs):
    """The boundary term of each boundary node's row, in loop order: the
    sum of w b over the faces it owns."""
    node_f, val_f, w_f = boundary_faces(g)
    return np.bincount(node_f, w_f * coeffs.b.values[val_f], minlength=g.num_boundary_nodes)


def _record_calls(mp, module, name):
    """Record the positional arguments of each call of ``module.name``."""
    calls = []
    f = getattr(module, name)
    mp.setattr(module, name, lambda *args: calls.append(args) or f(*args))
    return calls


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 65), contrast=st.floats(1.0, 2.0), aperture=st.floats(0.3, 1.0),
       epsilon=st.sampled_from([0.0, 5e-4]), log_z=st.floats(-5.0, 0.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=65, contrast=2.0, aperture=1.0, epsilon=5e-4, log_z=0.0, seed=0)  # no row corrected
@example(n=65, contrast=2.0, aperture=0.5, epsilon=0.0, log_z=-5.0, seed=0)  # the electrodes'
@example(n=40, contrast=2.0, aperture=1.0, epsilon=5e-4, log_z=-5.0, seed=1)  # every row
def test_transform_preconditioner_is_spd_and_solves_the_sweep_systems(n, contrast, aperture,
                                                                       epsilon, log_z, seed):
    # built from the sweeps' first system (sigma = 1 + delta), the
    # preconditioner's capacitance matrix has a row for each boundary term
    # of at least a tenth of sigma_bar (none at n = 65 and z = 1: the plain
    # transform); it is symmetric and positive to rounding, and it solves a
    # system of conductivity contrast up to 2 at SOLVE_TOL in a bounded
    # number of CG iterations
    try:
        g, coeffs = _sweep_coefficients(n, aperture, log_z, epsilon)
    except DataError:
        assume(False)  # the sharp aperture spans fewer than two nodes
    delta = ReconConfig().delta
    terms = _boundary_terms(g, coeffs)
    threshold = 0.1 * (1.0 + delta)
    assume(not np.any(np.abs(terms - threshold) <= 1e-9 * threshold))  # clear of the rule
    first = assemble_robin(ScalarField.constant(g, 1.0 + delta), coeffs, g)
    rng = np.random.default_rng(seed)
    sigma = ScalarField(g, contrast ** rng.uniform(0.0, 1.0, g.num_nodes) + delta)
    system = assemble_robin(sigma, coeffs, g)
    with pytest.MonkeyPatch.context() as mp:
        inversions = _record_calls(mp, np.linalg, "inv")
        precondition = _transform_preconditioner(first)
    [(capacitance,)] = inversions
    assert capacitance.shape == (np.count_nonzero(terms >= threshold),) * 2
    x, y = rng.normal(size=(2, system.dimension))
    mx, my = precondition(x), precondition(y)
    # the correction cancels M0^-1's constant mode, up to a thousand times
    # M's own, so the bound is looser than the V-cycle's
    assert abs(mx @ y - x @ my) <= 1e-10 * np.linalg.norm(mx) * np.linalg.norm(y)
    assert mx @ x > 0.0 and my @ y > 0.0
    _, stats = pcg_solve(system, elliptic.SOLVE_TOL, None, precondition)
    assert stats.relative_residual <= elliptic.SOLVE_TOL
    assert stats.iterations <= 25


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 20), aperture=st.floats(0.3, 1.0), epsilon=st.sampled_from([0.0, 5e-4]),
       log_z=st.floats(-6.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=12, aperture=1.0, epsilon=5e-4, log_z=0.0, seed=0)  # no row corrected
@example(n=17, aperture=0.5, epsilon=0.0, log_z=-5.0, seed=0)  # every term corrected
def test_transform_preconditioner_inverts_its_model(n, aperture, epsilon, log_z, seed):
    # the preconditioner of a system on a random medium is the inverse of
    # M = sigma_bar L + beta + D, built here densely: L the Neumann
    # Laplacian T x I + I x T, T = tridiag(-1, 2, -1) with 1 at both ends,
    # sigma_bar the geometric mean of a quarter of the interior diagonal,
    # D the boundary terms of at least sigma_bar / 10 on their rows, beta
    # the others' sum over n^2, and the constant mode's eigenvalue raised to
    # a thousandth of the whole sum over n^2 where beta is below that
    try:
        g, coeffs = _sweep_coefficients(n, aperture, log_z, epsilon)
    except DataError:
        assume(False)  # the sharp aperture spans fewer than two nodes
    rng = np.random.default_rng(seed)
    system = assemble_robin(ScalarField(g, rng.uniform(0.5, 2.0, g.num_nodes)), coeffs, g)
    N = n * n
    centre = system.table[2].reshape(n, n)[1:-1, 1:-1]
    sigma_bar = math.exp(np.mean(np.log(0.25 * centre)))
    terms = _boundary_terms(g, coeffs)
    assume(not np.any(np.abs(terms - 0.1 * sigma_bar) <= 1e-9 * sigma_bar))
    corrected = terms >= 0.1 * sigma_bar
    beta = terms[~corrected].sum() / N
    T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    T[0, 0] = T[-1, -1] = 1.0
    M = sigma_bar * (np.kron(T, np.eye(n)) + np.kron(np.eye(n), T)) + beta * np.eye(N)
    li, lj = boundary_loop(g)
    rows = (lj * n + li)[corrected]
    M[rows, rows] += terms[corrected]
    M += (max(beta, 1e-3 * terms.sum() / N) - beta) / N  # on the constant mode alone
    r = rng.normal(size=N)
    expected = np.linalg.solve(M, r)
    got = _transform_preconditioner(system)(r)
    assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 17), kind=st.sampled_from(_SYSTEM_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_pcg_solves_any_spd_matrix_of_at_most_the_coarsest_size(n, kind, seed):
    # a system of at most _COARSEST unknowns is the coarsest level itself,
    # filled densely from its table and inverted, with no level above it:
    # one V-cycle is its exact inverse up to rounding
    rng = np.random.default_rng(seed)
    try:
        system = _random_system(kind, n, rng)
    except DataError:
        assume(False)
    assert system.dimension <= elliptic._COARSEST
    levels, coarsest_inverse = elliptic._multigrid(system)
    assert levels == []
    A = csr_of(system).toarray()
    assert np.abs(coarsest_inverse @ A - np.eye(system.dimension)).max() < 1e-8
    x, stats = pcg_solve(system)
    assert stats.relative_residual <= elliptic.SOLVE_TOL and stats.iterations <= 3
    assert np.linalg.norm(system.rhs - A @ x) <= elliptic.SOLVE_TOL * np.linalg.norm(system.rhs)
    expected = np.linalg.solve(A, system.rhs)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1))
def test_sine_solve_matches_direct_solve(n, seed):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    trace = BoundaryValues(g, rng.normal(size=g.num_boundary_nodes))
    base = assemble_laplace_dirichlet(trace, g)
    # an interior source as the Bregman v-step writes it: -h^2 div on the
    # interior rows, the Dirichlet rows left alone
    rhs = base.rhs.copy()
    rhs.reshape(n, n)[1:-1, 1:-1] -= g.h * g.h * rng.normal(size=(n - 2, n - 2))
    system = SparseSystem(base.table, rhs)
    x, stats = sine_solve(system)
    expected = spla.spsolve(csr_of(system).tocsc(), system.rhs)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    li, lj = boundary_loop(g)
    assert np.array_equal(x[lj * n + li], trace.values)
    assert stats.method == "sine" and stats.relative_residual <= 1e-12


def test_sine_solve_returns_new_memory():
    # each solve returns its own array: the caller may keep one solution
    # while the next is computed from the same system
    g = make_grid(9)
    rng = np.random.default_rng(3)
    base = assemble_laplace_dirichlet(BoundaryValues(g, rng.normal(size=g.num_boundary_nodes)), g)
    x, _ = sine_solve(base)
    y, _ = sine_solve(base)
    assert not np.shares_memory(x, base.rhs) and not np.shares_memory(x, y)
    assert y.tobytes() == x.tobytes()


def test_sine_solve_rejects_nan_rhs():
    # a NaN norm of the rhs must reach the residual check, not the zero-rhs
    # shortcut, whether the NaN sits in a Dirichlet row or an interior one
    g = make_grid(9)
    base = assemble_laplace_dirichlet(BoundaryValues(g, np.ones(g.num_boundary_nodes)), g)
    for node in (0, 4 * 9 + 4):
        rhs = base.rhs.copy()
        rhs[node] = np.nan
        with pytest.raises(SolverError, match="relative residual nan"):
            sine_solve(SparseSystem(base.table, rhs))


def _edge_entries(sigma2d, n):
    """Oracle for the assembly: COO entries (lists of row, column and value
    arrays) of the symmetric edge (flux) part of the operator, one 2x2 block
    per edge, x-edges then y-edges.  Converting them to CSR sums each
    diagonal in the order east, west, north, south."""
    def harmonic_mean(a, b):
        return 2.0 * a * b / (a + b)

    vx = harmonic_mean(sigma2d[:, :-1], sigma2d[:, 1:])
    vx[[0, -1], :] *= 0.5
    vy = harmonic_mean(sigma2d[:-1, :], sigma2d[1:, :])
    vy[:, [0, -1]] *= 0.5
    jj, ii = np.meshgrid(np.arange(n), np.arange(n - 1), indexing="ij")
    kx = (jj * n + ii).reshape(-1)
    jj, ii = np.meshgrid(np.arange(n - 1), np.arange(n), indexing="ij")
    ky = (jj * n + ii).reshape(-1)
    rows, cols, vals = [], [], []
    for k1, k2, v in ((kx, kx + 1, vx.reshape(-1)), (ky, ky + n, vy.reshape(-1))):
        rows += [k1, k2, k1, k2]
        cols += [k1, k2, k2, k1]
        vals += [v, v, -v, -v]
    return rows, cols, vals


def _coo_to_csr(rows, cols, vals, dim):
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()


def _assert_same_system(A, rhs, expected, expected_rhs):
    assert np.array_equal(A.indptr, expected.indptr)
    assert np.array_equal(A.indices, expected.indices)
    assert np.array_equal(A.data, expected.data)
    assert np.array_equal(rhs, expected_rhs)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.3, 1.0), epsilon=st.sampled_from([0.0, 1e-3, 0.5]))
def test_robin_pattern_refill_matches_coo_build(n, seed, aperture, epsilon):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    el = ElectrodeSet(aperture=aperture, z=float(rng.uniform(0.5, 2.0)))
    try:
        coeffs = (base_coefficients(el, g) if epsilon == 0.0
                  else smoothed_coefficients(el, g, epsilon))
    except DataError:
        assume(False)  # the sharp aperture spans fewer than two nodes
    sigma = ScalarField(g, rng.uniform(0.1, 10.0, g.num_nodes))
    flux = BoundaryValues(g, rng.normal(size=g.num_boundary_nodes))
    folded = RobinCoefficients(coeffs.b, BoundaryValues(g, coeffs.c.values + flux.values))
    system = assemble_robin(sigma, folded, g)

    li, lj = boundary_loop(g)
    node_f, val_f, w_f = boundary_faces(g)
    face_rows = (lj * n + li)[node_f]
    rows, cols, vals = _edge_entries(sigma.values2d, n)
    expected = _coo_to_csr(rows + [face_rows], cols + [face_rows],
                           vals + [w_f * coeffs.b.values[val_f]], n * n)
    rhs = np.zeros(n * n)
    np.add.at(rhs, face_rows, w_f * (coeffs.c.values[val_f] + flux.values[val_f]))
    _assert_same_system(csr_of(system), system.rhs, expected, rhs)


def _electrode_faces(el, g):
    """Oracle for the electrodes' faces, e+ first: the flat nodes ordered
    by x and their face lengths, h on each node of the side that lies in
    the span off the corners, h/2 on a corner whose horizontal neighbour is
    one; None where an electrode spans fewer than two nodes."""
    n = g.n
    x = np.arange(n) * g.h
    spanned = (x >= el.span()[0] - 1e-12) & (x <= el.span()[1] + 1e-12)
    if np.count_nonzero(spanned) < 2:
        return None
    w = np.where(spanned, g.h, 0.0)
    w[0] = 0.5 * g.h if spanned[1] else 0.0
    w[-1] = 0.5 * g.h if spanned[-2] else 0.0
    on = np.flatnonzero(w)
    rows = (n - 1, 0) if el.top_positive else (0, n - 1)
    return [(row * n + on, w[on]) for row in rows]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 70), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.3, 1.0), top_positive=st.booleans())
def test_cem_matches_coo_build(n, seed, aperture, top_positive):
    # the grid block from the edge entries and the electrode terms, bordered
    # by sp.bmat: the system holds the same bytes, index dtypes included,
    # and its solve returns the bytes of the CSR multigrid's solve on that
    # build
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    el = ElectrodeSet(aperture=aperture, z=float(rng.uniform(0.5, 2.0)),
                      current=float(rng.uniform(0.5, 2.0)), top_positive=top_positive)
    arcs = _electrode_faces(el, g)
    assume(arcs is not None)  # the aperture spans fewer than two nodes
    sigma = ScalarField(g, rng.uniform(0.1, 10.0, g.num_nodes))
    system = assemble_cem(sigma, el, g)

    N = n * n
    rows, cols, vals = _edge_entries(sigma.values2d, n)
    border = np.zeros(N)
    corner = 0.0
    for (k, w), sgn in zip(arcs, (1.0, -1.0)):  # e+ first
        wz = w * (1.0 / el.z)  # the sharp Robin face terms
        rows.append(k)
        cols.append(k)
        vals.append(wz)
        border[k] = -sgn * wz
        corner += float(wz.sum())
    col = sp.csr_matrix(border[:, None])
    expected = sp.bmat([[_coo_to_csr(rows, cols, vals, N), col], [col.T, [[corner]]]],
                       format="csr")
    rhs = np.zeros(N + 1)
    rhs[N] = 2.0 * el.current
    A = csr_of(system)
    for name in ("indptr", "indices", "data"):
        assert getattr(A, name).dtype == getattr(expected, name).dtype, name
        assert getattr(A, name).tobytes() == getattr(expected, name).tobytes(), name
    assert system.rhs.tobytes() == rhs.tobytes()
    x, stats = pcg_solve(system)
    max_iter = elliptic._CG_CAP_PER_SIDE * int(round(math.sqrt(N + 1)))
    x_expected, iterations, residual = elliptic._cg(
        expected, rhs, _former_multigrid(expected)[1], elliptic.SOLVE_TOL, max_iter)
    assert x.tobytes() == x_expected.tobytes()
    assert (stats.iterations, stats.relative_residual) == (iterations, residual)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
def test_laplace_dirichlet_matches_coo_build(n, seed):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    trace = BoundaryValues(g, rng.normal(size=g.num_boundary_nodes))
    system = assemble_laplace_dirichlet(trace, g)

    # the edge operator at sigma = 1 restricted to the interior rows, the
    # couplings to Dirichlet nodes folded into the rhs in the order east,
    # west, north, south
    N = n * n
    K = _coo_to_csr(*_edge_entries(np.ones((n, n)), n), N)
    li, lj = boundary_loop(g)
    kb = lj * n + li
    dirichlet = np.zeros(N, dtype=bool)
    dirichlet[kb] = True
    inner = np.flatnonzero(~dirichlet)
    d = np.zeros(N)
    d[kb] = trace.values
    rhs = np.zeros(N)
    for step in (1, -1, n, -n):
        k = inner[dirichlet[inner + step]]
        rhs[k] -= np.asarray(K[k, k + step]).ravel() * d[k + step]
    rhs[kb] = trace.values
    Ki = K.tocoo()
    keep = ~dirichlet[Ki.row] & ~dirichlet[Ki.col]
    expected = _coo_to_csr([Ki.row[keep], kb], [Ki.col[keep], kb],
                           [Ki.data[keep], np.ones(kb.size)], N)
    # the table read without its zeros is that build
    _assert_same_system(csr_of(system), system.rhs, expected, rhs)


def test_conservation_of_current():
    # total boundary flux sum (c - b u) ds vanishes for the discrete solution
    g = make_grid(25)
    el = ElectrodeSet(aperture=0.8, z=1.1, current=2.0)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=25, seed=9))
    for coeffs in (base_coefficients(el, g), smoothed_coefficients(el, g, 1e-3)):
        system = assemble_robin(sigma, coeffs, g)
        tol = 1e-11
        x, stats = pcg_solve(system, tol=tol)
        net = boundary_net_flux(coeffs, ScalarField(g, x))
        c_norm = float(np.linalg.norm(coeffs.c.values))
        assert abs(net) <= 10 * tol * c_norm + 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.2, 1.0), z=st.floats(0.2, 5.0), current=st.floats(0.1, 10.0),
       epsilon=st.one_of(st.none(), st.floats(1e-3, 0.3)))
def test_net_flux_of_robin_solution_vanishes(n, seed, aperture, z, current, epsilon):
    # the flux rows of the matrix sum to zero (each edge adds +w to one row
    # and -w to the other), so the net boundary flux of any x equals the sum
    # of its residual, |1'r| <= sqrt(N) ||r|| <= sqrt(N) tol ||rhs||
    g = make_grid(n)
    el = ElectrodeSet(aperture=aperture, z=z, current=current)
    try:
        coeffs = (base_coefficients(el, g) if epsilon is None
                  else smoothed_coefficients(el, g, epsilon))
    except DataError:
        assume(False)  # the sharp aperture spans fewer than two nodes
    sigma = ScalarField(g, np.random.default_rng(seed).uniform(0.1, 10.0, g.num_nodes))
    system = assemble_robin(sigma, coeffs, g)
    tol = 1e-10
    x, _ = pcg_solve(system, tol=tol)
    net = boundary_net_flux(coeffs, ScalarField(g, x))
    r = system.rhs - csr_of(system) @ x
    roundoff = 1e-12 * np.abs(system.rhs).sum()
    assert abs(net - r.sum()) <= roundoff
    assert abs(net) <= np.sqrt(g.num_nodes) * tol * np.linalg.norm(system.rhs) + roundoff


@settings(max_examples=80, deadline=None)
@given(n=st.integers(5, 64), seed=st.integers(0, 2**32 - 1), aperture=st.floats(0.5, 1.0),
       top_positive=st.booleans(),
       # every decade, and the decades near the two checks as often again
       log_z=st.integers(-300, 13) | st.integers(-22, 13))
def test_a_contact_impedance_whose_stencil_rounds_away_fails_before_any_solve(
        n, seed, aperture, top_positive, log_z):
    # an electrode node's diagonal, edge terms only, lies in [min sigma,
    # 2 max sigma]; adding t = w/z (w = h or h/2) rounds it away entirely
    # below half an ulp of t, at least t 2^-54, and keeps it from an ulp of
    # t, at most t 2^-52, up.  Where the edge terms round away the voltage
    # difference that carries the node's current lies below a rounding unit
    # of V: a DataError before any solve.  Any other z either fails loudly
    # (the large-z check of the CEM assembly, or a solver error where a
    # small z leaves CG short of the residual) or solves, with the injected
    # current, the sum over e+ of w/z (V - v), equal to I within 1e-6 I and
    # the rounding of V and v to doubles, which that sum multiplies by w/z.
    # The check of the large z asks some diagonal to grow by more than two
    # of its rounding units s, at most an ulp of 2 max sigma: once t > 3 s
    # it does, the rounded sum lying within s of the exact one (s/2 unless
    # it passes a power of two)
    g = make_grid(n)
    sigma = ScalarField(g, 0.5 + 1.5 * np.random.default_rng(seed).random(g.num_nodes))
    el = ElectrodeSet(aperture=aperture, z=10.0 ** log_z, top_positive=top_positive)
    lo, hi = float(sigma.values.min()), float(sigma.values.max())
    stencil_lost = 2.0 * hi <= 0.5 * g.h / el.z * 2.0**-54
    stencil_kept = lo >= g.h / el.z * 2.0**-52
    term_grows = 0.5 * g.h / el.z > 3.0 * 2.0 * hi * 2.0**-52
    if stencil_lost:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(elliptic, "_cg", None)  # a solve would raise TypeError
            with pytest.raises(DataError, match=r"rounds away on an electrode: contact "
                                                f"impedance z = .* down to {lo:g}"):
                solve_cem_forward(sigma, el, g)
        return
    try:
        result = solve_cem_forward(sigma, el, g)
    except DataError as exc:
        assert "rounds away" in str(exc)
        assert not (stencil_kept and term_grows)
        return
    except SolverError:
        return
    (idx, w), _ = electrode_quadrature(el, g)
    v, V = boundary_trace(result.u).values[idx], result.cem_voltage
    current = float(np.sum(w / el.z * (V - v)))
    rounding = 2.0**-52 * float(np.sum(w / el.z * (abs(V) + np.abs(v))))
    assert abs(current - el.current) <= 1e-6 * el.current + rounding


def test_a_boundary_term_of_one_rounding_unit_fails_before_any_solve():
    # blobs seed 2 at n=256: z = 1e13 moves no electrode diagonal by more
    # than one rounding unit, where CG on the bordered system stopped late on
    # a nonpositive <r, Mr>; z = 1e12 moves them by up to nine and solves
    g = make_grid(256)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=256, seed=2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elliptic, "_cg", None)  # a solve would raise TypeError
        with pytest.raises(DataError, match=r"rounds away: contact impedance z = 1e\+13"):
            solve_cem_forward(sigma, ElectrodeSet(z=1e13), g)
    result = solve_cem_forward(sigma, ElectrodeSet(z=1e12), g)
    assert result.stats.relative_residual <= elliptic.SOLVE_TOL
    assert np.all(np.isfinite(result.a.values))


@pytest.mark.parametrize("n, z", [(17, 1e14), (256, 1e13)])
def test_a_smoothed_boundary_term_of_two_rounding_units_fails_before_any_solve(n, z):
    # blobs seed 2: the smoothed electrode profile moves no boundary
    # diagonal by more than two rounding units at these z, where CG stopped
    # late (SolverError after 680 iterations at n=17, a nonpositive
    # <r, Mr> at n=256); z ten times smaller moves some by 18 or more and
    # solves
    g = make_grid(n)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=n, seed=2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elliptic, "_cg", None)  # a solve would raise TypeError
        message = re.escape(f"rounds away: contact impedance z = {z:g} ")
        with pytest.raises(DataError, match=message):
            solve_forward(sigma, smoothed_coefficients(ElectrodeSet(z=z), g, 5e-4), g)
    result = solve_forward(sigma, smoothed_coefficients(ElectrodeSet(z=z / 10), g, 5e-4), g)
    assert result.stats.relative_residual <= elliptic.SOLVE_TOL
    assert np.all(np.isfinite(result.a.values))


def test_quadratic_energy_minimized_by_solution():
    g = make_grid(15)
    el = ElectrodeSet()
    rc = smoothed_coefficients(el, g, epsilon=1e-2)
    system = assemble_robin(ScalarField.constant(g, 1.0), rc, g)
    x, _ = pcg_solve(system, tol=1e-12)
    e_min = _quadratic_energy(system, x)
    rng = np.random.default_rng(0)
    for _ in range(4):
        assert e_min <= _quadratic_energy(system, x + 0.1 * rng.normal(size=x.size))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1), log_z=st.floats(-5.0, 300.0))
def test_a_contact_impedance_that_rounds_away_fails_before_any_solve(n, seed, log_z):
    # an electrode node's diagonal, edge terms only, lies in [min sigma,
    # 2 max sigma]; adding w/z (w = h or h/2) leaves it as it is below half
    # an ulp of min sigma, where both the CEM and the Robin assembly reject
    # the matrix, which has the constants in its null space, before any
    # solve.  Above three ulps of 2 max sigma it grows the diagonal by more
    # than the two rounding units both ask for, the rounded sum lying within
    # one unit of the exact one, and both assemble
    g = make_grid(n)
    sigma = ScalarField(g, 0.5 + 1.5 * np.random.default_rng(seed).random(g.num_nodes))
    el = ElectrodeSet(z=10.0 ** log_z)
    lo, hi = float(sigma.values.min()), float(sigma.values.max())
    rounds_away = g.h / el.z < lo * 2.0**-54
    grows = 0.5 * g.h / el.z > 3.0 * 2.0 * hi * 2.0**-52
    for assemble in (lambda: assemble_cem(sigma, el, g),
                     lambda: assemble_robin(sigma, base_coefficients(el, g), g)):
        if rounds_away:
            with pytest.raises(DataError, match=r"rounds away: contact impedance z = .* "
                                                f"conductivities up to {hi:g}"):
                assemble()
        elif grows:
            assemble()
    if rounds_away:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(elliptic, "_cg", None)  # a solve would raise TypeError
            with pytest.raises(DataError, match="rounds away"):
                solve_cem_forward(sigma, el, g)
