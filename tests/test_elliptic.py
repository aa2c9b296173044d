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
    _TransformPreconditioner,
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
    # bit-for-bit symmetry, which CG and the preconditioner's row sums
    # assume
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
    # one preconditioned iteration cannot solve it; a zero cap per grid
    # side leaves the cap at its floor of one iteration
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
@given(n=st.integers(5, 70), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.3, 1.0), log_z=st.floats(-4.0, 0.5),
       epsilon=st.sampled_from([0.0, 1e-3, 0.5]), cem=st.booleans())
@example(n=65, seed=2, aperture=1.0, log_z=-0.7, epsilon=0.0, cem=True)  # M spreads the border
def test_transform_preconditioner_spd_and_pcg_matches_direct(n, seed, aperture, log_z,
                                                             epsilon, cem):
    # the preconditioner that pcg_solve builds for a forward system, the
    # CEM's extended to V, is symmetric and positive, and the solve it
    # preconditions matches a direct solve, on both sides of the dense
    # transform's cut at n = 64
    try:
        system = _forward_system(n, seed, aperture, 10.0**log_z, epsilon, cem)
    except DataError:
        assume(False)  # the aperture spans fewer than two nodes
    precondition = system.preconditioner
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(2, system.dimension))
    mx, my = precondition(x), precondition(y)
    assert abs(mx @ y - x @ my) <= 1e-12 * np.linalg.norm(mx) * np.linalg.norm(y)
    assert mx @ x > 0.0 and my @ y > 0.0
    sol, stats = pcg_solve(system, tol=1e-12)
    expected = spla.spsolve(csr_of(system).tocsc(), system.rhs)
    assert np.linalg.norm(sol - expected) <= 1e-8 * np.linalg.norm(expected)
    assert stats.method == "transform"


@pytest.mark.parametrize("n", [17, 64, 65])
def test_forward_solves_take_at_most_25_iterations(n):
    # criterion 6's phantom; the sharp and the smoothed Robin system and the
    # CEM system on it, at two apertures and three contact impedances, each
    # solved from a zero guess below, at and above the dense transform's cut
    g = make_grid(n)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=n, seed=7, lo=1.0, hi=1.8,
                                         margin=0.15, blob_width=(0.05, 0.10)))
    for z in (1.0, 1e-2, 1e-6):
        for aperture in (1.0, 0.5):
            el = ElectrodeSet(aperture=aperture, z=z)
            for system in (assemble_cem(sigma, el, g),
                           assemble_robin(sigma, base_coefficients(el, g), g),
                           assemble_robin(sigma, smoothed_coefficients(el, g, 5e-4), g)):
                x, stats = pcg_solve(system)
                assert stats.iterations <= 25, (z, aperture, system.dimension)


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


def test_a_guess_that_meets_tol_is_returned_with_no_hierarchy():
    # the guess's own bits after 0 iterations, and no preconditioner built
    # (a build would call None); a guess short of tol is polished by CG,
    # which builds the system's transform preconditioner once and keeps it
    g = make_grid(65)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=65, seed=2))
    el = ElectrodeSet(z=1e-3)
    x, _ = pcg_solve(assemble_cem(sigma, el, g), tol=1e-12)
    system = assemble_cem(sigma, el, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elliptic, "_TransformPreconditioner", None)
        y, stats = pcg_solve(system, x0=x)
    assert y.tobytes() == x.tobytes() and y is not x
    assert stats.iterations == 0 and stats.relative_residual <= elliptic.SOLVE_TOL
    with pytest.MonkeyPatch.context() as mp:
        builds = _record_calls(mp, elliptic, "_TransformPreconditioner")
        pcg_solve(system, x0=0.25 * x)
        y, stats = pcg_solve(system, x0=0.5 * x)
    assert len(builds) == 1 and stats.iterations > 0
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
    transform = _TransformPreconditioner(assemble_robin(ScalarField.constant(g, 1.0), coeffs, g))
    x, cold = pcg_solve(system, 1e-10, None, transform)
    again, stats = pcg_solve(system, 1e-10, x, None)
    assert (stats.iterations, stats.method) == (0, "transform")
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
    # the table and V column from which every product and the
    # preconditioner are built are the matrix byte for byte, with +0.0
    # wherever the matrix has no entry (a CSR matrix drops zeros, so a -0.0
    # or a value there shows), and the system's one operator is scipy's CSR
    # product with that matrix (for the Laplace system one without the
    # dropped couplings' zeros), bit for bit and signs of zeros included
    rng = np.random.default_rng(seed)
    try:
        system = _random_system(kind, n, rng)
    except DataError:
        assume(False)
    _assert_table_is_the_matrix(system, n)
    x = _with_signed_zeros(rng, system.dimension)
    assert (system.operator @ x).tobytes() == (csr_of(system) @ x).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 70), kind=st.sampled_from(_SYSTEM_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_grid_operator_and_transfers_match_csr_bincount_and_gather(n, kind, seed):
    # the system's one operator, at every size, equals scipy's CSR product
    # (for the Laplace system a CSR matrix without the dropped couplings'
    # zeros), bit for bit and signs of zeros included; and the transform
    # preconditioner's transfers between the boundary rows it corrects and
    # the transform, on both sides of the dense transform's cut, equal
    # their spelled-out forms to rounding: the lift of w is the transform
    # of np.bincount's grid of w, and the capacitance block U'M0^-1 U the
    # gather of M0^-1's columns on those rows
    rng = np.random.default_rng(seed)
    try:
        system = _random_system(kind, n, rng)
    except DataError:
        assume(False)
    x = _with_signed_zeros(rng, system.dimension)
    assert (system.operator @ x).tobytes() == (csr_of(system) @ x).tobytes()
    if kind == "laplace":
        return  # solved by sine_solve, with no transform preconditioner
    grid = system if system.block is None else system.block
    terms = grid.operator @ np.ones(n * n)  # the boundary terms, on the boundary rows
    pc = _TransformPreconditioner(grid, terms > 1e-8)  # every row with a term
    assert pc.rows.size
    w = rng.normal(size=pc.rows.size)
    expected = pc.dct(np.bincount(pc.rows, w, minlength=n * n).reshape(n, n))
    assert np.linalg.norm(pc._lifted(w) - expected) <= 1e-12 * np.linalg.norm(expected)
    columns = []
    for row in pc.rows:
        unit = np.zeros(n * n)
        unit[row] = 1.0
        columns.append(pc.idct(pc.inverse * pc.dct(unit.reshape(n, n))).reshape(-1)[pc.rows])
    expected = np.array(columns).T
    block = elliptic._boundary_inverse(pc.rows, pc.inverse, pc.phi)
    assert np.linalg.norm(block - expected) <= 1e-12 * np.linalg.norm(expected)


def test_the_finest_level_is_the_assemblys_table():
    # the operator's DIA data are the table each assembly built, not a copy
    # of it, and the CEM system holds its Robin block's table and the
    # Robin system itself, whose preconditioner it extends
    g = make_grid(20)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=20, seed=3))
    robin = assemble_robin(sigma, base_coefficients(ElectrodeSet(), g), g)
    cem = elliptic._bordered(robin, sigma, ElectrodeSet(), g)
    laplace = assemble_laplace_dirichlet(BoundaryValues(g, np.ones(g.num_boundary_nodes)), g)
    for system in (robin, cem, laplace):
        assert np.shares_memory(system.operator.stencil.data, system.table)
    assert cem.table is robin.table and cem.block is robin


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
    # product, preconditioner build or apply, with the system's own
    # preconditioner and with one passed by the caller alike
    g = make_grid(n)
    sigma = ScalarField(g, np.random.default_rng(seed).uniform(0.1, 10.0, g.num_nodes))
    system = assemble_robin(sigma, smoothed_coefficients(ElectrodeSet(), g, 1e-3), g)
    dim = system.dimension
    x0 = np.zeros(dim)
    x0[min(int(where * dim), dim - 1)] = bad
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_TransformPreconditioner", "_cg"):
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
       epsilon=st.sampled_from([0.0, 5e-4]), log_z=st.floats(-16.0, 0.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=65, contrast=2.0, aperture=1.0, epsilon=5e-4, log_z=0.0, seed=0)  # no row corrected
@example(n=65, contrast=2.0, aperture=0.5, epsilon=0.0, log_z=-5.0, seed=0)  # the electrodes'
@example(n=40, contrast=2.0, aperture=1.0, epsilon=5e-4, log_z=-5.0, seed=1)  # every row
@example(n=65, contrast=2.0, aperture=1.0, epsilon=5e-4, log_z=-16.0, seed=0)  # rows clamped
@example(n=64, contrast=2.0, aperture=0.5, epsilon=0.0, log_z=-16.0, seed=0)
def test_transform_preconditioner_is_spd_and_solves_the_sweep_systems(n, contrast, aperture,
                                                                       epsilon, log_z, seed):
    # built from the sweeps' first system (sigma = 1 + delta), the
    # preconditioner's capacitance matrix has a row for each boundary term
    # of at least a tenth of sigma_bar (none at n = 65 and z = 1: the plain
    # transform), those of at least 1e6 sigma_bar taken apart by their
    # diagonal; it is symmetric and positive to rounding, and it solves a
    # system of conductivity contrast up to 2 at SOLVE_TOL in a bounded
    # number of CG iterations at every z down to 1e-16
    try:
        g, coeffs = _sweep_coefficients(n, aperture, log_z, epsilon)
    except DataError:
        assume(False)  # the sharp aperture spans fewer than two nodes
    delta = ReconConfig().delta
    terms = _boundary_terms(g, coeffs)
    for threshold in (0.1 * (1.0 + delta), 1e6 * (1.0 + delta)):  # clear of the rules
        assume(not np.any(np.abs(terms - threshold) <= 1e-9 * threshold))
    threshold = 0.1 * (1.0 + delta)
    first = assemble_robin(ScalarField.constant(g, 1.0 + delta), coeffs, g)
    rng = np.random.default_rng(seed)
    sigma = ScalarField(g, contrast ** rng.uniform(0.0, 1.0, g.num_nodes) + delta)
    system = assemble_robin(sigma, coeffs, g)
    with pytest.MonkeyPatch.context() as mp:
        inversions = _record_calls(mp, np.linalg, "inv")
        precondition = _TransformPreconditioner(first)
    [(capacitance,)] = inversions
    assert capacitance.shape == (np.count_nonzero(terms >= threshold),) * 2
    x, y = rng.normal(size=(2, system.dimension))
    mx, my = precondition(x), precondition(y)
    # the Woodbury correction cancels most of M0^-1 on the corrected rows,
    # so the bound is looser than a few rounding units
    assert abs(mx @ y - x @ my) <= 1e-10 * np.linalg.norm(mx) * np.linalg.norm(y)
    assert mx @ x > 0.0 and my @ y > 0.0
    _, stats = pcg_solve(system, elliptic.SOLVE_TOL, None, precondition)
    assert stats.relative_residual <= elliptic.SOLVE_TOL
    assert stats.iterations <= 25


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 20), aperture=st.floats(0.3, 1.0), epsilon=st.sampled_from([0.0, 5e-4]),
       log_z=st.floats(-16.0, 0.0), seed=st.integers(0, 2**32 - 1))
@example(n=12, aperture=1.0, epsilon=5e-4, log_z=0.0, seed=0)  # no row corrected
@example(n=17, aperture=0.5, epsilon=0.0, log_z=-5.0, seed=0)  # every term corrected
@example(n=17, aperture=1.0, epsilon=5e-4, log_z=-16.0, seed=0)  # some rows clamped
def test_transform_preconditioner_inverts_its_model(n, aperture, epsilon, log_z, seed):
    # the preconditioner of a system on a random medium is the inverse of
    # M = sigma_bar L + beta + D, built here densely: L the Neumann
    # Laplacian T x I + I x T, T = tridiag(-1, 2, -1) with 1 at both ends,
    # sigma_bar the geometric mean of a quarter of the interior diagonal,
    # D the boundary terms of at least sigma_bar / 10 on their rows, beta
    # the others' sum over n^2, and the constant mode's eigenvalue raised to
    # a hundredth of sigma_bar's times L's least positive one,
    # 4 sin^2(pi/2n), where beta is below that.  A row whose term is at
    # least 1e6 sigma_bar is clamped: M is taken with D infinite there, its
    # inverse zero on that row and column, and the preconditioner returns
    # r / A's diagonal on it
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
    for threshold in (0.1 * sigma_bar, 1e6 * sigma_bar):  # clear of the rules
        assume(not np.any(np.abs(terms - threshold) <= 1e-9 * threshold))
    corrected = terms >= 0.1 * sigma_bar
    beta = terms[~corrected].sum() / N
    T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    T[0, 0] = T[-1, -1] = 1.0
    M = sigma_bar * (np.kron(T, np.eye(n)) + np.kron(np.eye(n), T)) + beta * np.eye(N)
    li, lj = boundary_loop(g)
    rows = (lj * n + li)[corrected]
    M[rows, rows] += terms[corrected]
    floor = 1e-2 * sigma_bar * 4.0 * math.sin(0.5 * math.pi / n) ** 2
    M += (max(beta, floor) - beta) / N  # on the constant mode alone
    clamped = np.zeros(N, dtype=bool)
    clamped[(lj * n + li)[terms >= 1e6 * sigma_bar]] = True
    free = ~clamped
    r = rng.normal(size=N)
    expected = r / system.table[2]
    expected[free] = np.linalg.solve(M[np.ix_(free, free)], r[free])
    got = _TransformPreconditioner(system)(r)
    assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)


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
    # and its solve returns the bytes of CG on that build, with its CSR
    # products, preconditioned as the system is from the build's own table
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
    table, voltage = _table_read_off(expected, n)
    built = SparseSystem(table, rhs, voltage, SparseSystem(table, np.zeros(N)))
    max_iter = elliptic._CG_CAP_PER_SIDE * int(round(math.sqrt(N + 1)))
    x_expected, iterations, residual = elliptic._cg(
        expected, rhs, built.preconditioner, elliptic.SOLVE_TOL, max_iter)
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
