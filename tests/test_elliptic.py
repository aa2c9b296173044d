"""System assembly (Robin, CEM, Laplace-Dirichlet) and the linear solvers."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdrecon.boundary import (
    ElectrodeSet,
    RobinCoefficients,
    base_coefficients,
    boundary_faces,
    electrode_quadrature,
    smoothed_coefficients,
)
from cdrecon.elliptic import (
    _FACTOR_COST,
    FactorCache,
    SparseSystem,
    _multigrid,
    assemble_cem,
    assemble_laplace_dirichlet,
    assemble_robin,
    boundary_net_flux,
    pcg_solve,
    quadratic_energy,
    sine_solve,
    solve_reusing_factor,
)
from cdrecon.errors import AssemblyError, DataError, NotSPDError, SolverError
from cdrecon.fields import (
    BoundaryValues,
    ScalarField,
    boundary_loop,
    boundary_trace,
    make_grid,
)
from cdrecon.phantom import PhantomSpec, generate_phantom


def _matrix_symmetry_defect(A) -> float:
    d = A - A.T
    return np.abs(d.data).max() if d.nnz else 0.0


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
    residual = system.matrix @ exact.values - system.rhs
    scale = abs(system.matrix) @ np.abs(exact.values) + np.abs(system.rhs)
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


def test_robin_matrix_symmetric_and_spd():
    g = make_grid(17)
    el = ElectrodeSet(aperture=0.7, z=1.3)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=17, seed=5))
    rc = smoothed_coefficients(el, g, epsilon=2e-3)
    system = assemble_robin(sigma, rc, g)
    A = system.matrix
    assert _matrix_symmetry_defect(A) <= 1e-14 * np.abs(A.data).max()
    assert _spd_probe(A) > 0.0


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
    assert np.abs(system.matrix @ exact - system.rhs).max() < 1e-14
    assert _matrix_symmetry_defect(system.matrix) == 0.0
    assert _spd_probe(system.matrix, seed=3) > 0.0


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
    idx, w = electrode_quadrature(el, g, "top")
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
    x, stats = pcg_solve(system, tol=1e-12, max_iter=4000)
    assert np.abs(x - f.values).max() < 1e-9


def test_laplace_dirichlet_second_order_on_quartic():
    errs = []
    for n in (17, 33, 65):
        g = make_grid(n)
        f = ScalarField.from_function(g, lambda x, y: x**4 - 6 * x**2 * y**2 + y**4)
        system = assemble_laplace_dirichlet(boundary_trace(f), g)
        x, stats = pcg_solve(system, tol=1e-12, max_iter=6000)
        errs.append(np.abs(x - f.values).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_pcg_identity_one_iteration():
    A = sp.identity(20, format="csr")
    b = np.arange(20, dtype=float) + 1
    x, stats = pcg_solve(SparseSystem(A, b))
    assert stats.iterations == 1
    assert np.allclose(x, b)


def test_pcg_matches_dense_oracle():
    # 1-D Poisson tridiagonal, rhs = first basis vector
    n = 10
    A = sp.diags([[-1.0] * (n - 1), [2.0] * n, [-1.0] * (n - 1)], [-1, 0, 1]).tocsr()
    b = np.zeros(n)
    b[0] = 1.0
    x, stats = pcg_solve(SparseSystem(A, b), tol=1e-12)
    expected = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - expected).max() < 1e-10
    assert stats.relative_residual <= 1e-12


def test_pcg_cap_raises():
    # above the coarsest multigrid size, so one iteration cannot solve it
    g = make_grid(33)
    system = assemble_robin(ScalarField.constant(g, 1.0),
                            base_coefficients(ElectrodeSet(), g), g)
    with pytest.raises(SolverError, match="after 1 iterations"):
        pcg_solve(system, tol=1e-12, max_iter=1)


def test_pcg_detects_indefinite():
    # positive diagonal, so the preconditioner (here the dense inverse of
    # the whole small matrix) exists, but the matrix has eigenvalue -1 and b
    # is its eigenvector: <p, Ap> < 0 at once
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    b = np.array([1.0, -1.0])
    with pytest.raises(NotSPDError, match="nonpositive curvature"):
        pcg_solve(SparseSystem(A, b))


def test_pcg_robin_system_converges():
    g = make_grid(33)
    el = ElectrodeSet()
    rc = smoothed_coefficients(el, g, epsilon=5e-4)
    system = assemble_robin(ScalarField.constant(g, 1.0), rc, g)
    x, stats = pcg_solve(system, tol=1e-10, max_iter=20 * g.n)
    assert stats.relative_residual <= 1e-10


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
    assume(system.rhs.any())  # a sharp aperture between nodes injects nothing
    precondition = _multigrid(system.matrix)
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(2, system.dimension))
    mx, my = precondition(x), precondition(y)
    assert abs(mx @ y - x @ my) <= 1e-12 * np.linalg.norm(mx) * np.linalg.norm(y)
    assert mx @ x > 0.0 and my @ y > 0.0
    sol, stats = pcg_solve(system, tol=1e-12)
    expected = spla.spsolve(system.matrix.tocsc(), system.rhs)
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
    system = SparseSystem(base.matrix, rhs)
    x, stats = sine_solve(system, tol=1e-12)
    expected = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    li, lj = boundary_loop(g)
    assert np.array_equal(x[lj * n + li], trace.values)
    assert stats.method == "sine" and stats.relative_residual <= 1e-12


def test_sine_solve_rejects_nan_rhs():
    # a NaN norm of the rhs must reach the residual check, not the zero-rhs
    # shortcut, whether the NaN sits in a Dirichlet row or an interior one
    g = make_grid(9)
    base = assemble_laplace_dirichlet(BoundaryValues(g, np.ones(g.num_boundary_nodes)), g)
    for node in (0, 4 * 9 + 4):
        rhs = base.rhs.copy()
        rhs[node] = np.nan
        with pytest.raises(SolverError, match="relative residual nan"):
            sine_solve(SparseSystem(base.matrix, rhs))


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


def _assert_same_system(system, expected, rhs):
    A = system.matrix
    assert np.array_equal(A.indptr, expected.indptr)
    assert np.array_equal(A.indices, expected.indices)
    assert np.array_equal(A.data, expected.data)
    assert np.array_equal(system.rhs, rhs)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.3, 1.0), epsilon=st.sampled_from([0.0, 1e-3, 0.5]))
def test_robin_pattern_refill_matches_coo_build(n, seed, aperture, epsilon):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    el = ElectrodeSet(aperture=aperture, z=float(rng.uniform(0.5, 2.0)))
    coeffs = (base_coefficients(el, g) if epsilon == 0.0
              else smoothed_coefficients(el, g, epsilon))
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
    _assert_same_system(system, expected, rhs)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.3, 1.0), top_positive=st.booleans())
def test_cem_matches_coo_build(n, seed, aperture, top_positive):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    el = ElectrodeSet(aperture=aperture, z=float(rng.uniform(0.5, 2.0)),
                      current=float(rng.uniform(0.5, 2.0)), top_positive=top_positive)
    try:
        sides = [(side, *electrode_quadrature(el, g, side)) for side in ("top", "bottom")]
    except DataError:
        assume(False)  # the aperture spans fewer than two nodes
    sigma = ScalarField(g, rng.uniform(0.1, 10.0, g.num_nodes))
    system = assemble_cem(sigma, el, g)

    N = n * n
    li, lj = boundary_loop(g)
    rows, cols, vals = _edge_entries(sigma.values2d, n)
    for side, idx, w in sides:
        sgn = 1.0 if (side == "top") == top_positive else -1.0
        k = (lj * n + li)[idx]
        v = np.full(k.size, N)
        rows += [k, k, v, v]
        cols += [k, v, k, v]
        vals += [w / el.z, -sgn * w / el.z, -sgn * w / el.z, w / el.z]
    expected = _coo_to_csr(rows, cols, vals, N + 1)
    rhs = np.zeros(N + 1)
    rhs[N] = 2.0 * el.current
    A = system.matrix
    assert np.array_equal(A.indptr, expected.indptr)
    assert np.array_equal(A.indices, expected.indices)
    assert np.array_equal(system.rhs, rhs)
    # the voltage corner sums every electrode weight, and the COO build adds
    # them in an order of its own, so only that entry may differ in the last bit
    assert np.abs(A.data - expected.data).max() <= 4e-16 * np.abs(expected.data).max()
    assert np.array_equal(A.data[:-1], expected.data[:-1])


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
    _assert_same_system(system, expected, rhs)


def test_factor_reuse_refactors_on_jump():
    # slowly varying conductivities reuse the first factor; a large jump
    # makes the stale factor a poor preconditioner and forces a refactor
    g = make_grid(33)
    el = ElectrodeSet(aperture=0.8)
    coeffs = smoothed_coefficients(el, g, 5e-4)
    base = generate_phantom(PhantomSpec(kind="blobs", n=33, seed=4))
    rng = np.random.default_rng(0)
    jump = ScalarField(g, rng.uniform(0.05, 20.0, g.num_nodes))
    sigmas = [ScalarField(g, base.values * (1.0 + 0.02 * k)) for k in range(4)]
    sigmas += [jump, ScalarField(g, jump.values * 1.01)]
    cache = FactorCache()
    counts = []
    tol = 1e-10
    for sigma in sigmas:
        system = assemble_robin(sigma, coeffs, g)
        x, stats = solve_reusing_factor(system, cache, tol=tol)
        true_res = np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)
        assert true_res <= tol
        assert stats.relative_residual == pytest.approx(true_res, rel=1e-6)
        counts.append(cache.factorizations)
    assert counts == [1, 1, 1, 1, 2, 2]
    assert stats.iterations <= 1 + _FACTOR_COST


def _drifting_solves(eta, count):
    """Solve the Robin systems of sigma_k = sigma_0 exp(eta k (x - y)),
    k < count, through one FactorCache; log per solve the iterations, the
    factorizations so far and the cache's waste before and after."""
    g = make_grid(33)
    coeffs = smoothed_coefficients(ElectrodeSet(aperture=0.8), g, 5e-4)
    base = generate_phantom(PhantomSpec(kind="blobs", n=33, seed=4))
    x, y = g.node_coords()
    tilt = (x - y).reshape(-1)
    cache = FactorCache()
    log = []
    for k in range(count):
        sigma = ScalarField(g, base.values * np.exp(eta * k * tilt))
        system = assemble_robin(sigma, coeffs, g)
        before = cache.wasted
        sol, stats = solve_reusing_factor(system, cache, tol=1e-10)
        residual = np.linalg.norm(system.rhs - system.matrix @ sol)
        assert residual <= 1e-10 * np.linalg.norm(system.rhs)
        log.append((stats.iterations, cache.factorizations, before, cache.wasted))
    return log


def test_drifting_sequence_refactors_when_waste_passes_budget():
    # a slow drift costs the first factor a few more CG iterations per solve;
    # each iteration past the first is charged to the factor, and only the
    # solve that would overrun what is left of the budget refactors, after
    # spending all of it (the fresh factor then needs w_after + 1 iterations)
    log = _drifting_solves(0.05, 12)
    assert log[0][:2] == (1, 1)
    factorizations = 1
    refactored_at = []
    for k, (iterations, count, before, after) in enumerate(log[1:], start=1):
        if count == factorizations:
            assert after == before + max(iterations - 1, 0) <= _FACTOR_COST
        else:
            assert count == factorizations + 1
            stale = iterations - (after + 1)
            assert stale - 1 == _FACTOR_COST - before
            refactored_at.append(k)
        factorizations = count
    assert refactored_at, "the drift never exhausted a factor"
    # the first factor served several solves, so no single one of them
    # exhausted it: the budget spans the solves of a factor's lifetime
    first = refactored_at[0]
    assert first >= 3
    assert max(it for it, *_ in log[1:first]) - 1 < _FACTOR_COST


def test_no_factor_wastes_more_than_its_budget():
    # a fast drift exhausts factor after factor; split each solve's
    # iterations between the factors that ran them and add up the waste
    log = _drifting_solves(0.3, 20)
    waste = [0]  # per factor, the first one built by the first solve
    for iterations, count, before, after in log:
        assert 0 <= after <= _FACTOR_COST
        if count == len(waste):
            waste[-1] += max(iterations - 1, 0)
        else:
            fresh = after + 1
            waste[-1] += iterations - fresh - 1
            waste.append(fresh - 1)
    assert len(waste) == log[-1][1] >= 4
    assert max(waste) <= _FACTOR_COST
    # independently of the split: all the iterations past one per solve,
    # less one per refactoring solve, fit in the budgets of the factors made
    total = sum(max(it - 1, 0) for it, *_ in log)
    assert total - (len(waste) - 1) <= len(waste) * _FACTOR_COST


def test_factor_reuse_warm_start():
    # a guess that already meets the tolerance returns after 0 iterations,
    # its true residual still measured and checked; a nearby guess takes
    # fewer iterations than the zero guess and is not modified
    g = make_grid(33)
    coeffs = smoothed_coefficients(ElectrodeSet(aperture=0.8), g, 5e-4)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=33, seed=4))
    system = assemble_robin(sigma, coeffs, g)
    cache = FactorCache()
    x, cold = solve_reusing_factor(system, cache, tol=1e-10)
    nb = np.linalg.norm(system.rhs)
    again, stats = solve_reusing_factor(system, cache, tol=1e-10, x0=x)
    assert stats.iterations == 0
    assert again.tobytes() == x.tobytes() and again is not x
    true_res = np.linalg.norm(system.rhs - system.matrix @ x) / nb
    assert stats.relative_residual == pytest.approx(true_res, rel=1e-12)
    assert stats.relative_residual <= 1e-10
    moved = assemble_robin(ScalarField(g, sigma.values * 1.01 + 0.01), coeffs, g)
    guess = x.copy()
    y, warm = solve_reusing_factor(moved, cache, tol=1e-10, x0=guess)
    assert guess.tobytes() == x.tobytes()
    assert np.linalg.norm(moved.rhs - moved.matrix @ y) <= 1e-10 * np.linalg.norm(moved.rhs)
    _, zero = solve_reusing_factor(moved, cache, tol=1e-10)
    assert warm.iterations < zero.iterations


def test_conservation_of_current():
    # total boundary flux sum (c - b u) ds vanishes for the discrete solution
    g = make_grid(25)
    el = ElectrodeSet(aperture=0.8, z=1.1, current=2.0)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=25, seed=9))
    for coeffs in (base_coefficients(el, g), smoothed_coefficients(el, g, 1e-3)):
        system = assemble_robin(sigma, coeffs, g)
        tol = 1e-11
        x, stats = pcg_solve(system, tol=tol, max_iter=4000)
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
    coeffs = base_coefficients(el, g) if epsilon is None else smoothed_coefficients(el, g, epsilon)
    sigma = ScalarField(g, np.random.default_rng(seed).uniform(0.1, 10.0, g.num_nodes))
    system = assemble_robin(sigma, coeffs, g)
    tol = 1e-10
    x, _ = pcg_solve(system, tol=tol)
    net = boundary_net_flux(coeffs, ScalarField(g, x))
    r = system.rhs - system.matrix @ x
    roundoff = 1e-12 * np.abs(system.rhs).sum()
    assert abs(net - r.sum()) <= roundoff
    assert abs(net) <= np.sqrt(g.num_nodes) * tol * np.linalg.norm(system.rhs) + roundoff


def test_quadratic_energy_minimized_by_solution():
    g = make_grid(15)
    el = ElectrodeSet()
    rc = smoothed_coefficients(el, g, epsilon=1e-2)
    system = assemble_robin(ScalarField.constant(g, 1.0), rc, g)
    x, _ = pcg_solve(system, tol=1e-12)
    e_min = quadratic_energy(system, x)
    rng = np.random.default_rng(0)
    for _ in range(4):
        assert e_min <= quadratic_energy(system, x + 0.1 * rng.normal(size=x.size))
