"""Forward simulation: Robin/CEM solves, interior data, scaling, noise,
and the non-uniqueness transform."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdrecon.boundary import (
    ElectrodeSet,
    base_coefficients,
    electrode_quadrature,
    smoothed_coefficients,
)
from cdrecon import elliptic
from cdrecon.elliptic import SOLVE_TOL, assemble_cem, assemble_robin
from cdrecon.errors import DataError
from cdrecon.family import nonuniqueness_transform
from cdrecon.fields import ScalarField, boundary_trace, make_grid, rel_l2_error
from cdrecon.forward import (
    add_noise,
    cem_scaling,
    interior_data,
    robin_data,
    solve_cem_forward,
    solve_forward,
)
from cdrecon.phantom import PhantomSpec, generate_phantom
from csr_reference import csr_of


@pytest.fixture(scope="module")
def homog33():
    g = make_grid(33)
    el = ElectrodeSet()
    sigma = ScalarField.constant(g, 1.0)
    result = solve_forward(sigma, base_coefficients(el, g), g)
    return g, el, sigma, result


def test_forward_homogeneous_sharp():
    # the error in a is about 0.4 times the final relative residual, so the
    # 1e-11 bounds need a solve tolerance well below them
    g = make_grid(33)
    sigma = ScalarField.constant(g, 1.0)
    r = solve_forward(sigma, base_coefficients(ElectrodeSet(), g), g, tol=1e-12)
    exact = ScalarField.from_function(g, lambda x, y: (2 / 3) * y - 1 / 3)
    assert np.abs(r.u.values - exact.values).max() < 1e-11
    assert np.abs(r.a.values - 2 / 3).max() < 1e-11


def test_forward_smoothed_data_approaches_sharp(homog33):
    # the smoothed data converges to the sharp data as the whole smoothing
    # (floor AND transition width) is removed; at a fixed width the bands
    # keep the coefficients apart no matter how small the floor gets
    g, el, sigma, r0 = homog33
    h = g.h
    dists = []
    for eps, w in ((1e-2, 12 * h), (1e-3, 6 * h), (5e-4, 3 * h)):
        r = solve_forward(sigma, smoothed_coefficients(el, g, eps, w), g)
        dists.append(rel_l2_error(r.a, r0.a))
    assert dists[0] > dists[1] > dists[2]


def test_forward_no_naive_scaling(homog33):
    g, el, sigma, r1 = homog33
    coeffs = base_coefficients(el, g)
    r2 = solve_forward(ScalarField.constant(g, 2.0), coeffs, g)
    # the Robin b-term breaks pure 1/sigma scaling of the potential
    assert rel_l2_error(r2.u, ScalarField(g, 0.5 * r1.u.values)) > 1e-2
    # but the data responds continuously to a small conductivity change
    r3 = solve_forward(ScalarField.constant(g, 1.01), coeffs, g)
    assert rel_l2_error(r3.a, r1.a) < 0.05


def test_cem_forward_homogeneous():
    g = make_grid(33)
    el = ElectrodeSet()
    r = solve_cem_forward(ScalarField.constant(g, 1.0), el, g)
    assert r.cem_voltage == pytest.approx(1.5, abs=1e-9)
    assert np.abs(r.a.values - 1.0).max() < 1e-9
    exact = ScalarField.from_function(g, lambda x, y: y - 0.5)
    assert np.abs(r.u.values - exact.values).max() < 1e-10


def test_cem_current_linearity():
    g = make_grid(17)
    s = ScalarField.constant(g, 1.0)
    r1 = solve_cem_forward(s, ElectrodeSet(current=1.0), g)
    r2 = solve_cem_forward(s, ElectrodeSet(current=2.0), g)
    assert np.abs(r2.u.values - 2 * r1.u.values).max() < 1e-9
    assert r2.cem_voltage == pytest.approx(2 * r1.cem_voltage, abs=1e-9)


def test_interior_data_cases():
    g = make_grid(21)
    const = ScalarField.constant(g, 4.0)
    assert np.all(interior_data(const, ScalarField.constant(g, 1.0)).values == 0.0)

    u = ScalarField.from_function(g, lambda x, y: y)
    assert np.allclose(interior_data(ScalarField.constant(g, 2.0), u).values, 2.0, atol=1e-13)

    sigma = ScalarField.from_function(g, lambda x, y: 1 + x)
    a = interior_data(sigma, u).values2d
    x, _ = g.node_coords()
    assert np.allclose(a[1:-1, 1:-1], (1 + x)[1:-1, 1:-1], atol=1e-12)


def test_cem_scaling_value_and_consistency(homog33):
    g, el, sigma, r = homog33
    lam = cem_scaling(r, el, g)
    assert lam == pytest.approx(1.5, abs=1e-10)
    rc = solve_cem_forward(sigma, el, g)
    # lambda * u0 = v and V = lambda * z * I, both to solver tolerance
    assert rel_l2_error(ScalarField(g, lam * r.u.values), rc.u) < 1e-9
    assert rc.cem_voltage == pytest.approx(lam * el.z * el.current, abs=1e-9)


def _scaling_inverses(g, el, sigma):
    r = solve_forward(sigma, base_coefficients(el, g), g, tol=1e-12)
    tr = boundary_trace(r.u).values
    (pos, w_pos), (neg, w_neg) = electrode_quadrature(el, g)
    length = w_pos.sum()
    inv_plus = length - (w_pos @ tr[pos]) / (el.z * el.current)
    inv_minus = length + (w_neg @ tr[neg]) / (el.z * el.current)
    return r, inv_plus, inv_minus


@pytest.mark.parametrize("aperture", [1.0, 0.6])
def test_cem_scaling_both_formulas_agree(aperture):
    # the electrode quadrature is the assembly's face quadrature at every
    # aperture, so the two expressions agree to solver tolerance for any
    # conductivity
    g = make_grid(33)
    el = ElectrodeSet(z=1.4, current=0.7, aperture=aperture)
    bumps = ScalarField.from_function(
        g, lambda x, y: 1 + 0.4 * np.exp(-((x - 0.4) ** 2 + (y - 0.6) ** 2) / 0.02)
    )
    r, inv_plus, inv_minus = _scaling_inverses(g, el, bumps)
    assert inv_plus == pytest.approx(inv_minus, abs=1e-9)
    assert cem_scaling(r, el, g) == pytest.approx(2.0 / (inv_plus + inv_minus), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 64), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.0, 1.0, exclude_min=True), z=st.floats(0.1, 10.0),
       current=st.floats(0.1, 10.0), top_positive=st.booleans())
@example(n=17, aperture=0.5, z=1.0, current=1.0, top_positive=True, seed=0)
@example(n=9, aperture=0.8, z=1.4, current=0.7, top_positive=False, seed=1)  # corners join
def test_cem_is_lambda_times_sharp_robin_at_every_aperture(n, seed, aperture, z, current,
                                                          top_positive):
    # the CEM grid block is the sharp Robin matrix, so v = lambda u0 and
    # V = lambda z I to solver tolerance, also where the electrode ends
    # between nodes
    g = make_grid(n)
    el = ElectrodeSet(aperture=aperture, z=z, current=current, top_positive=top_positive)
    try:
        coeffs = base_coefficients(el, g)
    except DataError:
        assume(False)  # the aperture spans fewer than two nodes
    sigma = ScalarField(g, np.random.default_rng(seed).uniform(0.1, 10.0, g.num_nodes))
    block = assemble_cem(sigma, el, g).table
    assert block.tobytes() == assemble_robin(sigma, coeffs, g).table.tobytes()
    sharp = solve_forward(sigma, coeffs, g, tol=1e-12)
    cem = solve_cem_forward(sigma, el, g, tol=1e-12)
    lam = cem_scaling(sharp, el, g)
    assert rel_l2_error(ScalarField(g, lam * sharp.u.values), cem.u) <= 1e-9
    assert cem.cem_voltage == pytest.approx(lam * z * current, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 48), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.0, 1.0, exclude_min=True), z=st.floats(0.1, 10.0),
       current=st.floats(0.1, 10.0), top_positive=st.booleans())
def test_cem_data_over_lambda_are_the_sharp_robin_data(n, seed, aperture, z, current,
                                                       top_positive):
    # reconstruct --cem-voltage V divides the CEM data by lambda = V/(zI):
    # what it reconstructs from are the sharp Robin data
    g = make_grid(n)
    el = ElectrodeSet(aperture=aperture, z=z, current=current, top_positive=top_positive)
    try:
        coeffs = base_coefficients(el, g)
    except DataError:
        assume(False)  # the aperture spans fewer than two nodes
    sigma = ScalarField(g, np.random.default_rng(seed).uniform(0.1, 10.0, g.num_nodes))
    sharp = solve_forward(sigma, coeffs, g, tol=1e-12)
    cem = solve_cem_forward(sigma, el, g, tol=1e-12)
    a, lam = robin_data(cem.a, cem.cem_voltage, el)
    assert lam == cem.cem_voltage / (z * current)
    assert rel_l2_error(a, sharp.a) <= 1e-9
    for voltage in (0.0, -cem.cem_voltage, math.inf, math.nan):
        with pytest.raises(DataError, match="not positive and finite"):
            robin_data(cem.a, voltage, el)


def test_cem_is_cem_scaling_times_the_sharp_robin_output_bit_for_bit():
    # at z = 1 the guess lambda (u0, zI) meets the tolerance on the bordered
    # system: one transform preconditioner (the Robin one) is built, and the
    # CEM potential is lambda u0 of forward --epsilon 0's solve, bit for bit
    g = make_grid(65)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=65, seed=7))
    el = ElectrodeSet()
    builds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elliptic, "_TransformPreconditioner",
                   lambda system, *args, build=elliptic._TransformPreconditioner:
                   builds.append(system.dimension) or build(system, *args))
        cem = solve_cem_forward(sigma, el, g)
    assert builds == [g.num_nodes]
    sharp = solve_forward(sigma, base_coefficients(el, g), g)
    lam = cem_scaling(sharp, el, g)
    assert cem.u.values.tobytes() == (lam * sharp.u.values).tobytes()
    assert cem.cem_voltage == lam * (el.z * el.current)
    assert cem.stats.iterations == sharp.stats.iterations


@pytest.mark.parametrize("n", [17, 64])
@pytest.mark.parametrize("z", [1e-2, 1e-4, 1e-6, 1e-7])
def test_cem_from_the_robin_guess_matches_a_direct_solve_at_small_z(n, z):
    # where the guess lambda (u0, zI) falls short of the tolerance, CG
    # polishes it on the bordered system to the same residual check, with
    # the Robin solve's transform preconditioner extended to V: one build
    # of the capacitance matrix for both solves
    g = make_grid(n)
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=n, seed=2))
    el = ElectrodeSet(z=z)
    with pytest.MonkeyPatch.context() as mp:
        inversions = []
        inv = np.linalg.inv
        mp.setattr(np.linalg, "inv", lambda a: inversions.append(a.shape) or inv(a))
        result = solve_cem_forward(sigma, el, g)
    assert len(inversions) == 1 and inversions[0][0] > 0
    system = assemble_cem(sigma, el, g)
    x = np.append(result.u.values, result.cem_voltage)
    A = csr_of(system)
    expected = spla.spsolve(A.tocsc(), system.rhs)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)
    assert np.linalg.norm(system.rhs - A @ x) <= (
        SOLVE_TOL * np.linalg.norm(system.rhs))
    assert result.stats.relative_residual <= SOLVE_TOL


def test_add_noise_contract():
    g = make_grid(17)
    rng = np.random.default_rng(0)
    a = ScalarField(g, rng.uniform(0.5, 2.0, g.num_nodes))
    same = add_noise(a, 0.0, 123)
    assert np.array_equal(same.values, a.values)
    noisy = add_noise(a, 1e-5, 123)
    assert np.abs(noisy.values - a.values).max() <= 1e-5 * np.abs(a.values).max()
    again = add_noise(a, 1e-5, 123)
    assert np.array_equal(noisy.values, again.values)
    other = add_noise(a, 1e-5, 124)
    assert not np.array_equal(noisy.values, other.values)
    # NaN fails every comparison, so the check must be written to reject it
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(DataError, match="noise level"):
            add_noise(a, bad, 0)
    # numpy's generator takes only nonnegative integer seeds
    for bad in (-1, 1.5, "3", None):
        with pytest.raises(DataError, match="seed"):
            add_noise(a, 1e-5, bad)
    assert np.array_equal(add_noise(a, 1e-5, np.int64(123)).values, noisy.values)


def test_add_noise_clamps_at_zero():
    g = make_grid(5)
    a = ScalarField.constant(g, 1e-12)
    noisy = add_noise(a, 1.0, 3)
    assert np.all(noisy.values >= 0.0)


def test_nonuniqueness_identity_at_zero(homog33):
    g, el, sigma, r = homog33
    s_phi, u_phi = nonuniqueness_transform(r.u, sigma, 0.0)
    assert np.array_equal(s_phi.values, sigma.values)
    assert np.array_equal(u_phi.values, r.u.values)


def test_nonuniqueness_data_invariance(homog33):
    g, el, sigma, r = homog33
    a0 = interior_data(sigma, r.u)
    for s in (0.05, 0.1, 0.2):
        s_phi, u_phi = nonuniqueness_transform(r.u, sigma, s)
        a_phi = interior_data(s_phi, u_phi)
        assert rel_l2_error(a_phi, a0) <= 5 * g.h
        assert rel_l2_error(s_phi, sigma) >= 1e-2


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1),
       aperture=st.floats(0.2, 1.0), z=st.floats(0.2, 5.0), epsilon=st.floats(1e-3, 0.3),
       contrast=st.floats(0.0, 1.5), strength=st.floats(-0.9, 0.9),
       width=st.floats(0.05, 0.3), position=st.floats(0.01, 0.99))
# a strength so small that the roundoff of the two data fields (2.2e-17)
# exceeds the Taylor bound 4 |s| h / width (1.4e-18)
@example(n=14, seed=0, aperture=1.0, z=1.0, epsilon=0.25, contrast=1.0,
         strength=4.6055996038975324e-18, width=0.25, position=0.5)
def test_nonuniqueness_data_invariance_random(n, seed, aperture, z, epsilon, contrast,
                                              strength, width, position):
    # |(sigma / phi'(u)) grad phi(u)| = |sigma grad u| holds exactly in the
    # continuum for every increasing phi; on the grid each cell's difference
    # quotient of phi(u) misses phi'(u) grad u by a Taylor remainder of
    # order |s| |psi''| h |grad u|, with |psi''| ~ 1 / halfwidth (measured at
    # most 1.7 |s| h span / halfwidth in 2000 random cases; bound 4), plus
    # the roundoff of the two data fields (at most 0.91 eps in 200 random
    # cases with |s| <= 1e-16; allowance 16 eps)
    g = make_grid(n)
    x, y = g.node_coords()
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, (4, 4))
    modes = sum(c[k, m] * np.cos(k * np.pi * x) * np.cos(m * np.pi * y)
                for k in range(4) for m in range(4))
    sigma = ScalarField(g, np.exp(0.25 * contrast * modes).reshape(-1))
    el = ElectrodeSet(aperture=aperture, z=z)
    u0 = solve_forward(sigma, smoothed_coefficients(el, g, epsilon), g, tol=1e-12).u
    lo, hi = float(u0.values.min()), float(u0.values.max())
    halfwidth = width * (hi - lo)
    center = lo + halfwidth + position * (hi - lo - 2.0 * halfwidth)
    s_phi, u_phi = nonuniqueness_transform(u0, sigma, strength, center, halfwidth)
    # phi is increasing: it keeps the order of the potential values, up to
    # roundoff between values that are equal by symmetry
    order = np.argsort(u0.values, kind="stable")
    assert np.all(np.diff(u_phi.values[order]) >= -1e-12 * (hi - lo))
    a0 = interior_data(sigma, u0)
    a_phi = interior_data(s_phi, u_phi)
    assert rel_l2_error(a_phi, a0) <= (
        4.0 * abs(strength) * g.h / width + 16 * np.finfo(float).eps)


def test_nonuniqueness_rejects_non_increasing(homog33):
    g, el, sigma, r = homog33
    with pytest.raises(DataError, match="not increasing"):
        nonuniqueness_transform(r.u, sigma, 1.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="strength must be finite"):
            nonuniqueness_transform(r.u, sigma, bad)
    with pytest.raises(DataError):
        nonuniqueness_transform(ScalarField.constant(g, 1.0), sigma, 0.1)
