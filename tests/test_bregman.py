"""Split Bregman comparator."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrecon.bregman import BregmanConfig, split_bregman_minimize
from cdrecon.boundary import ElectrodeSet, smoothed_coefficients
from cdrecon.elliptic import (
    SparseSystem,
    assemble_laplace_dirichlet,
    pcg_solve,
    sine_solve,
)
from cdrecon.errors import DataError
from cdrecon.fields import (
    BoundaryValues,
    ScalarField,
    boundary_trace,
    cell_average,
    make_grid,
    rel_l2_error,
)
from cdrecon.forward import solve_forward
from cdrecon.recon import sigma_from_potential


def test_zero_weight_returns_harmonic_extension():
    g = make_grid(33)
    f = ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x) * y)
    trace = boundary_trace(f)
    v, report = split_bregman_minimize(
        ScalarField.constant(g, 0.0), trace, BregmanConfig(), g
    )
    system = assemble_laplace_dirichlet(trace, g)
    x, _ = pcg_solve(system, tol=1e-10)
    assert np.abs(v.values - x).max() < 1e-9
    assert report.stop_reason == "tol" and report.converged


def test_affine_trace_with_constant_weight():
    # the affine function is TV-minimal among competitors with its trace
    g = make_grid(33)
    f = ScalarField.from_function(g, lambda x, y: 0.5 * x + 0.2 * y - 0.3)
    v, report = split_bregman_minimize(
        ScalarField.constant(g, 1.0), boundary_trace(f), BregmanConfig(), g
    )
    assert rel_l2_error(v, f) < 1e-5


def test_trace_constraint_exact():
    g = make_grid(17)
    rng = np.random.default_rng(0)
    a = ScalarField(g, rng.uniform(0.2, 1.0, g.num_nodes))
    f = ScalarField.from_function(g, lambda x, y: x * x - y)
    trace = boundary_trace(f)
    v, report = split_bregman_minimize(a, trace, BregmanConfig(max_iterations=30), g)
    assert np.array_equal(boundary_trace(v).values, trace.values)
    assert report.iterations == 30
    assert report.stop_reason == "cap" and not report.converged


def test_shrinkage_never_grows():
    # the cellwise shrinkage d = max(|w| - t, 0) w / |w| satisfies |d| <= |w|
    rng = np.random.default_rng(5)
    w = rng.normal(size=(40, 2))
    t = rng.uniform(0.0, 1.0, size=40)
    mag = np.hypot(w[:, 0], w[:, 1])
    scale = np.where(mag > 0, np.maximum(mag - t, 0.0) / np.where(mag > 0, mag, 1.0), 0.0)
    d = scale[:, None] * w
    assert np.all(np.hypot(d[:, 0], d[:, 1]) <= mag + 1e-15)


def test_tv_stable_over_tail():
    g = make_grid(33)
    el = ElectrodeSet()
    truth = ScalarField.constant(g, 1.0)
    fwd = solve_forward(truth, smoothed_coefficients(el, g, 5e-4), g)
    v, report = split_bregman_minimize(
        fwd.a, boundary_trace(fwd.u), BregmanConfig(), g
    )
    tvs = report.tv_values()
    tail = tvs[-max(2, len(tvs) // 10):]
    assert max(tail) - min(tail) <= 0.01 * abs(tvs[-1])


def test_homogeneous_pipeline():
    g = make_grid(65)
    el = ElectrodeSet()
    truth = ScalarField.constant(g, 1.0)
    fwd = solve_forward(truth, smoothed_coefficients(el, g, 5e-4), g)
    cfg = BregmanConfig()
    v, report = split_bregman_minimize(fwd.a, boundary_trace(fwd.u), cfg, g)
    sigma = sigma_from_potential(fwd.a, v, cfg.grad_floor)
    assert rel_l2_error(sigma, truth) <= 5e-2


def test_validation():
    g = make_grid(9)
    a = ScalarField.constant(g, 1.0)
    trace = boundary_trace(a)
    with pytest.raises(DataError):
        split_bregman_minimize(a, trace, BregmanConfig(rho=0.0), g)
    bad = np.zeros(g.num_nodes)
    bad[3] = -1.0
    with pytest.raises(DataError, match="nonnegative"):
        split_bregman_minimize(ScalarField(g, bad), trace, BregmanConfig(), g)
    # a non-finite trace is rejected on entry, before any solve
    for value in (np.nan, np.inf):
        values = trace.values.copy()
        values[5] = value
        with pytest.raises(DataError, match="Dirichlet trace contains non-finite"):
            split_bregman_minimize(a, BoundaryValues(g, values), BregmanConfig(), g)


def test_report_csv_shape(tmp_path):
    g = make_grid(17)
    rng = np.random.default_rng(1)
    a = ScalarField(g, rng.uniform(0.2, 1.0, g.num_nodes))
    f = ScalarField.from_function(g, lambda x, y: y)
    v, report = split_bregman_minimize(a, boundary_trace(f),
                                       BregmanConfig(max_iterations=12), g)
    p = tmp_path / "breg.csv"
    report.write_csv(p)
    with open(p) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "iteration"
    assert len(rows[0]) == 10  # same shape as the reconstruction report
    assert len(rows) - 1 == report.iterations


def _former_gradient(U, h):
    h2 = 2.0 * h
    gx = (U[:-1, 1:] - U[:-1, :-1] + U[1:, 1:] - U[1:, :-1]) / h2
    gy = (U[1:, :-1] - U[:-1, :-1] + U[1:, 1:] - U[:-1, 1:]) / h2
    return gx, gy


def _former_divergence(fx, fy, h):
    n = fx.shape[0] + 1
    dx = np.zeros((n, n))
    dx[:-1, :-1] += fx
    dx[1:, :-1] += fx
    dx[:-1, 1:] -= fx
    dx[1:, 1:] -= fx
    dy = np.zeros((n, n))
    dy[:-1, :-1] += fy
    dy[:-1, 1:] += fy
    dy[1:, :-1] -= fy
    dy[1:, 1:] -= fy
    return ((dx + dy) / (2.0 * h)).reshape(-1)


def _bregman_by_former_loop(a, trace, config, grid):
    """The split Bregman loop as it was written before it moved to plain
    arrays, with the operators' arithmetic of that time: two gradients per
    iteration and a boolean-mask source.  Returns (v, records, stop)."""
    base = assemble_laplace_dirichlet(trace, grid)
    h2 = grid.h * grid.h
    interior = np.ones((grid.n, grid.n), dtype=bool)
    interior[0, :] = interior[-1, :] = interior[:, 0] = interior[:, -1] = False
    interior = interior.reshape(-1)

    def solve_v(rhs_source):
        rhs = base.rhs.copy()
        if rhs_source is not None:
            rhs[interior] += h2 * rhs_source[interior]
        x, stats = sine_solve(SparseSystem(base.matrix, rhs), tol=config.inner_tol)
        return ScalarField(grid, x), stats

    v, stats = solve_v(None)
    if float(a.values.max()) == 0.0:
        return v, [(0, 0.0, 0.0, stats.iterations, stats.relative_residual)], "tol"
    thresh = cell_average(a) / config.rho
    m = grid.n - 1
    gx = np.zeros((m, m))
    gy = np.zeros((m, m))
    records, stop = [], "cap"
    for k in range(config.max_iterations):
        vx, vy = _former_gradient(v.values2d, grid.h)
        wx = vx + gx
        wy = vy + gy
        mag = np.hypot(wx, wy)
        shrink = np.maximum(mag - thresh, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(mag > 0.0, shrink / mag, 0.0)
        dx = scale * wx
        dy = scale * wy
        gx += vx - dx
        gy += vy - dy
        source = -_former_divergence(dx - gx, dy - gy, grid.h)
        v_new, stats = solve_v(source)
        denom = float(np.linalg.norm(v.values))
        change = (
            float(np.linalg.norm(v_new.values - v.values)) / denom
            if denom > 0.0 else float(np.linalg.norm(v_new.values))
        )
        mag_new = np.hypot(*_former_gradient(v_new.values2d, grid.h))
        tv = float(np.sum(cell_average(a) * mag_new) * grid.h**2)
        records.append((k, tv, change, stats.iterations, stats.relative_residual))
        v = v_new
        if change <= config.tol:
            stop = "tol"
            break
    return v, records, stop


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       trace_scale=st.sampled_from([0.0, 1.0, 30.0]),
       rho=st.floats(0.3, 3.0), max_iterations=st.integers(1, 30),
       tol=st.sampled_from([1e-2, 1e-6]))
def test_array_loop_matches_former_loop(n, seed, trace_scale, rho, max_iterations, tol):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    a2d = rng.uniform(0.0, 2.0, (n, n))
    # zero patches: a random block and a random scatter of nodes
    j0, i0 = rng.integers(0, n, 2)
    a2d[j0:j0 + rng.integers(1, n), i0:i0 + rng.integers(1, n)] = 0.0
    a2d[rng.random((n, n)) < 0.2] = 0.0
    a = ScalarField(g, a2d.reshape(-1))
    # a zero trace makes v and every cell gradient exactly zero
    trace = BoundaryValues(g, trace_scale * rng.normal(size=g.num_boundary_nodes))
    config = BregmanConfig(rho=rho, max_iterations=max_iterations, tol=tol)
    v, report = split_bregman_minimize(a, trace, config, g)
    v_old, records_old, stop_old = _bregman_by_former_loop(a, trace, config, g)
    assert v.values.tobytes() == v_old.values.tobytes()
    records = [(r.index, r.weighted_tv, r.v_change, r.solve_iterations,
                r.solve_residual) for r in report.records]
    assert np.array(records).tobytes() == np.array(records_old).tobytes()
    assert report.stop_reason == stop_old
    # the loop's reused buffers are per call: a second call's v is new memory
    v_again, _ = split_bregman_minimize(a, trace, config, g)
    assert not np.shares_memory(v.values, v_again.values)
    assert v_again.values.tobytes() == v.values.tobytes()
