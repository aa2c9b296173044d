"""Split Bregman comparator."""

import csv

import numpy as np
import pytest

from cdrecon.bregman import BregmanConfig, split_bregman_minimize
from cdrecon.boundary import ElectrodeSet, smoothed_coefficients
from cdrecon.elliptic import assemble_laplace_dirichlet, pcg_solve
from cdrecon.errors import DataError
from cdrecon.fields import (
    ScalarField,
    boundary_trace,
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
