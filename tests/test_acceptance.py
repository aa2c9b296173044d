"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured quantities (run with -s to see them).

Criteria:
  1. analytic Robin forward check (affine-exact, n=65, 1e-8, under 1 s)
  2. CEM-Robin scaling equivalence (lambda = 3/2 within 1e-6)
  3. second-order convergence of the Laplace-Dirichlet solver
  4. non-uniqueness of the interior data under reparametrization (n=128)
  5. exact recovery of the homogeneous conductivity from clean data (n=128)
  6. blob-phantom reconstruction at full and half aperture (n=128)
  7. split Bregman comparator within 5x of the primary error
  8. regularization-schedule convergence of the functional values
  9. invariant sweep (adjointness, conservation, antisymmetry, symmetry/SPD
     probes, file round-trip, determinism) in under 2 minutes

Beside them, not numbered: the blob phantom reconstructed from data made on
the nested 2n-1 grid (n = 64 and 128), where the inverse crime of criterion
6, data from the inversion's own discretization, is not committed.
"""

import time

import numpy as np
import pytest

import cdrecon as cd
from cdrecon.boundary import electrode_quadrature
from cdrecon.elliptic import boundary_net_flux
from cdrecon.fields import (
    ScalarField,
    VectorField,
    boundary_trace,
    divergence,
    gradient,
    make_grid,
)
from csr_reference import csr_of


def _report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def homogeneous_128():
    grid = make_grid(128)
    el = cd.ElectrodeSet()
    truth = ScalarField.constant(grid, 1.0)
    coeffs = cd.smoothed_coefficients(el, grid, 5e-4)
    fwd = cd.solve_forward(truth, coeffs, grid)
    return grid, el, truth, coeffs, fwd


@pytest.fixture(scope="module")
def blob_128():
    grid = make_grid(128)
    truth = cd.generate_phantom(cd.PhantomSpec(
        kind="blobs", n=128, seed=7, lo=1.0, hi=1.8,
        margin=0.15, blob_width=(0.05, 0.10),
    ))
    runs = {}
    for label, aperture in (("full", 1.0), ("half", 0.5)):
        el = cd.ElectrodeSet(aperture=aperture)
        coeffs = cd.smoothed_coefficients(el, grid, 5e-4)
        fwd = cd.solve_forward(truth, coeffs, grid)
        a = cd.add_noise(fwd.a, 1e-5, 1)
        sigma, u, report = cd.reconstruct(a, el, cd.ReconConfig(), grid, truth)
        runs[label] = {
            "el": el, "a": a, "fwd": fwd,
            "error": cd.rel_l2_error(sigma, truth), "report": report,
        }
    return grid, truth, runs


def test_criterion_1_analytic_forward():
    t0 = time.perf_counter()
    grid = make_grid(65)
    el = cd.ElectrodeSet(z=1.0, current=1.0, aperture=1.0)
    result = cd.solve_forward(
        ScalarField.constant(grid, 1.0), cd.base_coefficients(el, grid), grid
    )
    exact = ScalarField.from_function(grid, lambda x, y: (2.0 / 3.0) * y - 1.0 / 3.0)
    err = float(np.abs(result.u.values - exact.values).max())
    elapsed = time.perf_counter() - t0
    _report(1, f"max |u - (2y/3 - 1/3)| = {err:.2e}, {elapsed:.2f} s")
    assert err <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_cem_robin_equivalence():
    grid = make_grid(65)
    el = cd.ElectrodeSet(z=1.0, current=1.0, aperture=1.0)
    robin = cd.solve_forward(
        ScalarField.constant(grid, 1.0), cd.base_coefficients(el, grid), grid
    )
    cem = cd.solve_cem_forward(ScalarField.constant(grid, 1.0), el, grid)
    lam = cd.cem_scaling(robin, el, grid)
    equiv = cd.rel_l2_error(ScalarField(grid, lam * robin.u.values), cem.u)
    (idx, w), _ = electrode_quadrature(el, grid)
    injected = float(np.sum(w * (cem.cem_voltage - cem.u.values[idx]) / el.z))
    _report(2, f"lambda = {lam:.9f}, rel(lam*u0, v) = {equiv:.2e}, "
               f"electrode current = {injected:.9f}")
    assert abs(lam - 1.5) <= 1e-6
    assert equiv <= 1e-6
    assert abs(injected - el.current) <= 1e-6


def test_criterion_3_convergence_order():
    # The five-point stencil is exact on x^2 - y^2 (its truncation error
    # cancels on that function), so the second-order decay is demonstrated
    # on the quartic harmonic Re (x + i y)^4 while the stated quadratic is
    # verified to be reproduced at solver tolerance.
    errs = []
    exact_errs = []
    for n in (33, 65, 129):
        grid = make_grid(n)
        quartic = ScalarField.from_function(
            grid, lambda x, y: x**4 - 6 * x**2 * y**2 + y**4
        )
        system = cd.assemble_laplace_dirichlet(boundary_trace(quartic), grid)
        x, stats = cd.pcg_solve(system, tol=1e-12)
        errs.append(float(np.abs(x - quartic.values).max()))
        square = ScalarField.from_function(grid, lambda x, y: x * x - y * y)
        system = cd.assemble_laplace_dirichlet(boundary_trace(square), grid)
        x, stats = cd.pcg_solve(system, tol=1e-12)
        exact_errs.append(float(np.abs(x - square.values).max()))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    _report(3, f"quartic errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
               f"ratios {r1:.2f}, {r2:.2f}; x^2-y^2 reproduced to "
               f"{max(exact_errs):.1e}")
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5
    assert max(exact_errs) <= 1e-8


def test_criterion_4_nonuniqueness():
    grid = make_grid(128)
    el = cd.ElectrodeSet()
    sigma = ScalarField.constant(grid, 1.0)
    robin = cd.solve_forward(sigma, cd.base_coefficients(el, grid), grid)
    a0 = cd.interior_data(sigma, robin.u)
    details = []
    for s in (0.05, 0.1, 0.2):
        sig_phi, u_phi = cd.nonuniqueness_transform(robin.u, sigma, s)
        data_err = cd.rel_l2_error(cd.interior_data(sig_phi, u_phi), a0)
        sig_diff = cd.rel_l2_error(sig_phi, sigma)
        details.append(f"s={s}: data {data_err:.1e}, sigma {sig_diff:.3f}")
        assert data_err <= 5 * grid.h
        assert sig_diff >= 1e-2
    _report(4, "; ".join(details) + f" (bound 5h = {5 * grid.h:.1e})")


def test_criterion_5_exact_recovery(homogeneous_128):
    grid, el, truth, coeffs, fwd = homogeneous_128
    t0 = time.perf_counter()
    sigma, u, report = cd.reconstruct(fwd.a, el, cd.ReconConfig(), grid, truth)
    elapsed = time.perf_counter() - t0
    err = cd.rel_l2_error(sigma, truth)
    gd = report.g_delta_values()
    _report(5, f"rel error = {err:.2e} in {report.iterations} iterations, "
               f"{elapsed:.1f} s; G^d {gd[0]:.6f} -> {gd[-1]:.6f}")
    assert err <= 1e-2
    assert elapsed < 60.0
    assert gd[-1] <= gd[0] * (1 + 1e-4)


def test_criterion_6_blob_phantom(blob_128):
    grid, truth, runs = blob_128
    full, half = runs["full"]["error"], runs["half"]["error"]
    stops = {label: run["report"].stop_reason for label, run in runs.items()}
    _report(6, f"full aperture rel error = {full:.2e} (<= 2e-2), "
               f"half aperture = {half:.2e} (<= 4e-2), "
               f"stop_reason={stops['full']}/{stops['half']}")
    assert full <= 2e-2
    assert half <= 4e-2
    assert stops == {"full": "tol", "half": "tol"}


def test_criterion_7_comparator_ordering(blob_128):
    grid, truth, runs = blob_128
    full = runs["full"]
    cfg = cd.BregmanConfig()
    t0 = time.perf_counter()
    v, report = cd.split_bregman_minimize(
        full["a"], boundary_trace(full["fwd"].u), cfg, grid
    )
    elapsed = time.perf_counter() - t0
    sigma_b = cd.sigma_from_potential(full["a"], v, cfg.grad_floor)
    err_b = cd.rel_l2_error(sigma_b, truth)
    _report(7, f"comparator rel error = {err_b:.2e} vs primary "
               f"{full['error']:.2e} ({err_b / full['error']:.2f}x, <= 5x), "
               f"{report.iterations} iterations, {elapsed:.0f} s")
    assert err_b <= 5 * full["error"]


def test_criterion_8_schedule_study():
    grid = make_grid(64)
    el = cd.ElectrodeSet()
    truth = ScalarField.constant(grid, 1.0)
    coeffs = cd.smoothed_coefficients(el, grid, 5e-4)
    fwd = cd.solve_forward(truth, coeffs, grid)
    deltas = [3e-3 * 2.0 ** (-k) for k in range(7)]
    etas = list(deltas)
    study = cd.convergence_study(fwd.a, el, grid, deltas, etas, seed=0)
    ref = cd.functional_G(fwd.u, fwd.a, coeffs)
    gap = abs(study.g_clean_values[-1] - ref) / abs(ref)
    _report(8, f"tail ratio = {study.tail_ratio:.3f} (<= 0.1), "
               f"limit gap = {gap:.2e} (<= 1e-2)")
    assert study.tail_converged
    assert study.tail_ratio <= 0.1
    assert all(r == "tol" for r in study.stop_reasons)
    assert gap <= 1e-2


def test_criterion_9_invariant_sweep(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # discrete adjointness of gradient and divergence
    grid = make_grid(32)
    v = ScalarField(grid, rng.normal(size=grid.num_nodes))
    fx = rng.normal(size=(grid.n - 1) ** 2)
    fy = rng.normal(size=(grid.n - 1) ** 2)
    F = VectorField(grid, fx, fy)
    gv = gradient(v)
    lhs = float(gv.x @ F.x + gv.y @ F.y) * grid.h**2
    rhs = -float(v.values @ divergence(F).values) * grid.h**2
    adj = abs(lhs - rhs) / max(abs(lhs), 1e-30)
    assert adj <= 1e-12

    # conservation and electrode-mean antisymmetry on a structured medium
    el = cd.ElectrodeSet()
    grid = make_grid(48)
    sigma = cd.generate_phantom(cd.PhantomSpec(kind="blobs", n=48, seed=11))
    coeffs = cd.base_coefficients(el, grid)
    fwd = cd.solve_forward(sigma, coeffs, grid, tol=1e-11)
    net = boundary_net_flux(coeffs, fwd.u)
    assert abs(net) <= 10 * 1e-11 * float(np.linalg.norm(coeffs.c.values))
    mean_plus, mean_minus = (float(w @ fwd.u.values[idx])
                             for idx, w in electrode_quadrature(el, grid))
    anti = abs(mean_plus + mean_minus)
    assert anti <= 1e-9

    # matrix symmetry and SPD probes
    sm = cd.smoothed_coefficients(el, grid, 5e-4)
    for system in (
        cd.assemble_robin(sigma, sm, grid),
        cd.assemble_cem(sigma, el, grid),
    ):
        A = csr_of(system)
        defect = abs(A - A.T)
        assert (defect.data.max() if defect.nnz else 0.0) <= 1e-14 * np.abs(A.data).max()
        for _ in range(3):
            x = rng.normal(size=A.shape[0])
            assert float(x @ (A @ x)) > 0.0

    # file round-trip is the identity on bit patterns
    f = ScalarField(grid, rng.normal(size=grid.num_nodes))
    p = tmp_path / "roundtrip.fld"
    cd.write_field(f, p)
    assert cd.read_field(p).values.tobytes() == f.values.tobytes()

    # seeded determinism end to end
    a1 = cd.add_noise(fwd.a, 1e-5, 42)
    a2 = cd.add_noise(fwd.a, 1e-5, 42)
    assert np.array_equal(a1.values, a2.values)
    p1 = cd.generate_phantom(cd.PhantomSpec(kind="blobs", n=32, seed=9))
    p2 = cd.generate_phantom(cd.PhantomSpec(kind="blobs", n=32, seed=9))
    assert np.array_equal(p1.values, p2.values)

    elapsed = time.perf_counter() - t0
    _report(9, f"adjointness {adj:.1e}, net flux {net:.1e}, electrode "
               f"antisymmetry {anti:.1e}, symmetry/SPD/round-trip/determinism "
               f"ok, {elapsed:.1f} s")
    assert elapsed < 120.0


@pytest.mark.parametrize("n, ceiling", [(64, 2.8e-2), (128, 2.0e-2)])
def test_nested_grid_data_without_the_inverse_crime(n, ceiling):
    # the data come from the 2n-1 grid, whose even nodes are the n grid's,
    # so they are not the inversion's own discretization: a and the truth
    # are restricted to those nodes, not interpolated.  The transition width
    # is given on both grids, since the default of 4h is another width on
    # each.  Not a numbered criterion; the ceilings sit about 25 % above the
    # errors measured when it was written, 2.261e-2 and 1.604e-2
    fine_grid, grid = make_grid(2 * n - 1), make_grid(n)
    truth = cd.generate_phantom(cd.PhantomSpec(
        kind="blobs", n=2 * n - 1, seed=7, lo=1.0, hi=1.8,
        margin=0.15, blob_width=(0.05, 0.10),
    ))
    el = cd.ElectrodeSet()
    width = 4.0 / (n - 1)
    fwd = cd.solve_forward(truth, cd.smoothed_coefficients(el, fine_grid, 5e-4, width),
                           fine_grid)

    def restrict(field):
        return ScalarField(grid, field.values2d[::2, ::2].copy())

    truth = restrict(truth)
    a = cd.add_noise(restrict(fwd.a), 1e-5, 1)
    sigma, u, report = cd.reconstruct(
        a, el, cd.ReconConfig(transition_width=width), grid, truth)
    err = cd.rel_l2_error(sigma, truth)
    print(f"nested data, n={n}: rel error = {err:.3e} (<= {ceiling:g}), "
          f"stop_reason={report.stop_reason}, {report.iterations} sweeps")
    assert report.stop_reason == "tol"
    assert err <= ceiling
