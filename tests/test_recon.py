"""Functionals, the fixed-point reconstruction, level calibration, and the
schedule study."""

import csv
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdrecon import elliptic, family, recon
from cdrecon.boundary import (
    ElectrodeSet,
    RobinCoefficients,
    base_coefficients,
    boundary_faces,
    electrode_quadrature,
    robin_coefficients,
    smoothed_coefficients,
)
from cdrecon.bregman import BregmanConfig
from cdrecon.elliptic import (
    SOLVE_TOL,
    SparseSystem,
    _TransformPreconditioner,
    assemble_robin,
    pcg_solve,
)
from cdrecon.errors import DataError, DimensionError
from cdrecon.fields import (
    BoundaryValues,
    ScalarField,
    boundary_trace,
    cell_average,
    gradient,
    make_grid,
    rel_l2_error,
    weighted_tv,
)
from cdrecon.family import (
    _family_free_change,
    _level_bins,
    level_calibration,
    nonuniqueness_transform,
)
from cdrecon.forward import add_noise, solve_cem_forward, solve_forward
from cdrecon.phantom import PhantomSpec, generate_phantom
from cdrecon.recon import (
    _ANDERSON_DEPTH,
    _FORCING,
    _LOOSEST_INNER_TOL,
    MIN_STUDY_STEPS,
    IterationRecord,
    ReconConfig,
    ReconReport,
    _Anderson,
    boundary_penalty,
    check_schedule,
    convergence_study,
    functional_G,
    functional_Gdelta,
    reconstruct,
    sigma_from_potential,
)


def _quadratic_energy(system, x):
    """Energy 0.5 x'Ax - rhs'x whose minimizer solves the system."""
    return float(0.5 * x @ (system.operator @ x) - system.rhs @ x)


@pytest.fixture(scope="module")
def homog_setup():
    g = make_grid(33)
    el = ElectrodeSet()
    truth = ScalarField.constant(g, 1.0)
    coeffs = smoothed_coefficients(el, g, 5e-4)
    fwd = solve_forward(truth, coeffs, g)
    return g, el, truth, coeffs, fwd


def _unit_b_coeffs(target):
    """b = 1 and c the trace of ``target``, so that the boundary target c/b
    of the functionals is that trace."""
    g = target.grid
    return RobinCoefficients(
        BoundaryValues(g, np.ones(g.num_boundary_nodes)), boundary_trace(target)
    )


def test_functional_g_matching_trace():
    g = make_grid(21)
    rng = np.random.default_rng(1)
    a = ScalarField(g, rng.uniform(0.2, 1.0, g.num_nodes))
    h = ScalarField.from_function(g, lambda x, y: x - y)
    coeffs = _unit_b_coeffs(h)
    # the penalty vanishes but on the four corner half-faces of length h/2
    # on the horizontal sides, which carry v at the corner and the target of
    # its horizontal neighbour, off by h: 4 * 0.5 * (h/2) * h^2 = h^3
    tv = weighted_tv(h, a)
    assert functional_G(h, a, coeffs) == pytest.approx(tv + g.h**3, rel=1e-12)
    zero_a = ScalarField.constant(g, 0.0)
    assert functional_G(h, zero_a, coeffs) == pytest.approx(g.h**3, rel=1e-12)


def test_functional_g_boundary_quadrature():
    # v = y, a = 1, b = 1, h = 0: G -> 1 + (1/2) * integral of y^2 over the
    # boundary = 11/6 as the grid refines
    g = make_grid(101)
    v = ScalarField.from_function(g, lambda x, y: y)
    a = ScalarField.constant(g, 1.0)
    h0 = ScalarField.constant(g, 0.0)
    val = functional_G(v, a, _unit_b_coeffs(h0))
    assert val == pytest.approx(11.0 / 6.0, abs=1e-4)


def test_functional_gdelta_terms():
    g = make_grid(17)
    rng = np.random.default_rng(2)
    a = ScalarField(g, rng.uniform(0.2, 1.0, g.num_nodes))
    h = ScalarField.from_function(g, lambda x, y: x)
    coeffs = _unit_b_coeffs(h)
    v = ScalarField(g, rng.normal(size=g.num_nodes))
    assert functional_Gdelta(v, a, coeffs, 0.0) == pytest.approx(
        functional_G(v, a, coeffs), rel=1e-14
    )
    # v = y with delta = 2 adds exactly 1.0
    y = ScalarField.from_function(g, lambda x, y: y)
    assert functional_Gdelta(y, a, coeffs, 2.0) - functional_G(
        y, a, coeffs) == pytest.approx(1.0, rel=1e-12)
    # for any v the penalty is delta/2 sum |grad v|^2 h^2, with the cell
    # gradient written out from its two forward differences
    delta = 0.7
    V = v.values2d
    gx = (V[:-1, 1:] - V[:-1, :-1] + V[1:, 1:] - V[1:, :-1]) / (2.0 * g.h)
    gy = (V[1:, :-1] - V[:-1, :-1] + V[1:, 1:] - V[:-1, 1:]) / (2.0 * g.h)
    expected = 0.5 * delta * g.h**2 * float(np.sum(gx**2 + gy**2))
    assert functional_Gdelta(v, a, coeffs, delta) - functional_G(
        v, a, coeffs) == pytest.approx(expected, rel=1e-10)
    for bad in (-1e-3, float("nan")):
        with pytest.raises(DataError, match="delta must be nonnegative"):
            functional_Gdelta(v, a, coeffs, bad)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 40), aperture=st.floats(0.5, 1.0), log_z=st.floats(-2.0, 2.0),
       epsilon=st.sampled_from([0.0, 5e-4, 0.5]), delta=st.floats(0.0, 1e-2),
       seed=st.integers(0, 2**32 - 1))
def test_boundary_penalty_is_the_robin_systems_quadratic(n, aperture, log_z, epsilon, delta,
                                                         seed):
    # penalty(v) - penalty(0) = 0.5 v'(A - K)v - rhs'v, A the Robin matrix
    # and K its flux part: the penalty integrates b and c on the faces of the
    # assembly, the corner half-faces included, for the sharp coefficients
    # (epsilon 0, b = 0 off the electrodes) as for the smoothed ones
    g = make_grid(n)
    el = ElectrodeSet(aperture=aperture, z=10.0**log_z)
    coeffs = (base_coefficients(el, g) if epsilon == 0.0
              else smoothed_coefficients(el, g, epsilon))
    rng = np.random.default_rng(seed)
    sigma = ScalarField(g, np.exp(rng.uniform(-1.0, 1.0, g.num_nodes)))
    v = ScalarField(g, rng.normal(size=g.num_nodes))
    system = assemble_robin(sigma, coeffs, g)
    flux = SparseSystem(elliptic._stencil(sigma.values, n), system.rhs)
    quadratic = 0.5 * float(v.values @ (system.operator @ v.values - flux.operator @ v.values))
    linear = float(system.rhs @ v.values)
    at_zero = boundary_penalty(ScalarField.constant(g, 0.0), coeffs)
    got = boundary_penalty(v, coeffs) - at_zero
    assert abs(got - (quadratic - linear)) <= 1e-12 * (quadratic + abs(linear) + at_zero)
    a = ScalarField(g, rng.uniform(0.0, 1.0, g.num_nodes))
    assert math.isfinite(functional_Gdelta(v, a, coeffs, delta))


def test_functionals_check_grids():
    g, other = make_grid(9), make_grid(11)
    v = ScalarField.from_function(g, lambda x, y: y)
    a = ScalarField.constant(g, 1.0)
    coeffs = _unit_b_coeffs(v)
    for args in ((v, ScalarField.constant(other, 1.0), coeffs),
                 (v, a, _unit_b_coeffs(ScalarField.constant(other, 0.0)))):
        with pytest.raises(DimensionError):
            functional_G(*args)
        with pytest.raises(DimensionError):
            functional_Gdelta(*args, 1e-3)
    with pytest.raises(DimensionError):
        boundary_penalty(v, _unit_b_coeffs(ScalarField.constant(other, 0.0)))


def test_sigma_from_potential_cases():
    g = make_grid(21)
    a = ScalarField.constant(g, 2.0 / 3.0)
    v = ScalarField.from_function(g, lambda x, y: (2 / 3) * y - 1 / 3)
    assert np.allclose(sigma_from_potential(a, v, 1e-8).values, 1.0, atol=1e-12)
    # constant potential degenerates to a / floor
    flat = ScalarField.constant(g, 1.0)
    out = sigma_from_potential(a, flat, 1e-8)
    assert np.allclose(out.values, (2.0 / 3.0) / 1e-8, rtol=1e-12)
    zero_a = ScalarField.constant(g, 0.0)
    assert np.all(sigma_from_potential(zero_a, v, 1e-8).values == 0.0)


def test_sigma_from_potential_rejects_nonpositive_floor():
    # a zero floor on a constant potential would divide by zero
    g = make_grid(9)
    a = ScalarField.constant(g, 1.0)
    flat = ScalarField.constant(g, 0.5)
    # and from 1 up every node is floored, so sigma no longer depends on v
    for floor in (0.0, -1e-8, 1.0, float("inf")):
        with pytest.raises(DataError, match="grad_floor must be positive"):
            sigma_from_potential(a, flat, floor)


def test_reconstruct_homogeneous_self_consistency(homog_setup):
    g, el, truth, coeffs, fwd = homog_setup
    sigma, u, report = reconstruct(fwd.a, el, ReconConfig(), g, ground_truth=truth)
    assert rel_l2_error(sigma, truth) <= 1.5e-2
    assert report.iterations == len(report.records)
    # the reported functional ends no higher than it starts, up to a small
    # band when the start is already converged
    gd = report.g_delta_values()
    assert gd[-1] <= gd[0] * (1 + 1e-4)


def test_reconstruct_stationarity(homog_setup):
    # with calibration off the loop stops on the sigma-change rule, making
    # the returned pair a fixed point to stop_tol under one more update
    g, el, truth, coeffs, fwd = homog_setup
    cfg = ReconConfig(calibrate=False)
    sigma, u, report = reconstruct(fwd.a, el, cfg, g)
    assert report.records[-1].sigma_change <= cfg.stop_tol
    assert report.stop_reason == "tol" and report.converged
    once_more = sigma_from_potential(fwd.a, u, cfg.grad_floor)
    change = float(
        np.linalg.norm(once_more.values - sigma.values) / np.linalg.norm(sigma.values)
    )
    assert change <= 2 * cfg.stop_tol


def test_reconstruct_residual_at_returned_state(homog_setup):
    g, el, truth, coeffs, fwd = homog_setup
    cfg = ReconConfig()
    sigma, u, report = reconstruct(fwd.a, el, cfg, g)
    system = assemble_robin(
        ScalarField(g, sigma.values + cfg.delta), coeffs, g
    )
    res = np.linalg.norm(system.operator @ u.values - system.rhs)
    assert res <= 10 * SOLVE_TOL * np.linalg.norm(system.rhs)
    assert report.final_solve is not None
    assert report.final_solve.relative_residual <= SOLVE_TOL


def test_reconstruct_positivity_and_bounds(homog_setup):
    g, el, truth, coeffs, fwd = homog_setup
    cfg = ReconConfig(sigma_bounds=(0.9, 1.1), max_outer_iterations=20)
    sigma, u, report = reconstruct(fwd.a, el, cfg, g)
    assert sigma.values.min() >= 0.9
    assert sigma.values.max() <= 1.1


def test_reconstruct_degenerate_data(homog_setup):
    g, el, truth, coeffs, fwd = homog_setup
    with pytest.raises(DataError, match="identically zero"):
        reconstruct(ScalarField.constant(g, 0.0), el, ReconConfig(), g)
    bad = np.zeros(g.num_nodes)
    bad[0] = -1.0
    with pytest.raises(DataError, match="nonnegative"):
        reconstruct(ScalarField(g, bad), el, ReconConfig(), g)


def test_config_checks_itself():
    # the config is checked when built, and replace() builds it again; NaN
    # fails every comparison, so each check must be written to reject it
    nan = float("nan")
    for f in fields(ReconConfig):
        if f.name == "calibrate":
            continue
        bad = (nan, 2.0) if f.name == "sigma_bounds" else nan
        with pytest.raises(DataError):
            ReconConfig(**{f.name: bad})
        with pytest.raises(DataError):
            replace(ReconConfig(), **{f.name: bad})
    with pytest.raises(DataError, match="sigma bounds"):
        ReconConfig(sigma_bounds=(0.5, nan))
    # from a floor of 1 up every node is floored, and an infinite one divides
    # the image by an infinite floor; an infinite delta or start breaks the
    # first solve
    inf = float("inf")
    for name, bad in (("grad_floor", inf), ("grad_floor", 1.0), ("grad_floor", 1e200),
                      ("delta", inf), ("initial_sigma", inf)):
        with pytest.raises(DataError, match="must be"):
            ReconConfig(**{name: bad})
    with pytest.raises(DataError, match="transition width must be finite"):
        ReconConfig(transition_width=float("inf"))


def test_config_rejects_what_its_readers_reject():
    # an epsilon outside (0, 1] and a width that is not positive used to
    # build and fail inside reconstruct, or be taken for 2h-unresolvable there
    for bad in ({"epsilon": 2.0}, {"transition_width": 0.0}, {"transition_width": -1.0}):
        with pytest.raises(DataError):
            ReconConfig(**bad)


def _accepts(call) -> bool:
    try:
        call()
    except DataError:
        return False
    return True


_ODD_SETTINGS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(epsilon=st.floats() | st.floats(0.0, 1.0) | _ODD_SETTINGS,
       # positive widths from 2h at n = 1025, so that a grid can resolve each
       width=st.none() | st.floats(max_value=0.0) | st.floats(min_value=2.0 / 1024)
       | _ODD_SETTINGS,
       initial_sigma=st.floats() | _ODD_SETTINGS)
def test_config_builds_exactly_when_its_readers_accept(epsilon, width, initial_sigma):
    # ReconConfig checks epsilon, transition_width and initial_sigma by the
    # rules of robin_coefficients and level_calibration, which read them:
    # a config builds exactly when both accept its values, the first on a
    # grid fine enough for the width (2h <= width); at epsilon 0 it selects
    # the sharp coefficients, to which the width does not apply
    n = 3
    if width is not None and math.isfinite(width) and width > 0.0:
        n = max(3, math.ceil(1.0 + 2.0 / width))
    g = make_grid(9)
    sigma = ScalarField.constant(g, 1.0)
    u = ScalarField.from_function(g, lambda x, y: y)
    readers = (
        _accepts(lambda: robin_coefficients(ElectrodeSet(), make_grid(n), epsilon, width))
        and _accepts(lambda: level_calibration(sigma, u, ElectrodeSet(), initial_sigma)))
    built = _accepts(lambda: ReconConfig(
        epsilon=epsilon, transition_width=width, initial_sigma=initial_sigma))
    assert built == readers


@settings(max_examples=100, deadline=None)
@given(cap=st.floats() | st.integers(-3, 10**9) | st.integers(-3, 10**9).map(np.int64))
def test_iteration_caps_are_integers_of_at_least_1(cap):
    # a float cap, 2.5, 2.0, inf or NaN, used to build and fail in the run
    # with a TypeError; an integer of either kind is a cap from 1 up
    valid = isinstance(cap, (int, np.integer)) and cap >= 1
    for build, name in ((lambda: ReconConfig(max_outer_iterations=cap), "max_outer_iterations"),
                        (lambda: BregmanConfig(max_iterations=cap), "max_iterations")):
        if valid:
            build()
        else:
            with pytest.raises(DataError, match=f"{name} must be an integer of at least 1"):
                build()


def test_reconstruct_reports_cap_hit(homog_setup):
    g, el, truth, coeffs, fwd = homog_setup
    cfg = ReconConfig(max_outer_iterations=2, stop_tol=1e-14, calibrate=False)
    sigma, u, report = reconstruct(fwd.a, el, cfg, g)
    assert report.iterations == 2
    assert report.stop_reason == "cap" and not report.converged


@settings(max_examples=12, deadline=None)
@given(n=st.integers(5, 40), other=st.integers(5, 40), aperture=st.floats(0.5, 1.0),
       z=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_reconstruct_repeats_bit_for_bit(n, other, aperture, z, seed):
    # the LU factor lives inside one call; nothing carried between calls,
    # such as the per-n stencil pattern cache, may change the iterates
    assume(other != n)
    el = ElectrodeSet(aperture=aperture, z=z)
    cfg = ReconConfig(max_outer_iterations=40)

    def data(m, sigma_values):
        gm = make_grid(m)
        sigma = ScalarField(gm, sigma_values)
        return solve_forward(sigma, smoothed_coefficients(el, gm, 5e-4), gm).a, gm

    rng = np.random.default_rng(seed)
    a, g = data(n, rng.uniform(0.5, 2.0, n * n))
    a_other, g_other = data(other, np.ones(other * other))
    first = reconstruct(a, el, cfg, g)
    reconstruct(a_other, el, cfg, g_other)
    (s1, u1, r1), (s2, u2, r2) = first, reconstruct(a, el, cfg, g)
    assert s1.values.tobytes() == s2.values.tobytes()
    assert u1.values.tobytes() == u2.values.tobytes()
    assert r1 == r2


def _former_level_bins(u, band):
    """The level bins as ``recon`` built them on every call before the sweep
    ran in place: edges, each node's bin, the band mask, qualifying bins."""
    coords = np.arange(u.grid.n) * u.grid.h
    near = (coords < band) | (coords > 1.0 - band)
    band_mask = (near[:, None] | near[None, :]).reshape(-1)
    t = u.values
    edges = np.linspace(float(t.min()), float(t.max()), 49)
    bin_of = np.clip(np.digitize(t, edges) - 1, 0, 47)
    counts = np.bincount(bin_of[band_mask], minlength=48)
    return edges, bin_of, band_mask, counts >= 8


def _former_family_free_change(sigma, image, u, band):
    _, bin_of, _, qualifies = _former_level_bins(u, band)
    d = image - sigma
    sd = np.bincount(bin_of, weights=sigma * d, minlength=48)
    ss = np.bincount(bin_of, weights=sigma * sigma, minlength=48)
    c = np.zeros(48)
    c[qualifies] = sd[qualifies] / ss[qualifies]
    return float(np.linalg.norm(d - c[bin_of] * sigma)) / float(np.linalg.norm(sigma))


def _former_level_calibration(sigma, u, electrodes, background, band):
    """``level_calibration`` with one np.median per bin, as it was written."""
    grid = u.grid
    t = u.values
    t0, t1 = float(t.min()), float(t.max())
    if t1 <= t0 or background <= 0.0:
        return sigma, u, 0.0
    edges, bin_of, band_mask, qualifies = _former_level_bins(u, band)
    widths = np.diff(edges)
    dphi = np.ones(48)
    for b in np.flatnonzero(qualifies):
        dphi[b] = float(np.median(sigma.values[band_mask & (bin_of == b)])) / background
    dphi = np.convolve(np.pad(dphi, 1, mode="edge"), np.array([0.25, 0.5, 0.25]), mode="valid")
    dphi = np.clip(dphi, 0.2, 5.0)
    tr = boundary_trace(u).values
    pinned = np.zeros(48, dtype=bool)
    for idx, _ in electrode_quadrature(electrodes, grid):
        vals = tr[idx]
        lo_b = int(np.clip(np.digitize(float(vals.min()), edges) - 1, 0, 47))
        hi_b = int(np.clip(np.digitize(float(vals.max()), edges) - 1, 0, 47))
        pinned[lo_b:hi_b + 1] = True
    dphi[pinned] = 1.0
    free = ~pinned
    if not free.any():
        return sigma, u, 0.0
    got = float((dphi[free] * widths[free]).sum())
    if got <= 0.0:
        return sigma, u, 0.0
    dphi[free] *= float(widths[free].sum()) / got
    phi_at_edges = np.concatenate([[t0], t0 + np.cumsum(dphi * widths)])
    return (ScalarField(grid, sigma.values / dphi[bin_of]),
            ScalarField(grid, np.interp(t, edges, phi_at_edges)),
            float(np.abs(dphi - 1.0).max()))


def _reconstruct_by_former_sweep(a, electrodes, config, grid, ground_truth=None):
    """``reconstruct`` as written before it ran in place: a fresh Robin
    system and fresh arrays every sweep, every per-run constant (the cell
    weights, the boundary face terms, the margin band, the nodal-average
    divisors) rebuilt where it is used.  The oracle of the in-place sweep,
    which must return the same bits; each solve starts, as there, from the
    mixer's warm start."""
    coeffs = smoothed_coefficients(electrodes, grid, config.epsilon, config.transition_width)
    delta, bounds, h = config.delta, config.sigma_bounds, grid.h
    report = ReconReport()
    preconditioners = []

    def project(values):
        return values if bounds is None else np.clip(values, bounds[0], bounds[1])

    def solve_at(sigma, tol, x0):
        system = assemble_robin(ScalarField(grid, sigma.values + delta), coeffs, grid)
        if not preconditioners:  # the first system's, for every solve
            preconditioners.append(_TransformPreconditioner(system))
        x, stats = pcg_solve(system, tol, x0, preconditioners[0])
        return ScalarField(grid, x), stats

    def image_of(magnitude):
        n = grid.n
        total = np.zeros((n, n))
        total[1:, 1:] += magnitude
        total[1:, :-1] += magnitude
        total[:-1, 1:] += magnitude
        total[:-1, :-1] += magnitude
        count = np.full((n, n), 4.0)
        count[[0, -1], :] *= 0.5
        count[:, [0, -1]] *= 0.5
        gmag = (total / count).reshape(-1)
        peak = float(gmag.max())
        floor = config.grad_floor * peak if peak > 0.0 else config.grad_floor
        return ScalarField(grid, project(a.values / np.maximum(gmag, floor)))

    def terms(u, grad, magnitude):
        tv = float(np.sum(cell_average(a) * magnitude) * h**2)
        # 0.5 w (b v^2 - 2 c v) on each boundary face, v at the node that
        # owns it, b and c at its value index, plus 0.5 w c^2/b where b > 0
        node_f, val_f, w = boundary_faces(grid)
        b, c = coeffs.b.values[val_f], coeffs.c.values[val_f]
        v = boundary_trace(u).values[node_f]
        target_term = np.zeros_like(b)
        np.divide(c * c, b, out=target_term, where=b > 0.0)
        bterm = (float(np.sum((0.5 * w * b * v - w * c) * v))
                 + float(0.5 * np.sum(w * target_term)))
        dterm = float(0.5 * delta * np.sum(grad.x**2 + grad.y**2) * h**2)
        return tv, bterm, dterm

    def sweep(sigma):
        mixer = _Anderson(grid.num_nodes, bounds)
        start = None
        change = math.inf
        for _ in range(config.max_outer_iterations):
            tol = max(SOLVE_TOL, min(_LOOSEST_INNER_TOL, _FORCING * change))
            u, stats = solve_at(sigma, tol, start)
            grad = gradient(u)
            magnitude = grad.magnitude2d()
            image = image_of(magnitude)
            change = (float(np.linalg.norm(image.values - sigma.values))
                      / float(np.linalg.norm(sigma.values)))
            tv, bterm, dterm = terms(u, grad, magnitude)
            rel = None if ground_truth is None else rel_l2_error(image, ground_truth)
            report.records.append(IterationRecord(
                tv, bterm, dterm, change, rel,
                stats.iterations, stats.relative_residual))
            report.stop_change = (
                _former_family_free_change(sigma.values, image.values, u,
                                           config.calibration_band)
                if config.calibrate else change)
            if report.stop_change <= config.stop_tol:
                return image, u, "tol"
            sigma = ScalarField(grid, mixer.step(sigma.values, image.values, u.values))
            start = mixer.warm_start
        return image, u, "cap"

    sigma = ScalarField(grid, np.full(grid.num_nodes, config.initial_sigma))
    sigma, u, report.stop_reason = sweep(sigma)
    if config.calibrate:
        for _ in range(2):
            sigma, u, strength = _former_level_calibration(
                sigma, u, electrodes, config.initial_sigma, config.calibration_band)
            report.calibrations.append(strength)
            sigma = ScalarField(grid, project(sigma.values))
    u_final, report.final_solve = solve_at(sigma, SOLVE_TOL, u.values)
    return sigma, u_final, report


def test_a_runaway_sweep_names_the_iterate_not_z():
    # CEM data reconstructed in the smoothed model at half aperture run
    # away (n=17, 121 sweeps): sigma grows until the boundary term rounds
    # away at a later assembly, a misfit of the data, not of z
    g = make_grid(17)
    truth = generate_phantom(PhantomSpec(kind="blobs", n=17, seed=2))
    el = ElectrodeSet(aperture=0.5)
    a = solve_cem_forward(truth, el, g).a
    with pytest.raises(DataError, match=r"^sigma reached \S+ after sweep \d+: the data do not "
                                        r"fit the electrode model$") as info:
        reconstruct(a, el, ReconConfig(), g)
    assert "contact impedance" in str(info.value.__cause__)
    # the first assembly, at initial_sigma, names z
    with pytest.raises(DataError, match=r"^the boundary term rounds away: contact impedance "
                                        r"z = 1e\+200 "):
        reconstruct(a, ElectrodeSet(aperture=0.5, z=1e200), ReconConfig(), g)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(5, 40), aperture=st.floats(0.5, 1.0), calibrate=st.booleans(),
       bounded=st.booleans(), with_truth=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_reconstruct_matches_former_sweep(n, aperture, calibrate, bounded, with_truth, seed):
    # the in-place sweep (per-run constants built once, buffers reused, a
    # Robin system assembled for each solve) returns the bits of the sweep
    # it replaced
    g = make_grid(n)
    el = ElectrodeSet(aperture=aperture)
    rng = np.random.default_rng(seed)
    truth = ScalarField(g, rng.uniform(0.5, 2.0, g.num_nodes))
    a = solve_forward(truth, smoothed_coefficients(el, g, 5e-4), g).a
    cfg = ReconConfig(max_outer_iterations=40, calibrate=calibrate,
                      sigma_bounds=(0.6, 1.8) if bounded else None)
    ground_truth = truth if with_truth else None
    s0, u0, r0 = _reconstruct_by_former_sweep(a, el, cfg, g, ground_truth)
    s1, u1, r1 = reconstruct(a, el, cfg, g, ground_truth)
    assert s1.values.tobytes() == s0.values.tobytes()
    assert u1.values.tobytes() == u0.values.tobytes()
    # repr spells every float of the records, calibrations, stop reason,
    # stop change and final solve to the last bit
    assert repr(r1) == repr(r0)
    # a second call builds its own buffers and its own Robin systems
    s2, u2, r2 = reconstruct(a, el, cfg, g, ground_truth)
    assert repr(r2) == repr(r0)
    for first, second in ((s1, s2), (u1, u2)):
        assert second.values.tobytes() == first.values.tobytes()
        assert not np.shares_memory(first.values, second.values)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(9, 60), band=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       aperture=st.floats(0.5, 1.0), background=st.floats(0.2, 5.0),
       wobble=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_family_matches_former_calibration_and_projection(n, band, aperture, background,
                                                          wobble, seed):
    # the stop-rule projection on a bins value built once, and the public
    # calibration, return the bits of the code they replaced, which built
    # the bins on every call; random sigma and u at any band, not only the
    # converged sweeps at band 0.12 that the sweep oracle sees
    g = make_grid(n)
    el = ElectrodeSet(aperture=aperture)
    rng = np.random.default_rng(seed)
    x, y = g.node_coords()
    u = ScalarField(g, (y + wobble * rng.uniform(-1.0, 1.0, x.shape)).reshape(-1))
    sigma = ScalarField(g, background * rng.uniform(0.5, 2.0, g.num_nodes))
    image = sigma.values * rng.uniform(0.5, 2.0, g.num_nodes)
    assert (_family_free_change(sigma.values, image, _level_bins(u, band))
            == _former_family_free_change(sigma.values, image, u, band))
    s1, u1, strength = level_calibration(sigma, u, el, background, band)
    s0, u0, former_strength = _former_level_calibration(sigma, u, el, background, band)
    assert s1.values.tobytes() == s0.values.tobytes()
    assert u1.values.tobytes() == u0.values.tobytes()
    assert strength == former_strength


def test_each_sweep_and_each_calibration_pass_builds_its_own_bins(homog_setup, monkeypatch):
    # the stop rule builds the bins of each sweep's u in ``recon``, and each
    # of the two calibration passes builds those of its own u in ``family``:
    # no bins value outlives the step that built it
    g, el, truth, coeffs, fwd = homog_setup
    built = {recon: [], family: []}
    for module in built:
        def counted(u, band, calls=built[module]):
            calls.append(u)
            return _level_bins(u, band)
        monkeypatch.setattr(module, "_level_bins", counted)
    _, _, report = reconstruct(fwd.a, el, ReconConfig(), g)
    assert len(built[recon]) == report.iterations
    assert len(built[family]) == len(report.calibrations) == 2
    assert built[family][0] is built[recon][-1] and built[family][1] is not built[family][0]
    for calls in built.values():
        calls.clear()
    reconstruct(fwd.a, el, ReconConfig(calibrate=False), g)
    assert built == {recon: [], family: []}


def test_converged_result_does_not_depend_on_the_cap():
    # the sweep stops by its rule and the calibrations add no sweeps, so a
    # larger iteration budget returns the same bits
    g = make_grid(25)
    el = ElectrodeSet(aperture=0.8)
    truth = generate_phantom(PhantomSpec(kind="blobs", n=25, seed=3, margin=0.15))
    fwd = solve_forward(truth, smoothed_coefficients(el, g, 5e-4), g)
    runs = [reconstruct(fwd.a, el, ReconConfig(max_outer_iterations=cap), g)
            for cap in (200, 400)]
    (s1, u1, r1), (s2, u2, r2) = runs
    assert r1.stop_reason == "tol"
    assert len(r1.calibrations) == 2
    assert s1.values.tobytes() == s2.values.tobytes()
    assert u1.values.tobytes() == u2.values.tobytes()
    assert r1 == r2


def _linear_contraction(dim):
    # G(x) = M x + c with spectral radius 0.9 and the fixed point x* near 10
    rng = np.random.default_rng(5)
    V = rng.normal(size=(dim, dim)) + 3.0 * np.eye(dim)
    M = V @ np.diag(np.linspace(-0.9, 0.9, dim)) @ np.linalg.inv(V)
    x_star = 10.0 + rng.uniform(size=dim)
    return M, x_star - M @ x_star, x_star


def _potential_map(dim):
    # a random linear "potential" u = B x of the iterate, unrelated to M
    return np.random.default_rng(6).normal(size=(dim, dim))


@pytest.mark.parametrize("dim", [1, 3, _ANDERSON_DEPTH])
def test_anderson_solves_linear_contraction(dim):
    # with a depth of at least dim, Anderson mixing on a linear map spans
    # the whole space (it is GMRES in disguise; Walker & Ni 2011), so the
    # fixed point is reached to roundoff within dim + 2 evaluations, where
    # the plain iteration at rate 0.9 would need hundreds
    M, c, x_star = _linear_contraction(dim)
    B = _potential_map(dim)
    mixer = _Anderson(dim, None)
    x = np.full(dim, 10.0)
    for evaluations in range(1, dim + 3):
        image = M @ x + c
        if np.linalg.norm(image - x) <= 1e-10 * np.linalg.norm(x):
            break
        x = mixer.step(x, image, B @ x)
    assert np.linalg.norm(image - x) <= 1e-10 * np.linalg.norm(x)
    assert evaluations <= dim + 2
    assert np.allclose(x, x_star, rtol=1e-9)
    # the warm start u - dU gamma is the potential of x - dX gamma, whose
    # residual is the minimized one: zero here, so that point is x* too,
    # and the warm start is the potential of the fixed point
    expected = B @ x_star
    assert (np.linalg.norm(mixer.warm_start - expected)
            <= 1e-9 * np.linalg.norm(expected))


def test_anderson_resets_on_growing_residual():
    # a residual more than twice the last one clears the history and takes
    # the plain image; the next step then mixes only the steps since
    M, c, _ = _linear_contraction(4)
    B = _potential_map(4)
    mixer, fresh = _Anderson(4, None), _Anderson(4, None)
    x = np.full(4, 10.0)
    for _ in range(3):
        x = mixer.step(x, M @ x + c, B @ x)
    jump = x + 5.0
    image = M @ jump + c
    assert np.linalg.norm(image - jump) > 2.0 * np.linalg.norm(M @ x + c - x)
    out = mixer.step(jump, image, B @ jump)
    assert out is image
    # without a mixed candidate the next solve starts from the given potential
    assert mixer.warm_start.tobytes() == (B @ jump).tobytes()
    assert fresh.step(jump, image, B @ jump) is image
    nxt = M @ out + c
    assert mixer.step(out, nxt, B @ out).tobytes() == fresh.step(out, nxt, B @ out).tobytes()
    assert mixer.warm_start.tobytes() == fresh.warm_start.tobytes()


def test_anderson_rejects_nonpositive_candidate():
    # residuals -0.5 at x = 1 and -0.3 at x = 0.5: the secant puts the
    # fixed point at x = -0.25, so the plain image is taken instead
    x0, x1 = np.array([1.0, 1.0]), np.array([0.5, 1.0])
    image = np.array([0.2, 1.0])
    u0, u1 = np.array([1.0, 2.0]), np.array([2.0, 3.0])
    mixer = _Anderson(2, None)
    mixer.step(x0, x1, u0)
    assert mixer.step(x1, image, u1) is image
    assert mixer.warm_start.tobytes() == u1.tobytes()
    # with bounds the projected candidate is positive and taken
    bounded = _Anderson(2, (0.1, 10.0))
    bounded.step(x0, x1, u0)
    assert bounded.step(x1, image, u1).tolist() == [0.1, 1.0]


@pytest.mark.parametrize("n, aperture", [(25, 1.0), (33, 0.5), (41, 0.8)])
def test_logged_functional_does_not_rise(n, aperture):
    # each stabilized sweep minimizes a majorant of G + (delta/2) |grad v|^2,
    # so the logged g_delta must not rise beyond the gap between the cell
    # gradients of the TV term and the edge harmonic means of the stencil
    g = make_grid(n)
    el = ElectrodeSet(aperture=aperture)
    truth = generate_phantom(PhantomSpec(kind="blobs", n=n, seed=3, margin=0.15))
    fwd = solve_forward(truth, smoothed_coefficients(el, g, 5e-4), g)
    cfg = ReconConfig(max_outer_iterations=80, calibrate=False)
    _, _, report = reconstruct(fwd.a, el, cfg, g)
    gd = np.array(report.g_delta_values())
    assert report.stop_reason == "tol"
    assert np.max((gd[1:] - gd[:-1]) / np.abs(gd[:-1])) <= 1e-6


def test_reconstruct_minimizer_beats_competitors(homog_setup):
    # u_k is the exact minimizer of each linearized quadratic, so its energy
    # never exceeds the previous sweep's potential's (zero before the first
    # sweep) nor that of a random perturbation x + t r of it
    g, el, truth, coeffs, fwd = homog_setup
    cfg = ReconConfig()
    rng = np.random.default_rng(4)
    sigma = ScalarField.constant(g, 1.0)
    previous = np.zeros(g.num_nodes)
    for _ in range(3):
        system = assemble_robin(ScalarField(g, sigma.values + cfg.delta), coeffs, g)
        x, stats = pcg_solve(system, tol=SOLVE_TOL)
        competitors = [previous] + [
            x + t * rng.normal(size=x.size) for t in (1e-4, 1e-2, 1.0)
        ]
        for y in competitors:
            scale = abs(_quadratic_energy(system, y)) + 1.0
            assert _quadratic_energy(system, x) <= (
                _quadratic_energy(system, y) + 10 * SOLVE_TOL * scale
            )
        previous = x
        sigma = sigma_from_potential(fwd.a, ScalarField(g, x), cfg.grad_floor)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(33, 48), strength=st.floats(0.05, 0.5), negative=st.booleans(),
       halfwidth=st.floats(0.15, 0.25), position=st.floats(0.0, 1.0))
def test_level_calibration_recovers_transform(n, strength, negative, halfwidth, position):
    # fabricate a reparametrized pair from the sharp solution (constant
    # electrode traces keep the identity-pinned level band narrow) with a
    # bump of random strength, sign, width and position between the
    # electrode levels, and check one calibration pass takes out most of the
    # transform; from n = 33 on every potential level holds the 8 band nodes
    # a bin needs.  The bump's half width is at least 0.15 of the potential
    # range, 7 of the 48 level bins: at 0.1 next to an electrode level the
    # smoothed bins take out only half of the transform
    from cdrecon.boundary import base_coefficients

    g = make_grid(n)
    el = ElectrodeSet()
    truth = ScalarField.constant(g, 1.0)
    fwd0 = solve_forward(truth, base_coefficients(el, g), g)
    lo, hi = float(fwd0.u.values.min()), float(fwd0.u.values.max())
    span = hi - lo
    # the bump's support keeps 0.1 span clear of either end
    center = lo + span * (0.1 + halfwidth + position * (0.8 - 2.0 * halfwidth))
    s = -strength if negative else strength
    s_phi, u_phi = nonuniqueness_transform(fwd0.u, truth, s, center, halfwidth * span)
    before = rel_l2_error(s_phi, truth)
    sig_cal, u_cal, found = level_calibration(s_phi, u_phi, el, background=1.0)
    after = rel_l2_error(sig_cal, truth)
    assert found > 0.5 * strength
    assert after < before / 2.5
    assert after < 0.2 * strength


def test_level_calibration_identity_on_consistent_input(homog_setup):
    g, el, truth, coeffs, fwd = homog_setup
    sig_cal, u_cal, strength = level_calibration(truth, fwd.u, el, background=1.0)
    assert strength < 1e-10
    assert np.abs(sig_cal.values - 1.0).max() < 1e-10


def test_level_calibration_rejects_bad_scalars(homog_setup):
    # NaN fails every comparison; an infinite background once returned a
    # "calibrated" sigma, and a nonpositive background or band the input
    g, el, truth, coeffs, fwd = homog_setup
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf, 0.0, -1.0):
        with pytest.raises(DataError, match="background must be positive and finite"):
            level_calibration(truth, fwd.u, el, background=bad)
    for bad in (nan, 0.0, -0.1, 0.5):
        with pytest.raises(DataError, match="calibration band must be in"):
            level_calibration(truth, fwd.u, el, 1.0, band=bad)


def _calibration_bins_by_hand(g, u, band=0.12):
    """Each node's potential-level bin (48 equal bins on [min u, max u], the
    maximum in the last) and which bins hold at least 8 nodes within
    ``band`` of the boundary: the bins ``level_calibration`` estimates
    from, written out from that definition."""
    t = u.values
    scaled = (t - t.min()) / (t.max() - t.min()) * 48.0
    bin_of = np.minimum(np.floor(scaled).astype(int), 47)
    coords = np.arange(g.n) * g.h
    x, y = np.meshgrid(coords, coords, indexing="xy")
    in_band = ((x < band) | (x > 1.0 - band) | (y < band) | (y > 1.0 - band)).reshape(-1)
    band_count = [int(np.sum(in_band & (bin_of == b))) for b in range(48)]
    return bin_of, np.array([c >= 8 for c in band_count])


def _random_potential(g, rng):
    # a potential rising from the bottom to the top electrode, as the
    # sweep's are, with a random wobble
    x, y = g.node_coords()
    return ScalarField(g, (y + 0.01 * rng.uniform(-1.0, 1.0, x.shape)).reshape(-1))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(17, 48), seed=st.integers(0, 2**32 - 1))
def test_family_free_change_drops_the_family_tangent(n, seed):
    # image = sigma * psi(bin) on the bins the calibration estimates from is
    # a move along the reparametrization family, which the calibrated stop
    # rule does not count; the change e on the other bins counts in full
    rng = np.random.default_rng(seed)
    g = make_grid(n)
    u = _random_potential(g, rng)
    bin_of, qualifies = _calibration_bins_by_hand(g, u)
    assert qualifies.any()  # the band rows at the electrodes
    sigma = rng.uniform(0.5, 2.0, g.num_nodes)
    psi = rng.uniform(0.5, 2.0, 48)
    on_family = qualifies[bin_of]
    e = np.where(on_family, 0.0, rng.normal(0.0, 1e-3, g.num_nodes))
    image = np.where(on_family, sigma * psi[bin_of], sigma + e)
    expected = np.sqrt(np.sum(e * e) / np.sum(sigma * sigma))
    assert abs(_family_free_change(sigma, image, _level_bins(u, 0.12)) - expected) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_family_free_change_is_plain_change_without_bins(seed):
    # at n = 5 the 16 band nodes cannot fill 8 to a bin, so no bin takes
    # part and the rule compares the plain relative change
    rng = np.random.default_rng(seed)
    g = make_grid(5)
    u = _random_potential(g, rng)
    assert not _calibration_bins_by_hand(g, u)[1].any()
    sigma = rng.uniform(0.5, 2.0, g.num_nodes)
    image = sigma * rng.uniform(0.5, 2.0, g.num_nodes)
    expected = np.linalg.norm(image - sigma) / np.linalg.norm(sigma)
    assert _family_free_change(sigma, image, _level_bins(u, 0.12)) == expected


def test_schedule_validation():
    check_schedule([3e-3 * 2.0 ** (-k) for k in range(7)],
                   [3e-3 * 2.0 ** (-k) for k in range(7)])
    with pytest.raises(DataError, match="eta\\^2/delta"):
        deltas = [3e-3 * 2.0 ** (-k) for k in range(5)]
        check_schedule(deltas, [np.sqrt(d) for d in deltas])
    with pytest.raises(DataError, match="decrease strictly"):
        check_schedule([1e-3, 1e-3], [0.0, 0.0])
    with pytest.raises(DataError):
        check_schedule([], [])
    # NaN fails every comparison, so the checks must be written to reject it
    with pytest.raises(DataError, match="deltas must be positive"):
        check_schedule([np.nan, 1e-3], [0.0, 0.0])
    with pytest.raises(DataError, match="etas must be nonnegative"):
        check_schedule([2e-3, 1e-3], [np.nan, 0.0])
    # zero noise throughout is admissible
    check_schedule([1e-3, 5e-4], [0.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(exponent=st.integers(-20, 8),
       drops=st.lists(st.one_of(st.just(1.0), st.floats(0.1, 0.9)), min_size=3, max_size=7),
       rise=st.floats(1.0 + 1e-9, 10.0),
       at=st.integers(1, 7))
def test_schedule_ratio_rule_is_scale_free(exponent, drops, rise, at):
    # eta^2/delta at scale 10^exponent: a non-increasing sequence with
    # plateaus, whose eta = sqrt(ratio * delta) rounds each ratio by a few
    # units, is admissible at every scale; one step raised by a factor of at
    # least 1 + 1e-9 is not
    assume(min(drops) < 1.0)  # the ratios must also decrease toward zero
    ratios = [10.0 ** exponent]
    for drop in drops:
        ratios.append(ratios[-1] * drop)
    deltas = [3e-3 * 2.0 ** (-k) for k in range(len(ratios))]
    check_schedule(deltas, [math.sqrt(r * d) for r, d in zip(ratios, deltas)])
    step = 1 + at % (len(ratios) - 1)
    ratios[step] = ratios[step - 1] * rise
    with pytest.raises(DataError, match="must not increase"):
        check_schedule(deltas, [math.sqrt(r * d) for r, d in zip(ratios, deltas)])


def test_convergence_study_small(homog_setup):
    g, el, truth, coeffs, fwd = homog_setup
    deltas = [3e-3 * 2.0 ** (-k) for k in range(4)]
    etas = list(deltas)
    cfg = ReconConfig(max_outer_iterations=40)
    study = convergence_study(fwd.a, el, g, deltas, etas, cfg, seed=0,
                              ground_truth=truth)
    assert len(study.g_clean_values) == 4
    # the clean-functional sequence approaches the value at the forward
    # solution from above
    ref = functional_G(fwd.u, fwd.a, coeffs)
    gaps = [abs(v - ref) for v in study.g_clean_values]
    assert gaps[-1] < gaps[0]
    assert all(e < 0.05 for e in study.rel_errors)


def test_convergence_study_computes_one_error_per_step(homog_setup, monkeypatch):
    # the sweeps run without the ground truth, whose per-sweep errors the
    # study never read; each step's error is that of its final sigma
    g, el, truth, coeffs, fwd = homog_setup
    deltas = [3e-3 * 2.0 ** (-k) for k in range(4)]
    cfg = ReconConfig(max_outer_iterations=5)
    calls = []

    def counted(rec, ref):
        calls.append(rec)
        return rel_l2_error(rec, ref)

    monkeypatch.setattr(recon, "rel_l2_error", counted)
    study = convergence_study(fwd.a, el, g, deltas, deltas, cfg, seed=3, ground_truth=truth)
    assert len(calls) == len(deltas)
    # a truth on another grid still fails before the first step runs
    monkeypatch.setattr(recon, "reconstruct", None)
    with pytest.raises(DimensionError):
        convergence_study(fwd.a, el, g, deltas, deltas, cfg,
                          ground_truth=ScalarField.constant(make_grid(9), 1.0))
    monkeypatch.undo()
    for k, d in enumerate(deltas):
        a_k = add_noise(fwd.a, d, 3 + k)
        sigma, _, _ = reconstruct(a_k, el, replace(cfg, delta=d), g)
        assert study.rel_errors[k] == rel_l2_error(sigma, truth)


def test_convergence_study_at_epsilon_0_is_that_of_the_sharp_model(homog_setup):
    # epsilon 0 selects base_coefficients for the study's runs and for the
    # functionals it records
    g, el, truth, coeffs, fwd = homog_setup
    deltas = [3e-3 * 2.0 ** (-k) for k in range(4)]
    cfg = ReconConfig(epsilon=0.0, max_outer_iterations=2)
    study = convergence_study(fwd.a, el, g, deltas, deltas, cfg)
    sharp = base_coefficients(el, g)
    for k, d in enumerate(deltas):
        a_k = add_noise(fwd.a, d, k)
        _, u, _ = reconstruct(a_k, el, replace(cfg, delta=d), g)
        assert study.g_delta_values[k] == functional_Gdelta(u, a_k, sharp, d)
        assert study.g_clean_values[k] == functional_G(u, fwd.a, sharp)


def test_convergence_study_needs_four_steps(homog_setup):
    # with 3 steps each third of the schedule is one value, both spreads
    # are 0 and the tail read as converged whatever the values did
    g, el, truth, coeffs, fwd = homog_setup
    assert MIN_STUDY_STEPS == 4
    deltas = [3e-3 * 2.0 ** (-k) for k in range(3)]
    with pytest.raises(DataError, match="at least 4 schedule steps, got 3"):
        convergence_study(fwd.a, el, g, deltas, deltas, ReconConfig(max_outer_iterations=2))


def test_convergence_study_rejects_bad_tail_fraction(homog_setup):
    # NaN fails every comparison, so the tail read as not converged whatever
    # the spreads did; a negative fraction never passes, an infinite one
    # always does
    g, el, truth, coeffs, fwd = homog_setup
    deltas = [3e-3 * 2.0 ** (-k) for k in range(4)]
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(DataError, match="tail fraction must be finite and nonnegative"):
            convergence_study(fwd.a, el, g, deltas, deltas,
                              ReconConfig(max_outer_iterations=2), tail_fraction=bad)


def test_report_csv_round_trip(tmp_path, homog_setup):
    g, el, truth, coeffs, fwd = homog_setup
    cfg = ReconConfig(max_outer_iterations=5, calibrate=False)
    sigma, u, report = reconstruct(fwd.a, el, cfg, g, ground_truth=truth)
    p = tmp_path / "report.csv"
    report.write_csv(p)
    with open(p) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "iteration", "g_delta", "g", "tv_term", "boundary_term", "delta_term",
        "sigma_change", "rel_error", "solve_iterations", "solve_residual",
    ]
    assert len(rows) - 1 == report.iterations
    assert float(rows[1][1]) == pytest.approx(report.records[0].g_delta, rel=1e-10)
