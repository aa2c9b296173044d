"""The inverse solver: the weighted-TV functionals, the regularized
fixed-point reconstruction ``reconstruct`` with its settings ``ReconConfig``,
the ``ReconReport`` of both iterative runs, and regularization-schedule
studies.  The module ``family`` owns the reparametrization family that the
calibration and the calibrated stop rule work on.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import (
    ElectrodeSet,
    RobinCoefficients,
    _check_smoothing,
    boundary_faces,
    robin_coefficients,
)
from .elliptic import SOLVE_TOL, SolveStats, assemble_robin, pcg_solve
from .errors import DataError
from .family import (
    CALIBRATION_BAND,
    _check_background,
    _check_band,
    _family_free_change,
    _level_bins,
    level_calibration,
)
from .fields import (
    Grid,
    ScalarField,
    _cells_to_nodes_wide,
    _gradient_wide,
    _magnitude,
    _weighted_tv,
    _wide_cells,
    _zero_ring,
    boundary_nodes,
    cell_average,
    gradient,
    rel_l2_error,
    require_same_grid,
)
from .forward import add_noise

# Anderson mixing depth: sigma and residual differences kept per sweep
_ANDERSON_DEPTH = 5
# Inexact inner solves (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996):
# a sweep solves to FORCING times the last relative sigma change, at most
# to _LOOSEST_INNER_TOL and at least to SOLVE_TOL
_FORCING = 1e-2
_LOOSEST_INNER_TOL = 1e-3
# ``convergence_study`` compares the spreads of the first and last thirds of
# the schedule; with at most 3 steps each third is one value and both are 0
MIN_STUDY_STEPS = 4
# defaults of ``convergence_study``: the noise seed of step 0, and how small
# the last third's spread must be against the first's
STUDY_SEED = 0
STUDY_TAIL_FRACTION = 0.1


def _check_grad_floor(grad_floor: float) -> None:
    """DataError unless the relative gradient floor lies in (0, 1), NaN
    excluded: a zero floor divides by zero on a constant potential, and from
    1 up every node is floored and sigma no longer depends on u."""
    if not (0.0 < grad_floor < 1.0):
        raise DataError(f"grad_floor must be positive and less than 1, got {grad_floor}")


def _check_iteration_cap(name: str, cap: int) -> None:
    """DataError unless an iteration cap is an integer of at least 1: a
    float, even 2.0, or inf would build and fail once the run counts to it."""
    if not (isinstance(cap, (int, np.integer)) and cap >= 1):
        raise DataError(f"{name} must be an integer of at least 1, got {cap!r}")


@dataclass(frozen=True)
class ReconConfig:
    """Settings of ``reconstruct`` and their defaults, checked when built
    (DataError), so a config that builds, by ``dataclasses.replace`` too,
    never fails a rule later.

    A setting that another function reads is checked by that function's
    rule: ``epsilon`` and ``transition_width`` by ``robin_coefficients``,
    whose model they select.  At epsilon = 0 that is the sharp model, to
    which the width does not apply; otherwise it is the rule of
    ``smoothed_coefficients`` (the width, None: 4h of the grid
    reconstructed on, so data made on another grid need an explicit
    width), all but the width's bound of 2h, which needs the grid.
    ``grad_floor`` is checked by ``sigma_from_potential``, and
    ``initial_sigma`` and ``calibration_band`` by ``level_calibration``.
    The rest are checked here: ``delta`` positive and finite, ``stop_tol``
    positive, ``max_outer_iterations`` an integer of at least 1, and
    ``sigma_bounds`` (lo, hi), onto which every iterate is projected (None:
    unbounded), with 0 < lo <= hi.

    ``calibrate`` assumes that the medium equals ``initial_sigma`` in the
    margin band of width ``calibration_band`` (the standard embedding of an
    imaged region into a homogeneous background); turn it off when that
    does not hold.
    """

    epsilon: float = 5e-4
    delta: float = 3e-3
    max_outer_iterations: int = 200
    stop_tol: float = 1e-6
    grad_floor: float = 1e-8
    sigma_bounds: tuple[float, float] | None = None
    initial_sigma: float = 1.0
    transition_width: float | None = None  # None picks 4h
    calibrate: bool = True
    calibration_band: float = CALIBRATION_BAND

    def __post_init__(self):
        # a setting that another function reads is checked by that function's rule
        if self.epsilon != 0.0:  # robin_coefficients: sharp at 0, no width
            _check_smoothing(self.epsilon, self.transition_width)
        # written as `not x > 0` so that NaN is rejected too
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise DataError(f"delta must be positive and finite, got {self.delta}")
        _check_grad_floor(self.grad_floor)
        _check_iteration_cap("max_outer_iterations", self.max_outer_iterations)
        if not self.stop_tol > 0.0:
            raise DataError(f"stop_tol must be positive, got {self.stop_tol}")
        _check_background(self.initial_sigma)
        _check_band(self.calibration_band)
        if self.sigma_bounds is not None:
            lo, hi = self.sigma_bounds
            if not (0.0 < lo <= hi):
                raise DataError(f"sigma bounds must satisfy 0 < lo <= hi, got {self.sigma_bounds}")


@dataclass
class IterationRecord:
    """One iteration of either run, numbered by its place in ``ReconReport.records``.

    A sweep of ``reconstruct`` records the TV, boundary and delta terms of
    ``functional_Gdelta`` at its inexact solve, the relative change of
    sigma, the error of the sigma image against the ground truth (None
    without one), and its solve's CG iterations and residual.  An iteration
    of the Bregman comparator records its weighted TV in ``tv_term``, zero
    boundary and delta terms, and the relative change of v in
    ``sigma_change``.
    """

    tv_term: float
    boundary_term: float
    delta_term: float
    sigma_change: float
    rel_error: float | None
    solve_iterations: int
    solve_residual: float

    @property
    def g(self) -> float:
        return self.tv_term + self.boundary_term

    @property
    def g_delta(self) -> float:
        return self.tv_term + self.boundary_term + self.delta_term


_CSV_COLUMNS = (
    "iteration", "g_delta", "g", "tv_term", "boundary_term", "delta_term",
    "sigma_change", "rel_error", "solve_iterations", "solve_residual",
)


@dataclass
class ReconReport:
    """The report of either iterative run, ``reconstruct`` or the Bregman
    comparator: one record per sweep or iteration; ``stop_reason`` "tol"
    once ``stop_change``, the last value the stop rule compared, met its
    tolerance, and "cap" when the iterations ran out (``converged`` false);
    the strength max |phi' - 1| of each calibration pass; and the final
    solve's stats.  The comparator makes no calibration or final solve.
    """

    records: list[IterationRecord] = field(default_factory=list)
    final_solve: SolveStats | None = None
    calibrations: list[float] = field(default_factory=list)
    stop_reason: str = ""
    stop_change: float = math.nan

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def converged(self) -> bool:
        return self.stop_reason != "cap"

    def g_delta_values(self) -> list[float]:
        return [r.g_delta for r in self.records]

    def write_csv(self, path) -> None:
        """Write the records as CSV, one row per record under the header
        ``_CSV_COLUMNS``: ``g`` is tv_term + boundary_term, ``g_delta`` adds
        delta_term, and ``rel_error`` is empty without a ground truth."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_CSV_COLUMNS)
            for k, r in enumerate(self.records):
                w.writerow([
                    k,
                    f"{r.g_delta:.12g}", f"{r.g:.12g}", f"{r.tv_term:.12g}",
                    f"{r.boundary_term:.12g}", f"{r.delta_term:.12g}",
                    f"{r.sigma_change:.12g}",
                    "" if r.rel_error is None else f"{r.rel_error:.12g}",
                    r.solve_iterations, f"{r.solve_residual:.6g}",
                ])


def boundary_penalty(v: ScalarField, coeffs: RobinCoefficients) -> float:
    """0.5 * integral of b (v - c/b)^2 over the boundary, the boundary term
    of G for Robin data (b, c) with b >= 0, on the faces on which
    ``assemble_robin`` integrates b and c (``boundary.boundary_faces``): a
    face of length w adds 0.5 w (b v^2 - 2 c v), plus 0.5 w c^2/b where
    b > 0, with v at the node that owns it.  So it is defined at b = 0, and
    penalty(v) - penalty(0) is 0.5 v'(A - K)v - rhs'v for the Robin system
    (A, rhs) and its flux part K.
    """
    require_same_grid(v, coeffs)
    return _boundary_penalty_of(coeffs)(v.values)


def _boundary_penalty_of(coeffs: RobinCoefficients) -> Callable[[np.ndarray], float]:
    """``boundary_penalty`` for fixed coefficients, as a function of the flat
    nodal values of v; the face terms are computed once."""
    node_f, val_f, w = boundary_faces(coeffs.grid)
    rows = boundary_nodes(coeffs.grid)[node_f]
    b, c = coeffs.b.values[val_f], coeffs.c.values[val_f]
    constant = float(0.5 * np.sum(w * np.divide(c * c, b, out=np.zeros_like(b), where=b > 0.0)))
    half_wb, wc = 0.5 * w * b, w * c
    return lambda values: float(np.sum((half_wb * values[rows] - wc) * values[rows])) + constant


def functional_G(v: ScalarField, a: ScalarField, coeffs: RobinCoefficients) -> float:
    """Weighted-TV functional: integral of a |grad v| plus the boundary
    penalty 0.5 * integral of b (v - c/b)^2 on the faces of the Robin
    assembly, b >= 0 (``boundary_penalty``); ``functional_Gdelta`` at
    delta 0."""
    return functional_Gdelta(v, a, coeffs, 0.0)


def functional_Gdelta(
    v: ScalarField, a: ScalarField, coeffs: RobinCoefficients, delta: float
) -> float:
    """Regularized functional G^delta: G plus (delta/2) * integral of
    |grad v|^2, the functional that the Robin solves of ``reconstruct``
    decrease."""
    if not delta >= 0.0:
        raise DataError(f"delta must be nonnegative, got {delta}")
    require_same_grid(v, a, coeffs)
    grad_v = gradient(v)
    return sum(_functional_terms(
        grad_v.x2d, grad_v.y2d, grad_v.magnitude2d(), cell_average(a), v.values,
        _boundary_penalty_of(coeffs), delta, v.grid.h,
    ))


def _functional_terms(
    gx: np.ndarray, gy: np.ndarray, magnitude: np.ndarray, weight2d: np.ndarray,
    values: np.ndarray, penalty: Callable[[np.ndarray], float], delta: float, h: float,
) -> tuple[float, float, float]:
    """``functional_Gdelta`` as its TV, boundary and delta terms, from the
    (n-1, n-1) cell gradient components of v and its magnitude, the cell
    weights ``cell_average(a)``, the nodal values of v and
    ``_boundary_penalty_of`` the coefficients."""
    dterm = float(0.5 * delta * np.sum(np.square(gx) + np.square(gy)) * h**2)
    return _weighted_tv(magnitude, weight2d, h), penalty(values), dterm


def sigma_from_potential(
    a: ScalarField, v: ScalarField, grad_floor: float
) -> ScalarField:
    """Conductivity update a / max(|grad v|, floor) at the nodes, with the
    cell magnitudes |grad v| of ``fields._magnitude``.

    The floor is relative: grad_floor times the maximum nodal gradient
    magnitude.  A constant v (zero gradient everywhere) degenerates to
    a / grad_floor; callers should treat that as a flagged outcome.
    Raises DataError unless 0 < grad_floor < 1.
    """
    _check_grad_floor(grad_floor)
    grid = require_same_grid(a, v)
    n = grid.n
    grad = np.zeros((2, (n - 1) * n))
    _gradient_wide(v.values, n, grid.h, *grad)
    padded, magnitude = _zero_ring(n)
    sigma = np.empty(grid.num_nodes)
    _sigma_from_potential_gradient(
        a.values, grad, grad_floor, padded, magnitude, np.empty(grid.num_nodes), sigma)
    return ScalarField(grid, sigma)


def _sigma_from_potential_gradient(
    a_values: np.ndarray, grad: np.ndarray, grad_floor: float, padded: np.ndarray,
    magnitude: np.ndarray, nodes: np.ndarray, out: np.ndarray,
) -> None:
    """``sigma_from_potential`` from the wide cell gradient ``grad`` of v
    into the flat ``out``.  The cell magnitudes |grad v| go to the wide
    ``magnitude`` inside the ``_zero_ring`` buffer ``padded``, and their
    nodal averages to ``nodes``."""
    n = math.isqrt(out.size)
    _magnitude(*grad, magnitude)  # zero in the padding column, as the average needs
    _cells_to_nodes_wide(padded, n, nodes)
    peak = float(nodes.max())
    floor = grad_floor * peak if peak > 0.0 else grad_floor
    np.maximum(nodes, floor, out=nodes)
    np.divide(a_values, nodes, out=out)


def _project(values: np.ndarray, bounds: tuple[float, float] | None,
             out: np.ndarray | None = None) -> np.ndarray:
    """``values`` clipped to ``bounds`` (None: unbounded), into ``out`` when
    given; unbounded values are returned as they are."""
    if bounds is None:
        return values
    return np.clip(values, bounds[0], bounds[1], out=out)


class _Anderson:
    """Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011; type II,
    no damping) for a fixed point x = G(x) with positive entries, where G
    goes through an intermediate state u = U(x) (the potential).

    ``step(x, image, u)`` takes the current iterate, its image G(x) and its
    state U(x), and returns the next iterate: image - (dX + dG) gamma, where
    dX and dG hold the differences of the last ``_ANDERSON_DEPTH`` iterates
    and residuals g = G(x) - x, gamma minimizes ||g - dG gamma|| (solved on
    the small Gram system), and the result is projected onto ``bounds``.
    The history is cleared and the plain image returned when the residual
    norm more than doubles from the previous step or the candidate has an
    entry <= 0, so a rejection costs no extra evaluation of G.

    After each step ``warm_start`` predicts the state of the returned
    iterate: u - dU gamma, with dU the differences of the states, kept in
    lockstep with dX (Fischer's projection of earlier solutions, CMAME 163,
    1998), written into a buffer allocated once.  It is the state of the
    extrapolated iterate x - dX gamma, whose residual g - dG gamma is the
    minimized one, so for a smooth U it is off only by the response to
    that small residual.  Without a mixed candidate (no history, a clear
    or a rejection) it is u itself.
    """

    def __init__(self, size: int, bounds: tuple[float, float] | None):
        self._bounds = bounds
        self._dx = np.zeros((_ANDERSON_DEPTH, size))
        self._dg = np.zeros((_ANDERSON_DEPTH, size))
        self._du = np.zeros((_ANDERSON_DEPTH, size))
        self._x = np.zeros(size)
        self._g = np.zeros(size)
        self._u = np.zeros(size)
        self._start = np.zeros(size)
        self.warm_start: np.ndarray | None = None  # no guess before the first step
        self._g_norm = math.inf  # inf before the first step
        self._stored = 0  # difference rows in use
        self._slot = 0  # the row the next difference overwrites

    def _clear(self) -> None:
        self._stored = 0
        self._slot = 0

    def step(self, x: np.ndarray, image: np.ndarray, u: np.ndarray) -> np.ndarray:
        g = image - x
        g_norm = float(np.linalg.norm(g))
        if g_norm > 2.0 * self._g_norm:
            self._clear()
        elif math.isfinite(self._g_norm):
            np.subtract(x, self._x, out=self._dx[self._slot])
            np.subtract(g, self._g, out=self._dg[self._slot])
            np.subtract(u, self._u, out=self._du[self._slot])
            self._slot = (self._slot + 1) % _ANDERSON_DEPTH
            self._stored = min(self._stored + 1, _ANDERSON_DEPTH)
        self._x[:] = x
        self._g[:] = g
        self._u[:] = u
        self._g_norm = g_norm
        self.warm_start = u
        if self._stored == 0:
            return image
        dx, dg = self._dx[:self._stored], self._dg[:self._stored]
        gamma = np.linalg.lstsq(dg @ dg.T, dg @ g, rcond=None)[0]
        candidate = _project(image - gamma @ dx - gamma @ dg, self._bounds)
        if np.any(candidate <= 0.0):
            self._clear()
            return image
        np.matmul(gamma, self._du[:self._stored], out=self._start)
        np.subtract(u, self._start, out=self._start)
        self.warm_start = self._start
        return candidate


def reconstruct(
    a: ScalarField,
    electrodes: ElectrodeSet,
    config: ReconConfig,
    grid: Grid,
    ground_truth: ScalarField | None = None,
) -> tuple[ScalarField, ScalarField, ReconReport]:
    """Recover an approximate conductivity from the interior data a, which
    must be nonnegative and not identically zero (DataError).

    Each sweep solves the linearization of ``functional_Gdelta`` at the
    current conductivity, div((sigma_k + delta) grad u) = 0 with
    (sigma_k + delta) du/dnu + b_eps u = c_eps on the boundary (the
    ``robin_coefficients`` of ``config``), and maps sigma to
    P(``sigma_from_potential``), P the projection onto ``sigma_bounds``.
    This lagged-diffusivity map converges only linearly, so Anderson mixing
    (``_Anderson``) accelerates it, each solve starts from the potential
    that the mixing extrapolates from the earlier sweeps' potentials, and
    each solve is only as accurate as the last change of sigma warrants
    (Eisenstat & Walker 1996), never below ``SOLVE_TOL``; the true-residual
    check that ends every solve does not depend on the guess.

    The sweep records its G^delta terms and stops on ``stop_tol``
    (``report.stop_reason`` "tol") or after ``max_outer_iterations`` sweeps
    ("cap"); ``report.stop_change`` is the last value compared.  That is the
    relative change of sigma, or with ``calibrate`` the part of it that the
    calibration keeps: on each level bin that the calibration estimates
    from, the change loses its projection onto sigma, a move along the
    reparametrization family (see ``family``), which the calibration
    replaces anyway and along which the sweep converges slowly.  With
    ``calibrate``, two ``level_calibration`` passes against
    ``initial_sigma`` follow, each on the bins of its own u; they add no
    sweep.  A final solve at ``SOLVE_TOL`` makes the returned potential the
    exact critical point of the linearization at the returned conductivity.
    Every solve is conjugate gradients (``pcg_solve``) with one
    fast-transform preconditioner, built from the first system, whose
    conductivity is the constant ``initial_sigma`` + delta, and dropped on
    return (``SparseSystem.preconditioner``).  The sweep runs in place: the
    constants (cell weights, boundary terms) and the buffers are built once
    per call; each solve assembles its own Robin system.

    A boundary term that rounds away (``assemble_robin``) is a DataError
    that names z at the first assembly; at a later one the iterate ran
    away, and it names the sweep and the largest sigma instead.
    """
    require_same_grid(grid, a, ground_truth)
    if np.any(a.values < 0.0):
        raise DataError("interior data must be nonnegative")
    if float(a.values.max()) == 0.0:
        raise DataError("interior data is identically zero")

    coeffs = robin_coefficients(electrodes, grid, config.epsilon, config.transition_width)

    n, h = grid.n, grid.h
    delta, bounds = config.delta, config.sigma_bounds
    report = ReconReport()
    preconditioner = None  # built from the first system
    weight = cell_average(a)
    penalty = _boundary_penalty_of(coeffs)
    # every sweep writes into these: the cell gradient of u and its
    # magnitude in the wide layout of ``fields`` (gx, gy and cell_magnitude
    # view their real cells), the nodal magnitude, the sigma image and
    # sigma + delta
    grad = np.zeros((2, (n - 1) * n))
    gx, gy = (_wide_cells(c, n) for c in grad)
    padded, magnitude = _zero_ring(n)
    cell_magnitude = _wide_cells(magnitude, n)
    nodes = np.empty(grid.num_nodes)
    image = np.empty(grid.num_nodes)
    shifted = np.empty(grid.num_nodes)

    def solve_at(sigma: np.ndarray, tol: float, x0: np.ndarray | None):
        nonlocal preconditioner
        np.add(sigma, delta, out=shifted)
        try:
            system = assemble_robin(ScalarField(grid, shifted), coeffs, grid)
        except DataError as exc:
            if not report.records:  # no sweep recorded yet, at initial_sigma: z is at fault
                raise
            raise DataError(f"sigma reached {sigma.max():g} after sweep {report.iterations}: "
                            "the data do not fit the electrode model") from exc
        preconditioner = preconditioner or system.preconditioner  # the first system's
        x, stats = pcg_solve(system, tol, x0, preconditioner)
        return ScalarField(grid, x), stats

    sigma = np.full(grid.num_nodes, config.initial_sigma)
    mixer = _Anderson(grid.num_nodes, bounds)
    change = math.inf
    report.stop_reason = "cap"
    for _ in range(config.max_outer_iterations):
        tol = max(SOLVE_TOL, min(_LOOSEST_INNER_TOL, _FORCING * change))
        # u is the solved potential, never the guess: the stop rule, a
        # capped return and the calibration read it
        u, stats = solve_at(sigma, tol, mixer.warm_start)
        _gradient_wide(u.values, n, h, *grad)
        _sigma_from_potential_gradient(
            a.values, grad, config.grad_floor, padded, magnitude, nodes, image)
        _project(image, bounds, out=image)
        change = float(np.linalg.norm(image - sigma)) / float(np.linalg.norm(sigma))
        tv, bterm, dterm = _functional_terms(
            gx, gy, cell_magnitude, weight, u.values, penalty, delta, h)
        rel = (None if ground_truth is None
               else rel_l2_error(ScalarField(grid, image), ground_truth))
        report.records.append(IterationRecord(
            tv_term=tv, boundary_term=bterm, delta_term=dterm,
            sigma_change=change, rel_error=rel,
            solve_iterations=stats.iterations,
            solve_residual=stats.relative_residual,
        ))
        report.stop_change = (
            _family_free_change(sigma, image, _level_bins(u, config.calibration_band))
            if config.calibrate else change)
        if report.stop_change <= config.stop_tol:
            report.stop_reason = "tol"
            break
        # a copy: the step may return the image, which the next sweep overwrites
        sigma = np.array(mixer.step(sigma, image, u.values))
    sigma = ScalarField(grid, image)

    if config.calibrate:
        for _ in range(2):
            sigma, u, strength = level_calibration(
                sigma, u, electrodes, config.initial_sigma, config.calibration_band)
            report.calibrations.append(strength)
            sigma = ScalarField(grid, _project(sigma.values, bounds))

    # consistency solve: the returned potential solves the linear problem
    # for the returned conductivity exactly (up to solver tolerance)
    u_final, final_stats = solve_at(sigma.values, SOLVE_TOL, u.values)
    report.final_solve = final_stats
    return sigma, u_final, report


@dataclass
class ScheduleStudy:
    """Per-step results of a regularization schedule run; ``stop_reasons``
    holds each step's ``ReconReport.stop_reason``."""

    deltas: list[float]
    etas: list[float]
    g_delta_values: list[float]
    g_clean_values: list[float]
    rel_errors: list[float]
    tail_ratio: float
    tail_converged: bool
    stop_reasons: list[str]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("step", "delta", "eta", "g_delta", "g_clean", "rel_error"))
            for k in range(len(self.deltas)):
                err = self.rel_errors[k]
                w.writerow([
                    k, f"{self.deltas[k]:.12g}", f"{self.etas[k]:.12g}",
                    f"{self.g_delta_values[k]:.12g}", f"{self.g_clean_values[k]:.12g}",
                    "" if math.isnan(err) else f"{err:.12g}",
                ])


def check_schedule(deltas, etas) -> None:
    """Validate a regularization schedule (DataError): deltas strictly
    decreasing and positive, etas nonnegative, eta_n^2 / delta_n
    non-increasing and decreasing toward zero.  The ratios are compared
    relatively, so the rule is the same at every scale of eta^2 / delta."""
    deltas = [float(d) for d in deltas]
    etas = [float(e) for e in etas]
    if len(deltas) != len(etas) or not deltas:
        raise DataError("schedule needs matching, nonempty delta and eta sequences")
    # written as `not x > 0` so that NaN is rejected too
    if any(not d > 0.0 for d in deltas):
        raise DataError("schedule deltas must be positive")
    if any(not e >= 0.0 for e in etas):
        raise DataError("schedule etas must be nonnegative")
    if any(deltas[k + 1] >= deltas[k] for k in range(len(deltas) - 1)):
        raise DataError("schedule deltas must decrease strictly")
    ratios = [e * e / d for e, d in zip(etas, deltas)]
    # relative, as the check below: an absolute margin rejects a plateau that
    # rounds up at large scale and accepts a real rise at small scale
    if any(ratios[k + 1] > ratios[k] * (1.0 + 1e-12) for k in range(len(ratios) - 1)):
        raise DataError("inadmissible schedule: eta^2/delta must not increase")
    if ratios[0] > 0.0 and ratios[-1] >= ratios[0] * (1.0 - 1e-12):
        raise DataError("inadmissible schedule: eta^2/delta must decrease toward zero")


def convergence_study(
    a_clean: ScalarField,
    electrodes: ElectrodeSet,
    grid: Grid,
    deltas,
    etas,
    config: ReconConfig | None = None,
    seed: int = STUDY_SEED,
    tail_fraction: float = STUDY_TAIL_FRACTION,
    ground_truth: ScalarField | None = None,
) -> ScheduleStudy:
    """Run the reconstruction along a regularization schedule.

    Step n perturbs the clean data at amplitude eta_n (seeded with
    seed + n), reconstructs with delta_n, and records the regularized
    functional at the noisy weight and the plain functional at the clean
    weight.  The tail is declared converged when the spread of the last
    third of the clean-functional values is at most ``tail_fraction`` times
    the spread of the first third; a schedule needs at least
    ``MIN_STUDY_STEPS`` steps for the thirds to have a spread, and the
    fraction must be finite and nonnegative (DataError).  The defaults are
    ``STUDY_SEED`` and ``STUDY_TAIL_FRACTION``.  The sweeps run without the
    ground truth; each step's error is taken once, from its final sigma
    (NaN without a ground truth).
    """
    require_same_grid(grid, a_clean, ground_truth)
    check_schedule(deltas, etas)
    if len(deltas) < MIN_STUDY_STEPS:
        raise DataError(f"need at least {MIN_STUDY_STEPS} schedule steps, got {len(deltas)}")
    if not (math.isfinite(tail_fraction) and tail_fraction >= 0.0):
        raise DataError(f"tail fraction must be finite and nonnegative, got {tail_fraction}")
    if config is None:
        config = ReconConfig()
    coeffs = robin_coefficients(electrodes, grid, config.epsilon, config.transition_width)

    g_delta_vals, g_clean_vals, errors, reasons = [], [], [], []
    for k, (d, e) in enumerate(zip(deltas, etas)):
        a_n = add_noise(a_clean, e, seed + k)
        cfg = replace(config, delta=float(d))
        # no ground truth: the error of each sweep would go unread
        sigma, u, report = reconstruct(a_n, electrodes, cfg, grid)
        reasons.append(report.stop_reason)
        g_delta_vals.append(functional_Gdelta(u, a_n, coeffs, float(d)))
        g_clean_vals.append(functional_G(u, a_clean, coeffs))
        errors.append(
            float("nan") if ground_truth is None else rel_l2_error(sigma, ground_truth)
        )

    m = math.ceil(len(g_clean_vals) / 3)
    head = g_clean_vals[:m]
    tail = g_clean_vals[-m:]
    spread_head = max(head) - min(head)
    spread_tail = max(tail) - min(tail)
    ratio = spread_tail / spread_head if spread_head > 0.0 else 0.0
    return ScheduleStudy(
        deltas=[float(d) for d in deltas],
        etas=[float(e) for e in etas],
        g_delta_values=g_delta_vals,
        g_clean_values=g_clean_vals,
        rel_errors=errors,
        tail_ratio=ratio,
        tail_converged=spread_tail <= tail_fraction * spread_head,
        stop_reasons=reasons,
    )
