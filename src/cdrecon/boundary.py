"""Electrode geometry, sharp and smoothed Robin boundary coefficients, and
electrode quadrature.

Two electrodes sit centered on the top and bottom sides of the unit square,
the injecting one e+.  ``robin_coefficients`` selects the sharp or the
smoothed electrode model by epsilon.  ``base_coefficients`` decides which
boundary nodes each electrode covers, ``boundary_faces`` how the discrete
systems integrate along the boundary, and ``electrode_quadrature`` reads
each electrode's faces off the two.

This module is the one owner of the electrode footprint: both functions
give grid-node rows (``boundary_faces`` the row of each face,
``electrode_quadrature`` each electrode's rows), which the Robin and CEM
systems, the CEM scaling and the level calibration index with as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError
from .fields import BoundaryValues, Grid, boundary_loop, boundary_nodes, require_same_grid


@dataclass(frozen=True)
class ElectrodeSet:
    """Centered top/bottom electrode pair.

    aperture: electrode length as a fraction of the side length, in (0, 1].
    z: contact impedance (finite, > 0).  current: net injected current I
    (finite, > 0).
    top_positive: injection electrode e+ on the top side (flip to reverse
    polarity).  Checked when built (DataError).
    """

    aperture: float = 1.0
    z: float = 1.0
    current: float = 1.0
    top_positive: bool = True

    def __post_init__(self):
        if not (0.0 < self.aperture <= 1.0):
            raise DataError(f"aperture must be in (0, 1], got {self.aperture}")
        for name, value in (("contact impedance z", self.z), ("injected current", self.current)):
            if not (math.isfinite(value) and value > 0.0):
                raise DataError(f"{name} must be finite and positive, got {value}")

    def span(self) -> tuple[float, float]:
        """The x interval covered by each electrode (same for both by symmetry)."""
        half = 0.5 * self.aperture
        return 0.5 - half, 0.5 + half


@dataclass(frozen=True)
class RobinCoefficients:
    """Boundary coefficient pair (b, c) of the Robin condition
    sigma du/dnu + b u = c; b and c must share one grid
    (``require_same_grid``)."""

    b: BoundaryValues
    c: BoundaryValues

    @property
    def grid(self) -> Grid:
        return self.b.grid

    def __post_init__(self):
        require_same_grid(self.b, self.c)


@lru_cache(maxsize=4)
def boundary_faces(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Face decomposition of the boundary for assembly and flux integrals:
    the one rule, read by the Robin and CEM systems, ``boundary_net_flux``,
    the boundary penalty of ``recon`` and ``electrode_quadrature``.

    Returns (rows, value_idx, weight) arrays over all boundary faces:
    ``rows`` is the global node of the row each face adds to (the node
    owning it), ``value_idx`` the loop index whose stored coefficient value
    applies on that face, ``weight`` the face length.  Non-corner nodes own
    a single face of length h carrying their own value.  A corner owns two
    half-faces of length h/2: the lateral-side face carries the corner's
    own stored value, while the horizontal-side face carries the value
    stored at the adjacent non-corner node of that side (the corner rule
    keeps electrode values off the corner entry itself).  The arrays are
    cached per grid and read-only.
    """
    m = grid.n - 1
    h = grid.h
    k = np.arange(4 * m)
    corner = k[::m]  # loop indices 0, m, 2m, 3m
    node_idx = np.repeat(k, np.where(k % m == 0, 2, 1))
    # a corner's two faces are adjacent, its first one shifted by the extra
    # faces of the corners before it; the second carries the value of the
    # adjacent node on the corner's horizontal side:
    # (0,0)->(1,0), (m,0)->(m-1,0), (m,m)->(m-1,m), (0,m)->(1,m)
    first = corner + np.arange(4)
    value_idx = node_idx.copy()
    value_idx[first + 1] = corner + np.array([1, -1, 1, -1])
    weight = np.full(node_idx.size, h)
    weight[first] = weight[first + 1] = 0.5 * h
    faces = (boundary_nodes(grid)[node_idx], value_idx, weight)
    for a in faces:
        a.flags.writeable = False  # shared by every caller on this grid
    return faces


def _loop_positions(grid: Grid) -> np.ndarray:
    """Arc-length coordinate of each boundary node along the loop, in [0, 4)."""
    return np.arange(grid.num_boundary_nodes) * grid.h


def _electrode_intervals(electrodes: ElectrodeSet) -> tuple[tuple[float, float], ...]:
    """Loop-coordinate intervals of e+ and e-, in that order.

    Loop coordinate t runs counterclockwise from (0,0): bottom t = x,
    right t = 1 + y, top t = 3 - x, left t = 4 - y.
    """
    xl, xh = electrodes.span()
    top, bottom = (3.0 - xh, 3.0 - xl), (xl, xh)
    return (top, bottom) if electrodes.top_positive else (bottom, top)


def _circular_interval_distance(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Distance from loop positions t to the arc [lo, hi] on a loop of length 4."""
    inside = (t >= lo - 1e-12) & (t <= hi + 1e-12)
    d_lo = np.minimum(np.abs(t - lo), 4.0 - np.abs(t - lo))
    d_hi = np.minimum(np.abs(t - hi), 4.0 - np.abs(t - hi))
    return np.where(inside, 0.0, np.minimum(d_lo, d_hi))


def smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep 6t^5 - 15t^4 + 10t^3 clamped to [0, 1]; its first
    and second derivatives vanish at both ends, making glued profiles C2."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def base_coefficients(electrodes: ElectrodeSet, grid: Grid) -> RobinCoefficients:
    """Sharp coefficients: b = 1/z and c = +I on e+, -I on e-, zero
    elsewhere.  An electrode's nodes are those of its side whose x lies in
    its span (snapped inward where its ends fall between nodes); one that
    spans fewer than two nodes is a DataError.  Corner nodes belong to the
    vertical sides, never to an electrode, so the stored value at a corner
    is the lateral-side one; through ``boundary_faces`` a corner next to an
    electrode node still carries the electrode on its horizontal half-face.
    """
    i, j = boundary_loop(grid)
    x = i * grid.h
    xl, xh = electrodes.span()
    spanned = (x >= xl - 1e-12) & (x <= xh + 1e-12)
    plus_row = grid.n - 1 if electrodes.top_positive else 0
    b = np.zeros(grid.num_boundary_nodes)
    c = np.zeros(grid.num_boundary_nodes)
    for row, current in ((plus_row, electrodes.current),
                         (grid.n - 1 - plus_row, -electrodes.current)):
        on = spanned & (j == row)
        if np.count_nonzero(on) < 2:
            raise DataError(
                f"aperture {electrodes.aperture} spans fewer than two nodes at n={grid.n}"
            )
        on &= (i > 0) & (i < grid.n - 1)  # the corner rule
        b[on] = 1.0 / electrodes.z
        c[on] = current
    return RobinCoefficients(BoundaryValues(grid, b), BoundaryValues(grid, c))


def _check_smoothing(epsilon: float, width: float | None) -> None:
    """The rule of ``smoothed_coefficients`` but the width's bound of 2h, which
    needs the grid: epsilon in (0, 1], a width (None: 4h) finite and positive."""
    if not (0.0 < epsilon <= 1.0):
        raise DataError(f"epsilon must be in (0, 1], got {epsilon}")
    if width is not None and not (math.isfinite(width) and width > 0.0):
        raise DataError(f"transition width must be finite and positive, got {width}")


def smoothed_coefficients(
    electrodes: ElectrodeSet,
    grid: Grid,
    epsilon: float,
    width: float | None = None,
) -> RobinCoefficients:
    """C2-glued coefficients: b transitions from 1/z on the electrodes to
    epsilon/z at arc distance >= width, c from +/-I to 0, both via the
    quintic smoothstep over the transition band.

    Epsilon must lie in (0, 1] and the width (None: 4h) be finite, positive
    and at least 2h (DataError); ``ReconConfig`` applies this rule when
    built, all but the bound of 2h, which needs the grid.  The profile takes
    no node set, so any aperture in (0, 1] is accepted.  The default width
    is 4h of the grid it is applied to, so data made on one grid and
    reconstructed on another need an explicit width.
    """
    _check_smoothing(epsilon, width)
    if width is None:
        width = 4.0 * grid.h
    if width < 2.0 * grid.h - 1e-12:
        raise DataError(
            f"transition width {width} is unresolvable on spacing h={grid.h}; need >= 2h"
        )
    t = _loop_positions(grid)
    profiles = []
    for lo, hi in _electrode_intervals(electrodes):
        d = _circular_interval_distance(t, lo, hi)
        profiles.append(np.where(d >= width, 0.0, 1.0 - smoothstep(d / width)))
    plus, minus = profiles
    z, cur = electrodes.z, electrodes.current
    b = (epsilon + (1.0 - epsilon) * np.maximum(plus, minus)) / z
    c = cur * (plus - minus)
    return RobinCoefficients(BoundaryValues(grid, b), BoundaryValues(grid, c))


def robin_coefficients(
    electrodes: ElectrodeSet,
    grid: Grid,
    epsilon: float,
    width: float | None = None,
) -> RobinCoefficients:
    """The coefficients of the electrode model that ``epsilon`` selects: the
    sharp ``base_coefficients`` at epsilon = 0, where ``width`` does not
    apply, and ``smoothed_coefficients`` otherwise."""
    if epsilon == 0.0:
        return base_coefficients(electrodes, grid)
    return smoothed_coefficients(electrodes, grid, epsilon, width)


def electrode_quadrature(
    electrodes: ElectrodeSet, grid: Grid
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The boundary faces each electrode covers, e+ first: the faces of
    ``boundary_faces`` whose coefficient value is one of the electrode's
    nodes in ``base_coefficients`` (DataError where it spans fewer than
    two).

    Returns ((rows, weights), (rows, weights)) for e+ and e-: the global
    nodes of the rows those faces add to, ordered by x (an electrode's
    rows lie on one grid line), and the length of each node's faces, h, or
    h/2 at a corner, which joins the arc whose end is its horizontal
    neighbour.  An electrode of k nodes thus has length k h, the footprint
    of the sharp Robin system, and at full aperture its corners make the
    length exactly 1.

    These are the faces on which the sharp Robin system integrates b and c,
    so it is the one electrode discretization: the complete electrode
    model, ``cem_scaling`` and ``level_calibration`` read its rows as they
    are.
    """
    c = base_coefficients(electrodes, grid).c.values
    rows, value, weight = boundary_faces(grid)
    arcs = []
    for sign in (1.0, -1.0):
        w = np.bincount(rows, np.where(sign * c[value] > 0.0, weight, 0.0))
        idx = np.flatnonzero(w)  # along one grid line, so ordered by x
        arcs.append((idx, w[idx]))
    return arcs[0], arcs[1]
