"""Grid geometry, nodal and cell-centered fields, discrete differential
operators, weighted total variation, norms, and the FLD1 field file format.

Conventions used throughout the package:

* The domain is the unit square [0,1]^2, discretized by n nodes per side
  with spacing h = 1/(n-1).  Node (i, j) sits at (i*h, j*h).
* Nodal values are stored row-major with j (the y index) outermost, so the
  flat index of node (i, j) is j*n + i.
* Cell quantities (gradients, TV integrands) live at the (n-1)^2 cell
  centers, indexed the same way with (n-1) per side.
* Boundary values are stored counterclockwise along the boundary loop
  starting at node (0, 0): bottom, right, top, left; 4(n-1) entries, each
  corner appearing exactly once.
* The private stencil kernels use a wide layout: a flat array of (n-1)*n
  cells holds cell (I, J) at J*n + I, the flat index of its lower-left
  node, so every stencil neighbour is a fixed flat offset and every stencil
  term one contiguous slice (numpy is several times slower on strided 2-D
  views).  The entries at I = n-1 are junk; the last one is never written.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, GridError


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on the unit square."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise GridError(f"grid needs an integer n >= 3 nodes per side, got {self.n!r}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def num_nodes(self) -> int:
        return self.n * self.n

    @property
    def num_cells(self) -> int:
        return (self.n - 1) * (self.n - 1)

    @property
    def num_boundary_nodes(self) -> int:
        return 4 * (self.n - 1)

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) arrays of shape (n, n), indexed [j, i]."""
        t = np.arange(self.n) * self.h
        x, y = np.meshgrid(t, t, indexing="xy")
        return x, y

    def cell_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) of the (n-1, n-1) cell centers, indexed [J, I]."""
        t = (np.arange(self.n - 1) + 0.5) * self.h
        x, y = np.meshgrid(t, t, indexing="xy")
        return x, y


def make_grid(n: int) -> Grid:
    """Build the uniform grid on [0,1]^2 with n nodes per side (n >= 3)."""
    return Grid(int(n))


def boundary_loop(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays of the boundary nodes in counterclockwise loop
    order starting at (0, 0); length 4(n-1), corners once each."""
    n = grid.n
    k = np.arange(n - 1)
    i = np.concatenate([k, np.full(n - 1, n - 1), (n - 1) - k, np.zeros(n - 1, dtype=int)])
    j = np.concatenate([np.zeros(n - 1, dtype=int), k, np.full(n - 1, n - 1), (n - 1) - k])
    return i, j


def boundary_weights(grid: Grid) -> np.ndarray:
    """Arc-length quadrature weights for the closed boundary loop.

    Composite trapezoid on a closed polyline gives every node weight h
    (corners collect h/2 from each adjacent side); the weights sum to the
    exact perimeter 4.
    """
    return np.full(grid.num_boundary_nodes, grid.h)


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid node, flat array of length n^2."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size != self.grid.num_nodes:
            raise DimensionError(
                f"scalar field needs {self.grid.num_nodes} values, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise DimensionError("scalar field contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def values2d(self) -> np.ndarray:
        """View of the values as an (n, n) array indexed [j, i]."""
        return self.values.reshape(self.grid.n, self.grid.n)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        x, y = grid.node_coords()
        return cls(grid, np.asarray(fn(x, y), dtype=float).reshape(-1))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.num_nodes, float(value)))


@dataclass(frozen=True)
class VectorField:
    """Cell-centered 2-vector field; components are flat arrays of length (n-1)^2."""

    grid: Grid
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        vx = np.asarray(self.x, dtype=float).reshape(-1)
        vy = np.asarray(self.y, dtype=float).reshape(-1)
        if vx.size != self.grid.num_cells or vy.size != self.grid.num_cells:
            raise DimensionError(
                f"vector field needs {self.grid.num_cells} values per component, "
                f"got {vx.size} and {vy.size}"
            )
        object.__setattr__(self, "x", vx)
        object.__setattr__(self, "y", vy)

    @property
    def x2d(self) -> np.ndarray:
        m = self.grid.n - 1
        return self.x.reshape(m, m)

    @property
    def y2d(self) -> np.ndarray:
        m = self.grid.n - 1
        return self.y.reshape(m, m)

    def magnitude2d(self) -> np.ndarray:
        return np.hypot(self.x2d, self.y2d)


@dataclass(frozen=True)
class BoundaryValues:
    """One value per boundary node in counterclockwise loop order from (0,0)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size != self.grid.num_boundary_nodes:
            raise DimensionError(
                f"boundary values need {self.grid.num_boundary_nodes} entries, got {v.size}"
            )
        object.__setattr__(self, "values", v)


def require_same_grid(*objs) -> Grid:
    grid = objs[0].grid
    for o in objs[1:]:
        if o.grid.n != grid.n:
            raise DimensionError(
                f"operands live on different grids: n={grid.n} vs n={o.grid.n}"
            )
    return grid


def gradient(u: ScalarField) -> VectorField:
    """Cell-centered gradient.

    Each component averages the two forward differences across the cell:
    gx = (u[i+1,j] - u[i,j] + u[i+1,j+1] - u[i,j+1]) / (2h), gy analogous.
    Exact on affine fields.
    """
    n = u.grid.n
    gx, gy = np.zeros((2, (n - 1) * n))
    _gradient_wide(u.values, n, u.grid.h, gx, gy)
    return VectorField(u.grid, _wide_cells(gx, n).reshape(-1),
                       _wide_cells(gy, n).reshape(-1))


def _wide_cells(c: np.ndarray, n: int) -> np.ndarray:
    """The (n-1, n-1) view, indexed [J, I], of the real cells of a wide cell
    array."""
    return c.reshape(n - 1, n)[:, :-1]


def _wide_interior(nodes: np.ndarray, n: int) -> np.ndarray:
    """The (n-2, n-2) view of the interior nodes in the output of
    ``_divergence_wide``."""
    return nodes.reshape(n - 2, n)[:, :-2]


def _gradient_wide(u: np.ndarray, n: int, h: float,
                   gx: np.ndarray, gy: np.ndarray) -> None:
    """``gradient`` of the flat (n*n) nodal values ``u`` into the caller's
    wide cell arrays ``gx`` and ``gy``."""
    k = (n - 1) * n - 1  # cells written: all but the last, junk one
    gx, gy = gx[:k], gy[:k]
    two_h = 2.0 * h
    np.subtract(u[1:k + 1], u[:k], out=gx)
    gx += u[n + 1:]
    gx -= u[n:n + k]
    gx /= two_h
    np.subtract(u[n:n + k], u[:k], out=gy)
    gy += u[n + 1:]
    gy -= u[1:k + 1]
    gy /= two_h


def divergence(f: VectorField) -> ScalarField:
    """Cell-to-node divergence, the negative transpose of ``gradient``.

    Satisfies <gradient(v), F>_cells * h^2 == -<v, divergence(F)>_nodes * h^2
    exactly (up to roundoff) for every v and F.  Computed as the interior
    divergence on the grid of n+2 nodes whose outer ring of cells is zero.
    """
    n = f.grid.n
    fx, fy = np.zeros((2, (n + 1) * (n + 2)))
    _wide_cells(fx, n + 2)[1:-1, 1:-1] = f.x2d
    _wide_cells(fy, n + 2)[1:-1, 1:-1] = f.y2d
    div, work = np.zeros((2, n * (n + 2)))
    _divergence_wide(fx, fy, n + 2, f.grid.h, div, work)
    return ScalarField(f.grid, _wide_interior(div, n + 2).reshape(-1))


def _divergence_wide(fx: np.ndarray, fy: np.ndarray, n: int, h: float,
                     out: np.ndarray, work: np.ndarray) -> None:
    """``divergence`` at the interior nodes only, from wide cell arrays into
    the caller's flat ``out`` of (n-2)*n entries: interior node (i, j) goes
    to (j-1)*n + i-1, the rest is junk (see ``_wide_interior``).  ``work``
    is scratch of the same size.

    Interior node (i, j) touches cells (I, J) in {i-1, i} x {j-1, j}; each
    component adds cell (i, j), then (i, j-1) for x and (i-1, j) for y, and
    subtracts the other two, cell (i-1, j-1) last.
    """
    k = n * n - 2 * n - 2  # nodes n+1 up to the last interior one
    out, work = out[:k], work[:k]
    np.add(fx[n + 1:n + 1 + k], fx[1:k + 1], out=out)
    out -= fx[n:n + k]
    out -= fx[:k]
    np.add(fy[n + 1:n + 1 + k], fy[n:n + k], out=work)
    work -= fy[1:k + 1]
    work -= fy[:k]
    out += work
    out /= 2.0 * h


def cell_average(s: ScalarField) -> np.ndarray:
    """Arithmetic mean of the four corner node values, shape (n-1, n-1)."""
    V = s.values2d
    return 0.25 * (V[:-1, :-1] + V[:-1, 1:] + V[1:, :-1] + V[1:, 1:])


def cells_to_nodes(cell2d: np.ndarray, grid: Grid) -> np.ndarray:
    """Average cell values back to nodes; each node takes the mean over its
    adjacent cells (4 interior, 2 on edges, 1 at corners). Shape (n, n)."""
    n = grid.n
    c = np.asarray(cell2d, dtype=float)
    # node (i, j) adds cells (i-1, j-1), (i, j-1), (i-1, j), (i, j) in that order
    total = np.zeros((n, n))
    total[1:, 1:] += c
    total[1:, :-1] += c
    total[:-1, 1:] += c
    total[:-1, :-1] += c
    count = np.full((n, n), 4.0)
    count[[0, -1], :] *= 0.5
    count[:, [0, -1]] *= 0.5
    return total / count


def weighted_tv(v: ScalarField, a: ScalarField) -> float:
    """Weighted total variation: sum over cells of mean(a) * |grad v| * h^2."""
    require_same_grid(v, a)
    return _weighted_tv(gradient(v).magnitude2d(), cell_average(a), a.grid.h)


def _weighted_tv(magnitude2d: np.ndarray, weight2d: np.ndarray, h: float,
                 out: np.ndarray | None = None) -> float:
    """``weighted_tv`` from the cell gradient magnitudes |grad v| and the cell
    weights ``cell_average(a)``, for callers that already hold them; the
    cellwise products go to ``out`` when given."""
    return float(np.sum(np.multiply(weight2d, magnitude2d, out=out)) * h**2)


def rel_l2_error(f: ScalarField, g: ScalarField) -> float:
    """Relative l2 error ||f - g|| / ||g|| over all nodes (g is the reference)."""
    require_same_grid(f, g)
    diff = float(np.linalg.norm(f.values - g.values))
    ref = float(np.linalg.norm(g.values))
    if ref == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / ref


def boundary_trace(u: ScalarField) -> BoundaryValues:
    """Boundary node values in counterclockwise loop order starting at (0,0)."""
    i, j = boundary_loop(u.grid)
    return BoundaryValues(u.grid, u.values2d[j, i])


_MAGIC = b"FLD1"


def write_field(u: ScalarField, path) -> None:
    """Write a field in FLD1 format: ASCII header ``FLD1 <nx> <ny>\\n``
    followed by nx*ny little-endian binary64 values, row-major."""
    n = u.grid.n
    payload = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(b"%s %d %d\n" % (_MAGIC, n, n))
        fh.write(payload)


def read_field(path) -> ScalarField:
    """Read an FLD1 field file; round-trips ``write_field`` bit-exactly."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: header: missing newline")
    parts = raw[:nl].split()
    if len(parts) != 3 or parts[0] != _MAGIC:
        raise FormatError(f"{path}: header: expected 'FLD1 <nx> <ny>', got {raw[:nl]!r}")
    try:
        nx, ny = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise FormatError(f"{path}: header: non-integer dimensions") from exc
    if nx != ny:
        raise FormatError(f"{path}: header: non-square field {nx}x{ny} not supported")
    if nx < 3:
        raise FormatError(f"{path}: header: grid size {nx} below minimum 3")
    body = raw[nl + 1:]
    expected = nx * ny * 8
    if len(body) != expected:
        raise FormatError(
            f"{path}: payload size: expected {expected} bytes for {nx}x{ny}, got {len(body)}"
        )
    values = np.frombuffer(body, dtype="<f8").astype(float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise FormatError(f"{path}: payload values: non-finite entry at index {bad}")
    return ScalarField(make_grid(nx), values)
