"""Ground-truth conductivity generation: smooth Gaussian-blob phantoms,
piecewise-constant ellipse phantoms, and grayscale PGM image ingestion,
all rescaled to a physical conductivity range."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boundary import smoothstep
from .errors import DataError, FormatError
from .fields import Grid, ScalarField, make_grid


@dataclass(frozen=True)
class Ellipse:
    cx: float
    cy: float
    ax: float
    ay: float
    angle: float = 0.0  # radians, counterclockwise
    value: float = 1.8


@dataclass(frozen=True)
class PhantomSpec:
    """What ``generate_phantom`` draws; checked when built (DataError, GridError for n).

    It rejects an unknown kind, a range without 0 < lo <= hi, a negative
    seed or blob count, a blob width range without 0 < lo <= hi, an ellipse
    whose centre lies outside the unit square, whose semi-axes are not
    finite and positive, whose angle is not finite or whose value lies
    outside the range, an image
    kind without a path and a margin outside [0, 0.5).
    """

    kind: str  # "blobs" | "ellipses" | "image"
    n: int
    lo: float = 1.0
    hi: float = 1.8
    seed: int = 0
    blob_count: int = 4
    blob_width: tuple[float, float] = (0.06, 0.18)
    ellipses: tuple[Ellipse, ...] = field(default_factory=tuple)
    image_path: str | None = None
    margin: float = 0.0

    def __post_init__(self):
        # every check is written so that NaN fails it
        if self.kind not in ("blobs", "ellipses", "image"):
            raise DataError(f"unknown phantom kind {self.kind!r}")
        if not (0.0 < self.lo <= self.hi < math.inf):
            raise DataError(f"range must satisfy 0 < lo <= hi, got [{self.lo}, {self.hi}]")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise DataError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (isinstance(self.blob_count, (int, np.integer)) and self.blob_count >= 0):
            raise DataError(f"blob count must be a nonnegative integer, got {self.blob_count!r}")
        wlo, whi = self.blob_width
        if not (0.0 < wlo <= whi < math.inf):
            raise DataError(f"blob width range invalid: {self.blob_width}")
        for e in self.ellipses:
            if not (0.0 <= e.cx <= 1.0 and 0.0 <= e.cy <= 1.0):
                raise DataError(f"ellipse center ({e.cx}, {e.cy}) outside the unit square")
            if not (0.0 < e.ax < math.inf and 0.0 < e.ay < math.inf and math.isfinite(e.angle)):
                raise DataError(f"ellipse needs finite semi-axes > 0 and a finite angle, got {e}")
            if not (self.lo <= e.value <= self.hi):
                raise DataError(f"ellipse value {e.value} outside range [{self.lo}, {self.hi}]")
        if self.kind == "image" and not self.image_path:
            raise DataError("image phantom needs a path")
        if not (0.0 <= self.margin < 0.5):
            raise DataError(f"margin must be in [0, 0.5), got {self.margin}")
        Grid(self.n)


def generate_phantom(spec: PhantomSpec) -> ScalarField:
    """Build the conductivity field a PhantomSpec describes; values lie in
    [lo, hi] and the background attains lo."""
    grid = make_grid(spec.n)
    if spec.kind == "blobs":
        return _blobs(spec, grid)
    if spec.kind == "ellipses":
        return _ellipses(spec, grid)
    return _image(spec, grid)


def _blobs(spec: PhantomSpec, grid: Grid) -> ScalarField:
    x, y = grid.node_coords()
    g = np.zeros_like(x)
    rng = np.random.default_rng(spec.seed)
    wlo, whi = spec.blob_width
    m = spec.margin
    clo, chi = max(0.2, m + whi), min(0.8, 1.0 - m - whi)
    for _ in range(spec.blob_count):
        cx, cy = rng.uniform(clo, chi, size=2)
        w = rng.uniform(wlo, whi)
        amp = rng.uniform(0.3, 1.0)
        g += amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * w * w))
    if m > 0.0:
        # taper to the background across the margin band; the field is
        # exactly homogeneous within the inner third of the band
        d = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))
        g *= smoothstep((d - m / 3.0) / (2.0 * m / 3.0))
    top = float(g.max())
    if top <= 0.0:
        return ScalarField.constant(grid, spec.lo)
    g = (g - g.min()) / (top - g.min())
    return ScalarField(grid, (spec.lo + (spec.hi - spec.lo) * g).reshape(-1))


def _ellipses(spec: PhantomSpec, grid: Grid) -> ScalarField:
    x, y = grid.node_coords()
    out = np.full_like(x, spec.lo)
    for e in spec.ellipses:
        ca, sa = np.cos(e.angle), np.sin(e.angle)
        u = (x - e.cx) * ca + (y - e.cy) * sa
        v = -(x - e.cx) * sa + (y - e.cy) * ca
        inside = (u / e.ax) ** 2 + (v / e.ay) ** 2 <= 1.0
        out[inside] = e.value
    return ScalarField(grid, out.reshape(-1))


def _image(spec: PhantomSpec, grid: Grid) -> ScalarField:
    gray, maxval = read_pgm(spec.image_path)
    rows, cols = gray.shape
    out = np.full((grid.n, grid.n), spec.lo)
    # largest centered rectangle inside [margin, 1-margin]^2 keeping the
    # image aspect ratio; image row 0 maps to the top (y near 1)
    avail = 1.0 - 2.0 * spec.margin
    scale = avail / max(rows, cols)
    wx, wy = cols * scale, rows * scale
    x0, y0 = 0.5 - wx / 2.0, 0.5 - wy / 2.0
    x, y = grid.node_coords()
    fx = (x - x0) / wx
    fy = (y - y0) / wy
    inside = (fx >= 0.0) & (fx <= 1.0) & (fy >= 0.0) & (fy <= 1.0)
    col = np.clip((fx * cols).astype(int), 0, cols - 1)
    row = np.clip(((1.0 - fy) * rows).astype(int), 0, rows - 1)
    mapped = spec.lo + (spec.hi - spec.lo) * gray[row, col] / maxval
    out[inside] = mapped[inside]
    return ScalarField(grid, out.reshape(-1))


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary (P5) PGM image, 8- or 16-bit.

    Returns (gray, maxval) with gray a float array of shape (rows, cols)
    holding the raw sample values; 16-bit samples are big-endian per the
    format.
    """
    raw = Path(path).read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(raw):
            if raw[pos:pos + 1].isspace():
                pos += 1
            elif raw[pos:pos + 1] == b"#":
                nl = raw.find(b"\n", pos)
                pos = len(raw) if nl < 0 else nl + 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        return raw[start:pos]

    magic = token()
    if magic != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {magic!r}, expected P5)")
    try:
        cols, rows, maxval = int(token()), int(token()), int(token())
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer PGM header field") from exc
    if cols < 1 or rows < 1 or not (0 < maxval < 65536):
        raise FormatError(f"{path}: bad PGM dimensions {cols}x{rows} maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    dtype = ">u2" if maxval > 255 else "u1"
    count = rows * cols
    body = raw[pos:]
    need = count * (2 if maxval > 255 else 1)
    if len(body) < need:
        raise FormatError(f"{path}: PGM payload short: {len(body)} bytes, need {need}")
    gray = np.frombuffer(body[:need], dtype=dtype).astype(float).reshape(rows, cols)
    return gray, maxval


def write_pgm(path, gray: np.ndarray, maxval: int = 65535) -> None:
    """Write a binary (P5) PGM; gray entries are integer sample values in
    [0, maxval], written big-endian when 16-bit."""
    if not (0 < maxval < 65536):
        raise DataError(f"maxval out of range: {maxval}")
    g = np.asarray(gray)
    if g.ndim != 2:
        raise DataError("PGM image must be 2-D")
    samples = np.clip(np.rint(g), 0, maxval)
    dtype = ">u2" if maxval > 255 else "u1"
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (g.shape[1], g.shape[0], maxval))
        fh.write(samples.astype(dtype).tobytes())


def field_to_pgm(
    f: ScalarField, path, lo: float | None = None, hi: float | None = None
) -> None:
    """Export a field as a 16-bit PGM, mapping [lo, hi] (the field's own
    extremes by default) affinely onto the gray range; image row 0 is the
    top of the square (y = 1).  A given bound must be finite and leave
    lo < hi (DataError); a constant field without bounds maps to 0."""
    v = f.values2d
    for name, bound in (("lo", lo), ("hi", hi)):
        if bound is not None and not math.isfinite(bound):
            raise DataError(f"{name} must be finite, got {bound}")
    vlo = float(v.min()) if lo is None else float(lo)
    vhi = float(v.max()) if hi is None else float(hi)
    if (lo is not None or hi is not None) and not vlo < vhi:
        raise DataError(f"lo must be below hi, got lo={vlo:g} hi={vhi:g}")
    span = vhi - vlo if vhi > vlo else 1.0
    gray = np.clip((v - vlo) / span, 0.0, 1.0) * 65535.0
    write_pgm(path, gray[::-1, :], maxval=65535)
