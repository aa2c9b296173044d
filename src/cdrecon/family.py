"""The reparametrization family sigma -> sigma / (phi' o u), u -> phi o u
(phi increasing, the identity on the electrode value ranges), along which
the interior data a = sigma |grad u| do not change: the transform that makes
a member, the potential-level bins that resolve phi', the change off the
family that the calibrated stop rule compares, and the level calibration,
which picks the member whose conductivity matches a known background in the
boundary margin (the standard embedding); each caller builds its own bins."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .boundary import ElectrodeSet, electrode_quadrature
from .errors import DataError
from .fields import Grid, ScalarField, require_same_grid

# potential-level bins of the calibration and of the calibrated stop rule; a
# bin takes part only with at least _MIN_BAND_NODES margin-band nodes
_CALIBRATION_BINS = 48
_MIN_BAND_NODES = 8
# the default width of the margin band, where the conductivity is known
CALIBRATION_BAND = 0.12


def _check_band(band: float) -> None:
    # written as `not x > 0` so that NaN is rejected too
    if not (0.0 < band < 0.5):
        raise DataError(f"calibration band must be in (0, 0.5), got {band}")


def _check_background(background: float) -> None:
    if not (math.isfinite(background) and background > 0.0):
        raise DataError(f"background must be positive and finite, got {background}")


@lru_cache(maxsize=4)
def _band_mask(grid: Grid, band: float) -> np.ndarray:
    """The mask of the margin-band nodes, those within ``band`` of the
    boundary."""
    coords = np.arange(grid.n) * grid.h  # the node coordinates along x and y
    near = (coords < band) | (coords > 1.0 - band)
    mask = (near[:, None] | near[None, :]).reshape(-1)
    mask.flags.writeable = False  # shared by every call with this grid and band
    return mask


class _LevelBins(NamedTuple):
    """The potential-level bins of one u: ``_CALIBRATION_BINS`` equal bins on
    [min u, max u] with their ``edges``, each node's bin ``bin_of`` (max u in
    the last), the margin-band mask, the number of band nodes per bin and
    which bins hold at least ``_MIN_BAND_NODES`` of them."""

    edges: np.ndarray
    bin_of: np.ndarray
    band_mask: np.ndarray
    band_count: np.ndarray
    qualifies: np.ndarray


def _level_bins(u: ScalarField, band: float) -> _LevelBins:
    band_mask = _band_mask(u.grid, band)
    t = u.values
    edges = np.linspace(float(t.min()), float(t.max()), _CALIBRATION_BINS + 1)
    bin_of = np.digitize(t, edges)
    bin_of -= 1  # edges[0] is min u, so every node's bin is at least 0
    np.minimum(bin_of, _CALIBRATION_BINS - 1, out=bin_of)  # max u joins the last bin
    counts = np.bincount(bin_of[band_mask], minlength=_CALIBRATION_BINS)
    return _LevelBins(edges, bin_of, band_mask, counts, counts >= _MIN_BAND_NODES)


def _family_free_change(sigma: np.ndarray, image: np.ndarray, bins: _LevelBins) -> float:
    """The relative change image - sigma less its part along the
    reparametrization family, which ``level_calibration`` replaces.

    A member near sigma is sigma * psi(u), so on each level bin that the
    calibration estimates from, the change loses its weighted projection
    c_b * sigma with c_b = sum(sigma d) / sum(sigma^2); bins with too few
    band nodes keep their change.  Returns ||remainder|| / ||sigma||."""
    bin_of, qualifies = bins.bin_of, bins.qualifies
    d = image - sigma
    sd = np.bincount(bin_of, weights=sigma * d, minlength=qualifies.size)
    ss = np.bincount(bin_of, weights=sigma * sigma, minlength=qualifies.size)
    c = np.zeros(qualifies.size)
    c[qualifies] = sd[qualifies] / ss[qualifies]
    return float(np.linalg.norm(d - c[bin_of] * sigma)) / float(np.linalg.norm(sigma))


def level_calibration(
    sigma: ScalarField,
    u: ScalarField,
    electrodes: ElectrodeSet,
    background: float,
    band: float = CALIBRATION_BAND,
) -> tuple[ScalarField, ScalarField, float]:
    """Snap a reconstruction onto the reparametrization-family member whose
    conductivity matches the known background inside the boundary margin.

    phi' is estimated per potential level bin of u as the median of sigma /
    background over the margin band (within ``band`` of the boundary),
    pinned to 1 on the electrode ranges (the bins of u on the grid rows of
    ``electrode_quadrature``) and normalized so phi stays continuous; the
    returned pair is the transformed (sigma, u) together with
    max |phi' - 1|.  A constant u, or electrode ranges that cover every
    bin, leave no bin width to rescale and return the input.  The
    background must be positive and finite, and the band in (0, 0.5)
    (DataError).
    """
    grid = require_same_grid(sigma, u)
    _check_background(background)
    _check_band(band)
    edges, bin_of, band_mask, count, qualifies = _level_bins(u, band)
    widths = np.diff(edges)
    # the median of the band nodes' sigma on each qualifying bin, from those
    # values sorted by bin and then by value, rounded as np.median rounds:
    # the middle value, or the mean of the middle two
    band_sigma = sigma.values[band_mask]
    rank = np.argsort(band_sigma)
    ordered = band_sigma[rank][np.argsort(bin_of[band_mask][rank], kind="stable")]
    first = np.cumsum(count) - count
    q = np.flatnonzero(qualifies)
    lower = first[q] + (count[q] - 1) // 2
    upper = first[q] + count[q] // 2
    dphi = np.ones(widths.size)
    # a background so small that the ratio overflows (a subnormal one)
    # gives inf, which the clip below takes to its upper bound
    with np.errstate(over="ignore"):
        dphi[q] = (ordered[lower] + ordered[upper]) / 2.0 / background
    dphi = np.convolve(np.pad(dphi, 1, mode="edge"), [0.25, 0.5, 0.25], mode="valid")
    dphi = np.clip(dphi, 0.2, 5.0)

    # identity on the electrode value ranges: the bins of their nodes
    pinned = np.zeros(widths.size, dtype=bool)
    for idx, _ in electrode_quadrature(electrodes, grid):
        on = bin_of[idx]
        pinned[on.min():on.max() + 1] = True
    dphi[pinned] = 1.0
    free = ~pinned
    got = float((dphi[free] * widths[free]).sum())
    if got <= 0.0:
        return sigma, u, 0.0
    dphi[free] *= float(widths[free].sum()) / got

    # phi(min u) = min u; edges[0] would turn a min u of -0.0 into +0.0
    t0 = float(u.values.min())
    phi_at_edges = np.concatenate([[t0], t0 + np.cumsum(dphi * widths)])
    u_new = np.interp(u.values, edges, phi_at_edges)
    return (ScalarField(grid, sigma.values / dphi[bin_of]), ScalarField(grid, u_new),
            float(np.abs(dphi - 1.0).max()))


def nonuniqueness_transform(
    u0: ScalarField,
    sigma: ScalarField,
    strength: float,
    center: float | None = None,
    halfwidth: float | None = None,
) -> tuple[ScalarField, ScalarField]:
    """Apply phi(t) = t + s * psi(t) with a C1 bump psi supported strictly
    between the electrode value ranges of u0.

    psi is normalized so max |psi'| = 1, hence phi' >= 1 - |s| and any
    |s| < 1 is admissible; a non-finite strength is a DataError.  Returns
    (sigma / (phi' o u0), phi o u0): a different conductivity whose current
    density magnitude matches sigma's up to discretization error.
    """
    require_same_grid(u0, sigma)
    if not math.isfinite(strength):
        raise DataError(f"strength must be finite, got {strength}")
    lo, hi = float(u0.values.min()), float(u0.values.max())
    span = hi - lo
    if span <= 0.0:
        raise DataError("u0 is constant; no admissible transform exists")
    if center is None:
        center = 0.5 * (lo + hi)
    if halfwidth is None:
        halfwidth = 0.2 * span
    if not (lo < center - halfwidth and center + halfwidth < hi):
        raise DataError(
            "bump support must lie strictly inside the range of u0 "
            f"({lo:g}, {hi:g}); got center {center:g}, halfwidth {halfwidth:g}"
        )
    # psi: the C1 bump (1 - tau^2)^2 on |tau| < 1, scaled so that max |psi'| = 1
    tau = (u0.values - center) / halfwidth
    inside = np.abs(tau) < 1.0
    peak = 8.0 / (3.0 * np.sqrt(3.0))  # max of |4 tau (1 - tau^2)| on [-1, 1]
    psi = np.where(inside, (1.0 - tau**2) ** 2, 0.0) * halfwidth / peak
    dpsi = np.where(inside, -4.0 * tau * (1.0 - tau**2), 0.0) / peak
    dphi = 1.0 + strength * dpsi
    if np.any(dphi <= 0.0):
        raise DataError(
            f"transform is not increasing: min phi' = {dphi.min():g} "
            f"(need |strength| < 1, got {strength})"
        )
    return (ScalarField(sigma.grid, sigma.values / dphi),
            ScalarField(u0.grid, u0.values + strength * psi))
