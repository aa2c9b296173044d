"""Phantom generation and PGM ingestion."""

from dataclasses import fields

import numpy as np
import pytest

from cdrecon.errors import DataError, FormatError, GridError
from cdrecon.phantom import (
    Ellipse,
    PhantomSpec,
    field_to_pgm,
    generate_phantom,
    read_pgm,
    write_pgm,
)


def test_blobs_empty_is_background():
    spec = PhantomSpec(kind="blobs", n=32, blob_count=0)
    f = generate_phantom(spec)
    assert np.all(f.values == 1.0)


def test_blobs_range_and_determinism():
    spec = PhantomSpec(kind="blobs", n=48, seed=3, lo=1.0, hi=1.8)
    f1 = generate_phantom(spec)
    f2 = generate_phantom(spec)
    assert np.array_equal(f1.values, f2.values)
    assert f1.values.min() == pytest.approx(1.0)
    assert f1.values.max() == pytest.approx(1.8)
    other = generate_phantom(PhantomSpec(kind="blobs", n=48, seed=4))
    assert not np.array_equal(f1.values, other.values)


def test_blobs_margin_is_homogeneous():
    spec = PhantomSpec(kind="blobs", n=64, seed=7, margin=0.15)
    f = generate_phantom(spec)
    V = f.values2d
    band = 3  # nodes within the outer margin, well inside 0.15 * 63 ~ 9
    for sl in (V[:band, :], V[-band:, :], V[:, :band], V[:, -band:]):
        assert np.allclose(sl, 1.0, atol=1e-12)


def test_single_ellipse():
    spec = PhantomSpec(
        kind="ellipses", n=64,
        ellipses=(Ellipse(0.5, 0.5, 0.2, 0.1, 0.3, 1.8),),
    )
    f = generate_phantom(spec)
    V = f.values2d
    assert f.values.max() == 1.8
    assert V[0, 0] == 1.0
    assert V[32, 32] == 1.8
    assert set(np.unique(f.values)) == {1.0, 1.8}


def test_ellipse_validation():
    with pytest.raises(DataError, match="outside range"):
        generate_phantom(PhantomSpec(
            kind="ellipses", n=16, ellipses=(Ellipse(0.5, 0.5, 0.1, 0.1, 0.0, 2.5),)
        ))
    with pytest.raises(DataError, match="unit square"):
        generate_phantom(PhantomSpec(
            kind="ellipses", n=16, ellipses=(Ellipse(1.5, 0.5, 0.1, 0.1, 0.0, 1.5),)
        ))
    # the spec checks its ellipses when built: a NaN axis used to draw nothing
    for bad in (dict(ax=float("nan")), dict(ay=float("inf")), dict(ax=0.0),
                dict(angle=float("nan")), dict(cx=float("nan")), dict(value=float("nan"))):
        ellipse = Ellipse(**(dict(cx=0.5, cy=0.5, ax=0.2, ay=0.2, angle=0.0, value=1.5) | bad))
        with pytest.raises(DataError, match="ellipse"):
            PhantomSpec(kind="ellipses", n=16, ellipses=(ellipse,))


def test_image_phantom_endpoints(tmp_path):
    # two-level 8-bit image maps exactly onto {lo, hi}
    img = np.zeros((8, 8), dtype=np.uint8)
    img[:4, :] = 255
    p = tmp_path / "two.pgm"
    with open(p, "wb") as fh:
        fh.write(b"P5\n8 8\n255\n" + img.tobytes())
    spec = PhantomSpec(kind="image", n=32, image_path=str(p))
    f = generate_phantom(spec)
    assert set(np.unique(f.values)) == {1.0, 1.8}
    # image row 0 is the top: high values at large y
    assert f.values2d[-1, 16] == 1.8
    assert f.values2d[0, 16] == 1.0


def test_image_phantom_margin(tmp_path):
    img = np.full((8, 8), 255, dtype=np.uint8)
    p = tmp_path / "white.pgm"
    with open(p, "wb") as fh:
        fh.write(b"P5\n8 8\n255\n" + img.tobytes())
    spec = PhantomSpec(kind="image", n=33, image_path=str(p), margin=0.25)
    f = generate_phantom(spec)
    V = f.values2d
    assert np.all(V[:4, :] == 1.0)
    assert V[16, 16] == 1.8


def test_image_requires_p5(tmp_path):
    p = tmp_path / "ascii.pgm"
    p.write_text("P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(FormatError, match="P5"):
        generate_phantom(PhantomSpec(kind="image", n=16, image_path=str(p)))


def test_pgm_16bit_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    gray = rng.integers(0, 65536, size=(5, 7)).astype(float)
    p = tmp_path / "wide.pgm"
    write_pgm(p, gray, maxval=65535)
    back, maxval = read_pgm(p)
    assert maxval == 65535
    assert np.array_equal(back, gray)


def test_field_to_pgm_fixed_range(tmp_path):
    from cdrecon.fields import ScalarField, make_grid

    g = make_grid(9)
    f = ScalarField.from_function(g, lambda x, y: y)
    p = tmp_path / "f.pgm"
    field_to_pgm(f, p, lo=0.0, hi=2.0)
    gray, maxval = read_pgm(p)
    assert gray.shape == (9, 9)
    # y = 1 (top, image row 0) maps to half the gray range
    assert gray[0, 0] == pytest.approx(65535 / 2, abs=1.0)
    assert gray[-1, 0] == 0.0


def test_field_to_pgm_rejects_empty_range(tmp_path):
    from cdrecon.fields import ScalarField, make_grid

    g = make_grid(9)
    f = ScalarField.from_function(g, lambda x, y: 1.0 + y)
    p = tmp_path / "f.pgm"
    # each of these wrote an all-black image
    for bounds, message in (
        (dict(lo=float("nan")), "lo must be finite"),
        (dict(hi=float("inf")), "hi must be finite"),
        (dict(lo=2.0, hi=1.0), "lo must be below hi"),
        (dict(lo=1.5, hi=1.5), "lo must be below hi"),
        (dict(lo=3.0), "lo must be below hi"),
    ):
        with pytest.raises(DataError, match=message):
            field_to_pgm(f, p, **bounds)
    assert not p.exists()
    # a constant field without bounds still maps to black
    field_to_pgm(ScalarField.constant(g, 1.3), p)
    gray, _ = read_pgm(p)
    assert not gray.any()


def test_spec_validation():
    # the spec checks itself when built
    with pytest.raises(DataError):
        PhantomSpec(kind="noise", n=16)
    with pytest.raises(DataError):
        PhantomSpec(kind="blobs", n=16, lo=0.0)
    with pytest.raises(DataError):
        PhantomSpec(kind="blobs", n=16, lo=2.0, hi=1.0)
    with pytest.raises(DataError):
        PhantomSpec(kind="image", n=16)
    with pytest.raises(GridError):
        PhantomSpec(kind="blobs", n=2)
    # NaN fails every comparison, so each check must be written to reject it
    nan = float("nan")
    for f in fields(PhantomSpec):
        if f.name in ("kind", "ellipses", "image_path"):
            continue
        bad = (nan, 0.1) if f.name == "blob_width" else nan
        with pytest.raises((DataError, GridError)):
            PhantomSpec(**(dict(kind="blobs", n=16) | {f.name: bad}))
    with pytest.raises(DataError):
        PhantomSpec(kind="blobs", n=16, blob_width=(0.05, nan))
