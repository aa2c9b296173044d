"""Electrode geometry, sharp and smoothed Robin coefficients, electrode
quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrecon.boundary import (
    ElectrodeSet,
    base_coefficients,
    boundary_faces,
    electrode_integral,
    electrode_length,
    electrode_quadrature,
    smoothed_coefficients,
    smoothstep,
)
from cdrecon.errors import DataError
from cdrecon.fields import (
    ScalarField,
    boundary_loop,
    boundary_trace,
    boundary_weights,
    make_grid,
)


def test_electrode_set_validation():
    with pytest.raises(DataError):
        ElectrodeSet(aperture=0.0)
    with pytest.raises(DataError):
        ElectrodeSet(aperture=1.5)
    with pytest.raises(DataError):
        ElectrodeSet(z=-1.0)
    with pytest.raises(DataError):
        ElectrodeSet(current=0.0)
    # an infinite impedance or current failed late, in the solve
    for bad in (float("inf"), float("nan")):
        with pytest.raises(DataError, match="impedance z"):
            ElectrodeSet(z=bad)
        with pytest.raises(DataError, match="current"):
            ElectrodeSet(current=bad)


def test_base_coefficients_full_aperture_n5():
    g = make_grid(5)
    el = ElectrodeSet(aperture=1.0, z=1.0, current=1.0)
    rc = base_coefficients(el, g)
    i, j = boundary_loop(g)
    corner = ((i == 0) | (i == 4)) & ((j == 0) | (j == 4))
    top = (j == 4) & ~corner
    bottom = (j == 0) & ~corner
    assert np.all(rc.b.values[top] == 1.0)
    assert np.all(rc.b.values[bottom] == 1.0)
    assert np.all(rc.b.values[~(top | bottom)] == 0.0)
    assert np.all(rc.c.values[top] == 1.0)
    assert np.all(rc.c.values[bottom] == -1.0)
    assert np.all(rc.c.values[~(top | bottom)] == 0.0)


def test_base_coefficients_impedance_reciprocal():
    g = make_grid(7)
    rc = base_coefficients(ElectrodeSet(z=2.0), g)
    nz = rc.b.values[rc.b.values != 0.0]
    assert np.all(nz == 0.5)


def test_base_coefficients_half_aperture_n9():
    g = make_grid(9)
    el = ElectrodeSet(aperture=0.5)
    rc = base_coefficients(el, g)
    i, j = boundary_loop(g)
    x = i * g.h
    carriers = rc.c.values != 0.0
    # exactly the middle half of the top/bottom nodes carry current
    expected = ((j == 0) | (j == 8)) & (x >= 0.25 - 1e-12) & (x <= 0.75 + 1e-12)
    assert np.array_equal(carriers, expected)
    # injected equals extracted
    w = boundary_weights(g)
    assert float(np.sum(w * rc.c.values)) == pytest.approx(0.0, abs=1e-14)


def test_smoothed_floor_and_plateau():
    g = make_grid(33)
    el = ElectrodeSet()
    rc = smoothed_coefficients(el, g, epsilon=5e-4)
    assert rc.b.values.min() == pytest.approx(5e-4, rel=1e-12)
    assert rc.b.values.max() == pytest.approx(1.0, rel=1e-12)
    # c vanishes farther than the transition width from both electrodes
    i, j = boundary_loop(g)
    lateral_mid = (i == 0) & (j * g.h > 0.3) & (j * g.h < 0.7)
    assert np.all(rc.c.values[lateral_mid] == 0.0)


def test_smoothed_epsilon_one_degenerates():
    g = make_grid(17)
    rc = smoothed_coefficients(ElectrodeSet(z=2.0), g, epsilon=1.0)
    assert np.allclose(rc.b.values, 0.5, atol=1e-14)


def test_smoothed_transition_midpoint():
    # full aperture, w = 4h: the lateral node 2 steps beyond the corner sits
    # at the middle of the band, where the profile is (1+eps)/2 / z
    g = make_grid(33)
    eps = 0.01
    rc = smoothed_coefficients(ElectrodeSet(), g, epsilon=eps, width=4 * g.h)
    i, j = boundary_loop(g)
    k = int(np.flatnonzero((i == 0) & (j == 2))[0])  # arc distance 2h from (0,0)
    assert rc.b.values[k] == pytest.approx((1 + eps) / 2.0, rel=1e-12)


def test_smoothed_width_validation():
    g = make_grid(9)
    with pytest.raises(DataError, match="unresolvable"):
        smoothed_coefficients(ElectrodeSet(), g, epsilon=0.1, width=g.h)
    # NaN fails every comparison, and inf flattens the profile to the plateau
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="must be finite"):
            smoothed_coefficients(ElectrodeSet(), g, epsilon=0.1, width=bad)
    with pytest.raises(DataError):
        smoothed_coefficients(ElectrodeSet(), g, epsilon=0.0)
    with pytest.raises(DataError):
        smoothed_coefficients(ElectrodeSet(), g, epsilon=1.5)


def test_smoothstep_is_c2():
    assert smoothstep(np.array(0.0)) == 0.0
    assert smoothstep(np.array(1.0)) == 1.0
    assert smoothstep(np.array(0.5)) == pytest.approx(0.5)
    # first and second derivatives vanish at both ends (finite differences)
    d = 1e-5
    for t0 in (0.0, 1.0):
        inner = np.clip([t0 + d, t0 + 2 * d] if t0 == 0.0 else [t0 - d, t0 - 2 * d], 0, 1)
        f0 = float(smoothstep(np.array(t0)))
        f1 = float(smoothstep(np.array(inner[0])))
        f2 = float(smoothstep(np.array(inner[1])))
        first = (f1 - f0) / d
        second = (f2 - 2 * f1 + f0) / d**2
        assert abs(first) < 1e-8
        assert abs(second) < 1e-3


def test_smoothed_antisymmetry_under_reflection():
    g = make_grid(21)
    rc = smoothed_coefficients(ElectrodeSet(aperture=0.6), g, epsilon=1e-3)
    i, j = boundary_loop(g)
    lookup_b = {(a, b): v for a, b, v in zip(i.tolist(), j.tolist(), rc.b.values)}
    lookup_c = {(a, b): v for a, b, v in zip(i.tolist(), j.tolist(), rc.c.values)}
    for (a, b), v in lookup_b.items():
        assert v == pytest.approx(lookup_b[(a, g.n - 1 - b)], abs=1e-13)
    for (a, b), v in lookup_c.items():
        assert v == pytest.approx(-lookup_c[(a, g.n - 1 - b)], abs=1e-13)


def test_electrode_quadrature_full_aperture_length_one():
    g = make_grid(65)
    el = ElectrodeSet()
    assert electrode_length(el, g) == pytest.approx(1.0, abs=1e-14)
    idx, w = electrode_quadrature(el, g, "top")
    assert w[0] == w[-1] == g.h / 2


def test_electrode_quadrature_partial():
    g = make_grid(9)
    el = ElectrodeSet(aperture=0.5)
    assert electrode_length(el, g) == pytest.approx(0.5, abs=1e-14)


def test_electrode_integral_constant():
    g = make_grid(17)
    el = ElectrodeSet()
    tr = boundary_trace(ScalarField.constant(g, 3.0))
    assert electrode_integral(el, g, tr, "top") == pytest.approx(3.0, rel=1e-13)


def test_boundary_faces_weights():
    g = make_grid(9)
    node_f, val_f, w = boundary_faces(g)
    # every non-corner node owns h, corners own two halves
    assert w.sum() == pytest.approx(4.0, abs=1e-14)
    m = g.n - 1
    corners = {0, m, 2 * m, 3 * m}
    for c in corners:
        faces = np.flatnonzero(node_f == c)
        assert len(faces) == 2
        assert np.all(w[faces] == g.h / 2)


def _faces_by_loop(g):
    """The former face loop of ``boundary_faces``."""
    m = g.n - 1
    h = g.h
    corners = {0: 1, m: m - 1, 2 * m: 2 * m + 1, 3 * m: 3 * m - 1}
    node_idx, value_idx, weight = [], [], []
    for k in range(4 * m):
        if k in corners:
            node_idx += [k, k]
            value_idx += [k, corners[k]]
            weight += [0.5 * h, 0.5 * h]
        else:
            node_idx.append(k)
            value_idx.append(k)
            weight.append(h)
    return np.asarray(node_idx), np.asarray(value_idx), np.asarray(weight)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 80))
def test_vectorized_boundary_loops_match_former_loops(n):
    g = make_grid(n)
    for got, expected in zip(boundary_faces(g), _faces_by_loop(g)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
