"""Electrode geometry, sharp and smoothed Robin coefficients, electrode
quadrature."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrecon import elliptic
from cdrecon.boundary import (
    ElectrodeSet,
    _circular_interval_distance,
    _loop_positions,
    base_coefficients,
    boundary_faces,
    electrode_quadrature,
    smoothed_coefficients,
    smoothstep,
)
from cdrecon.elliptic import assemble_cem
from cdrecon.errors import DataError
from cdrecon.forward import cem_scaling, solve_forward
from cdrecon.fields import ScalarField, boundary_loop, boundary_nodes, make_grid


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
    # injected equals extracted on the faces that the Robin system integrates c on
    _, val_f, w_f = boundary_faces(g)
    assert float(np.sum(w_f * rc.c.values[val_f])) == pytest.approx(0.0, abs=1e-14)


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
    for top_positive, plus_row in ((True, g.n - 1), (False, 0)):
        arcs = electrode_quadrature(ElectrodeSet(top_positive=top_positive), g)
        # e+ first, on the side the polarity names; both arcs ordered by x
        # from corner to corner, as the grid rows j*n + i of their nodes
        assert [set((idx // g.n).tolist()) for idx, _ in arcs] == [{plus_row},
                                                                 {g.n - 1 - plus_row}]
        for idx, w in arcs:
            assert (idx % g.n).tolist() == list(range(g.n))
            assert w[0] == w[-1] == g.h / 2
            assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_electrode_quadrature_partial():
    # the faces of the five nodes in [0.25, 0.75], h each: the sharp Robin
    # footprint 5h
    g = make_grid(9)
    for idx, w in electrode_quadrature(ElectrodeSet(aperture=0.5), g):
        assert (idx % g.n).tolist() == [2, 3, 4, 5, 6]
        assert np.all(w == g.h)
        assert w.sum() == 0.625
    # an arc that ends next to a corner takes the corner's horizontal
    # half-face: [0.1, 0.9] covers the faces of the full aperture
    for idx, w in electrode_quadrature(ElectrodeSet(aperture=0.8), g):
        assert (idx % g.n).tolist() == list(range(g.n))
        assert w[0] == w[-1] == g.h / 2
        assert w.sum() == 1.0
    # an arc of fewer than two nodes: none at n=4, one at n=17
    for n, aperture in ((4, 0.25), (17, 0.05)):
        with pytest.raises(DataError, match="spans fewer than two nodes"):
            electrode_quadrature(ElectrodeSet(aperture=aperture), make_grid(n))


def test_electrode_integral_constant():
    g = make_grid(17)
    u = ScalarField.constant(g, 3.0).values
    for idx, w in electrode_quadrature(ElectrodeSet(), g):
        assert float(w @ u[idx]) == pytest.approx(3.0, rel=1e-13)


def test_boundary_faces_weights():
    g = make_grid(9)
    rows, val_f, w = boundary_faces(g)
    # every non-corner node owns h, corners own two halves
    assert w.sum() == pytest.approx(4.0, abs=1e-14)
    m = g.n - 1
    for c in boundary_nodes(g)[[0, m, 2 * m, 3 * m]]:
        faces = np.flatnonzero(rows == c)
        assert len(faces) == 2
        assert np.all(w[faces] == g.h / 2)


def _faces_by_loop(g):
    """The former face loop of ``boundary_faces``, its owning loop indices
    mapped to their grid rows."""
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
    return boundary_nodes(g)[np.asarray(node_idx)], np.asarray(value_idx), np.asarray(weight)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 80))
def test_vectorized_boundary_loops_match_former_loops(n):
    g = make_grid(n)
    for got, expected in zip(boundary_faces(g), _faces_by_loop(g)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


# The electrode rules written out per side: the former node mask of the
# sharp coefficients, the faces each electrode covers (by hand, the way
# ``_faces_by_loop`` writes out ``boundary_faces``) for the CEM, the scaling
# and the calibration, and the polarity as a sign on the top side.  The
# mask took an electrode between nodes for an empty one.


def _former_node_mask(electrodes, grid, side):
    i, j = boundary_loop(grid)
    xl, xh = electrodes.span()
    x = i * grid.h
    on_side = (j == (grid.n - 1)) if side == "top" else (j == 0)
    interior = (i > 0) & (i < grid.n - 1)
    return on_side & interior & (x >= xl - 1e-12) & (x <= xh + 1e-12)


def _side_faces(electrodes, grid, side):
    """Grid rows by x and face lengths of one electrode: h for each of its
    nodes off the corners, h/2 for a corner whose horizontal neighbour is
    one of them; found by loop index, then mapped to the rows."""
    i, j = boundary_loop(grid)
    xl, xh = electrodes.span()
    x = i * grid.h
    on_side = (j == (grid.n - 1)) if side == "top" else (j == 0)
    if np.count_nonzero(on_side & (x >= xl - 1e-12) & (x <= xh + 1e-12)) < 2:
        raise DataError("spans fewer than two nodes")
    mask = _former_node_mask(electrodes, grid, side)
    w = np.where(mask, grid.h, 0.0)
    for corner, neighbour in ((0, 1), (grid.n - 1, grid.n - 2)):
        if np.any(mask & (i == neighbour)):
            w[on_side & (i == corner)] = 0.5 * grid.h
    idx = np.flatnonzero(w)
    idx = idx[np.argsort(x[idx])]
    return boundary_nodes(grid)[idx], w[idx]


def _former_base(electrodes, grid):
    b = np.zeros(grid.num_boundary_nodes)
    c = np.zeros(grid.num_boundary_nodes)
    s = 1.0 if electrodes.top_positive else -1.0
    top = _former_node_mask(electrodes, grid, "top")
    bottom = _former_node_mask(electrodes, grid, "bottom")
    b[top | bottom] = 1.0 / electrodes.z
    c[top] = s * electrodes.current
    c[bottom] = -s * electrodes.current
    return b, c


def _former_smoothed(electrodes, grid, epsilon):
    width = 4.0 * grid.h
    t = _loop_positions(grid)
    xl, xh = electrodes.span()
    profiles = {}
    for side, (lo, hi) in {"bottom": (xl, xh), "top": (3.0 - xh, 3.0 - xl)}.items():
        d = _circular_interval_distance(t, lo, hi)
        profiles[side] = np.where(d >= width, 0.0, 1.0 - smoothstep(d / width))
    s = 1.0 if electrodes.top_positive else -1.0
    b = (epsilon + (1.0 - epsilon) * np.maximum(profiles["top"], profiles["bottom"])) / electrodes.z
    c = electrodes.current * (s * profiles["top"] - s * profiles["bottom"])
    return b, c


def _side_cem(sigma, electrodes, grid):
    """The CEM system of the per-side rule: the table, V's column and
    diagonal, and the rhs."""
    n = grid.n
    N = n * n
    stencil = elliptic._stencil(sigma.values, n)
    pos_side = "top" if electrodes.top_positive else "bottom"
    border = np.zeros(N)
    corner = 0.0
    for side in ("top", "bottom"):
        g, w = _side_faces(electrodes, grid, side)
        wz = w * (1.0 / electrodes.z)
        stencil[2, g] += wz  # the centre diagonal of the DIA table
        border[g] = -wz if side == pos_side else wz
        corner += float(wz.sum())
    rhs = np.zeros(N + 1)
    rhs[N] = 2.0 * electrodes.current
    return stencil, border, corner, rhs


def _side_cem_scaling(result, electrodes, grid):
    u = result.u.values
    z, cur = electrodes.z, electrodes.current

    def integral(side):
        idx, w = _side_faces(electrodes, grid, side)
        return float(w @ u[idx])

    length = float(_side_faces(electrodes, grid, "top")[1].sum())
    pos = "top" if electrodes.top_positive else "bottom"
    neg = "bottom" if pos == "top" else "top"
    inv_plus = length - integral(pos) / (z * cur)
    inv_minus = length + integral(neg) / (z * cur)
    return 1.0 / (0.5 * (inv_plus + inv_minus))


def _bytes(*arrays):
    return [(a.dtype, a.tobytes()) for a in arrays]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 60), aperture=st.floats(0.0, 1.0, exclude_min=True),
       z=st.floats(0.1, 10.0), current=st.floats(0.1, 10.0), top_positive=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=4, aperture=0.25, z=1.0, current=1.0, top_positive=True, seed=0)  # no node
@example(n=17, aperture=0.05, z=1.0, current=1.0, top_positive=False, seed=0)  # one node
@example(n=3, aperture=1.0, z=1.0, current=1.0, top_positive=False, seed=0)
@example(n=9, aperture=0.8, z=1.4, current=0.7, top_positive=True, seed=0)  # corners join
@example(n=9, aperture=0.5, z=1.4, current=0.7, top_positive=False, seed=0)
def test_one_electrode_rule_matches_former_per_side_rules(n, aperture, z, current,
                                                          top_positive, seed):
    g = make_grid(n)
    el = ElectrodeSet(aperture=aperture, z=z, current=current, top_positive=top_positive)
    sigma = ScalarField(g, np.random.default_rng(seed).uniform(0.1, 10.0, g.num_nodes))
    # the smoothed coefficients take no node set and accept every aperture
    rc = smoothed_coefficients(el, g, 1e-3)
    assert _bytes(rc.b.values, rc.c.values) == _bytes(*_former_smoothed(el, g, 1e-3))
    try:
        faces = [_side_faces(el, g, side) for side in ("top", "bottom")]
    except DataError:
        for build in (lambda: electrode_quadrature(el, g), lambda: base_coefficients(el, g),
                      lambda: assemble_cem(sigma, el, g)):
            with pytest.raises(DataError, match="spans fewer than two nodes"):
                build()
        return
    if not top_positive:
        faces.reverse()  # e+ first
    arcs = electrode_quadrature(el, g)
    assert [_bytes(*arc) for arc in arcs] == [_bytes(*arc) for arc in faces]
    rc = base_coefficients(el, g)
    assert _bytes(rc.b.values, rc.c.values) == _bytes(*_former_base(el, g))
    system = assemble_cem(sigma, el, g)
    table, border, corner, rhs = _side_cem(sigma, el, g)
    column, diagonal = system.voltage
    assert _bytes(system.table, column, np.float64(diagonal), system.rhs) == _bytes(
        table, border, np.float64(corner), rhs)
    robin = solve_forward(sigma, rc, g)
    assert _bytes(np.float64(cem_scaling(robin, el, g))) == _bytes(
        np.float64(_side_cem_scaling(robin, el, g)))
