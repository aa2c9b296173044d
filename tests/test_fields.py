"""Grid, operators, norms, and the FLD1 file format."""

import ast
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cdrecon
from cdrecon import bregman, elliptic
from cdrecon.boundary import ElectrodeSet, RobinCoefficients, smoothed_coefficients
from cdrecon.bregman import BregmanConfig, split_bregman_minimize
from cdrecon.elliptic import (
    SolveStats,
    assemble_cem,
    assemble_laplace_dirichlet,
    assemble_robin,
    boundary_net_flux,
)
from cdrecon.errors import DimensionError, FormatError, GridError
from cdrecon.fields import (
    BoundaryValues,
    Grid,
    ScalarField,
    VectorField,
    _gradient_wide,
    _magnitude,
    _wide_cells,
    boundary_loop,
    boundary_trace,
    cell_average,
    cells_to_nodes,
    divergence,
    gradient,
    make_grid,
    read_field,
    rel_l2_error,
    weighted_tv,
    write_field,
)
from cdrecon.family import level_calibration
from cdrecon.forward import (
    ForwardResult,
    add_noise,
    cem_scaling,
    solve_cem_forward,
    solve_forward,
)
from cdrecon.phantom import PhantomSpec, generate_phantom
from cdrecon.recon import ReconConfig, convergence_study, reconstruct, sigma_from_potential


def test_make_grid_smallest():
    g = make_grid(3)
    assert g.h == 0.5
    assert g.num_nodes == 9
    assert g.num_boundary_nodes == 8


def test_make_grid_spacing():
    assert make_grid(101).h == pytest.approx(0.01)
    assert make_grid(256).h == pytest.approx(1.0 / 255.0)


@pytest.mark.parametrize("n", [2, 1, 0, -4])
def test_make_grid_rejects_small(n):
    with pytest.raises(GridError):
        make_grid(n)


@pytest.mark.parametrize("n", [64.9, 3.7])
def test_make_grid_rejects_a_non_integral_size(n):
    # make_grid truncated these to Grid(64) and Grid(3); Grid rejects them
    with pytest.raises(GridError, match="integer n"):
        make_grid(n)
    with pytest.raises(GridError, match="integer n"):
        Grid(n)


def test_grid_boundary_nodes_are_edges():
    g = make_grid(7)
    i, j = boundary_loop(g)
    assert len(i) == 4 * 6
    on_edge = (i == 0) | (i == 6) | (j == 0) | (j == 6)
    assert on_edge.all()
    # each boundary node appears exactly once
    assert len({(a, b) for a, b in zip(i.tolist(), j.tolist())}) == 24


def test_gradient_constant_is_zero():
    g = make_grid(9)
    u = ScalarField.constant(g, 3.7)
    f = gradient(u)
    assert np.all(f.x == 0.0) and np.all(f.y == 0.0)


def test_gradient_linear_exact():
    g = make_grid(13)
    u = ScalarField.from_function(g, lambda x, y: y)
    f = gradient(u)
    assert np.allclose(f.x, 0.0, atol=1e-14)
    assert np.allclose(f.y, 1.0, atol=1e-14)


def test_gradient_affine_n3_hand_stencil():
    # u = x + 2y on the 3x3 grid: every cell must give exactly (1, 2)
    g = make_grid(3)
    u = ScalarField.from_function(g, lambda x, y: x + 2 * y)
    f = gradient(u)
    assert np.allclose(f.x, 1.0, atol=1e-13)
    assert np.allclose(f.y, 2.0, atol=1e-13)


def test_gradient_affine_exactness_property():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a, b, c = rng.normal(size=3)
        g = make_grid(int(rng.integers(3, 40)))
        u = ScalarField.from_function(g, lambda x, y: a * x + b * y + c)
        f = gradient(u)
        assert np.abs(f.x - a).max() < 1e-13
        assert np.abs(f.y - b).max() < 1e-13


def test_divergence_is_negative_transpose_of_gradient():
    rng = np.random.default_rng(7)
    g = make_grid(12)
    h2 = g.h * g.h
    for trial in range(5):
        v = ScalarField(g, rng.normal(size=g.num_nodes))
        fx = rng.normal(size=(g.n - 1, g.n - 1))
        fy = rng.normal(size=(g.n - 1, g.n - 1))
        if trial % 2 == 0:
            # interior-supported: zero out cells touching the boundary
            fx[0, :] = fx[-1, :] = fx[:, 0] = fx[:, -1] = 0.0
            fy[0, :] = fy[-1, :] = fy[:, 0] = fy[:, -1] = 0.0
        F = VectorField(g, fx.reshape(-1), fy.reshape(-1))
        gv = gradient(v)
        lhs = (gv.x @ F.x + gv.y @ F.y) * h2
        rhs = -(v.values @ divergence(F).values) * h2
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def _padded_divergence(f):
    """The former divergence: both components padded with a ring of zeros."""
    n = f.grid.n
    h2 = 2.0 * f.grid.h
    fx = np.pad(f.x2d, 1)
    fy = np.pad(f.y2d, 1)
    dx = fx[1:n + 1, 1:n + 1] + fx[0:n, 1:n + 1] - fx[1:n + 1, 0:n] - fx[0:n, 0:n]
    dy = fy[1:n + 1, 1:n + 1] + fy[1:n + 1, 0:n] - fy[0:n, 1:n + 1] - fy[0:n, 0:n]
    return ((dx + dy) / h2).reshape(-1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 80), seed=st.integers(0, 2**32 - 1))
def test_divergence_matches_padded_formula_and_is_adjoint(n, seed):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    F = VectorField(g, rng.normal(size=g.num_cells), rng.normal(size=g.num_cells))
    div = divergence(F).values
    assert div.tobytes() == _padded_divergence(F).tobytes()
    v = ScalarField(g, rng.normal(size=g.num_nodes))
    gv = gradient(v)
    lhs = gv.x @ F.x + gv.y @ F.y
    rhs = -(v.values @ div)
    scale = np.abs(gv.x) @ np.abs(F.x) + np.abs(gv.y) @ np.abs(F.y)
    assert abs(lhs - rhs) <= 1e-13 * scale


def test_weighted_tv_constant_field():
    g = make_grid(21)
    assert weighted_tv(ScalarField.constant(g, 5.0), ScalarField.constant(g, 2.0)) == 0.0


def test_weighted_tv_linear_closed_forms():
    g = make_grid(33)
    vx = ScalarField.from_function(g, lambda x, y: x)
    assert weighted_tv(vx, ScalarField.constant(g, 2.0)) == pytest.approx(2.0, abs=1e-12)
    g101 = make_grid(101)
    vy = ScalarField.from_function(g101, lambda x, y: y)
    assert weighted_tv(vy, ScalarField.constant(g101, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_weighted_tv_one_homogeneous():
    rng = np.random.default_rng(3)
    g = make_grid(14)
    v = ScalarField(g, rng.normal(size=g.num_nodes))
    a = ScalarField(g, rng.uniform(0.1, 2.0, size=g.num_nodes))
    base = weighted_tv(v, a)
    for c in (-3.0, -1.0, 0.5, 2.0):
        scaled = ScalarField(g, c * v.values)
        assert weighted_tv(scaled, a) == pytest.approx(abs(c) * base, rel=1e-12)


def test_weighted_tv_monotone_in_weight():
    rng = np.random.default_rng(4)
    g = make_grid(11)
    v = ScalarField(g, rng.normal(size=g.num_nodes))
    a1 = rng.uniform(0.0, 1.0, size=g.num_nodes)
    a2 = a1 + rng.uniform(0.0, 1.0, size=g.num_nodes)
    assert weighted_tv(v, ScalarField(g, a1)) <= weighted_tv(v, ScalarField(g, a2)) + 1e-15


def test_weighted_tv_grid_mismatch():
    with pytest.raises(DimensionError):
        weighted_tv(ScalarField.constant(make_grid(5), 1.0),
                    ScalarField.constant(make_grid(7), 1.0))


_MAX = np.finfo(float).max
_TINY = np.finfo(float).smallest_subnormal
# the squared sums whose square root ``_magnitude`` takes, and the unit roundoff
_SAFE_SQUARES = (2.0 ** -968, 2.0 ** 1000)
_UNIT = 2.0 ** -53
# every double (signed zeros, subnormals, +-inf and NaN included), and
# mantissas over the decimal exponents -330..308
_COMPONENT = st.one_of(
    st.floats(),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-330, 308)),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_COMPONENT, _COMPONENT), min_size=1, max_size=64))
@example(pairs=[(0.0, -0.0), (-0.0, -0.0), (_TINY, 0.0), (-_TINY, _TINY),
                (np.inf, np.nan), (np.nan, -np.inf), (np.nan, 0.0), (_MAX, _MAX),
                (2.0 ** -484, 0.0), (np.nextafter(2.0 ** -484, 0.0), 2.0 ** -540),
                (2.0 ** 500, 0.0), (np.nextafter(2.0 ** 500, np.inf), -1.0),
                (2.0 ** 499, 2.0 ** 499), (3.0, -4.0)])
def test_magnitude_is_hypot_within_two_ulps(pairs):
    x, y = np.array(pairs, dtype=float).T.copy()
    out = np.full_like(x, 7.0)
    with np.errstate(over="ignore"):  # where |(x, y)| itself overflows
        assert _magnitude(x, y, out) is out
        ref = np.hypot(x, y)
    assert np.array_equal(np.isnan(out), np.isnan(ref))
    assert np.array_equal(np.isinf(out), np.isinf(ref))
    finite = np.isfinite(ref)
    ulps = np.abs(out[finite].view(np.int64) - ref[finite].view(np.int64))
    assert ulps.max(initial=0) <= 2
    # the Bregman shrink relies on |w| = 0 only where w = 0
    assert np.array_equal(out == 0.0, (x == 0.0) & (y == 0.0))
    with np.errstate(over="ignore", under="ignore"):
        sums = x * x + y * y
    safe = (sums >= _SAFE_SQUARES[0]) & (sums <= _SAFE_SQUARES[1])
    assert out[safe].tobytes() == np.sqrt(sums[safe]).tobytes()


def _squares_stay_safe(v: ScalarField) -> bool:
    grad = gradient(v)
    with np.errstate(over="ignore", under="ignore"):
        sums = grad.x * grad.x + grad.y * grad.y
    return bool(np.all((sums >= _SAFE_SQUARES[0]) & (sums <= _SAFE_SQUARES[1])))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(5, 40), k=st.integers(-900, 900), seed=st.integers(0, 2**32 - 1))
def test_sigma_and_tv_scale_with_the_potential(n, k, seed):
    # a power of two scales every cell gradient exactly.  Where all squared
    # sums, of v and of 2^k v, stay in the square root's range, the magnitude
    # is exactly homogeneous and so are the sigma image (degree -1) and the
    # weighted TV (degree 1).  Elsewhere hypot takes over, within 2 ulps
    # (4 units of roundoff) of the square root; with the node sums, the
    # floor and the quotient the sigma image stays within 12 units, and the
    # TV, a pairwise sum of at most 39^2 products, within 64.  Measured: 4
    # ulps and 3 ulps over 3000 draws.
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    a = ScalarField(g, rng.uniform(0.0, 2.0, g.num_nodes))
    v = ScalarField(g, rng.normal(size=g.num_nodes))
    scale = 2.0 ** k
    scaled = ScalarField(g, scale * v.values)
    sigma = sigma_from_potential(a, v, 1e-8).values
    sigma_scaled = sigma_from_potential(a, scaled, 1e-8).values * scale
    tv, tv_scaled = weighted_tv(v, a), weighted_tv(scaled, a)
    if _squares_stay_safe(v) and _squares_stay_safe(scaled):
        assert sigma_scaled.tobytes() == sigma.tobytes()
        assert tv_scaled == scale * tv
    else:
        np.testing.assert_allclose(sigma_scaled, sigma, rtol=12 * _UNIT, atol=0.0)
        assert tv_scaled == pytest.approx(scale * tv, rel=64 * _UNIT, abs=0.0)


def test_hypot_appears_only_inside_the_magnitude_kernel():
    # one magnitude rule: the package's every other magnitude goes through
    # ``fields._magnitude``
    package = Path(cdrecon.__file__).parent
    inside, outside = 0, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kernel = {id(node) for fn in ast.walk(tree)
                  if path.name == "fields.py" and isinstance(fn, ast.FunctionDef)
                  and fn.name == "_magnitude" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "hypot":
                if id(node) in kernel:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert inside and not outside


def test_rel_l2_error_cases():
    g = make_grid(9)
    f = ScalarField.from_function(g, lambda x, y: 1 + x * y)
    assert rel_l2_error(f, f) == 0.0
    scaled = ScalarField(g, 1.01 * f.values)
    assert rel_l2_error(scaled, f) == pytest.approx(0.01, rel=1e-10)
    assert rel_l2_error(ScalarField.constant(g, 1.8), ScalarField.constant(g, 1.0)) == (
        pytest.approx(0.8, rel=1e-12)
    )
    zero = ScalarField.constant(g, 0.0)
    assert rel_l2_error(zero, zero) == 0.0
    assert rel_l2_error(ScalarField.constant(g, 1.0), zero) == float("inf")


def test_boundary_trace_constant():
    g = make_grid(6)
    t = boundary_trace(ScalarField.constant(g, 2.5))
    assert np.all(t.values == 2.5)


def test_boundary_trace_ordering_n3():
    g = make_grid(3)
    t = boundary_trace(ScalarField.from_function(g, lambda x, y: x))
    # counterclockwise from (0,0): bottom, right, top, left
    assert np.allclose(t.values, [0.0, 0.5, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0])


def test_boundary_trace_sides():
    g = make_grid(9)
    t = boundary_trace(ScalarField.from_function(g, lambda x, y: y)).values
    m = g.n - 1
    assert np.all(t[:m] == 0.0)           # bottom
    assert np.all(t[2 * m:3 * m] == 1.0)  # top


@st.composite
def _finite_fields(draw):
    n = draw(st.integers(3, 40))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return n, draw(arrays(np.float64, n * n, elements=finite))


@settings(max_examples=40, deadline=None)
@given(case=_finite_fields())
@example(case=(3, np.array([-0.0, 0.0, _TINY, -_TINY, 2.0**-1030, _MAX, -_MAX, 1.0, -1.0])))
def test_field_roundtrip_bit_exact(tmp_path_factory, case):
    n, values = case
    u = ScalarField(make_grid(n), values)
    p = tmp_path_factory.mktemp("fld") / "f.fld"
    write_field(u, p)
    back = read_field(p)
    assert back.grid.n == n
    assert back.values.tobytes() == values.tobytes()


def test_field_file_layout(tmp_path):
    g = make_grid(3)
    p = tmp_path / "ones.fld"
    write_field(ScalarField.constant(g, 1.0), p)
    raw = p.read_bytes()
    assert raw.startswith(b"FLD1 3 3\n")
    payload = raw[len(b"FLD1 3 3\n"):]
    assert payload == struct.pack("<9d", *([1.0] * 9))


def test_field_read_size_mismatch(tmp_path):
    p = tmp_path / "bad.fld"
    p.write_bytes(b"FLD1 16 16\n" + b"\x00" * (255 * 8))
    with pytest.raises(FormatError, match="payload size"):
        read_field(p)


def test_field_read_bad_header(tmp_path):
    p = tmp_path / "bad.fld"
    for header, message in (
        (b"FLD2 4 4\n", "expected 'FLD1 <nx> <ny>'"),
        (b"FLD1 4 4", "missing newline"),
        (b"FLD1 4 x\n", "non-integer dimensions"),
        (b"FLD1 4 5\n", "non-square field 4x5"),
        (b"FLD1 2 2\n", "grid size 2 below minimum 3"),
    ):
        p.write_bytes(header + b"\x00" * (16 * 8))
        with pytest.raises(FormatError, match="header: " + re.escape(message)):
            read_field(p)


def test_field_read_trailing_bytes_rejected(tmp_path):
    g = make_grid(4)
    p = tmp_path / "t.fld"
    write_field(ScalarField.constant(g, 0.0), p)
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(FormatError, match="payload size"):
        read_field(p)


def test_field_read_non_finite(tmp_path):
    p = tmp_path / "nan.fld"
    vals = [1.0] * 9
    vals[4] = float("nan")
    p.write_bytes(b"FLD1 3 3\n" + struct.pack("<9d", *vals))
    with pytest.raises(FormatError, match="non-finite"):
        read_field(p)


def test_scalar_field_validation():
    g = make_grid(4)
    with pytest.raises(DimensionError):
        ScalarField(g, np.zeros(5))
    with pytest.raises(DimensionError):
        ScalarField(g, np.full(16, np.inf))
    with pytest.raises(DimensionError):
        BoundaryValues(g, np.zeros(11))
    with pytest.raises(DimensionError, match="needs 9 values per component, got 9 and 8"):
        VectorField(g, np.zeros(9), np.zeros(8))


def test_a_field_shares_the_array_it_is_built_from():
    # no copy: a write into the caller's array shows through the field
    buf = np.zeros(9)
    f = ScalarField(make_grid(3), buf)
    buf[0] = 7.0
    assert f.values[0] == 7.0


def test_no_function_writes_into_an_input_field():
    # the bytes of every input array are the same after each call
    g = make_grid(17)
    el = ElectrodeSet()
    sigma = generate_phantom(PhantomSpec(kind="blobs", n=17, seed=2))
    coeffs = smoothed_coefficients(el, g, 5e-4)
    fwd = solve_forward(sigma, coeffs, g)
    a, u, trace = fwd.a, fwd.u, boundary_trace(fwd.u)
    inputs = (sigma.values, coeffs.b.values, coeffs.c.values, a.values, u.values,
              trace.values)
    before = [x.tobytes() for x in inputs]
    calls = {
        "solve_forward": lambda: solve_forward(sigma, coeffs, g),
        "solve_cem_forward": lambda: solve_cem_forward(sigma, el, g),
        "reconstruct": lambda: reconstruct(a, el, ReconConfig(), g, ground_truth=sigma),
        "split_bregman_minimize": lambda: split_bregman_minimize(
            a, trace, BregmanConfig(), g),
        "level_calibration": lambda: level_calibration(sigma, u, el, 1.0),
        "add_noise": lambda: add_noise(a, 1e-3, 1),
    }
    for name, call in calls.items():
        call()
        assert [x.tobytes() for x in inputs] == before, name


def test_cell_average_and_back():
    g = make_grid(5)
    s = ScalarField.from_function(g, lambda x, y: 1 + x)
    ca = cell_average(s)
    xc, _ = g.cell_coords()
    assert np.allclose(ca, 1 + xc, atol=1e-14)
    back = cells_to_nodes(ca, g)
    x, _ = g.node_coords()
    # interior nodes recover the affine exactly, edges are one-sided
    assert np.allclose(back[1:-1, 1:-1], (1 + x)[1:-1, 1:-1], atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
def test_gradient_wide_writes_a_zero_padding_column(n, seed):
    # the cells at I = n-1, the last one included, come out exactly 0 from
    # buffers that held NaN, and the real cells are those of ``gradient``
    u = np.random.default_rng(seed).standard_normal(n * n)
    gx, gy = np.full((2, (n - 1) * n), np.nan)
    _gradient_wide(u, n, 1.0 / (n - 1), gx, gy)
    for c in (gx, gy):
        assert np.all(c.reshape(n - 1, n)[:, -1] == 0.0)
    grad = gradient(ScalarField(make_grid(n), u))
    assert np.array_equal(_wide_cells(gx, n), grad.x2d)
    assert np.array_equal(_wide_cells(gy, n), grad.y2d)


def _no_solve(*args, **kwargs):
    raise AssertionError("a linear solve ran before the grid check")


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 14), other=st.integers(3, 20), seed=st.integers(0, 2**32 - 1))
def test_every_grid_mismatch_is_one_error_before_any_solve(n, other, seed):
    # fields on an n grid against a grid (or a second field) of another size,
    # smaller or larger: each public function that takes a grid or two fields
    # raises DimensionError, and no linear solve runs first
    assume(other != n)
    g, h = make_grid(n), make_grid(other)
    rng = np.random.default_rng(seed)
    sigma = ScalarField(g, 1.0 + rng.random(g.num_nodes))
    u = ScalarField.from_function(g, lambda x, y: y)
    el = ElectrodeSet()
    coeffs = smoothed_coefficients(el, g, 5e-4, 1.0)
    coeffs_h = smoothed_coefficients(el, h, 5e-4, 1.0)
    trace = boundary_trace(u)
    result = ForwardResult(u=u, a=sigma, stats=SolveStats(0, 0.0, "transform"))
    schedule = [4e-3, 2e-3, 1e-3, 5e-4]
    calls = [
        lambda: reconstruct(sigma, el, ReconConfig(), h),
        lambda: reconstruct(sigma, el, ReconConfig(), g, ScalarField.constant(h, 1.0)),
        lambda: split_bregman_minimize(sigma, trace, BregmanConfig(), h),
        lambda: split_bregman_minimize(
            sigma, BoundaryValues(h, np.zeros(4 * (other - 1))), BregmanConfig(), g),
        lambda: convergence_study(sigma, el, h, schedule, schedule),
        lambda: solve_forward(sigma, coeffs, h),
        lambda: solve_forward(sigma, coeffs_h, g),
        lambda: solve_cem_forward(sigma, el, h),
        lambda: cem_scaling(result, el, h),
        lambda: assemble_robin(sigma, coeffs, h),
        lambda: assemble_robin(sigma, coeffs_h, g),
        lambda: assemble_cem(sigma, el, h),
        lambda: assemble_laplace_dirichlet(trace, h),
        lambda: boundary_net_flux(coeffs_h, u),
        lambda: RobinCoefficients(coeffs.b, coeffs_h.c),
    ]
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((elliptic, "_cg"), (elliptic, "sine_solve"),
                             (bregman, "sine_solve")):
            mp.setattr(module, name, _no_solve)
        for call in calls:
            with pytest.raises(DimensionError, match="different grids"):
                call()
