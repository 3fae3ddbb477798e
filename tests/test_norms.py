import dataclasses
import math
import re

import numpy as np
import pytest

import normplane.norms as norms_module
from conftest import (
    DIAMOND_BALL,
    ELONGATED_HEX_BALL,
    HEX_BALL,
    UNIT_SQUARE_BALL,
    all_norms,
    random_symmetric_polygon,
    strictly_convex_norms,
)
from normplane import (
    DegenerateInput,
    InvalidNorm,
    IoError,
    ParseError,
    PointSet,
    ZeroVector,
    birkhoff_orthogonal,
    bisector_point,
    distance,
    euclidean,
    evaluate_norm,
    is_strictly_convex,
    l1,
    linf,
    lp,
    norm_many,
    pairwise_distances,
    parse_norm,
    polygonal,
    sample_bisector,
)
from normplane.fng import _differences


def test_evaluate_norm_reference_values():
    assert evaluate_norm(lp(2), [3, 4]) == pytest.approx(5.0)
    assert evaluate_norm(lp(1), [3, -4]) == pytest.approx(7.0)
    assert evaluate_norm(linf(), [3, 4]) == pytest.approx(4.0)
    assert evaluate_norm(polygonal(UNIT_SQUARE_BALL), [1, 1]) == pytest.approx(1.0)


def test_distance_reference_values():
    assert distance(lp(2), [0, 0], [3, 4]) == pytest.approx(5.0)
    assert distance(l1(), [1, 1], [1, 1]) == 0.0
    # the max norm puts (0,1) equidistant from (-1/2,0) and (1/2,0)
    assert distance(linf(), [-0.5, 0], [0, 1]) == pytest.approx(1.0)
    assert distance(linf(), [0.5, 0], [0, 1]) == pytest.approx(1.0)


def test_invalid_norms_rejected():
    with pytest.raises(InvalidNorm):
        lp(0.5)
    with pytest.raises(InvalidNorm):
        polygonal([[1, 0], [0, 1], [-1, 0]])  # odd count
    with pytest.raises(InvalidNorm):
        polygonal([[1, 0], [0, 1], [-1, 0.5], [0, -1]])  # not symmetric
    with pytest.raises(InvalidNorm):
        polygonal([[2, 0], [1, 0], [-2, 0], [-1, 0]])  # degenerate, flat
    with pytest.raises(InvalidNorm, match="non-finite vertices"):
        polygonal([[1, 0], [0, math.inf], [-1, 0], [0, -1]])
    with pytest.raises(InvalidNorm, match="even vertex count"):
        polygonal([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]])
    with pytest.raises(InvalidNorm, match="origin is not strictly interior"):
        # a symmetric convex polygon holds the origin, so this test fails only
        # within tol: each corner's turn is 1.4e-3 > tol, each edge line's
        # offset 7e-4 <= tol
        polygonal([[1, 0], [0, 7e-4], [-1, 0], [0, -7e-4]], tol=1e-3)
    for step, m in ((135, 8), (108, 10), (150, 12)):
        # the {8/3}, {10/3} and {12/5} stars: every turn is left and every
        # edge line has a positive offset, but they wind more than once
        half = [[math.cos(math.radians(step * i)), math.sin(math.radians(step * i))]
                for i in range(m // 2)]
        with pytest.raises(InvalidNorm, match="winds more than once"):
            polygonal(half + [[-x, -y] for x, y in half])
    for s in (1e-12, 1e-300):
        # the symmetry band is relative to the polygon's scale at every scale:
        # a vertex 3x too far is no antipode, however small the polygon
        with pytest.raises(InvalidNorm, match="not centrally symmetric"):
            polygonal([[s, 0], [0, s], [-3 * s, 0], [0, -s]])


def test_strict_convexity_classification():
    assert is_strictly_convex(euclidean())
    assert is_strictly_convex(lp(2))
    assert is_strictly_convex(lp(1.01))
    assert not is_strictly_convex(lp(1))
    assert not is_strictly_convex(linf())
    assert not is_strictly_convex(polygonal(UNIT_SQUARE_BALL))


# HEX_BALL with vertex 3 moved off the antipode of vertex 0 by (3e-10, -2e-10),
# inside polygonal()'s symmetry tolerance
NEAR_HEX_BALL = [
    [1.0, 0.0], [0.5, 1.0], [-0.5, 1.0], [-1.0 + 3e-10, -2e-10], [-0.5, -1.0], [0.5, -1.0],
]


def test_norm_axioms_all_kinds(rng):
    for spec in all_norms() + [polygonal(NEAR_HEX_BALL)]:
        v = rng.uniform(-10, 10, size=(500, 2))
        w = rng.uniform(-10, 10, size=(500, 2))
        lam = rng.uniform(-5, 5, size=500)
        nv = norm_many(spec, v)
        nw = norm_many(spec, w)
        # absolute homogeneity
        scaled = norm_many(spec, v * lam[:, None])
        assert np.allclose(scaled, np.abs(lam) * nv, rtol=1e-9, atol=1e-12)
        # triangle inequality
        assert np.all(norm_many(spec, v + w) <= nv + nw + 1e-9)
        # symmetry and definiteness
        assert np.array_equal(norm_many(spec, -v), nv)
        assert evaluate_norm(spec, [0.0, 0.0]) == 0.0
        assert np.all(nv[np.any(v != 0, axis=1)] > 0)


def test_section_convexity(rng):
    for spec in all_norms():
        for _ in range(100):
            x = rng.uniform(-5, 5, size=2)
            y = rng.uniform(-5, 5, size=2)
            lams = np.sort(rng.uniform(-4, 4, size=3))
            vals = [evaluate_norm(spec, x + lam * y) for lam in lams]
            assert vals[1] <= max(vals[0], vals[2]) + 1e-9


def test_polygonal_square_matches_linf_and_diamond_matches_l1(rng):
    square = polygonal(UNIT_SQUARE_BALL)
    diamond = polygonal(DIAMOND_BALL)
    v = rng.uniform(-10, 10, size=(1000, 2))
    assert np.allclose(norm_many(square, v), norm_many(linf(), v), rtol=1e-12)
    assert np.allclose(norm_many(diamond, v), norm_many(l1(), v), rtol=1e-12)


def test_birkhoff_reference_cases():
    assert birkhoff_orthogonal(lp(2), [1, 0], [0, 1])
    assert not birkhoff_orthogonal(lp(2), [1, 0], [1, 1])
    assert birkhoff_orthogonal(linf(), [1, 1], [0, 1])
    with pytest.raises(ZeroVector):
        birkhoff_orthogonal(lp(2), [0, 0], [1, 0])


def test_birkhoff_agrees_with_dense_scan(rng):
    for spec in all_norms():
        for _ in range(25):
            x = rng.uniform(-3, 3, size=2)
            y = rng.uniform(-3, 3, size=2)
            nx = evaluate_norm(spec, x)
            ny = evaluate_norm(spec, y)
            if nx < 1e-6 or ny < 1e-6:
                continue
            lams = np.linspace(-4 * nx / ny, 4 * nx / ny, 4001)
            dense_min = norm_many(spec, x[None, :] + lams[:, None] * y[None, :]).min()
            expected = dense_min >= nx - 1e-9
            got = birkhoff_orthogonal(spec, x, y)
            # the dense scan overestimates the min by at most its grid gap
            if abs(dense_min - nx) > 1e-4:
                assert got == expected


def test_bisector_point_symmetric_cases():
    pt = bisector_point(lp(2), [-1, 0], [1, 0], [0, -5], [0, 1])
    assert pt is not None and abs(pt[0]) < 1e-8
    pt = bisector_point(l1(), [-1, 0], [1, 0], [0, 2], [1, 0])
    assert pt is not None
    assert np.allclose(pt, [0, 2], atol=1e-8)


def test_bisector_point_fat_bisector():
    # max-norm bisector of (-1/2,0),(1/2,0) contains a whole strip; any
    # returned point just has to be equidistant
    pt = bisector_point(linf(), [-0.5, 0], [0.5, 0], [0, 1], [1, 0])
    assert pt is not None
    assert abs(distance(linf(), pt, [-0.5, 0]) - distance(linf(), pt, [0.5, 0])) <= 1e-9


def test_bisector_point_no_crossing_returns_none():
    # line segment of parameter values entirely on one side
    pt = bisector_point(lp(2), [-1, 0], [1, 0], [5, 0], [0, 1], t_range=0.5)
    assert pt is None


@pytest.mark.parametrize("spec", [lp(2), l1()], ids=["lp2", "l1"])
def test_bisector_point_at_the_last_grid_point(spec):
    # the line x = t - 5 meets the bisector x = 0 at t = 5: with t_range 5
    # that is the grid's last point, past every bracket; at 4.9 it is off
    # the grid and no sign changes
    pt = bisector_point(spec, [-1, 0], [1, 0], [-5, 0], [1, 0], t_range=5.0)
    assert np.array_equal(pt, [0, 0])
    assert bisector_point(spec, [-1, 0], [1, 0], [-5, 0], [1, 0], t_range=4.9) is None


def test_sample_bisector_euclidean_axis():
    sample = sample_bisector(lp(2), [-1, 0], [1, 0], count=5, extent=2.0)
    assert sample.points.shape == (5, 2)
    assert np.all(np.abs(sample.points[:, 0]) < 1e-8)
    assert np.all(sample.residuals <= 1e-9)


def test_sample_bisector_residuals_random(rng):
    # the elongated gauge can put a crossing hundreds of q - p out along q - p
    for spec in (lp(3), lp(1.5), euclidean(), polygonal(ELONGATED_HEX_BALL)):
        for _ in range(10):
            p = rng.uniform(-5, 5, size=2)
            q = rng.uniform(-5, 5, size=2)
            if np.allclose(p, q):
                continue
            sample = sample_bisector(spec, p, q, count=32, extent=3.0)
            assert np.all(sample.residuals <= 1e-9)


def test_sample_bisector_double_cone_contains_midpoint(rng):
    # the curve stays inside the double cone of L(r,p), L(r,q) that holds
    # the midpoint: the midpoint is a nonnegative or nonpositive mix of
    # (p - r) and (q - r) for every sample r
    for spec in (euclidean(), lp(3), linf()):
        p = np.array([-1.0, 0.3])
        q = np.array([1.2, -0.4])
        mid = 0.5 * (p + q)
        sample = sample_bisector(spec, p, q, count=17, extent=4.0)
        for r in sample.points:
            a = np.column_stack([p - r, q - r])
            if abs(np.linalg.det(a)) < 1e-12:
                continue
            alpha, beta = np.linalg.solve(a, mid - r)
            assert alpha * beta >= -1e-8


def test_strictly_convex_escape_inequality(rng):
    # moving a bisector point away from p strictly favors p's side
    for spec in strictly_convex_norms():
        for _ in range(8):
            p = rng.uniform(-4, 4, size=2)
            q = rng.uniform(-4, 4, size=2)
            if np.linalg.norm(q - p) < 0.5:
                continue
            sample = sample_bisector(spec, p, q, count=9, extent=2.0)
            for y in sample.points:
                for eps in (0.1, 1.0, 10.0):
                    z = y + eps * (y - p)
                    assert distance(spec, z, q) < distance(spec, z, p) - 1e-9


BAD_TOLS = [-1.0, math.nan, math.inf]
TOL_MESSAGE = "^tol must be finite and non-negative, got "


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_polygonal_rejects_a_negative_or_non_finite_tol(tol):
    # tol = nan used to accept this asymmetric quadrilateral
    with pytest.raises(DegenerateInput, match=TOL_MESSAGE):
        polygonal([[1, 0], [0, 1], [-1, 0.5], [0, -1]], tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_bisector_point_rejects_a_negative_or_non_finite_tol(tol):
    # tol = nan used to return None
    with pytest.raises(DegenerateInput, match=TOL_MESSAGE):
        bisector_point(lp(2), [-1, 0], [1, 0], [0, -5], [0, 1], tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_sample_bisector_rejects_a_negative_or_non_finite_tol(tol):
    # tol = nan or -1 used to end in "no bisector crossing found" after a
    # full bisection and a retry
    with pytest.raises(DegenerateInput, match=TOL_MESSAGE):
        sample_bisector(lp(2), [-1, 0], [1, 0], count=5, extent=2.0, tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_birkhoff_orthogonal_rejects_a_negative_or_non_finite_tol(tol):
    # tol = inf used to call [1, 0] orthogonal to itself
    with pytest.raises(DegenerateInput, match=TOL_MESSAGE):
        birkhoff_orthogonal(euclidean(), [1, 0], [1, 0], tol=tol)


def test_parse_norm_grammar(tmp_path):
    assert parse_norm("euclidean").kind == "euclidean"
    assert parse_norm("l1").p == 1.0
    assert parse_norm("linf").p == math.inf
    assert parse_norm("lp:1.5").p == 1.5
    assert parse_norm("lp:inf") == parse_norm("lp:infinity") == linf()
    for body in ("inf", "infinity", "Infinity", "+inf"):
        assert parse_norm(f"lp:{body}") == linf()
    poly = tmp_path / "ball.json"
    poly.write_text("[[1,1],[-1,1],[-1,-1],[1,-1]]")
    spec = parse_norm(f"polygon:{poly}")
    assert spec.kind == "polygonal"
    assert evaluate_norm(spec, [2, 1]) == pytest.approx(2.0)
    with pytest.raises(ParseError, match="^bad Lp parameter 'x'$"):
        parse_norm("lp:x")
    with pytest.raises(ParseError, match="^unrecognized norm 'cosine'$"):
        parse_norm("cosine")
    broken = tmp_path / "broken.json"
    broken.write_text("[[1,1],[-1,1]")
    message = f"^polygon file {re.escape(repr(str(broken)))} is not valid JSON$"
    with pytest.raises(ParseError, match=message):
        parse_norm(f"polygon:{broken}")
    # a file that cannot be read is an I/O error, as for point files
    for unreadable in (tmp_path / "missing.json", tmp_path):
        message = f"^cannot read polygon file {re.escape(repr(str(unreadable)))}: "
        with pytest.raises(IoError, match=message):
            parse_norm(f"polygon:{unreadable}")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: distance(lp(2), [0, 0, 0], [1, 1]), DegenerateInput,
         "expected a 2-vector, got shape (3,)"),
        (lambda: distance(lp(2), [0, math.nan], [1, 1]), DegenerateInput, "non-finite coordinates"),
        (lambda: norm_many(lp(2), np.zeros((4, 3))), DegenerateInput,
         "expected trailing axis of size 2, got shape (4, 3)"),
        (lambda: norm_many(norms_module.NormSpec(kind="cosine"), np.zeros((4, 2))), InvalidNorm,
         "unknown norm kind 'cosine'"),
        (lambda: bisector_point(lp(2), [1, 2], [1, 2], [0, 0], [0, 1]), DegenerateInput,
         "bisector of identical points"),
        (lambda: bisector_point(lp(2), [-1, 0], [1, 0], [0, 0], [0, 0]), ZeroVector,
         "line direction must be nonzero"),
        (lambda: sample_bisector(lp(2), [1, 2], [1, 2], count=5, extent=1.0), DegenerateInput,
         "bisector of identical points"),
        (lambda: sample_bisector(lp(2), [-1, 0], [1, 0], count=0, extent=1.0), DegenerateInput,
         "count must be >= 1"),
        (lambda: sample_bisector(lp(2), [-1, 0], [1, 0], count=5, extent=0.0), DegenerateInput,
         "extent must be positive"),
        (lambda: sample_bisector(lp(2), [-1, 0], [1, 0], count=5, extent=-1.0), DegenerateInput,
         "extent must be positive"),
    ],
    ids=["not-a-2-vector", "non-finite", "trailing-axis", "unknown-kind", "bisector-identical",
         "bisector-zero-direction", "sample-identical", "sample-count", "sample-zero-extent",
         "sample-negative-extent"],
)
def test_degenerate_vector_arguments_are_rejected(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


HEX = np.array(HEX_BALL, dtype=float)


def test_polygonal_accepts_gauges_far_from_unit_scale():
    # the shape tests and the functionals read the polygon scaled into
    # [1/2, 1): every power-of-two scaling of the hexagon is the same gauge,
    # bit for bit, with each vertex at norm exactly 1 (pytest turns a float
    # RuntimeWarning into an error)
    unit = polygonal(HEX)._functionals
    for k in range(-1000, 1023):
        spec = polygonal(np.ldexp(HEX, k))
        assert np.array_equal(spec._functionals, np.ldexp(unit, -k)), k
        assert np.all(norm_many(spec, np.array(spec.vertices)) == 1.0), k
    # the diamond used to fail the convexity test (1e-300, 1e-200), the
    # interior test (1e-150), or overflow in the convexity test (1e200, 1e300)
    for s in (1e-300, 1e-200, 1e-150, 1e200, 1e300):
        spec = polygonal([[s, 0], [0, s], [-s, 0], [0, -s]])
        assert np.allclose(norm_many(spec, np.array(spec.vertices)), 1.0, rtol=1e-15), s


def test_polygonal_interior_band_is_relative_to_the_scale():
    # the diamond of half-height a at tol 1e-3: its origin lies within the
    # band of an edge line exactly when a <= tol, at every scale, since edge
    # offsets scale as the square of the polygon (1.5 and 3 share no power
    # of two with 1)
    for s in (1.0, 1.5, 3.0, 1e-100, 1e100):
        polygonal([[s, 0], [0, 1.5e-3 * s], [-s, 0], [0, -1.5e-3 * s]], tol=1e-3)
        with pytest.raises(InvalidNorm, match="origin is not strictly interior"):
            polygonal([[s, 0], [0, 7e-4 * s], [-s, 0], [0, -7e-4 * s]], tol=1e-3)


@pytest.mark.parametrize("k", [-1050, -1070])
def test_polygonal_rejects_functionals_beyond_the_float_range(k):
    message = "^polygonal norm's functionals lie beyond the float range$"
    with pytest.raises(InvalidNorm, match=message):
        polygonal(np.ldexp(HEX, k))


# the kernel as it was written with two layouts: Lp families reduced over the
# length-2 axis, polygonal functionals rebuilt on every call; the reference
# the one elementwise kernel must reproduce bit for bit
def _reference_poly_functionals(spec):
    normals, offsets = norms_module._edge_lines(np.asarray(spec.vertices, dtype=float))
    return normals / offsets[:, None]


def _reference_lp_many(p, a):
    ax = np.abs(a)
    if p == math.inf:
        return ax.max(axis=-1)
    if p == 1.0:
        return ax.sum(axis=-1)
    if p == 2.0:
        return np.hypot(ax[..., 0], ax[..., 1])
    m = ax.max(axis=-1)
    safe = np.where(m > 0.0, m, 1.0)
    scaled = ax / safe[..., None]
    val = safe * (scaled[..., 0] ** p + scaled[..., 1] ** p) ** (1.0 / p)
    return np.where(m > 0.0, val, 0.0)


def _reference_norm_many(spec, arr):
    a = np.asarray(arr, dtype=float)
    if spec.kind == "euclidean":
        return np.hypot(a[..., 0], a[..., 1])
    if spec.kind == "lp":
        return _reference_lp_many(spec.p, a)
    x, y = a[..., 0], a[..., 1]
    out = None
    for fx, fy in _reference_poly_functionals(spec):
        v = x * fx + y * fy
        out = v if out is None else np.maximum(out, v)
    return out


def _kernel_norms(rng):
    return [
        euclidean(), l1(), lp(1.5), lp(2), lp(3), lp(7.5), lp(40), linf(),
        polygonal(HEX_BALL), polygonal(UNIT_SQUARE_BALL),
    ] + [random_symmetric_polygon(rng) for _ in range(4)]


def _bits(value):
    a = np.asarray(value)
    return type(value), a.dtype, a.shape, a.tobytes()


def _assert_alone_equals_batch(spec, batch):
    """Each vector alone gives, as an np.float64, the bits it gets in the batch."""
    rows = np.asarray(batch, dtype=float).reshape(-1, 2)
    for a, in_batch in zip(rows, norm_many(spec, rows)):
        assert _bits(norm_many(spec, a)) == _bits(in_batch)


def test_norm_many_matches_the_two_layout_reference_bit_for_bit(rng):
    for spec in _kernel_norms(rng):
        for scale in 10.0 ** np.arange(-300, 301, 25):
            pts = rng.standard_normal((9, 2)) * scale
            iu, ju = np.triu_indices(9, k=1)
            v = rng.standard_normal((3, 4, 2)) * scale
            for a in (
                v[0],  # (m, 2)
                v,  # (a, b, 2)
                v.transpose(1, 0, 2),  # a strided view
                _differences(pts, iu, ju),  # contiguous planes
                _differences(pts, np.arange(9)[:, None], np.arange(9)[None, :]),
            ):
                assert _bits(norm_many(spec, a)) == _bits(_reference_norm_many(spec, a))
            # single vectors, where numpy may use scalar math
            _assert_alone_equals_batch(spec, v)


def test_norm_many_matches_the_reference_on_zero_signed_zero_and_subnormal_components(rng):
    special = np.array([
        0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
        1e-300, 1.0, -3.0, 4.0, -1e300, 1e300,
    ])
    x, y = np.meshgrid(special, special)
    grid = np.stack([x, y], axis=-1)
    for spec in _kernel_norms(rng):
        got = norm_many(spec, grid)
        # the reference's polygonal max can keep a -0.0; the kernel gives +0.0
        assert _bits(got) == _bits(_reference_norm_many(spec, grid) + 0.0)
        _assert_alone_equals_batch(spec, grid)
        assert np.all(got[np.abs(grid).max(axis=-1) == 0.0] == 0.0)


def test_distance_equals_the_pairwise_table_on_every_pair(rng):
    S = PointSet(rng.uniform(-10, 10, size=(60, 2)))
    for spec in _kernel_norms(rng):
        table = pairwise_distances(spec, S)
        for i in range(S.n):
            for j in range(S.n):
                if i != j:
                    d = distance(spec, S.points[i], S.points[j])
                    assert d.hex() == table[i, j].hex(), (spec.label(), i, j)


def test_polygonal_functionals_are_derived_once_per_norm(monkeypatch):
    calls = []
    edge_lines = norms_module._edge_lines
    monkeypatch.setattr(
        norms_module, "_edge_lines", lambda arr: calls.append(1) or edge_lines(arr)
    )
    specs = [polygonal(HEX_BALL), polygonal(UNIT_SQUARE_BALL)]
    # the factory reads the edge lines once for its interior test and derives
    # the functionals once, for its range check, into the spec's cache
    assert len(calls) == 2 * len(specs)
    twins = [polygonal(HEX_BALL), polygonal(UNIT_SQUARE_BALL)]
    before = [(repr(s), hash(s)) for s in specs]
    calls.clear()
    v = np.random.default_rng(3).uniform(-1, 1, size=(50, 2))
    for spec in specs:
        for _ in range(5):
            norm_many(spec, v)
            evaluate_norm(spec, v[0])
            distance(spec, v[1], v[2])
    assert calls == []
    # derived state, not a field: equality, hash and repr are unchanged
    assert [(repr(s), hash(s)) for s in specs] == before
    assert specs == twins
    for spec in specs:
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec._functionals = None
        with pytest.raises(ValueError):
            spec._functionals[0, 0] = 0.0
