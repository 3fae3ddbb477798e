import re

import numpy as np
import pytest

from conftest import HEX_BALL, all_norms
from normplane import geometry
from normplane import (
    CCW,
    COLLINEAR,
    CW,
    DegenerateInput,
    DegenerateSegment,
    DuplicatePoints,
    PointSet,
    convex_hull,
    distance,
    euclidean,
    lp,
    mxst_mpsy,
    norm_many,
    orientation,
    polygonal,
    run_checks,
    segments_properly_intersect,
)


def test_orientation_basic():
    assert orientation([0, 0], [1, 0], [0, 1]) == CCW
    assert orientation([0, 0], [1, 0], [2, 0]) == COLLINEAR
    assert orientation([0, 0], [0, 1], [1, 0]) == CW


def test_orientation_scale_invariance():
    # the collinearity band scales with the segment lengths
    assert orientation([0, 0], [1e8, 0], [2e8, 1e-4]) == COLLINEAR
    assert orientation([0, 0], [1e-8, 0], [2e-8, 1e-18]) == COLLINEAR
    # a proportionally visible deflection stays a turn at any magnitude
    assert orientation([0, 0], [1e8, 0], [2e8, 1e3]) == CCW
    assert orientation([0, 0], [1e-8, 0], [2e-8, 1e-13]) == CCW


def test_convex_hull_square_with_center():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
    hull = convex_hull(pts)
    assert set(hull.vertices) == {0, 1, 2, 3}
    assert 4 not in hull.boundary
    # counterclockwise traversal
    ring = [pts[i] for i in hull.vertices]
    area2 = sum(
        ring[i][0] * ring[(i + 1) % 4][1] - ring[(i + 1) % 4][0] * ring[i][1]
        for i in range(4)
    )
    assert area2 > 0


def test_convex_hull_collinear_degenerate():
    pts = np.array([[0, 0], [1, 0], [3, 0]], dtype=float)
    hull = convex_hull(pts)
    assert set(hull.vertices) == {0, 2}
    assert hull.boundary.tolist() == [0, 1, 2]
    assert hull.position[0] < hull.position[1] < hull.position[2]


def test_convex_hull_boundary_point_on_edge():
    pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 0]], dtype=float)
    hull = convex_hull(pts)
    assert set(hull.vertices) == {0, 1, 2, 3}
    assert 4 in hull.boundary
    # rank order along the bottom edge: corner, midpoint, next corner
    assert hull.position[0] < hull.position[4] < hull.position[1]


def test_convex_hull_of_one_point():
    hull = convex_hull(np.array([[3.0, -1.0]]))
    for field in (hull.vertices, hull.boundary, hull.position, hull.traversal()):
        assert field.tolist() == [0]


def test_convex_hull_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        convex_hull(np.array([[0, 0], [1, 1], [0, 0]], dtype=float))


@pytest.mark.parametrize(
    "points, message",
    [
        (np.zeros((3, 3)), "expected an (n, 2) array, got shape (3, 3)"),
        (np.zeros(4), "expected an (n, 2) array, got shape (4,)"),
        # this set used to come back as vertices (0, 2), without hull vertex 3
        ([[0, 0], [1, np.nan], [2, 0], [1, 1]], "point set contains non-finite coordinates"),
        ([[0, 0], [1, np.inf], [2, 0], [1, 1]], "point set contains non-finite coordinates"),
    ],
)
def test_convex_hull_rejects_malformed_points(points, message):
    with pytest.raises(DegenerateInput, match=f"^{re.escape(message)}$"):
        convex_hull(points)


def test_convex_hull_rejects_the_empty_set():
    for points in ([], np.zeros((0, 2))):
        with pytest.raises(DuplicatePoints, match="^empty point set$"):
            convex_hull(points)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_convex_hull_rejects_a_negative_or_non_finite_tol(tol):
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DegenerateInput, match="^tol must be finite and non-negative, got "):
        convex_hull(square, tol)


def test_mxst_with_a_negative_tol_fails_at_the_hull():
    # it used to end in "spine endpoints [1, 2] not on hull boundary"; the
    # hull's tolerance check now also runs first in build_fng
    S = PointSet(np.array([[0.0, 0.0], [3.0, 0.1], [1.0, 2.2], [2.5, 3.0]]))
    with pytest.raises(DegenerateInput, match=r"^tol must be finite and non-negative, got -1\.0$"):
        mxst_mpsy(euclidean(), S, tol=-1.0)


def test_convex_hull_halfplane_oracle(rng):
    for _ in range(25):
        pts = rng.uniform(-10, 10, size=(20, 2))
        hull = convex_hull(pts)
        verts = list(hull.vertices)
        k = len(verts)
        for e in range(k):
            a, b = pts[verts[e]], pts[verts[(e + 1) % k]]
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (pts[:, 0] - a[0]) * (b[1] - a[1])
            assert np.all(cross >= -1e-9 * np.abs(cross).max())


def test_hull_idempotence(rng):
    pts = rng.uniform(-5, 5, size=(30, 2))
    hull = convex_hull(pts)
    verts = pts[list(hull.vertices)]
    again = convex_hull(verts)
    # same cycle up to rotation
    first = list(again.vertices)
    assert len(first) == len(hull.vertices)
    rotated = [tuple(verts[i]) for i in first]
    original = [tuple(v) for v in verts]
    start = rotated.index(original[0])
    assert rotated[start:] + rotated[:start] == original


def test_segments_properly_intersect():
    square = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 1.0])]
    assert segments_properly_intersect((square[0], square[2]), (square[1], square[3]))
    assert not segments_properly_intersect((square[0], square[1]), (square[3], square[2]))
    # sharing an endpoint is not proper
    assert not segments_properly_intersect((square[0], square[2]), (square[2], square[1]))
    with pytest.raises(DegenerateSegment):
        segments_properly_intersect((square[0], square[0]), (square[1], square[2]))


BAD_TOLS = [-1.0, np.nan, np.inf]
TOL_MESSAGE = "^tol must be finite and non-negative, got "


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_orientation_rejects_a_negative_or_non_finite_tol(tol):
    # tol = nan used to call this collinear triple CW
    with pytest.raises(DegenerateInput, match=TOL_MESSAGE):
        orientation([0, 0], [1, 0], [2, 0], tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_segments_properly_intersect_rejects_a_negative_or_non_finite_tol(tol):
    with pytest.raises(DegenerateInput, match=TOL_MESSAGE):
        segments_properly_intersect(([0, 0], [2, 0]), ([1, 0], [3, 0]), tol)


def test_segment_max_inequality_all_norms(rng):
    # distance from any point to a segment point never beats both endpoints
    for spec in all_norms():
        a = rng.uniform(-5, 5, size=(300, 2))
        b = rng.uniform(-5, 5, size=(300, 2))
        c = rng.uniform(-5, 5, size=(300, 2))
        t = rng.uniform(0, 1, size=(300, 1))
        x = a + t * (b - a)
        dcx = norm_many(spec, c - x)
        bound = np.maximum(norm_many(spec, c - a), norm_many(spec, c - b))
        assert np.all(dcx <= bound + 1e-9 * np.maximum(bound, 1.0))


def test_quadrilateral_diagonal_dominance(rng):
    # in convex position the diagonals outweigh both pairs of opposite sides
    for spec in all_norms():
        done = 0
        while done < 200:
            quad = rng.uniform(-5, 5, size=(4, 2))
            hull = convex_hull(quad)
            if len(hull.vertices) != 4:
                continue
            a, b, c, d = (quad[i] for i in hull.vertices)
            done += 1
            diags = distance(spec, a, c) + distance(spec, b, d)
            s1 = distance(spec, a, b) + distance(spec, c, d)
            s2 = distance(spec, a, d) + distance(spec, b, c)
            assert diags >= max(s1, s2) - 1e-9 * max(diags, 1.0)


def test_furthest_point_lies_on_hull(rng):
    for spec in all_norms():
        for _ in range(20):
            pts = rng.uniform(-8, 8, size=(25, 2))
            hull = convex_hull(pts)
            q = rng.uniform(-8, 8, size=2)
            dists = norm_many(spec, pts - q)
            best = dists.max()
            winners = {i for i in range(len(pts)) if dists[i] >= best - 1e-12}
            assert winners & set(hull.vertices)


def _reference_hull(points, tol=1e-9):
    """The scalar hull: one orientation() call per chain step and per
    (edge, point) pair; (vertices, boundary, position) of convex_hull."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    seen = {}
    for i, (x, y) in enumerate(pts):
        key = (float(x), float(y))
        if key in seen:
            raise DuplicatePoints(f"points {seen[key]} and {i} coincide")
        seen[key] = i
    if n == 1:
        return (0,), frozenset({0}), {0: 0}
    order = sorted(range(n), key=lambda i: (pts[i, 0], pts[i, 1]))

    def build(seq):
        # the vertices come from the chain at tol 0; the band only adds edge points
        chain = []
        for i in seq:
            while len(chain) >= 2 and orientation(
                pts[chain[-2]], pts[chain[-1]], pts[i], 0.0
            ) != CCW:
                chain.pop()
            chain.append(i)
        return chain

    verts = build(order)[:-1] + build(list(reversed(order)))[:-1]
    if len(verts) < 2 or (len(verts) == 2 and verts[0] == verts[1]):
        verts = [order[0], order[-1]]
    k = len(verts)
    done, tour = set(), []
    for e in range(k):
        a_idx, b_idx = verts[e], verts[(e + 1) % k]
        a, b = pts[a_idx], pts[b_idx]
        if a_idx == b_idx:
            continue
        abx, aby = b[0] - a[0], b[1] - a[1]
        ab2 = abx * abx + aby * aby
        on_edge = []
        for i in range(n):
            if orientation(a, b, pts[i], tol) != COLLINEAR:
                continue
            t = ((pts[i, 0] - a[0]) * abx + (pts[i, 1] - a[1]) * aby) / ab2
            if -tol <= t <= 1.0 + tol:
                on_edge.append((t, i))
        on_edge.sort()
        for t, i in on_edge:
            if i != b_idx and i not in done:
                done.add(i)
                tour.append(i)
    return tuple(verts), frozenset(tour), {idx: r for r, idx in enumerate(tour)}


def _as_reference(hull):
    """The hull's arrays in the reference's tuple, frozenset and dict form."""
    ranked = np.flatnonzero(hull.position >= 0)
    return (
        tuple(hull.vertices.tolist()),
        frozenset(hull.boundary.tolist()),
        dict(zip(ranked.tolist(), hull.position[ranked].tolist())),
    )


def _hull_cases(rng):
    for n in (3, 17, 120):
        yield rng.uniform(-10, 10, size=(n, 2))  # uniform
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        yield np.stack([2 * np.cos(angles), np.sin(angles)], axis=1)  # convex position
    for side in (3, 5, 8):
        # integer grids: collinear points along every hull edge
        cells = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
        yield cells
        yield cells[rng.choice(len(cells), size=len(cells) // 2 + 2, replace=False)]
    t = rng.permutation(np.arange(12, dtype=float))
    yield np.stack([t, 3.0 * t - 2.0], axis=1)  # all collinear
    yield np.stack([t, np.zeros_like(t)], axis=1)
    yield np.array([[0.0, 1.0], [-0.0, 2.0], [0.0, -3.0]])  # collinear through -0.0
    for scale in (1e-8, 1e8):
        yield scale * rng.uniform(-1, 1, size=(60, 2))
        yield scale * np.array([(i, j) for i in range(6) for j in range(6)], dtype=float)


def test_convex_hull_matches_scalar_reference(rng):
    for pts in _hull_cases(rng):
        for tol in (1e-9, 0.0, 1e-3):
            hull = convex_hull(pts, tol)
            assert _as_reference(hull) == _reference_hull(pts, tol)


def _diamond_band(tol):
    """A diamond whose four hull edges are octagon edges (the extremes of
    x +- y lie on them), with points on each edge and pushed inward or
    outward by fractions of the band tol |ab| |ap| and by a few ulps."""
    corners = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    pts = [corners, [[0.0, 0.0], [0.2, -0.3]]]
    for e in range(4):
        a, b = corners[e], corners[(e + 1) % 4]
        ab = b - a
        inward = np.array([-ab[1], ab[0]]) / np.hypot(ab[0], ab[1])
        for x in np.linspace(0.05, 0.95, 7):
            band = tol * x * np.hypot(ab[0], ab[1])
            for h in (0.0, 1e-15, -1e-15, 0.5 * band, 0.999 * band, 1.001 * band, 2.0 * band):
                for side in (1.0, -1.0):
                    pts.append([a + x * ab + side * h * inward])
    return np.unique(np.vstack(pts), axis=0)


def _filter_cases(rng):
    """The octagon filter's bank: uniform points, the diamond's band, and
    axis-aligned grids, where extremes coincide and some octagon edges have
    zero length."""
    yield rng.uniform(-10, 10, size=(2000, 2))
    for tol in (0.0, 1e-9, 1e-3):
        yield _diamond_band(tol)
    for cols, rows in ((1, 7), (2, 2), (3, 8), (6, 6)):
        cells = np.array([(i, j) for i in range(cols) for j in range(rows)], dtype=float)
        yield cells
        yield np.vstack([cells, [[0.5 * (cols - 1) + 0.25, 0.5 * (rows - 1) + 0.125]]])


def test_octagon_filtered_hull_matches_scalar_reference(rng):
    # the reference's own squares overflow at 2^600, so the scaled sets are
    # compared with the reference hull of the unscaled points
    cases = list(_filter_cases(rng))
    cases += [cases[0][:300], cases[1], cases[-1]]
    for k, pts in enumerate(cases):
        for tol in (0.0, 1e-9, 1e-3):
            want = _reference_hull(pts, tol)
            assert _as_reference(convex_hull(pts, tol)) == want
            if k >= len(cases) - 3:
                for factor in (2.0**600, 2.0**-600):
                    assert _as_reference(convex_hull(factor * pts, tol)) == want


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_octagon_filter_drops_the_interior_and_keeps_convex_position(tol):
    rng = np.random.default_rng(11)
    uniform = geometry._unit_scale(rng.uniform(-1, 1, size=(10_000, 2)))
    assert geometry._octagon_survivors(uniform, tol).size <= 500
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=10_000))
    ellipse = geometry._unit_scale(np.stack([2 * np.cos(angles), np.sin(angles)], axis=1))
    assert geometry._octagon_survivors(ellipse, tol).tolist() == list(range(10_000))


def test_hull_keeps_the_vertices_of_tol_0(rng):
    # the vertices come from the chain at tol 0 and the band only adds
    # boundary points, so every boundary holds the tol-0 boundary
    for pts in [*_hull_cases(rng), *_window_cases(rng)]:
        exact = convex_hull(pts, 0.0)
        for tol in (1e-9, 1e-3, 0.3):
            hull = convex_hull(pts, tol)
            assert hull.vertices.tolist() == exact.vertices.tolist()
            assert set(exact.boundary.tolist()) <= set(hull.boundary.tolist())


def _band_polygon(m, tol):
    """A regular m-gon plus, inside each edge, points whose |cross| sits on
    the collinearity band tol * |ab| * |ap| up to the rounding of their
    coordinates."""
    angles = 2 * np.pi * np.arange(m) / m
    verts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = [verts]
    for e in range(m):
        a, b = verts[e], verts[(e + 1) % m]
        ab = b - a
        length = np.hypot(ab[0], ab[1])
        inward = np.array([-ab[1], ab[0]]) / length
        for x in np.linspace(0.05, 0.95, 19):
            h = tol * x * length / np.sqrt(1 - tol * tol)
            pts.append(a + x * ab + h * inward)
    return np.vstack(pts)


def _window_cases(rng):
    """Sets that probe the edges' x-windows: a tiny edge beside a long one,
    points just past an edge's ends and on its collinearity band, vertical
    and collinear sets, and scales from 1e-6 to 1e6 with offsets."""
    for length in (1.0, 1e3):
        tiny = 1e-7 * length
        yield np.array([[0.0, 0.0], [length, 0.0], [length, tiny], [0.5 * length, length],
                        [0.3 * length, 0.0], [length, 0.5 * tiny], [0.7 * length, 1e-9 * tiny]])
    a, b = np.array([-1.0, 0.5]), np.array([2.0, 1.5])
    for tol in (1e-9, 1e-3, 0.3):
        # on the line ab with t just outside [0, 1], within tol and beyond it
        t = np.array([0.0, 1.0, 0.4, -0.5 * tol, -1.5 * tol, 1 + 0.5 * tol, 1 + 1.5 * tol])
        yield np.vstack([a + t[:, None] * (b - a), [[0.0, 4.0]]])
        yield _band_polygon(5, tol)
    column = np.stack([np.full(9, 2.5), rng.permutation(np.arange(9.0))], axis=1)
    yield column  # vertical
    yield np.vstack([column, [[3.0, 4.0]]])
    t = rng.permutation(np.arange(15.0))
    yield np.stack([t, 1.0 - 0.5 * t], axis=1)
    cells = np.array([(i, j) for i in range(5) for j in range(5)], dtype=float)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=20))
    ellipse = np.stack([2 * np.cos(angles), np.sin(angles)], axis=1)
    for scale in (1e-6, 1e6):
        for offset in (0.0, 1e3 * scale):
            for base in (rng.uniform(-1, 1, size=(25, 2)), ellipse, cells):
                yield scale * base + offset


def _near_band_entries(pts, verts, tol):
    """How many (edge, point) entries with t in [-tol, 1 + tol] have |cross|
    within 1e-14 of a nonzero collinearity band, relative."""
    a = pts[verts]
    ab = np.roll(a, -1, axis=0) - a
    d = pts[None, :, :] - a[:, None, :]
    t = (d[..., 0] * ab[:, None, 0] + d[..., 1] * ab[:, None, 1]) / (ab * ab).sum(axis=1)[:, None]
    cross = ab[:, None, 0] * d[..., 1] - d[..., 0] * ab[:, None, 1]
    band = tol * np.linalg.norm(ab, axis=1)[:, None] * np.linalg.norm(d, axis=2)
    near = (-tol <= t) & (t <= 1.0 + tol) & (band != 0.0)
    return int(np.count_nonzero(near & (np.abs(np.abs(cross) - band) <= 1e-14 * band)))


def test_traversal_windows_leave_the_hull_unchanged(rng, monkeypatch):
    # the x-windows give the scalar reference's hull; the grid has collinear
    # runs on every edge, and the band polygons put entries of many edges on
    # the collinearity band, which the hull decides without orientation()
    calls = []
    monkeypatch.setattr(
        geometry, "orientation", lambda *args: calls.append(args) or orientation(*args)
    )
    cases = [(pts, tol) for pts in _hull_cases(rng) for tol in (1e-9, 0.0, 1e-3)]
    cells = np.array([(i, j) for i in range(30) for j in range(30)], dtype=float)
    cases.append((cells, 1e-3))
    cases += [(_band_polygon(m, 1e-3), 1e-3) for m in (3, 8, 40)]
    cases += [(pts, tol) for pts in _window_cases(rng) for tol in (0.0, 1e-9, 1e-3, 0.3, 2.0)]
    on_band = 0
    for pts, tol in cases:
        hull = convex_hull(pts, tol)
        assert _as_reference(hull) == _reference_hull(pts, tol)
        on_band += _near_band_entries(pts, hull.vertices, tol)
    assert not calls
    assert on_band >= 10


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.3])
def test_orientation_decides_as_the_traversal_array_test_on_the_band(rng, tol):
    # c is put on the collinearity band of ab, as in _band_polygon, then
    # moved by up to 4 ulps per coordinate: orientation() and the array test
    # of _boundary_traversal agree on every triple, on both sides of the band
    m = 4000
    a, b = rng.uniform(-1, 1, size=(2, m, 2))
    ab = b - a
    x = rng.uniform(-tol, 1 + tol, size=(m, 1))
    normal = np.stack([-ab[:, 1], ab[:, 0]], axis=1) * rng.choice([-1.0, 1.0], size=(m, 1))
    c = a + x * ab + tol * np.abs(x) / np.sqrt(1 - tol * tol) * normal
    c += rng.integers(-4, 5, size=(m, 2)) * np.spacing(c)
    (ux, uy), (vx, vy) = ab.T, (c - a).T
    cross = ux * vy - vx * uy
    collinear = np.abs(cross) <= tol * (np.sqrt(ux * ux + uy * uy) * np.sqrt(vx * vx + vy * vy))
    assert 0 < np.count_nonzero(collinear) < m
    assert [orientation(*abc, tol) == COLLINEAR for abc in zip(a, b, c)] == collinear.tolist()


def _chunked_traversal(pts, verts, tol, chunk):
    """The traversal without x-windows: each edge tests every point, with
    max(1, chunk // n) edges in one broadcast; per-entry tests as in the
    library, so the windowed tour must match it exactly."""
    n = len(pts)
    px, py = pts[:, 0], pts[:, 1]
    a_idx = np.asarray(verts)
    b_idx = np.roll(a_idx, -1)
    ax, ay = px[a_idx], py[a_idx]
    abx, aby = px[b_idx] - ax, py[b_idx] - ay
    ab2 = abx * abx + aby * aby
    ab_len = np.sqrt(ab2)
    step = max(1, chunk // n)
    found = []
    for lo in range(0, len(verts), step):
        rows = slice(lo, lo + step)
        dx = px - ax[rows, None]
        dy = py - ay[rows, None]
        t = (dx * abx[rows, None] + dy * aby[rows, None]) / ab2[rows, None]
        near = np.flatnonzero((-tol <= t) & (t <= 1.0 + tol))
        t, dx, dy = t.ravel()[near], dx.ravel()[near], dy.ravel()[near]
        e, i = np.divmod(near, n)
        e += lo
        cross = abx[e] * dy - dx * aby[e]
        collinear = np.abs(cross) <= tol * (ab_len[e] * np.sqrt(dx * dx + dy * dy))
        found.append((e[collinear], t[collinear], i[collinear]))
    e, t, i = (np.concatenate(parts) for parts in zip(*found))
    by = np.lexsort((i, t, e))
    e, i = e[by], i[by]
    i = i[i != b_idx[e]]
    _, first = np.unique(i, return_index=True)
    return i[np.sort(first)].tolist()


@pytest.mark.parametrize("chunk", [1, 1 << 30])
def test_traversal_chunking_leaves_the_hull_unchanged(rng, chunk):
    # the x-windowed tour equals the unwindowed broadcast, one edge per
    # broadcast and every edge in one, on the hull cases and the window bank
    cases = [(pts, tol) for pts in _hull_cases(rng) for tol in (1e-9, 0.0, 1e-3)]
    cells = np.array([(i, j) for i in range(30) for j in range(30)], dtype=float)
    cases.append((cells, 1e-3))
    cases += [(_band_polygon(m, 1e-3), 1e-3) for m in (3, 8, 40)]
    cases += [(pts, tol) for pts in _window_cases(rng) for tol in (0.0, 1e-9, 1e-3, 0.3, 2.0)]
    for pts, tol in cases:
        hull = convex_hull(pts, tol)
        assert hull.traversal().tolist() == _chunked_traversal(pts, hull.vertices, tol, chunk)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_convex_hull_of_a_large_ellipse_is_every_point(tol):
    # h = n = 2 * 10**4 in shuffled index order; the CCW tour is the angular
    # order from the leftmost point (angle index 10000, nearest pi)
    n = 20_000
    angles = 2 * np.pi * (np.arange(n) + 0.3) / n
    by_angle = np.random.default_rng(3).permutation(n)
    pts = np.empty((n, 2))
    pts[by_angle] = np.stack([2 * np.cos(angles), np.sin(angles)], axis=1)
    hull = convex_hull(pts, tol)
    assert len(hull.vertices) == n and np.array_equal(hull.boundary, np.arange(n))
    start = int(np.argmin(pts[:, 0]))
    assert start == by_angle[10000]
    ccw = by_angle.tolist()
    assert hull.traversal().tolist() == ccw[10000:] + ccw[:10000]


@pytest.mark.parametrize("factor", [2.0**600, 1e160, 1e300, 2.0**-600])
def test_hull_and_checks_are_scale_free(factor):
    # squares and cross products of these coordinates overflow or underflow
    # unless the turn tests first scale by a power of two; the hull used to
    # keep 0 or 2 of its boundary points, and most checks failed
    for seed in range(3):
        P = np.random.default_rng(seed).uniform(-1, 1, size=(30, 2))
        assert _as_reference(convex_hull(factor * P, 0.0)) == _as_reference(convex_hull(P, 0.0))
        for spec in (lp(1.5), euclidean(), polygonal(HEX_BALL)):
            results = run_checks(spec, PointSet(factor * P), 0.0)
            assert results == run_checks(spec, PointSet(P), 0.0)
            assert all(r.passed for r in results)


@pytest.mark.parametrize("factor", [2.0**600, 1e300, 2.0**-600])
def test_turn_predicates_are_scale_free(factor):
    a, b, c, d = (factor * np.array(v) for v in ([0.0, 0.0], [3.0, 1.0], [1.0, 2.0], [2.0, -1.0]))
    assert orientation(a, b, c) == CCW and orientation(a, b, d) == CW
    assert orientation(a, b, 2.0 * b) == COLLINEAR
    assert segments_properly_intersect((a, b), (c, d))


def test_distinct_check_matches_dict_loop():
    cases = [
        [[0.0, 0.0], [1.0, 2.0], [-0.0, 0.0]],
        [[0.0, -0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]],
        [[3.0, 4.0], [1.0, 1.0], [5.0, 6.0], [1.0, 1.0], [3.0, 4.0]],
        [[1.0, 2.0], [2.0, 1.0], [1.0, 2.0 + 1e-15]],
    ]
    for rows in cases:
        pts = np.array(rows)
        seen, want = {}, None
        for i, (x, y) in enumerate(pts):
            key = (float(x), float(y))
            if key in seen:
                want = f"points {seen[key]} and {i} coincide"
                break
            seen[key] = i
        for build in (PointSet, convex_hull):
            if want is None:
                build(pts)
                continue
            with pytest.raises(DuplicatePoints) as info:
                build(pts)
            assert str(info.value) == want
