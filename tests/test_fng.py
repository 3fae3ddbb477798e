import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import HEX_BALL, all_norms, grid_points, random_symmetric_polygon, tie_free_points
from test_geometry import _band_polygon
from normplane import (
    DegenerateInput,
    DuplicatePoints,
    FNGraph,
    HullIndex,
    PointSet,
    StructureViolation,
    TiesPresent,
    build_fng,
    convex_hull,
    detect_ties,
    l1,
    lp,
    min_distance_gap,
    mxst_bruteforce,
    mxst_mpsy,
    order_components,
    pairwise_distances,
    perturb_distinct,
    polygonal,
    run_checks,
    segments_properly_intersect,
)
from normplane.fng import _BLOCK, _count_ties, _decompose, _differences, _furthest, _row_blocks, _sorted_ties
from normplane.norms import norm_many

# a square with corners nudged so the two diagonals stay longest but no two
# distances agree
JITTERED_SQUARE = np.array([[0.0, 0.0], [1.01, 0.02], [0.98, 1.03], [-0.01, 0.97]])


def test_pairwise_distances_basic():
    S = PointSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
    d = pairwise_distances(lp(2), S)
    assert d[0, 1] == pytest.approx(5.0)
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    d = pairwise_distances(l1(), S)
    assert sorted([d[0, 1], d[1, 2], d[0, 2]]) == pytest.approx([1.0, 2.0, 3.0])


def test_pairwise_distances_symmetric(rng):
    S = PointSet(rng.uniform(-5, 5, size=(12, 2)))
    d = pairwise_distances(lp(1.5), S)
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_pointset_rejects_duplicates_and_nonfinite():
    with pytest.raises(DuplicatePoints):
        PointSet(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(Exception):
        PointSet(np.array([[0.0, 0.0], [np.nan, 1.0]]))


def test_detect_ties_unit_square():
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    ties = detect_ties(pairwise_distances(lp(2), S))
    sides = [(0, 1), (0, 3), (1, 2), (2, 3)]
    diagonals = [(0, 2), (1, 3)]
    expected = set()
    for a in range(len(sides)):
        for b in range(a + 1, len(sides)):
            expected.add((min(sides[a], sides[b]), max(sides[a], sides[b])))
    expected.add((diagonals[0], diagonals[1]))
    assert set(ties) == expected


def test_detect_ties_equilateral_triangle():
    S = PointSet(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, np.sqrt(3.0)]]))
    ties = detect_ties(pairwise_distances(lp(2), S))
    assert len(ties) == 3  # all three pairs mutually tied


def test_detect_ties_empty_after_perturbation():
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    S2, _ = perturb_distinct(lp(2), S, eps=0.05)
    assert detect_ties(pairwise_distances(lp(2), S2)) == []


def test_build_fng_three_points():
    # ||a-b|| < ||a-c|| < ||b-c||: spine {b,c}; a joins b's cluster via the
    # even path a -> c -> b
    a, b, c = [0.0, 0.0], [1.0, 0.0], [-1.5, 0.0]
    S = PointSet(np.array([a, b, c]))
    g = build_fng(lp(2), S)
    assert g.spines.tolist() == [[1, 2]]
    assert g.cluster_of[0] == 1
    assert g.cluster_of[1] == 1 and g.cluster_of[2] == 2


def test_build_fng_jittered_square():
    S = PointSet(JITTERED_SQUARE)
    table = pairwise_distances(lp(2), S)
    # the diagonals dominate: furthest of each corner is the opposite one
    for i in range(4):
        assert int(np.argmax(table[i] - np.eye(4)[i])) == (i + 2) % 4
    g = build_fng(lp(2), S)
    assert g.k == 2
    assert set(map(tuple, g.spines.tolist())) == {(0, 2), (1, 3)}


def test_build_fng_rejects_ties():
    # point 2 of an isosceles triangle has two furthest points at one distance
    S = PointSet(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 5.0]]))
    message = "tied furthest neighbors of point 2: 0 and 1 within tol=1e-09"
    with pytest.raises(TiesPresent, match=f"^{re.escape(message)}$"):
        build_fng(lp(2), S)
    # each corner of the unit square has one furthest point, the opposite
    # one, so the square's tied sides leave every row's decision standing
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert build_fng(lp(2), S).fn.tolist() == [2, 3, 0, 1]


def test_build_fng_collinear_single_component():
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.3, 0.0], [4.1, 0.0], [7.6, 0.0]]))
    g = build_fng(lp(2), S)
    assert g.k == 1
    assert g.spines.tolist() == [[0, 4]]
    assert len(set(g.component_of)) == 1


def test_order_components_simple_cases():
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [-1.5, 0.0]]))
    g = build_fng(lp(2), S)
    hull = convex_hull(S.points)
    cycle = order_components(g, hull)
    assert len(cycle) == 2 and set(cycle) == {1, 2}

    S = PointSet(JITTERED_SQUARE)
    g = build_fng(lp(2), S)
    hull = convex_hull(S.points)
    cycle = order_components(g, hull)
    # diagonal endpoints alternate: each spine's endpoints sit k apart
    assert len(cycle) == 4
    assert {frozenset((cycle[0], cycle[2])), frozenset((cycle[1], cycle[3]))} == {
        frozenset((0, 2)),
        frozenset((1, 3)),
    }


def test_order_components_rejects_scrambled_structure():
    S = PointSet(JITTERED_SQUARE)
    g = build_fng(lp(2), S)
    hull = convex_hull(S.points)
    # not real spines (the square's sides): pattern must fail; the
    # alternation is read from fn, so the map is doctored with them
    g2 = dataclasses.replace(g, fn=[1, 0, 3, 2], spines=[[0, 1], [2, 3]])
    with pytest.raises(StructureViolation):
        order_components(g2, hull)
    # a hull doctored to leave point 3, an endpoint of the spine (1, 3), off
    # its boundary
    off = HullIndex(vertices=[0, 1, 2], boundary=[0, 1, 2], position=[0, 1, 2, -1])
    message = "spine endpoints [3] not on hull boundary"
    with pytest.raises(StructureViolation, match=f"^{re.escape(message)}$"):
        order_components(g, off)


def test_build_fng_rejects_a_single_point():
    with pytest.raises(DegenerateInput, match="^need at least two points$"):
        build_fng(lp(2), PointSet(np.array([[0.5, -2.0]])))


def test_distances_that_underflow_to_zero_are_duplicate_points():
    # under the hexagon at 2^1020 the functionals are about 2^-1020, so every
    # projection of differences 2^-60 underflows to 0: the furthest-neighbor
    # pass and the oracle's triangle both read a zero distance
    spec = polygonal(np.ldexp(HEX_BALL, 1020))
    S = PointSet(np.ldexp([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], -60))
    for construct in (build_fng, mxst_mpsy, mxst_bruteforce):
        with pytest.raises(DuplicatePoints, match="^zero off-diagonal distance: duplicate points$"):
            construct(spec, S)


def test_fng_and_hull_fields_are_read_only_intp_arrays(rng):
    S = tie_free_points(rng, 30, lp(2))
    g = build_fng(lp(2), S)
    hull = convex_hull(S.points)
    n, k, b = S.n, g.k, len(hull.boundary)
    assert 0 < b < n
    shapes = {
        "fn": (g.fn, (n,)),
        "component_of": (g.component_of, (n,)),
        "cluster_of": (g.cluster_of, (n,)),
        "spines": (g.spines, (k, 2)),
        "vertices": (hull.vertices, (len(hull.vertices),)),
        "boundary": (hull.boundary, (b,)),
        "position": (hull.position, (n,)),
    }
    for name, (a, shape) in shapes.items():
        assert a.dtype == np.intp and a.shape == shape, name
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    assert np.all(np.diff(hull.boundary) > 0)
    assert sorted(hull.position[hull.boundary].tolist()) == list(range(b))
    assert np.count_nonzero(hull.position < 0) == n - b
    assert np.array_equal(hull.traversal()[hull.position[hull.boundary]], hull.boundary)
    # order_components reads the graph whole and leaves it unchanged
    before = [a.copy() for a, _ in shapes.values()]
    order_components(g, hull)
    assert all(np.array_equal(a, old) for (a, _), old in zip(shapes.values(), before))


def _increasing_chain_holds(g, table):
    n = len(g.fn)
    for start in range(n):
        cur, nxt = start, g.fn[start]
        for _ in range(n + 1):
            after = g.fn[nxt]
            if after == cur:
                break
            if not table[cur, nxt] < table[nxt, after]:
                return False
            cur, nxt = nxt, after
        else:
            return False
    return True


def test_fng_structural_invariants_random(rng):
    for spec in all_norms():
        for _ in range(12):
            n = int(rng.integers(3, 35))
            S = tie_free_points(rng, n, spec)
            table = pairwise_distances(spec, S)
            g = build_fng(spec, S)
            hull = convex_hull(S.points)

            # out-degree one chains strictly increase until the 2-cycle
            assert _increasing_chain_holds(g, table)

            # non-leaves (anything with in-degree) lie on the hull boundary
            assert set(g.fn.tolist()) <= set(hull.boundary.tolist())

            # spine endpoints on the boundary; spines pairwise cross
            for x, xp in g.spines:
                assert x in hull.boundary and xp in hull.boundary
            for a in range(len(g.spines)):
                for b in range(a + 1, len(g.spines)):
                    s1 = (S.points[g.spines[a][0]], S.points[g.spines[a][1]])
                    s2 = (S.points[g.spines[b][0]], S.points[g.spines[b][1]])
                    assert segments_properly_intersect(s1, s2)

            # cyclic pattern and cluster contiguity along the hull
            cycle = order_components(g, hull)
            tour = hull.traversal()
            labels = [g.cluster_of[i] for i in tour]
            distinct = len(set(labels))
            runs = sum(1 for t in range(len(labels)) if labels[t] != labels[t - 1])
            assert distinct == 1 or runs == distinct

            # every point belongs to the cluster of a spine endpoint
            assert set(g.cluster_of) == set(cycle)


def test_noncontiguous_maximum_with_three_components(rng):
    # hand-built three-component instance: three long, mutually crossing
    # spines with slight jitter to keep distances distinct
    found = 0
    for trial in range(300):
        base = rng.uniform(-1, 1, size=(6, 2)) * 0.15
        angles = np.array([0.0, np.pi / 3, 2 * np.pi / 3])
        pts = []
        for t, ang in enumerate(angles):
            d = np.array([np.cos(ang), np.sin(ang)])
            pts.append(10.0 * d + base[2 * t])
            pts.append(-10.0 * d + base[2 * t + 1])
        S = PointSet(np.array(pts))
        spec = lp(2)
        if detect_ties(pairwise_distances(spec, S)):
            continue
        g = build_fng(spec, S)
        if g.k < 3:
            continue
        found += 1
        hull = convex_hull(S.points)
        cycle = order_components(g, hull)
        table = pairwise_distances(spec, S)
        k = g.k
        x, xp = cycle[:k], cycle[k:]
        members = g.cluster_members()
        comp_members = {ci: members[x[ci]].tolist() + members[xp[ci]].tolist() for ci in range(k)}
        # the realizing pair joins non-contiguous clusters: distance exactly
        # two in the triple's six-cluster cycle (partners sit three apart)
        comp_of_rep = {rep: g.component_of[rep] for rep in cycle}
        for a in range(k):
            b, c = (a + 1) % k, (a + 2) % k
            triple = {g.component_of[x[a]], g.component_of[x[b]], g.component_of[x[c]]}
            six = [rep for rep in cycle if comp_of_rep[rep] in triple]
            six_pos = {rep: t for t, rep in enumerate(six)}
            rows = comp_members[a]
            cols = comp_members[b] + comp_members[c]
            sub = table[np.ix_(rows, cols)]
            flat = int(np.argmax(sub))
            u, v = rows[flat // len(cols)], cols[flat % len(cols)]
            du = six_pos[g.cluster_of[u]]
            dv = six_pos[g.cluster_of[v]]
            assert min((du - dv) % 6, (dv - du) % 6) == 2
        if found >= 20:
            break
    assert found >= 5


def _reference_ties(table, tol=1e-9):
    """The per-value scan detect_ties replaces."""
    n = table.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    vals = table[iu, ju]
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    ties = []
    for a in range(len(sv)):
        b = a + 1
        while b < len(sv) and sv[b] - sv[a] <= tol:
            pa = (int(iu[order[a]]), int(ju[order[a]]))
            pb = (int(iu[order[b]]), int(ju[order[b]]))
            ties.append((min(pa, pb), max(pa, pb)))
            b += 1
    ties.sort()
    return ties


def test_detect_ties_matches_scalar_scan(rng):
    for trial in range(30):
        n = int(rng.integers(2, 30))
        spec = all_norms()[trial % 7]
        S = grid_points(rng, n) if trial % 2 else PointSet(rng.uniform(-3, 3, size=(n, 2)))
        table = pairwise_distances(spec, S)
        for tol in (0.0, 1e-9, 0.05, 0.5):
            assert detect_ties(table, tol) == _reference_ties(table, tol)


def fng_from_table(table: np.ndarray) -> FNGraph:
    """FNG decomposition from a (tie-free) distance table."""
    n = table.shape[0]
    if n < 2:
        raise DegenerateInput("need at least two points")
    masked = table.copy()
    np.fill_diagonal(masked, -math.inf)
    return _decompose(masked.argmax(axis=1))


def _triangle_pass(spec, pts):
    """The streamed triangle that took furthest neighbors over every point
    before the hull restriction, kept as the reference.

    Returns ``(fn, vals)``: ``vals`` equals ``table[np.triu_indices(n, 1)]``
    of :func:`pairwise_distances` bit for bit, each distance evaluated once
    as ``||p_i - p_j||`` with i < j, and ``fn`` equals that (mirrored)
    table's row argmax with the diagonal masked (first index on equal
    values).  Rows are taken in blocks of about ``_BLOCK`` distances, held
    in a (rows x later columns) trapezoid whose lower-left corner is -inf.
    """
    n = len(pts)
    vals = np.empty(n * (n - 1) // 2)
    best = np.full(n, -np.inf)  # max of d(i, j) over the rows i < j seen so far
    fn = np.zeros(n, dtype=np.intp)
    step = min(max(1, _BLOCK // n), n - 1)
    upper = np.triu(np.ones((step, n - 1), dtype=bool))  # column j > row i
    tri_i, tri_j = np.triu_indices(step, k=1)
    k = 0
    for r0 in range(0, n - 1, step):
        r1 = min(r0 + step, n - 1)
        b = r1 - r0
        block = np.full((b, n - 1 - r0), -np.inf)  # columns r0 + 1 .. n - 1
        iu, ju = (tri_i, tri_j) if b == step else np.triu_indices(b, k=1)
        block[iu, ju - 1] = norm_many(spec, _differences(pts, r0 + iu, r0 + ju))
        block[:, b - 1 :] = norm_many(
            spec, _differences(pts, np.arange(r0, r1)[:, None], np.arange(r1, n))
        )

        col_best = block.max(axis=0)
        raised = col_best > best[r0 + 1 :]
        best[r0 + 1 :][raised] = col_best[raised]
        fn[r0 + 1 :][raised] = block.argmax(axis=0)[raised] + r0

        row_best = block.max(axis=1)
        raised = row_best > best[r0:r1]
        fn[r0:r1][raised] = block.argmax(axis=1)[raised] + r0 + 1

        row_major = block[upper[:b, : block.shape[1]]]
        vals[k : k + row_major.size] = row_major
        k += row_major.size
    return fn, vals


def test_triangle_pass_bit_identical_to_table(rng):
    # n = 300 spans several row blocks of the streamed pass; a random gauge's
    # functionals are inexact in binary, so an evaluation whose rounding
    # depends on the batch would show here
    for spec in all_norms() + [random_symmetric_polygon(rng)]:
        for n in (2, 3, 17, 300):
            pts = rng.uniform(-10, 10, size=(n, 2))
            table = pairwise_distances(spec, PointSet(pts))
            fn, vals = _triangle_pass(spec, pts)
            assert np.array_equal(vals, table[np.triu_indices(n, k=1)]), spec.label()
            assert np.array_equal(fn, fng_from_table(table).fn)


def _row_decisions(table, cand):
    """Per row of a distance table, over the columns ``cand`` but its own:
    the first argmax, the first argmax of the others, and the gap between
    their values."""
    n = len(table)
    masked = np.full_like(table, -np.inf)
    masked[:, cand] = table[:, cand]
    np.fill_diagonal(masked, -np.inf)
    rows = np.arange(n)
    first = masked.argmax(axis=1)
    top = masked[rows, first]
    masked[rows, first] = -np.inf
    other = masked.argmax(axis=1)
    return first, other, top - masked[rows, other]


def _row_tie_message(first, other, gap, tol):
    """The TiesPresent message of the first row whose gap is within tol, or None."""
    tied = np.flatnonzero(gap <= tol)
    if not tied.size:
        return None
    i = tied[0]
    return f"tied furthest neighbors of point {i}: {first[i]} and {other[i]} within tol={tol:g}"


def test_build_fng_tie_count_matches_detect_ties(rng):
    # build_fng certifies each row's best two candidates on the hull
    # boundary and names the first tied row; the global count of tied
    # pairs is run_checks' distances-distinct detail
    for trial in range(24):
        spec = all_norms()[trial % 7]
        S = grid_points(rng, int(rng.integers(3, 30)))
        for tol in (0.0, 1e-9, 0.3):
            table = pairwise_distances(spec, S)
            ties = detect_ties(table, tol)
            detail = run_checks(spec, S, tol)[0].detail
            assert detail == (f"{len(ties)} tied distance pairs at tol={tol:g}" if ties else "")
            first, other, gap = _row_decisions(table, convex_hull(S.points, tol).boundary)
            message = _row_tie_message(first, other, gap, tol)
            if message is None:
                assert np.array_equal(build_fng(spec, S, tol).fn, first)
                continue
            with pytest.raises(TiesPresent, match=f"^{re.escape(message)}$"):
                build_fng(spec, S, tol)


def _furthest_cases(rng):
    """Uniform sets, ellipses (convex position), perturbed grids and band
    polygons (points inside each edge on the collinearity band of tol 1e-3)."""
    for n in (2, 3, 40, 300):
        yield rng.uniform(-10, 10, size=(n, 2))
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        yield np.stack([2 * np.cos(angles), np.sin(angles)], axis=1)
    for n in (9, 30, 80):
        yield grid_points(rng, n).points + rng.uniform(-1e-3, 1e-3, size=(n, 2))
    for m in (3, 5, 12):
        yield _band_polygon(m, 1e-3)


def test_furthest_over_the_boundary_equals_the_table_argmax(rng):
    # the lemma the restriction rests on: each row's maximum over the hull
    # boundary is its maximum over all points; the kernel returns the
    # table's first argmax over its candidates, or names the first row
    # whose best two candidates lie within tol
    specs = all_norms() + [random_symmetric_polygon(rng)]
    decided = kept = 0
    for pts in _furthest_cases(rng):
        n = len(pts)
        rows = np.arange(n)
        for spec in specs:
            table = pairwise_distances(spec, PointSet(pts))
            every = _row_decisions(table, rows)
            for tol in (0.0, 1e-9, 1e-3):
                boundary = convex_hull(pts, tol).boundary
                on_hull = _row_decisions(table, boundary)
                assert np.array_equal(table[rows, on_hull[0]], table[rows, every[0]])
                if np.all(every[2] > 0.0):
                    assert np.array_equal(on_hull[0], fng_from_table(table).fn)
                for cand, (first, other, gap) in ((boundary, on_hull), (np.arange(n), every)):
                    message = _row_tie_message(first, other, gap, tol)
                    if message is None:
                        fn, fn_dist, held = _furthest(spec, pts, cand, tol)
                        assert np.array_equal(fn, first)
                        assert np.array_equal(fn_dist, table[rows, first])
                        # a pass of one block is kept whole, with its values
                        if n * len(cand) <= _BLOCK:
                            assert np.array_equal(held, table[:, cand])
                            kept += 1
                        else:
                            assert held is None
                        decided += 1
                        continue
                    with pytest.raises(TiesPresent, match=f"^{re.escape(message)}$"):
                        _furthest(spec, pts, cand, tol)
    assert decided >= 400 and 100 <= kept < decided


def test_row_blocks_hands_every_block_to_one_float_range_scope(monkeypatch, rng):
    # one np.errstate around the whole pass, not one per block: each
    # reduction runs inside it, sees the pass's distances, and the caller's
    # setting is back afterwards
    pts = rng.uniform(-1.0, 1.0, size=(300, 2))
    rows, cols = rng.permutation(300), np.arange(0, 300, 3)
    step = _BLOCK // cols.size
    spec = lp(1.5)
    entered, inside, errstate = [], [], np.errstate

    def counted(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counted)

    def reduce(r0, block):
        inside.append(np.geterr())
        expected = norm_many(spec, _differences(pts, rows[r0 : r0 + step, None], cols))
        assert block.flags.c_contiguous and np.array_equal(block, expected)
        return r0

    with np.errstate(all="raise"):
        caller = np.geterr()
        entered.clear()
        out = _row_blocks(spec, pts, rows, cols, reduce)
        assert np.geterr() == caller
    assert out == list(range(0, 300, step)) and len(inside) == len(out) >= 3
    assert entered == [{"over": "ignore", "invalid": "ignore"}]
    for err in inside:
        assert err["over"] == err["invalid"] == "ignore"
        assert err["divide"] == err["under"] == "raise"


def test_row_blocks_restores_the_caller_float_setting_when_a_reduction_raises():
    pts = np.random.default_rng(5).uniform(size=(200, 2))

    def reduce(r0, block):
        if r0:
            raise KeyError(r0)

    for setting in ("warn", "raise", "ignore"):
        with np.errstate(all=setting):
            caller = np.geterr()
            with pytest.raises(KeyError):
                _row_blocks(lp(2), pts, np.arange(200), np.arange(200), reduce)
            assert np.geterr() == caller


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_build_fng_rejects_a_negative_or_non_finite_tol(tol):
    with pytest.raises(DegenerateInput, match="^tol must be finite and non-negative, got "):
        build_fng(lp(2), PointSet(JITTERED_SQUARE), tol)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_detect_ties_rejects_a_negative_or_non_finite_tol(tol):
    table = pairwise_distances(lp(2), PointSet(JITTERED_SQUARE))
    with pytest.raises(DegenerateInput, match="^tol must be finite and non-negative, got "):
        detect_ties(table, tol)


@pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2, 2)])
def test_detect_ties_rejects_a_table_that_is_not_square(shape):
    # a (3, 4) table used to list 3 ties read from the wrong triangle
    message = f"expected a square distance table, got shape {shape}"
    with pytest.raises(DegenerateInput, match=f"^{re.escape(message)}$"):
        detect_ties(np.zeros(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("read", [detect_ties, min_distance_gap])
def test_a_table_holding_a_non_finite_distance_is_rejected(read, value):
    # numpy used to warn in the tie search's subtraction, a nan was skipped
    # (the gap of the first table read 2.0) and two infs read as untied
    for table in ([[0.0, 1.0, value], [1.0, 0.0, 3.0], [value, 3.0, 0.0]],
                  [[0.0, value, value], [value, 0.0, 3.0], [value, 3.0, 0.0]]):
        with pytest.raises(DegenerateInput,
                           match="^the distance table holds a value that is not finite$"):
            read(np.array(table))


@pytest.mark.parametrize("read", [detect_ties, min_distance_gap])
def test_a_table_that_is_no_distance_table_is_rejected(read):
    # both read the strict upper triangle alone: the first table listed no
    # tie, the second one tie, and the third passed with a diagonal of 5
    for table, message in (
        ([[0.0, 1.0, 2.0], [np.nan, 0.0, 3.0], [2.0, 3.0, 0.0]], "the distance table is not symmetric"),
        ([[0.0, 1.0, 1.0], [5.0, 0.0, 3.0], [2.0, 3.0, 0.0]], "the distance table is not symmetric"),
        ([[5.0, 1.0, 2.0], [1.0, 5.0, 3.0], [2.0, 3.0, 5.0]],
         "the distance table has a diagonal value that is not 0"),
        ([[0.0, 1.0], [1.0, np.nan]], "the distance table has a diagonal value that is not 0"),
    ):
        with pytest.raises(DegenerateInput, match=f"^{re.escape(message)}$"):
            read(np.array(table))
    # a mirrored table with a zero diagonal still reads, -0.0 included
    assert detect_ties(np.array([[-0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])) == [((0, 1), (0, 2))]
    assert min_distance_gap(np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 2.0], [1.5, 2.0, 0.0]])) == 0.5


def test_the_tie_count_equals_the_listed_ties(rng):
    # sorted values with runs of equal and of nearly equal values, at tols
    # below, at and above their spacing
    cases = 0
    for trial in range(600):
        n = int(rng.integers(1, 60))
        kind = trial % 4
        if kind == 0:
            vals = rng.uniform(size=n)
        elif kind == 1:
            vals = rng.integers(0, 6, size=n).astype(float)
        elif kind == 2:
            vals = np.round(rng.uniform(size=n), 2) + rng.uniform(-1e-9, 1e-9, size=n)
        else:
            vals = 1.0 + np.cumsum(rng.choice([0.0, 1e-10, 5e-10, 1e-3], size=n))
        sv = np.sort(vals)
        for tol in (0.0, 1e-12, 1e-9, 1e-3, 0.05):
            listed = _sorted_ties(sv, tol)[0].size
            assert _count_ties(sv, tol) == listed
            cases += listed > 0
    assert cases >= 1000


def _decompose_by_walk(fn) -> FNGraph:
    """The per-point chain walk that _decompose replaces: the reference."""
    fn = [int(f) for f in fn]
    n = len(fn)
    spines = [(i, j) for i, j in enumerate(fn) if fn[j] == i and i < j]

    cluster_of = [-1] * n
    for start in range(n):
        if cluster_of[start] != -1:
            continue
        chain = []
        cur = start
        while cluster_of[cur] == -1:
            if fn[fn[cur]] == cur:  # landed on a spine endpoint
                cluster_of[cur] = cur
                break
            chain.append(cur)
            cur = fn[cur]
        # walking back one edge flips the cluster to the partner endpoint,
        # which is the endpoint's own furthest neighbor
        for u in reversed(chain):
            cluster_of[u] = fn[cluster_of[fn[u]]]

    comp_of_rep = {}
    for si, (x, xp) in enumerate(spines):
        comp_of_rep[x] = si
        comp_of_rep[xp] = si
    component_of = tuple(comp_of_rep[rep] for rep in cluster_of)

    return FNGraph(
        fn=tuple(fn),
        spines=tuple(spines),
        component_of=component_of,
        cluster_of=tuple(cluster_of),
    )


def _as_lists(g):
    """The graph's fields as lists, in declaration order."""
    return [getattr(g, f.name).tolist() for f in dataclasses.fields(g)]


def _assert_decomposes_as_the_walk(fn):
    g = _decompose(fn)
    assert _as_lists(g) == _as_lists(_decompose_by_walk(fn))
    flat = (g.fn, g.component_of, g.cluster_of, g.spines)
    assert all(a.dtype == np.intp for a in flat)
    return g


def _map_bank(rng):
    """Furthest-neighbor maps of uniform points, ellipses, anisotropic
    Gaussians and jittered regular 2k-gons (k = 1..4) with interior points,
    under five norms, for n from 2 to 400."""
    for spec in all_norms()[:5]:
        for n in (2, 3, 4, 9, 40, 400):
            angles = rng.uniform(0, 2 * np.pi, size=n)
            yield spec, rng.uniform(-10, 10, size=(n, 2))
            yield spec, np.stack([3 * np.cos(angles), np.sin(angles)], axis=1)
            yield spec, rng.normal(size=(n, 2)) @ np.array([[4.0, 1.0], [0.0, 0.3]])
        for k in (1, 2, 3, 4):
            corners = np.pi * np.arange(2 * k) / k
            polygon = 10 * np.stack([np.cos(corners), np.sin(corners)], axis=1)
            yield spec, np.vstack([polygon + rng.uniform(-0.05, 0.05, size=(2 * k, 2)),
                                   rng.uniform(-1, 1, size=(5, 2))])


def test_decompose_matches_the_walk_on_furthest_neighbor_maps(rng):
    ks = set()
    for spec, pts in _map_bank(rng):
        fn, _ = _triangle_pass(spec, pts)
        ks.add(_assert_decomposes_as_the_walk(fn).k)
        _assert_decomposes_as_the_walk(tuple(fn.tolist()))
    assert ks >= {1, 2, 3, 4}


def _relabel(fn, perm):
    """The map fn with point i renamed perm[i]."""
    out = np.empty_like(fn)
    out[perm] = perm[fn]
    return out


def test_decompose_matches_the_walk_on_synthetic_maps(rng):
    depth = 200_000
    chain = np.arange(1, depth + 3)  # 0 -> 1 -> ... -> depth, into the spine
    chain[-1] = depth
    g = _assert_decomposes_as_the_walk(chain)
    assert g.spines.tolist() == [[depth, depth + 1]]
    assert g.cluster_of[:2].tolist() == [depth, depth + 1]
    for m, n in ((1, 2), (5, 40), (60, 1000), (500, 1000)):
        # m spines (2i, 2i + 1); every later point joins an earlier one
        fn = np.arange(n) ^ 1
        fn[2 * m:] = [int(rng.integers(0, j)) for j in range(2 * m, n)]
        _assert_decomposes_as_the_walk(fn)
        _assert_decomposes_as_the_walk(_relabel(fn, rng.permutation(n)))
    for n in (3, 50, 3000):
        star = np.zeros(n, dtype=np.intp)  # every point at spine endpoint 0
        star[0] = 1
        _assert_decomposes_as_the_walk(star)
        star[3:] = 2  # and behind a middle point 2, one edge further out
        _assert_decomposes_as_the_walk(_relabel(star, rng.permutation(n)))


@pytest.mark.parametrize("fn", [
    # the doctored maps of tests/test_checks.py
    (1, 2, 3, 2, 5, 4, 3, 3),
    (1, 0, 3, 2),
    (5, 0, 3, 2, 5, 4, 3, 3),
    (1, 0, 3, 2, 5, 4, 3, 2),
])
def test_decompose_matches_the_walk_on_doctored_maps(fn):
    _assert_decomposes_as_the_walk(fn)


@pytest.mark.parametrize("fn", [(1, 2, 0, 0), (1, 2, 3, 0), (0, 0)])
def test_decompose_rejects_a_map_without_a_reachable_2_cycle(fn):
    # a 3-cycle never settles; a 4-cycle and a fixpoint settle on points of
    # no spine
    with pytest.raises(StructureViolation, match="^a point reaches no 2-cycle"):
        _decompose(fn)
