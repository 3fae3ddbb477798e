import numpy as np
import pytest

from conftest import all_norms, grid_points, random_symmetric_polygon, tie_free_points
from normplane import (
    DuplicatePoints,
    PointSet,
    StructureViolation,
    TiesPresent,
    build_fng,
    convex_hull,
    detect_ties,
    l1,
    lp,
    order_components,
    pairwise_distances,
    perturb_distinct,
    segments_properly_intersect,
)
from normplane.fng import _triangle_pass, fng_from_table

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
    assert g.spines == ((1, 2),)
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
    assert set(g.spines) == {(0, 2), (1, 3)}


def test_build_fng_rejects_ties():
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(TiesPresent):
        build_fng(lp(2), S)


def test_build_fng_collinear_single_component():
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.3, 0.0], [4.1, 0.0], [7.6, 0.0]]))
    g = build_fng(lp(2), S)
    assert g.k == 1
    assert g.spines == ((0, 4),)
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
    g2 = build_fng(lp(2), S)
    g2.spines = ((0, 1), (2, 3))  # not real spines: pattern must fail
    with pytest.raises(StructureViolation):
        order_components(g2, hull)


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
            assert set(g.fn) <= hull.boundary

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
        comp_members = {ci: members[x[ci]] + members[xp[ci]] for ci in range(k)}
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
            assert tuple(fn.tolist()) == fng_from_table(table).fn


def test_build_fng_tie_count_matches_detect_ties(rng):
    for trial in range(24):
        spec = all_norms()[trial % 7]
        S = grid_points(rng, int(rng.integers(3, 30)))
        for tol in (0.0, 1e-9, 0.3):
            ties = detect_ties(pairwise_distances(spec, S), tol)
            if not ties:
                build_fng(spec, S, tol)
                continue
            with pytest.raises(TiesPresent) as info:
                build_fng(spec, S, tol)
            assert str(info.value) == f"{len(ties)} tied distance pairs at tol={tol:g}"
