import tracemalloc

import numpy as np
import pytest

from conftest import all_norms, random_symmetric_polygon, tie_free_points
from normplane import (
    PointSet,
    SpanningTree,
    TiesPresent,
    build_fng,
    convex_hull,
    lp,
    mxst_bruteforce,
    mxst_mpsy,
    order_components,
    pairwise_distances,
    perturb_distinct,
    validate_tree,
)


def test_mxst_three_points_drops_shortest_side():
    S = PointSet(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
    tree, _ = mxst_mpsy(lp(2), S)
    assert tree.edge_set() == {(0, 2), (1, 2)}
    assert tree.total_weight == pytest.approx(9.0)


def test_mxst_collinear_reference():
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    tree, _ = mxst_mpsy(lp(2), S)
    assert tree.edge_set() == {(0, 2), (1, 2)}
    assert tree.total_weight == pytest.approx(5.0)


def test_mxst_small_inputs():
    S = PointSet(np.array([[1.0, 2.0]]))
    tree, report = mxst_mpsy(lp(2), S)
    assert tree.edges == () and tree.total_weight == 0.0
    assert report.entries == () and report.discarded is None
    S = PointSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
    tree, _ = mxst_mpsy(lp(2), S)
    assert tree.edges == ((0, 1, 5.0),)


def test_mxst_rejects_ties():
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(TiesPresent):
        mxst_mpsy(lp(2), S)


def test_mxst_perturbed_square_matches_oracle():
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    S2, _ = perturb_distinct(lp(2), S, eps=0.05)
    tree, report = mxst_mpsy(lp(2), S2)
    oracle = mxst_bruteforce(lp(2), S2)
    assert tree.edge_set() == oracle.edge_set()
    # both (perturbed) diagonals survive as spines inside the tree
    g = build_fng(lp(2), S2)
    assert {(0, 2), (1, 3)} <= tree.edge_set()
    assert set(g.spines) == {(0, 2), (1, 3)}
    assert report.discarded is not None


def _pruefer_tree_weight(seq, table):
    """Total weight of the tree decoded from a Pruefer sequence."""
    import heapq

    n = len(seq) + 2
    degree = np.ones(n, dtype=int)
    for v in seq:
        degree[v] += 1
    heap = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(heap)
    total = 0.0
    for v in seq:
        leaf = heapq.heappop(heap)
        total += table[leaf, v]
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    u = heapq.heappop(heap)
    w = heapq.heappop(heap)
    return total + table[u, w]


def test_bruteforce_total_weight_beats_random_trees(rng):
    S = tie_free_points(rng, 30, lp(2.5))
    table = pairwise_distances(lp(2.5), S)
    oracle = mxst_bruteforce(lp(2.5), S)
    tree, _ = mxst_mpsy(lp(2.5), S)
    assert tree.edge_set() == oracle.edge_set()
    n = S.n
    for _ in range(10_000):
        seq = rng.integers(0, n, size=n - 2)  # random spanning tree
        assert _pruefer_tree_weight(seq, table) <= oracle.total_weight + 1e-9


def test_validate_tree():
    good = SpanningTree(edges=((0, 1, 1.0), (1, 2, 2.0)), total_weight=3.0)
    assert validate_tree(good, 3)
    dup = SpanningTree(edges=((0, 1, 1.0), (0, 1, 1.0)), total_weight=2.0)
    assert not validate_tree(dup, 3)
    cycle = SpanningTree(edges=((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)), total_weight=3.0)
    assert not validate_tree(cycle, 3)  # wrong count too
    assert validate_tree(SpanningTree(edges=(), total_weight=0.0), 1)
    assert not validate_tree(SpanningTree(edges=(), total_weight=0.0), 2)
    disconnected = SpanningTree(edges=((0, 1, 1.0), (2, 3, 1.0), (0, 1, 1.0)), total_weight=3.0)
    assert not validate_tree(disconnected, 4)


def test_oracle_equivalence_and_structure_random(rng):
    specs = all_norms() + [random_symmetric_polygon(rng)]
    for spec in specs:
        for _ in range(10):
            n = int(rng.integers(3, 41))
            S = tie_free_points(rng, n, spec)
            tree, report = mxst_mpsy(spec, S)
            oracle = mxst_bruteforce(spec, S)
            assert tree.edge_set() == oracle.edge_set()
            assert validate_tree(tree, n)

            g = build_fng(spec, S)
            hull = convex_hull(S.points)
            cycle = order_components(g, hull)
            k = g.k
            fng_edges = g.undirected_edges()

            # the furthest-neighbor edges all survive into the tree
            assert fng_edges <= tree.edge_set()
            # every tree edge touches the hull boundary
            for i, j, _ in tree.edges:
                assert i in hull.boundary or j in hull.boundary
            # counting identity: n-k furthest edges plus k-1 connectors
            extra = tree.edge_set() - fng_edges
            assert len(fng_edges) == n - k
            assert len(extra) == k - 1
            assert len(report.entries) == (k if k > 1 else 0)
            # connectors join cyclically adjacent components
            comp_order = [g.component_of[rep] for rep in cycle[:k]]
            pos = {comp: t for t, comp in enumerate(comp_order)}
            for i, j in extra:
                d = (pos[g.component_of[i]] - pos[g.component_of[j]]) % k
                assert d in (1, k - 1)


def test_mxst_memory_stays_below_one_table():
    # the streamed pass keeps no n x n table: its peak stays below the
    # 8 n^2 bytes of one float64 table
    n = 1000
    S = PointSet(np.random.default_rng(1000).uniform(0.0, 1.0, size=(n, 2)))
    tracemalloc.start()
    try:
        tree, _ = mxst_mpsy(lp(2), S, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.edges) == n - 1
    assert peak < 8 * n * n, f"peak {peak} bytes"
