import tracemalloc

import numpy as np
import pytest

import normplane.mxst as mxst_module
from conftest import HEX_BALL, all_norms, random_symmetric_polygon, tie_free_points
from normplane import (
    PointSet,
    SpanningTree,
    StructureViolation,
    TiesPresent,
    build_fng,
    convex_hull,
    lp,
    mxst_bruteforce,
    mxst_mpsy,
    order_components,
    pairwise_distances,
    perturb_distinct,
    polygonal,
    validate_tree,
)
from normplane.fng import distances_between
from normplane.mxst import ConnectingEdgeReport, StepFourEntry, _max_pair, connect_components
from test_checks import THREE_SPINES


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
    assert set(map(tuple, g.spines.tolist())) == {(0, 2), (1, 3)}
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


def _reference_connect(spec, S, g, hull):
    """connect_components with no shared blocks, the reference: two
    _max_pair calls per pairing, 8 k in all, 16 at k = 2."""
    n = S.n
    cycle = order_components(g, hull)
    k = g.k
    edge_set = g.undirected_edges()
    entries = []
    discarded = None
    if k > 1:
        members = g.cluster_members()
        boundary_members = {
            rep: [i for i in pts if i in hull.boundary] for rep, pts in members.items()
        }
        x = cycle[:k]
        xp = cycle[k:]

        def pairing_max(ca, cb):
            lhs = _max_pair(spec, S, members[ca], boundary_members[cb])
            rhs = _max_pair(spec, S, members[cb], boundary_members[ca])
            return lhs if lhs.weight >= rhs.weight else rhs

        for i in range(k):
            prev = (i - 1) % k
            cands = (
                pairing_max(x[i], xp[prev]),
                pairing_max(x[prev], xp[i]),
                pairing_max(x[i], x[prev]),
                pairing_max(xp[i], xp[prev]),
            )
            selected = max(cands, key=lambda c: c.weight)
            entries.append(
                StepFourEntry(
                    components=(int(g.component_of[x[prev]]), int(g.component_of[x[i]])),
                    candidates=cands,
                    selected=selected,
                )
            )
        discarded = int(np.argmin([e.selected.weight for e in entries]))
        for idx, entry in enumerate(entries):
            if idx != discarded:
                edge_set.add((entry.selected.i, entry.selected.j))
    pairs = sorted(edge_set)
    weights = distances_between(spec, S, [i for i, _ in pairs], [j for _, j in pairs])
    edges = tuple((i, j, w) for (i, j), w in zip(pairs, weights.tolist()))
    tree = SpanningTree(edges=edges, total_weight=float(sum(w for _, _, w in edges)))
    if not validate_tree(tree, n):
        raise StructureViolation("connecting edges did not produce a spanning tree")
    return tree, ConnectingEdgeReport(entries=tuple(entries), discarded=discarded)


def _connect_instances(rng):
    """THREE_SPINES and seeded instances with k >= 2, under four gauges."""
    for spec in (lp(1.5), lp(2.0), polygonal(HEX_BALL), random_symmetric_polygon(rng)):
        yield spec, PointSet(THREE_SPINES)
        found = attempt = 0
        while found < 12:
            n = int(rng.integers(4, 41))
            attempt += 1
            if attempt % 2:
                angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
                S = PointSet(np.stack([2 * np.cos(angles), np.sin(angles)], axis=1))
            else:
                S = tie_free_points(rng, n, spec)
            if build_fng(spec, S, 0.0).k >= 2:
                found += 1
                yield spec, S


def test_connect_components_evaluates_each_block_once(rng, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _max_pair(*args)

    monkeypatch.setattr(mxst_module, "_max_pair", counting)
    seen_k = set()
    for spec, S in _connect_instances(rng):
        g = build_fng(spec, S, 0.0)
        hull = convex_hull(S.points, 0.0)
        calls.clear()
        got = connect_components(spec, S, g, hull)
        assert len(calls) == {1: 0, 2: 8}.get(g.k, 8 * g.k)
        assert repr(got) == repr(_reference_connect(spec, S, g, hull))
        seen_k.add(min(g.k, 3))
    assert seen_k >= {2, 3}
