import functools
import operator
import re
import tracemalloc

import numpy as np
import pytest

import normplane.mxst as mxst_module
from conftest import HEX_BALL, all_norms, random_symmetric_polygon, tie_free_points
from normplane import (
    DegenerateInput,
    PointSet,
    SpanningTree,
    StructureViolation,
    TiesPresent,
    build_fng,
    convex_hull,
    detect_ties,
    lp,
    mxst_bruteforce,
    mxst_mpsy,
    order_components,
    pairwise_distances,
    perturb_distinct,
    polygonal,
    stabbing_line,
    two_clustering,
    two_clustering_bruteforce,
    validate_tree,
)
from normplane.fng import distances_between
from normplane.mxst import ConnectingEdgeReport, StepFourEntry, _max_pair, connect_components
from test_checks import THREE_SPINES
from test_clustering import _line_stabs_all


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
    assert tree.edges.shape == (0, 2) and tree.weights.shape == (0,) and tree.total_weight == 0.0
    assert report.entries == () and report.discarded is None
    S = PointSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
    tree, _ = mxst_mpsy(lp(2), S)
    assert tree.edges.tolist() == [[0, 1]] and tree.weights.tolist() == [5.0]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_mxst_mpsy_rejects_a_negative_or_non_finite_tol(n, tol):
    # one point used to give the empty tree for any tol
    S = PointSet(np.array([[0.0, 0.0], [3.0, 4.0]])[:n])
    with pytest.raises(DegenerateInput, match="^tol must be finite and non-negative, got "):
        mxst_mpsy(lp(2), S, tol)


def test_tree_fields_are_read_only_arrays(rng):
    for n in (1, 2, 3, 12, 30):
        S = tie_free_points(rng, n, lp(1.5))
        for tree in (mxst_mpsy(lp(1.5), S)[0], mxst_bruteforce(lp(1.5), S)):
            assert tree.edges.dtype == np.intp and tree.edges.shape == (max(n - 1, 0), 2)
            assert tree.weights.dtype == np.float64 and tree.weights.shape == (max(n - 1, 0),)
            for a in (tree.edges, tree.weights):
                with pytest.raises(ValueError):
                    a[...] = 0
            # the stored total these fields replace: a left-to-right sum
            # (the builtin sum, before Python 3.12 made it compensated)
            total = functools.reduce(operator.add, tree.weights.tolist(), 0.0)
            assert tree.total_weight.hex() == float(total).hex()


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
    good = SpanningTree(edges=[(0, 1), (1, 2)], weights=[1.0, 2.0])
    assert validate_tree(good, 3)
    dup = SpanningTree(edges=[(0, 1), (0, 1)], weights=[1.0, 1.0])
    assert not validate_tree(dup, 3)
    cycle = SpanningTree(edges=[(0, 1), (1, 2), (0, 2)], weights=[1.0, 1.0, 1.0])
    assert not validate_tree(cycle, 3)  # wrong count too
    assert validate_tree(SpanningTree(edges=np.empty((0, 2)), weights=[]), 1)
    assert not validate_tree(SpanningTree(edges=np.empty((0, 2)), weights=[]), 2)
    disconnected = SpanningTree(edges=[(0, 1), (2, 3), (0, 1)], weights=[1.0, 1.0, 1.0])
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
            for i, j in tree.edges:
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
            lhs = _max_pair(spec, S, members[ca], boundary_members[cb])[0]
            rhs = _max_pair(spec, S, members[cb], boundary_members[ca])[0]
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
    tree = SpanningTree(edges=pairs, weights=weights)
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
        tree, report = connect_components(spec, S, g, hull)
        assert len(calls) == {1: 0, 2: 8}.get(g.k, 8 * g.k)
        ref_tree, ref_report = _reference_connect(spec, S, g, hull)
        # the tree field by field (an array repr rounds), the report by repr
        assert np.array_equal(tree.edges, ref_tree.edges)
        assert np.array_equal(tree.weights, ref_tree.weights)
        assert repr(report) == repr(ref_report)
        seen_k.add(min(g.k, 3))
    assert seen_k >= {2, 3}


# one injected tie per decision site of the construction, each under lp(2)
# at tol 0 and 1e-9; every configuration is mirror-symmetric about the y-axis
DECISION_TIES = {
    # point 2 lies on the axis: its two furthest points mirror each other
    "row": ([[-1.0, 0.0], [1.0, 0.0], [0.0, 5.0]],
            "tied furthest neighbors of point 2: 0 and 1 within tol={tol}"),
    # interior points 2 and 3 mirror each other, and so do their furthest
    # boundary points in the pairing of clusters 0 and 5
    "pairing": ([[-4.0, -9.0], [-3.0, 9.0], [-2.0, -2.0], [2.0, -2.0], [3.0, 9.0], [4.0, -9.0]],
                "tied maxima of the cluster pairing (0, 5): (2, 5) and (0, 3) within tol={tol}"),
    # the unit square: unique diagonals, four equal sides between them
    "entry": ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
              "tied connecting candidates of components (1, 0): (0, 3) and (1, 2) within tol={tol}"),
    # three crossing spines, one on the axis and two mirror images: the
    # connecting edges beside the axis spine mirror each other and are shortest
    "minimum": ([[0.0, 10.0], [-5.65, 6.34], [8.76, -4.94], [0.0, -10.0], [-8.76, -4.94],
                 [5.65, 6.34]],
                "tied minimum among the connecting edges: (0, 4) and (0, 2) within tol={tol}"),
}


def _witness(message):
    """The index pairs a TiesPresent message names (a row's as (i, a), (i, b))."""
    numbers = [int(t) for t in re.findall(r"\d+", message.split(":", 1)[1].split("within")[0])]
    if message.startswith("tied furthest neighbors of point "):
        i = int(re.search(r"point (\d+)", message).group(1))
        return (i, numbers[0]), (i, numbers[1])
    return tuple(numbers[:2]), tuple(numbers[2:])


@pytest.mark.parametrize("site", DECISION_TIES)
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_a_decision_tie_raises_naming_its_witness(site, tol):
    points, message = DECISION_TIES[site]
    S = PointSet(np.array(points))
    message = message.format(tol=f"{tol:g}")
    with pytest.raises(TiesPresent, match=f"^{re.escape(message)}$"):
        mxst_mpsy(lp(2), S, tol)
    (p, q), (r, s) = _witness(message)
    table = pairwise_distances(lp(2), S)
    assert (p, q) != (r, s) and table[p, q] == table[r, s]
    if site != "row":
        # the rows are decided, so build_fng stands and only the tree raises
        build_fng(lp(2), S, tol)


def _mirrored_sets(rng, count):
    """Sets mirror-symmetric about the y-axis under the seven norm families,
    every fourth with a point on the axis, and uniform sets with two mirrored
    interior pairs at dyadic coordinates: ties the construction may or may
    not compare."""
    specs = all_norms()
    for trial in range(count):
        spec = specs[trial % len(specs)]
        if trial % 4 == 3:
            inner = np.array([[1.0, 0.5], [-1.0, 0.5], [0.5, -1.25], [-0.5, -1.25]])
            yield spec, np.vstack([rng.uniform(-10, 10, size=(12, 2)), inner])
            continue
        m = int(rng.integers(1, 8))
        half = np.stack([rng.uniform(0.1, 10, m), rng.uniform(-10, 10, m)], axis=1)
        pts = np.vstack([half, half * [-1.0, 1.0]])
        if trial % 4 == 0:
            pts = np.vstack([pts, [[0.0, rng.uniform(-10, 10)]]])
        yield spec, pts


def _stabs_the_feasible_family(line, tree, pts, tol) -> bool:
    """True iff ``line`` stabs, within tol, the tree edges longer than the
    shortest tree edge length whose longer-edge family has a stabbing line."""
    for d in np.sort(tree.weights):
        family = list(pts[tree.edges[tree.weights > d]])
        if not family or stabbing_line(family, tol) is not None:
            break
    return _line_stabs_all(line, family, tol)


def test_ties_outside_the_decisions_leave_the_oracle_tree(rng):
    # a maximum spanning tree is unique when every non-tree edge is strictly
    # shorter than each edge on its tree path, so ties the construction
    # never compares cannot matter: where no decision ties, the tree is the
    # oracle's although other distances tie, the 2-clustering built from it
    # is optimal with a valid witness line, and where one does, the message
    # names two distinct pairs at tied distances
    built = tied_elsewhere = clustered = 0
    sites = set()
    for spec, pts in _mirrored_sets(rng, 900):
        S = PointSet(pts)
        table = pairwise_distances(spec, S)
        for tol in (0.0, 1e-9):
            try:
                tree, _ = mxst_mpsy(spec, S, tol)
            except TiesPresent as exc:
                (p, q), (r, s) = _witness(str(exc))
                assert (p, q) != (r, s) and abs(table[p, q] - table[r, s]) <= tol
                sites.add(str(exc).split(":")[0].rstrip("0123456789(), "))
                continue
            assert tree.edge_set() == mxst_bruteforce(spec, S).edge_set()
            built += 1
            tied_elsewhere += bool(detect_ties(table, tol))
            if S.n <= 15:
                part = two_clustering(spec, S, tol)
                assert part.value == two_clustering_bruteforce(spec, S).value
                assert _stabs_the_feasible_family(part.witness_line, tree, S.points, tol)
                clustered += 1
    assert built >= 800 and tied_elsewhere >= 700 and clustered >= 400
    assert len(sites) >= 3


def test_a_large_uniform_tree_evaluates_about_n_b_distances(monkeypatch):
    # every distance goes through norm_many; the furthest neighbors cost the
    # candidates' triangle plus the (rest x candidates) rectangle, and the
    # tree adds its connecting blocks and the n - 1 weights of its edges
    import normplane.fng as fng_module

    evaluated = []
    blocks = []
    norm_many = fng_module.norm_many
    max_pair = mxst_module._max_pair

    def counting_norm_many(spec, arr):
        evaluated.append(np.shape(arr)[:-1])
        return norm_many(spec, arr)

    def counting_max_pair(spec, S, rows, cols):
        blocks.append(len(rows) * len(cols))
        return max_pair(spec, S, rows, cols)

    monkeypatch.setattr(fng_module, "norm_many", counting_norm_many)
    monkeypatch.setattr(mxst_module, "_max_pair", counting_max_pair)
    n = 20_000
    rng = np.random.default_rng(20_000)
    S = PointSet(rng.uniform(-1.0, 1.0, size=(n, 2)))
    spec = lp(1.5)
    tree, _ = mxst_mpsy(spec, S, 0.0)
    b = convex_hull(S.points, 0.0).boundary.size
    evals = sum(int(np.prod(shape)) for shape in evaluated)
    assert evals <= b * (b - 1) // 2 + (n - b) * b + sum(blocks) + (n - 1)
    assert evals < 100 * n

    g = build_fng(spec, S, 0.0)
    for i in rng.choice(n, size=200, replace=False):
        row = norm_many(spec, S.points[i] - S.points)
        row[i] = -np.inf
        assert g.fn[i] == np.argmax(row)
    assert len(tree.edges) == n - 1 and g.undirected_edges() <= tree.edge_set()
