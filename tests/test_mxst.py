import functools
import operator
import re
import tracemalloc

import numpy as np
import pytest

import normplane.fng as fng_module
import normplane.mxst as mxst_module
from conftest import HEX_BALL, all_norms, grid_points, random_symmetric_polygon, tie_free_points
from normplane import (
    DegenerateInput,
    PointSet,
    SpanningTree,
    StructureViolation,
    TiesPresent,
    build_fng,
    convex_hull,
    detect_ties,
    euclidean,
    l1,
    linf,
    lp,
    mxst_bruteforce,
    mxst_mpsy,
    norm_many,
    order_components,
    pairwise_distances,
    perturb_distinct,
    polygonal,
    stabbing_line,
    two_clustering,
    two_clustering_bruteforce,
    validate_tree,
)
from normplane.fng import _BLOCK, distances_between
from normplane.mxst import (
    CandidateEdge,
    ConnectingEdgeReport,
    StepFourEntry,
    _cluster_blocks,
    connect_components,
)
from test_checks import FOUR_SPINES, THREE_SPINES
from test_clustering import _line_stabs_all


def test_mxst_three_points_drops_shortest_side():
    S = PointSet(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
    tree, _ = mxst_mpsy(lp(2), S)
    assert tree.edge_set() == {(0, 2), (1, 2)}
    assert tree.total_weight == pytest.approx(9.0)


@pytest.mark.parametrize("spec", [lp(2), lp(1.5), l1(), linf(), polygonal(HEX_BALL)])
def test_two_points_closer_than_tol_are_no_tie(spec):
    # each point's own distance, 0, is its only other value: the point has a
    # single rival, so its furthest neighbour is decided however close it is
    S = PointSet(np.array([[0.0, 0.0], [1e-10, 0.0]]))
    weight = float(norm_many(spec, np.array([1e-10, 0.0])))
    assert build_fng(spec, S, 1e-9).fn.tolist() == [1, 0]
    tree, report = mxst_mpsy(spec, S, 1e-9)
    assert tree.edges.tolist() == [[0, 1]] and tree.weights.tolist() == [weight]
    assert report == ConnectingEdgeReport((), None)
    part = two_clustering(spec, S, 1e-9)
    assert (part.side_a, part.side_b, part.value) == ((0,), (1,), 0.0)


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


def _greedy_by_sorted_pairs(spec, S, key):
    """The descending-greedy tree in plain Python, over the pairs i < j
    sorted by ``key(w, i, j)``: sorted (i, j, w) triples."""
    d = pairwise_distances(spec, S).tolist()
    pairs = [(i, j) for i in range(S.n) for j in range(i + 1, S.n)]
    parent = list(range(S.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    edges = []
    for i, j in sorted(pairs, key=lambda ij: key(d[ij[0]][ij[1]], *ij)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j, d[i][j]))
    return sorted(edges)


@pytest.mark.parametrize("spec", [l1(), linf(), polygonal(HEX_BALL)], ids=["l1", "linf", "hex"])
def test_oracle_breaks_weight_ties_by_pair(rng, spec):
    # integer grids tie most distances: the oracle takes the pairs by weight
    # descending, then (i, j), so its tree is the plain greedy's over that order
    axis = np.arange(6.0)
    full = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    sets = [PointSet(full), PointSet(full[rng.permutation(len(full))])]
    sets += [grid_points(rng, int(n)) for n in rng.integers(3, 30, size=30)]
    reordered = 0
    for S in sets:
        tree = mxst_bruteforce(spec, S)
        got = [(i, j, w) for (i, j), w in zip(tree.edges.tolist(), tree.weights.tolist())]
        assert got == _greedy_by_sorted_pairs(spec, S, lambda w, i, j: (-w, i, j))
        # the tie-break decides the tree: pairs taken in reverse order differ
        reordered += got != _greedy_by_sorted_pairs(spec, S, lambda w, i, j: (-w, -i, -j))
    assert reordered >= 20


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


def _whole_block_max_pair(spec, S, rows, cols):
    """A block's largest and second-largest pair from one broadcast of the
    whole block, the reference: the first maximum in row-major order, then
    the first largest value at another position."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    flat = distances_between(spec, S, rows[:, None], cols[None, :]).ravel()
    top = int(np.argmax(flat))
    rest = flat.copy()
    rest[top] = -np.inf
    edges = []
    for f in (top,) if flat.size == 1 else (top, int(np.argmax(rest))):
        u, v = int(rows[f // cols.size]), int(cols[f % cols.size])
        edges.append(CandidateEdge(i=min(u, v), j=max(u, v), weight=float(flat[f])))
    return tuple(edges)


def _edges(found):
    """_cluster_blocks' (i, j, w) triples as the CandidateEdges of a report."""
    return tuple(CandidateEdge(*t) for t in found)


def _max_pair_blocks(rng):
    """(spec, S, rows, cols): grid blocks full of equal distances, the
    degenerate 1 x 1, 1 x m and m x 1 shapes and blocks past _BLOCK."""
    axis = np.arange(12.0)
    grid = PointSet(np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2))
    for spec in (l1(), linf(), polygonal(HEX_BALL)):
        for _ in range(120):
            idx = rng.permutation(grid.n)
            a, b = rng.integers(1, 40, size=2)
            rows, cols = idx[:a], idx[a : a + b]
            if rng.random() < 0.5:
                rows, cols = np.sort(rows), np.sort(cols)
            yield spec, grid, rows, cols
    uniform = PointSet(rng.uniform(-1.0, 1.0, size=(30_000, 2)))
    for spec in (*all_norms(), random_symmetric_polygon(rng)):
        idx = rng.permutation(uniform.n)
        for a, b in ((1, 1), (1, 7), (7, 1), (1, 2), (2, 1), (3000, 20), (2, 20_000)):
            yield spec, uniform, idx[:a], idx[a : a + b]


def test_max_pair_equals_the_whole_block_answer(rng):
    tied_in_max_row = tied_in_later_row = large = 0
    for spec, S, rows, cols in _max_pair_blocks(rng):
        (top,), = _cluster_blocks(spec, S.points, rows, [rows.size], cols, [cols.size])
        assert _edges(top) == _whole_block_max_pair(spec, S, rows, cols)
        block = distances_between(spec, S, rows[:, None], cols[None, :])
        r = int(np.argmax(block.max(axis=1)))
        tied_in_max_row += int(np.sum(block[r] == block[r].max()) > 1)
        tied_in_later_row += int(np.any(block[r + 1 :] == block[r].max()))
        large += block.size > _BLOCK
    assert tied_in_max_row >= 50 and tied_in_later_row >= 50 and large >= 16


def test_max_pair_holds_about_one_row_block():
    # 3.2 million distances held at once would take about 200 MB; row blocks
    # leave one block of about _BLOCK distances and the running best two
    S = PointSet(np.random.default_rng(3).uniform(size=(200_016, 2)))
    rows, cols = np.arange(200_000), np.arange(200_000, 200_016)
    tracemalloc.start()
    try:
        _cluster_blocks(lp(1.5), S.points, rows, [rows.size], cols, [cols.size])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"peak {peak} bytes"


def _cut(rng, idx, parts):
    """idx split at up to ``parts - 1`` random places into non-empty groups."""
    cuts = np.sort(rng.choice(np.arange(1, idx.size), size=min(parts, idx.size) - 1, replace=False))
    return np.split(idx, cuts)


def test_group_pairs_equal_the_whole_block_answer_of_each_sub_block(rng):
    # rows drawn with repetition from a 12 x 12 grid against disjoint
    # columns: a group spans several row blocks, equal distances recur in
    # later blocks, and group boundaries fall inside row blocks
    axis = np.arange(12.0)
    grid = PointSet(np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2))
    inside = spanning = tied_later = 0
    for spec in (l1(), linf(), polygonal(HEX_BALL)):
        for _ in range(25):
            idx = rng.permutation(grid.n)
            cols = idx[: rng.integers(8, 61)]
            step = _BLOCK // cols.size  # rows per row block
            rows = rng.choice(idx[cols.size :], size=int(rng.integers(2, 3 * step)))
            row_groups = _cut(rng, rows, int(rng.integers(1, 6)))
            col_groups = _cut(rng, cols, int(rng.integers(1, 5)))
            top = _cluster_blocks(spec, grid.points, rows, [rg.size for rg in row_groups],
                                  cols, [cg.size for cg in col_groups])
            r0 = 0
            for t, rg in enumerate(row_groups):
                inside += r0 % step != 0
                spanning += r0 // step != (r0 + rg.size - 1) // step
                r0 += rg.size
                for g, cg in enumerate(col_groups):
                    want = _whole_block_max_pair(spec, grid, rg, cg)
                    assert _edges(top[t][g]) == want
                    block = distances_between(spec, grid, rg[:, None], cg[None, :])
                    first = int(np.argmax(block.max(axis=1)))
                    tied_later += int(np.any(block[first + step :] == want[0].weight))
    assert inside >= 100 and spanning >= 50 and tied_later >= 50


def _reference_connect(spec, S, g, hull):
    """connect_components with no shared blocks, the reference: two
    whole-block maxima per pairing, 8 k in all, 16 at k = 2."""
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
            lhs = _whole_block_max_pair(spec, S, members[ca], boundary_members[cb])[0]
            rhs = _whole_block_max_pair(spec, S, members[cb], boundary_members[ca])[0]
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


def _fn_dist(spec, S, g):
    """``||p_i - p_fn[i]||`` per point, the distances connect_components reads."""
    return distances_between(spec, S, np.arange(S.n), g.fn)


def _connecting_evaluations(g, hull):
    """The distances connect_components evaluates: each spine's component
    against the boundary points of the components next to it in the cyclic
    order (one at k = 2), each once."""
    if g.k < 2:
        return 0
    cyclic = g.component_of[order_components(g, hull)[: g.k]].tolist()
    size = np.bincount(g.component_of, minlength=g.k)
    on_boundary = np.bincount(g.component_of[hull.boundary], minlength=g.k)
    return sum(
        int(size[cyclic[s]]) * sum(int(on_boundary[cyclic[t]]) for t in {(s - 1) % g.k, (s + 1) % g.k})
        for s in range(g.k)
    )


def _counting_norm_many(monkeypatch):
    """Route fng's norm_many through a counter; returns the list of the
    evaluation counts of its calls."""
    evaluated = []
    norm_many = fng_module.norm_many

    def counting(spec, arr):
        evaluated.append(int(np.prod(np.shape(arr)[:-1])))
        return norm_many(spec, arr)

    monkeypatch.setattr(fng_module, "norm_many", counting)
    return evaluated


def test_connect_components_evaluates_each_block_once(rng, monkeypatch):
    evaluated = _counting_norm_many(monkeypatch)
    seen_k = set()
    for spec, S in _connect_instances(rng):
        g = build_fng(spec, S, 0.0)
        hull = convex_hull(S.points, 0.0)
        fn_dist = _fn_dist(spec, S, g)
        evaluated.clear()
        tree, report = connect_components(spec, S, g, fn_dist, hull)
        assert sum(evaluated) == _connecting_evaluations(g, hull)
        ref_tree, ref_report = _reference_connect(spec, S, g, hull)
        # the tree field by field (an array repr rounds), the report by repr
        assert np.array_equal(tree.edges, ref_tree.edges)
        assert np.array_equal(tree.weights, ref_tree.weights)
        assert repr(report) == repr(ref_report)
        seen_k.add(min(g.k, 3))
    assert seen_k >= {2, 3}


def test_a_one_block_tree_evaluates_exactly_n_b_distances(rng, monkeypatch):
    # a furthest-neighbor pass of one block is kept, and the connecting
    # step reads its blocks from it: the tree evaluates nothing else
    evaluated = _counting_norm_many(monkeypatch)
    connected = 0
    for spec, S in _connect_instances(rng):
        hull = convex_hull(S.points, 0.0)
        assert S.n * hull.boundary.size <= _BLOCK
        evaluated.clear()
        mxst_mpsy(spec, S, 0.0)
        assert sum(evaluated) == S.n * hull.boundary.size
        connected += _connecting_evaluations(build_fng(spec, S, 0.0), hull) > 0
    assert connected >= 48


def _path_cases():
    """Uniform sets, ellipses (convex position) and integer grids, whole and
    halved, whose n b lies on both sides of _BLOCK."""
    rng = np.random.default_rng(30)
    for n in (12, 40, 150, 400, 700):
        yield rng.uniform(size=(n, 2))
    for n in (30, 80, 100, 160):
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        yield np.stack([2 * np.cos(angles), np.sin(angles)], axis=1)
    for m in (4, 7, 10, 14):
        grid = np.array([(i, j) for j in range(m) for i in range(m)], dtype=float)
        yield grid
        yield grid[rng.choice(m * m, size=m * m // 2, replace=False)]


def _tree_outcome(build):
    """The tree's edge and weight bits and the report's repr, or the
    TiesPresent message."""
    try:
        tree, report = build()
    except TiesPresent as exc:
        return str(exc)
    return tree.edges.tobytes(), tree.weights.tobytes(), repr(report)


def test_reading_and_evaluating_paths_agree(monkeypatch):
    # the connecting step reads the furthest-neighbor pass when it was one
    # block, and the suite's table; evaluated with no held distances, or
    # with a _BLOCK too small for one block, it gives the same bits
    specs = (euclidean(), lp(1.5), l1(), linf(), polygonal(HEX_BALL))
    read = evaluated = tied = 0
    for pts in _path_cases():
        S = PointSet(pts)
        n = S.n
        for spec in specs:
            table = pairwise_distances(spec, S)
            for tol in (0.0, 1e-9):
                try:
                    hull, g, fn_dist, held = fng_module._stages(spec, S, tol)
                except TiesPresent:
                    continue
                assert (held is None) == (n * hull.boundary.size > _BLOCK)
                want = _tree_outcome(lambda: connect_components(spec, S, g, fn_dist, hull, tol))
                assert _tree_outcome(lambda: mxst_mpsy(spec, S, tol)) == want
                assert _tree_outcome(lambda: connect_components(
                    spec, S, g, fn_dist, hull, tol, table[:, hull.boundary])) == want
                with monkeypatch.context() as m:
                    m.setattr(fng_module, "_BLOCK", 64)
                    assert _tree_outcome(lambda: mxst_mpsy(spec, S, tol)) == want
                if g.k > 1:
                    read += held is not None
                    evaluated += held is None
                    tied += isinstance(want, str)
    assert read >= 50 and evaluated >= 25 and tied >= 20


def _triple(c):
    """A report's CandidateEdge as the (i, j, w) triple the connecting step selects from."""
    return c.i, c.j, c.weight


def _doctor_connecting_step(monkeypatch, pick):
    """Route each connecting-candidate selection through ``pick(cands, t)``,
    t counting the selections; the other decisions keep their maxima.
    Returns the list of picks."""
    unique_max = mxst_module._unique_max
    picks = []

    def doctored(cands, tol, site):
        if not site.startswith("connecting candidates"):
            return unique_max(cands, tol, site)
        picks.append(pick(cands, len(picks)))
        return picks[-1]

    monkeypatch.setattr(mxst_module, "_unique_max", doctored)
    return picks


def test_a_doctored_connecting_step_fails_the_component_certificate(rng, monkeypatch):
    # connect_components certifies the tree from the decomposition: the
    # kept connecting edges must join the k components into one tree.  Three
    # doctored selections: every entry repeating the first one's edge (two
    # kept edges then join the same pair of components), every entry taking
    # a spine (an edge inside a component), and random candidates of any
    # entry.  validate_tree over all n - 1 edges is the reference verdict.
    doctorings = {
        "repeat": lambda honest: lambda cands, t: honest[0],
        "spine": lambda honest: lambda cands, t: spine_edge,
        "random": lambda honest: lambda cands, t: honest[1][rng.integers(len(honest[1]))],
    }
    instances = [(lp(2), PointSet(THREE_SPINES)), (lp(2), PointSet(FOUR_SPINES))]
    instances += [(spec, S) for spec, S in _connect_instances(rng) if build_fng(spec, S, 0.0).k >= 3]
    verdicts = {name: set() for name in doctorings}
    for spec, S in instances:
        g, hull = build_fng(spec, S, 0.0), convex_hull(S.points, 0.0)
        fn_dist = _fn_dist(spec, S, g)
        _, report = connect_components(spec, S, g, fn_dist, hull, 0.0)
        # the step selects among (i, j, w) triples
        honest = (_triple(report.entries[0].selected),
                  [_triple(c) for e in report.entries for c in e.candidates])
        x, y = (int(v) for v in g.spines[0])
        spine_edge = (x, y, float(distances_between(spec, S, [x], [y])[0]))
        fng_edges = sorted(g.undirected_edges())
        for name, doctoring in doctorings.items():
            with monkeypatch.context() as m:
                picks = _doctor_connecting_step(m, doctoring(honest))
                try:
                    tree, _ = connect_components(spec, S, g, fn_dist, hull, 0.0)
                except StructureViolation as exc:
                    assert str(exc) == "connecting edges did not produce a spanning tree"
                    tree = None
            dropped = int(np.argmin([w for _, _, w in picks]))
            kept = [(i, j) for t, (i, j, _) in enumerate(picks) if t != dropped]
            edges = SpanningTree(fng_edges + kept, np.zeros(S.n - 1))
            assert (tree is not None) == validate_tree(edges, S.n)
            if tree is not None:
                assert tree.edge_set() == edges.edge_set()
            verdicts[name].add(tree is not None)
    assert verdicts == {"repeat": {False}, "spine": {False}, "random": {False, True}}


def test_mxst_mpsy_never_runs_validate_tree(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(mxst_module, "validate_tree", lambda *a: calls.append(a) or validate_tree(*a))
    for spec, S in _connect_instances(rng):
        tree, _ = mxst_mpsy(spec, S, 0.0)
        assert validate_tree(tree, S.n)
    assert not calls


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
    # (all points x candidates) rectangle, and the tree adds its connecting
    # blocks; its edges weigh what those passes found.  n b is within the
    # bound of a candidates' triangle plus a (rest x candidates) rectangle
    # and n - 1 edge weights, since b (b + 1) / 2 < n - 1
    evaluated = _counting_norm_many(monkeypatch)
    n = 20_000
    rng = np.random.default_rng(20_000)
    S = PointSet(rng.uniform(-1.0, 1.0, size=(n, 2)))
    spec = lp(1.5)
    tree, _ = mxst_mpsy(spec, S, 0.0)
    hull = convex_hull(S.points, 0.0)
    b = hull.boundary.size
    evals = sum(evaluated)
    g = build_fng(spec, S, 0.0)
    assert evals <= b * (b - 1) // 2 + (n - b) * b + _connecting_evaluations(g, hull) + (n - 1)
    assert evals == n * b + _connecting_evaluations(g, hull)
    assert evals < 100 * n

    for i in rng.choice(n, size=200, replace=False):
        row = norm_many(spec, S.points[i] - S.points)
        row[i] = -np.inf
        assert g.fn[i] == np.argmax(row)
    assert len(tree.edges) == n - 1 and g.undirected_edges() <= tree.edge_set()
