"""Maximum spanning trees of complete norm-distance graphs.

`mxst_mpsy` runs the Monma-Paterson-Suri-Yao construction: take all
furthest-neighbor edges, order the FNG components cyclically around the
hull, compute one candidate connecting edge per adjacent component pair
(restricting one endpoint to the hull boundary), and drop the shortest
candidate.  It computes the hull first, from the points the octagon
filter keeps (:func:`geometry.convex_hull`, without the input checks the
PointSet has run), and takes the furthest neighbors and their distances
over its b boundary points (:func:`fng._stages`): n b norm evaluations,
no sort, and the pass kept only when it was one block.  `connect_components`
does the rest from that graph, those distances and the hull, reading only
the cluster x boundary-cluster blocks it compares, each once per call: the
spine's two clusters against the boundary points of the clusters of its
neighbours in the cyclic order (at k = 2 the one other spine), each block
reduced to its best two pairs (:func:`_cluster_blocks`).  The clusters are
index ranges of one stable argsort of the points by their cluster's cyclic
rank (:func:`_cluster_ranges`), so a spine's rows are one slice.  A block
is gathered from the caller's n x b block of every point against the
boundary (the furthest-neighbor pass of one block, or the boundary columns
of the invariant suite's table), else evaluated in one row-blocked pass
per spine.  Each tree edge keeps the weight of the pass that found it.
The invariant suite, which holds its inputs, and :func:`clustering.two_clustering`,
which colors the tree from its graph, call it directly.
The tree's validity follows from the decomposition: the graph is a forest
of k trees, so it suffices that the k - 1 kept connecting edges join its
components into one, a union-find over k components rather than n points.

Distances need to be distinct only where the construction compares them,
and only there are they certified; TiesPresent names the site and the two
tied pairs:

* a row whose best two candidates lie within tol (:func:`fng._furthest`);
* a cluster pairing whose best two distinct pairs lie within tol;
* an adjacent component pair whose best two of its four candidates do;
* two distinct selected edges tied for the discarded minimum (at k = 2
  both entries select the same edge, which is no tie).

`mxst_bruteforce` is the independent descending-greedy oracle over all
n(n-1)/2 distances.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import StructureViolation, TiesPresent
from .fng import (
    DEFAULT_TOL,
    FNGraph,
    PointSet,
    _near,
    _row_blocks,
    _stages,
    _triangle,
    order_components,
)
from .geometry import HullIndex, _IndexArrays, check_tol
from .norms import NormSpec

# edges the greedy oracle reads as Python ints at a time: larger chunks
# save no time and hold more ints when the scan stops early
_CHUNK = 256


@dataclass(frozen=True, eq=False)
class SpanningTree(_IndexArrays):
    """Weighted undirected edges as read-only arrays: ``edges`` (m, 2) np.intp,
    rows i < j in (i, j) order, and their ``weights`` (m,) float."""

    edges: np.ndarray
    weights: np.ndarray = field(metadata={"dtype": float})

    @property
    def total_weight(self) -> float:
        """The weights summed left to right; 0.0 without edges."""
        return float(np.add.accumulate(self.weights)[-1]) if self.weights.size else 0.0

    def edge_set(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.edges.tolist()))


@dataclass(frozen=True)
class CandidateEdge:
    i: int
    j: int
    weight: float


@dataclass(frozen=True)
class StepFourEntry:
    """The four boundary-restricted maxima for one adjacent component pair."""

    components: tuple[int, int]  # (previous, current) component ids
    candidates: tuple[CandidateEdge, ...]
    selected: CandidateEdge


@dataclass(frozen=True)
class ConnectingEdgeReport:
    entries: tuple[StepFourEntry, ...]
    discarded: int | None  # index into entries of the dropped (smallest) edge


def mxst_mpsy(
    spec: NormSpec, S: PointSet, tol: float = DEFAULT_TOL
) -> tuple[SpanningTree, ConnectingEdgeReport]:
    """Maximum spanning tree via the furthest-neighbor-graph construction.

    Requires the distances each decision compares to be distinct within
    tol (TiesPresent naming the decision otherwise).  Returns the tree and
    the per-component-pair report of connecting-edge candidates.
    """
    check_tol(tol)
    if S.n <= 1:
        return SpanningTree(np.empty((0, 2)), ()), ConnectingEdgeReport((), None)
    hull, g, fn_dist, held = _stages(spec, S, tol)
    return connect_components(spec, S, g, fn_dist, hull, tol, held)


def connect_components(
    spec: NormSpec,
    S: PointSet,
    g: FNGraph,
    fn_dist: np.ndarray,
    hull: HullIndex,
    tol: float = DEFAULT_TOL,
    held: np.ndarray | None = None,
) -> tuple[SpanningTree, ConnectingEdgeReport]:
    """The tree from a furthest-neighbor graph ``g`` of S, the distances
    ``fn_dist[i] = ||p_i - p_fn[i]||`` and the hull.

    Orders the components around the hull, adds one connecting edge per
    cyclically adjacent component pair but the shortest, and certifies the
    result from the decomposition (StructureViolation when the components
    do not alternate or the edges do not span).  ``g``'s edges are a forest
    of k trees, one per component, so the result is a spanning tree when it
    has n - 1 edges and the kept connecting edges join the k components
    without a cycle; :func:`validate_tree` would repeat that over n points.
    TiesPresent when one of its decisions compares two distinct pairs within
    tol.  The FNG edges weigh their ``fn_dist`` and each connecting edge the
    weight its candidate was found with, so no tree weight is evaluated
    again.

    ``held``, when the caller already holds the distances, is the n x b
    block ``held[i, t] = ||p_i - p_boundary[t]||`` of every point against
    ``hull.boundary``, where every connecting edge has an endpoint.  The
    connecting blocks are then read from it instead of evaluated.
    """
    n = S.n
    cycle = order_components(g, hull)
    k = g.k

    # the FNG edges sorted(i, fn[i]), each spine once, at its smaller endpoint
    idx = np.arange(n)
    once = (g.fn[g.fn] != idx) | (idx < g.fn)
    pairs = np.stack([np.minimum(idx, g.fn), np.maximum(idx, g.fn)], axis=1)[once]
    weights = fn_dist[once]
    entries: list[StepFourEntry] = []
    discarded: int | None = None
    kept: list[tuple[int, int, float]] = []

    if k > 1:
        # the clusters ranked spine by spine in the cyclic order, x_s being
        # 2s and x'_s 2s + 1, so spine s's two clusters are one slice of
        # ``by_rank`` and each cluster's boundary points one of ``on_hull``
        reps = cycle.reshape(2, k).T.ravel()
        by_rank, size, on_hull, on_size = _cluster_ranges(g, hull, reps)
        at = list(itertools.accumulate(size, initial=0))
        on_at = list(itertools.accumulate(on_size, initial=0))

        # one block per spine: its two clusters against the boundary points
        # of the clusters of its adjacent spines (the one other spine at
        # k = 2), so each ordered cluster x boundary-cluster block is read
        # once, however many pairings read it
        blocks: dict[tuple[int, int], list] = {}
        for s in range(k):
            rows = by_rank[at[2 * s] : at[2 * s + 2]]
            near = dict.fromkeys(((s - 1) % k, (s + 1) % k))
            cols = np.concatenate([on_hull[on_at[2 * t] : on_at[2 * t + 2]] for t in near])
            col_ranks = [c for t in near for c in (2 * t, 2 * t + 1)]
            block = None
            if held is not None:
                block = held[rows[:, None], hull.boundary.searchsorted(cols)]  # a fresh array
            top = _cluster_blocks(spec, S.points, rows, size[2 * s : 2 * s + 2],
                                  cols, [on_size[c] for c in col_ranks], block)
            for a, line in enumerate(top):
                blocks.update(((2 * s + a, c), found) for c, found in zip(col_ranks, line))

        def pairing_max(ca: int, cb: int) -> tuple[int, int, float]:
            # max over the pairing of the clusters ranked ca and cb, with
            # either endpoint taking the boundary-restricted role; the
            # connecting edge has at least one endpoint on the hull, so
            # nothing is missed.  A pair with both endpoints on the hull
            # sits in both blocks with the same bits.  Only at k = 2 is a
            # pairing asked for twice, and a tie raises at its first reading
            site = f"maxima of the cluster pairing {(int(reps[ca]), int(reps[cb]))}"
            return _unique_max(blocks[ca, cb] + blocks[cb, ca], tol, site)

        # One candidate edge per cyclically adjacent component pair, scanning
        # all four cross-cluster pairings.  The cyclic labeling x_1..x_k
        # x'_1..x'_k is only unique up to rotation and rotations move which
        # pairings sit at the wrap of the pattern, so restricting each scan
        # to the two mixed pairings is not labeling-safe; the component-level
        # adjacency is, and the four pairings cover every cross pair.
        selected = []
        for i in range(k):
            prev = (i - 1) % k
            cands = (
                pairing_max(2 * i, 2 * prev + 1),
                pairing_max(2 * prev, 2 * i + 1),
                pairing_max(2 * i, 2 * prev),
                pairing_max(2 * i + 1, 2 * prev + 1),
            )
            components = (int(g.component_of[reps[2 * prev]]), int(g.component_of[reps[2 * i]]))
            selected.append(_unique_max(cands, tol, f"connecting candidates of components {components}"))
            entries.append(StepFourEntry(components=components,
                                         candidates=tuple(CandidateEdge(*c) for c in cands),
                                         selected=CandidateEdge(*selected[-1])))
        discarded = int(np.argmin([c[2] for c in selected]))
        _certify(selected[discarded], selected, tol, "minimum among the connecting edges")
        kept = [c for t, c in enumerate(selected) if t != discarded]
        pairs = np.concatenate([pairs, np.array([c[:2] for c in kept], dtype=np.intp)])
        weights = np.concatenate([weights, [c[2] for c in kept]])

    join = _union_find(k)
    if len(pairs) != n - 1 or not all(
        join(int(g.component_of[i]), int(g.component_of[j])) for i, j, _ in kept
    ):
        raise StructureViolation("connecting edges did not produce a spanning tree")
    by = np.lexsort((pairs[:, 1], pairs[:, 0]))
    # rebound, so the unsorted arrays are freed before SpanningTree copies these
    pairs, weights = pairs[by], weights[by]
    tree = SpanningTree(pairs, weights)
    return tree, ConnectingEdgeReport(entries=tuple(entries), discarded=discarded)


def _cluster_ranges(g: FNGraph, hull: HullIndex, reps: np.ndarray):
    """``(by_rank, size, on_hull, on_size)``: the points grouped by the
    position of their cluster's representative in ``reps``, each cluster in
    index order, by one stable argsort, and each group's size; then the
    same for the hull boundary's points alone.  The ranks are the smallest
    integer type that holds them, which numpy sorts by radix."""
    rank = np.zeros(g.fn.size, dtype=np.min_scalar_type(reps.size))
    rank[reps] = np.arange(reps.size)
    key = rank[g.cluster_of]
    by_rank = np.argsort(key, kind="stable")
    on_hull = by_rank[(hull.position >= 0)[by_rank]]
    size, on_size = (np.bincount(r, minlength=reps.size).tolist() for r in (key, key[on_hull]))
    return by_rank, size, on_hull, on_size


def _cluster_blocks(spec: NormSpec, pts: np.ndarray, rows, row_sizes, cols, col_sizes,
                    block: np.ndarray | None = None) -> list[list[list]]:
    """``top[a][c]``: the best two pairs of the distance block of row range
    a against column range c, heaviest first, each the first in row-major
    order (one for a 1 x 1 block), as ``(i, j, w)`` triples, i < j.  The
    ranges cut the index arrays ``rows`` and ``cols`` into consecutive
    pieces of the non-zero lengths ``row_sizes`` and ``col_sizes``.

    The distances are ``block`` (rows x cols, owned by the reduction) when
    the caller holds them, else one pass (:func:`fng._row_blocks`) evaluates
    them; each block's piece of a range pair is reduced to its best two and
    merged with the running ones by (weight descending, then earlier
    position), so nothing per row outlives its block.
    """
    n_cols = cols.size
    row_spans, col_spans = (list(itertools.pairwise(itertools.accumulate(sizes, initial=0)))
                            for sizes in (row_sizes, col_sizes))
    # (-weight, position in the rows x cols row-major order): sorted, heaviest first
    top = [[[] for _ in col_spans] for _ in row_spans]

    def merge(r0, block):
        for line, (a, b) in zip(top, row_spans):
            a, b = max(a, r0), min(b, r0 + len(block))
            if a >= b:
                continue
            for c, (c0, c1) in enumerate(col_spans):
                found = [(-w, (a + f // (c1 - c0)) * n_cols + c0 + f % (c1 - c0))
                         for w, f in _first_two(block[a - r0 : b - r0, c0:c1].ravel())]
                line[c] = sorted(line[c] + found)[:2]

    def triple(w, f):
        i, j = sorted((int(rows[f // n_cols]), int(cols[f % n_cols])))
        return i, j, -w

    if block is None:
        _row_blocks(spec, pts, rows, cols, merge)
    else:
        merge(0, block)
    return [[[triple(w, f) for w, f in best] for best in line] for line in top]


def _first_two(flat: np.ndarray) -> list[tuple[float, int]]:
    """``(value, position)`` of a 1-D array's first maximum and of the first
    largest value at another position (none for a single value): one lane
    of :func:`fng._top2` without its per-lane offset arrays, which on a
    single lane cost more than the search.  The maximum is left masked with
    -inf."""
    i = int(flat.argmax())
    top = float(flat[i])
    if flat.size == 1:
        return [(top, i)]
    flat[i] = -np.inf
    j = int(flat.argmax())
    return [(top, i), (float(flat[j]), j)]


def _unique_max(cands, tol: float, site: str):
    """The first heaviest of the ``(i, j, w)`` triples ``cands``, certified
    (:func:`_certify`)."""
    return _certify(max(cands, key=operator.itemgetter(2)), cands, tol, site)


def _certify(chosen, cands, tol: float, site: str):
    """``chosen``, an ``(i, j, w)`` triple; TiesPresent when one of the
    triples ``cands`` with another pair lies within tol of it."""
    i, j, w = chosen
    for ci, cj, cw in cands:
        if (ci, cj) != (i, j) and _near(cw, w, tol):
            raise TiesPresent(f"tied {site}: {(i, j)} and {(ci, cj)} within tol={tol:g}")
    return chosen


def mxst_bruteforce(spec: NormSpec, S: PointSet) -> SpanningTree:
    """Descending-greedy (maximum-Kruskal) oracle over all n(n-1)/2 edges.

    Ties at equal weight are broken lexicographically by (i, j), which makes
    the result deterministic even for tied inputs.
    """
    if S.n <= 1:
        return SpanningTree(np.empty((0, 2)), ())
    return _greedy(S.n, *_triangle(spec, S))


def _greedy(n: int, iu: np.ndarray, ju: np.ndarray, w: np.ndarray) -> SpanningTree:
    """The descending-greedy tree over the flat strict upper triangle (iu, ju, w)."""
    join = _union_find(n)
    order = np.argsort(-w, kind="stable")  # equal weights stay in (i, j) order
    chunks = (order[s : s + _CHUNK] for s in range(0, order.size, _CHUNK))
    edges = itertools.chain.from_iterable(zip(iu[c].tolist(), ju[c].tolist()) for c in chunks)
    picked = []  # ranks in order
    for rank, (i, j) in enumerate(edges):
        if join(i, j):
            picked.append(rank)
            if len(picked) == n - 1:
                break
    picked = np.sort(order[picked])  # flat upper-triangle positions order pairs as (i, j) does
    return SpanningTree(np.stack([iu[picked], ju[picked]], axis=1), w[picked])


def validate_tree(t: SpanningTree, n: int) -> bool:
    """Connectivity + acyclicity + edge-count check via component merging."""
    if n <= 1:
        return len(t.edges) == 0
    e = t.edges
    if e.shape != (n - 1, 2) or np.any((e < 0) | (e >= n)) or np.any(e[:, 0] == e[:, 1]):
        return False
    # False at the first duplicate edge or cycle
    return all(map(_union_find(n), e[:, 0].tolist(), e[:, 1].tolist()))


def _union_find(n: int):
    """``join(a, b)``: merge the components of a and b; False if already one."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def join(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        parent[ra] = rb
        return ra != rb

    return join
