"""Maximum spanning trees of complete norm-distance graphs.

`mxst_mpsy` runs the Monma-Paterson-Suri-Yao construction: take all
furthest-neighbor edges, order the FNG components cyclically around the
hull, compute one candidate connecting edge per adjacent component pair
(restricting one endpoint to the hull boundary), and drop the shortest
candidate.  It computes the hull first, from the points the octagon
filter keeps (:func:`geometry.convex_hull`, without the input checks the
PointSet has run), and takes the furthest neighbors and their distances
over its b boundary points (:func:`fng._stages`): n b norm evaluations,
no stored distances and no sort.  `connect_components` does the rest from
that graph, those distances and the hull, evaluating only the cluster x
boundary-cluster blocks it compares, each once per call, in one
row-blocked pass per spine (:func:`_cluster_blocks`): the spine's two
clusters against the boundary points of the clusters of its neighbours in
the cyclic order (at k = 2 the one other spine), each block reduced to its
best two pairs.  Each tree edge keeps the weight of the pass that found it,
so no distance is evaluated twice.  The invariant suite, which already
holds the graph, its distances and the hull, calls it directly, as does
:func:`clustering.two_clustering`, which colors the tree from that graph.
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
from dataclasses import dataclass, field

import numpy as np

from .errors import StructureViolation, TiesPresent
from .fng import (
    DEFAULT_TOL,
    FNGraph,
    PointSet,
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
    hull, g, fn_dist = _stages(spec, S, tol)
    return connect_components(spec, S, g, fn_dist, hull, tol)


def connect_components(
    spec: NormSpec,
    S: PointSet,
    g: FNGraph,
    fn_dist: np.ndarray,
    hull: HullIndex,
    tol: float = DEFAULT_TOL,
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
    """
    n = S.n
    cycle = order_components(g, hull)
    k = g.k

    # the FNG edges sorted(i, fn[i]), each spine once, at its smaller endpoint
    idx = np.arange(n)
    once = (g.fn[g.fn] != idx) | (idx < g.fn)
    pairs = np.sort(np.stack([idx, g.fn], axis=1)[once], axis=1)
    weights = fn_dist[once]
    entries: list[StepFourEntry] = []
    discarded: int | None = None
    kept: list[CandidateEdge] = []

    if k > 1:
        members = g.cluster_members()
        boundary = {c: m[hull.position[m] >= 0] for c, m in members.items()}
        x = cycle[:k].tolist()
        xp = cycle[k:].tolist()

        # one pass per spine: its two clusters against the boundary members
        # of the clusters of its adjacent spines (the one other spine at
        # k = 2), so each ordered cluster x boundary-cluster block is
        # evaluated once, however many pairings read it
        blocks: dict[tuple[int, int], tuple[CandidateEdge, ...]] = {}
        for s in range(k):
            rows_of = {c: members[c] for c in (x[s], xp[s])}
            cols_of = {c: boundary[c] for t in dict.fromkeys(((s - 1) % k, (s + 1) % k))
                       for c in (x[t], xp[t])}
            blocks.update(_cluster_blocks(spec, S.points, rows_of, cols_of))

        def pairing_max(ca: int, cb: int) -> CandidateEdge:
            # max over the pairing with either endpoint taking the
            # boundary-restricted role; the connecting edge has at least
            # one endpoint on the hull, so nothing is missed.  A pair with
            # both endpoints on the hull sits in both blocks.
            cands = blocks[ca, cb] + blocks[cb, ca]
            return _unique_max(cands, tol, f"maxima of the cluster pairing {(ca, cb)}")

        # One candidate edge per cyclically adjacent component pair, scanning
        # all four cross-cluster pairings.  The cyclic labeling x_1..x_k
        # x'_1..x'_k is only unique up to rotation and rotations move which
        # pairings sit at the wrap of the pattern, so restricting each scan
        # to the two mixed pairings is not labeling-safe; the component-level
        # adjacency is, and the four pairings cover every cross pair.
        for i in range(k):
            prev = (i - 1) % k
            cands = (
                pairing_max(x[i], xp[prev]),
                pairing_max(x[prev], xp[i]),
                pairing_max(x[i], x[prev]),
                pairing_max(xp[i], xp[prev]),
            )
            components = (int(g.component_of[x[prev]]), int(g.component_of[x[i]]))
            selected = _unique_max(cands, tol, f"connecting candidates of components {components}")
            entries.append(StepFourEntry(components=components, candidates=cands, selected=selected))
        discarded = int(np.argmin([e.selected.weight for e in entries]))
        _certify(entries[discarded].selected, [e.selected for e in entries], tol,
                 "minimum among the connecting edges")
        kept = [e.selected for t, e in enumerate(entries) if t != discarded]
        pairs = np.concatenate([pairs, np.array([(c.i, c.j) for c in kept], dtype=np.intp)])
        weights = np.concatenate([weights, [c.weight for c in kept]])

    join = _union_find(k)
    if len(pairs) != n - 1 or not all(
        join(int(g.component_of[c.i]), int(g.component_of[c.j])) for c in kept
    ):
        raise StructureViolation("connecting edges did not produce a spanning tree")
    by = np.lexsort((pairs[:, 1], pairs[:, 0]))
    # rebound, so the unsorted arrays are freed before SpanningTree copies these
    pairs, weights = pairs[by], weights[by]
    tree = SpanningTree(pairs, weights)
    return tree, ConnectingEdgeReport(entries=tuple(entries), discarded=discarded)


def _cluster_blocks(spec: NormSpec, pts: np.ndarray, rows_of: dict, cols_of: dict) -> dict:
    """The best two pairs of every (row cluster x column cluster) distance
    block as CandidateEdges, heaviest first, each the first in row-major
    order (one for a 1 x 1 block), keyed (row cluster, column cluster);
    ``rows_of`` and ``cols_of`` map cluster representatives to non-empty
    index arrays.

    One pass (:func:`fng._row_blocks`) evaluates the concatenated rows
    against the concatenated columns; each block's piece of a cluster pair
    is reduced to its best two and merged with the running ones by (weight
    descending, then earlier position), so nothing per row outlives its block.
    """
    rows, cols = (np.concatenate(list(m.values())) for m in (rows_of, cols_of))
    n_cols = cols.size
    row_spans, col_spans = (dict(zip(m, itertools.pairwise(itertools.accumulate(
        map(len, m.values()), initial=0)))) for m in (rows_of, cols_of))
    # (-weight, position in the pass's row-major order): sorted, heaviest first
    top: dict[tuple[int, int], list] = {}

    def merge(r0, block):
        for ca, (a, b) in row_spans.items():
            a, b = max(a, r0), min(b, r0 + len(block))
            if a >= b:
                continue
            for cb, (c0, c1) in col_spans.items():
                found = [(-w, (a + f // (c1 - c0)) * n_cols + c0 + f % (c1 - c0))
                         for w, f in _first_two(block[a - r0 : b - r0, c0:c1].ravel())]
                top[ca, cb] = sorted(top.get((ca, cb), []) + found)[:2]

    _row_blocks(spec, pts, rows, cols, merge)
    return {pair: tuple(CandidateEdge(*sorted((int(rows[f // n_cols]), int(cols[f % n_cols]))), -w)
                        for w, f in best) for pair, best in top.items()}


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


def _unique_max(cands, tol: float, site: str) -> CandidateEdge:
    """The first heaviest candidate, certified (:func:`_certify`)."""
    return _certify(max(cands, key=lambda c: c.weight), cands, tol, site)


def _certify(chosen: CandidateEdge, cands, tol: float, site: str) -> CandidateEdge:
    """``chosen``; TiesPresent when a candidate with another pair lies within tol of it."""
    for c in cands:
        if (c.i, c.j) != (chosen.i, chosen.j) and abs(c.weight - chosen.weight) <= tol:
            raise TiesPresent(
                f"tied {site}: {(chosen.i, chosen.j)} and {(c.i, c.j)} within tol={tol:g}"
            )
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
