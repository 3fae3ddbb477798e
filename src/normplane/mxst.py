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
the cluster x boundary-cluster rectangles it compares, 8k of them, each
once per call: a spine's two clusters against the boundary points of the
clusters of its neighbours in the cyclic order (at k = 2 the one other
spine), each reduced to its best two entries (:func:`_cluster_blocks`).
The clusters are index ranges of one stable argsort of the points by
their cluster's cyclic rank (:func:`_cluster_ranges`).  The caller's n x b
block of every point against the boundary (the furthest-neighbor pass of
one block, or the boundary columns of the invariant suite's table) is
gathered once in that rank order, rows and columns, so each rectangle is
one slice of it; without it the rectangles are evaluated in one
row-blocked pass per spine.  Only the entries a certificate reads become
point pairs, and each tree edge keeps the weight of the pass that found it.
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
    without a cycle, with no union-find over the n points.
    TiesPresent when one of its decisions compares two distinct pairs within
    tol.  The FNG edges weigh their ``fn_dist`` and each connecting edge the
    weight its candidate was found with, so no tree weight is evaluated
    again.

    ``held``, when the caller already holds the distances, is the n x b
    block ``held[i, t] = ||p_i - p_boundary[t]||`` of every point against
    ``hull.boundary``, where every connecting edge has an endpoint.  The
    connecting rectangles are then slices of one gather of it instead of
    evaluated.
    """
    n = S.n
    cycle = order_components(g, hull)
    k = g.k

    # the FNG edges as keys lo * n + hi, each spine once, at its smaller endpoint
    idx = np.arange(n)
    once = (g.fn[g.fn] != idx) | (idx < g.fn)
    keys = (np.minimum(idx, g.fn) * n + np.maximum(idx, g.fn))[once]
    weights = fn_dist[once]
    del idx, once  # n-sized: freed before the tree's arrays are built
    entries: list[StepFourEntry] = []
    discarded: int | None = None
    kept: list[tuple[int, int, float]] = []

    if k > 1:
        # the clusters ranked spine by spine in the cyclic order, x_s being
        # 2s and x'_s 2s + 1: cluster c is the slice at[c]:at[c + 1] of
        # ``by_rank``, and its boundary points the slice on_at[c]:on_at[c + 1]
        # of ``on_hull``, which is ``hull.boundary[on_perm]``
        reps = cycle.reshape(2, k).T.ravel()
        by_rank, at, on_perm, on_at = _cluster_ranges(g, hull, reps)
        on_hull = hull.boundary[on_perm]
        if held is not None:
            block = held[by_rank][:, on_perm]  # every rectangle is a slice of it

        # the best two of each rectangle of a spine's two clusters against
        # the boundary points of the clusters of its adjacent spines (the one
        # other spine at k = 2), each reduced once however many pairings read it
        top: dict[tuple[int, int], list] = {}
        for s in range(k):
            near = [c for t in dict.fromkeys(((s - 1) % k, (s + 1) % k)) for c in (2 * t, 2 * t + 1)]
            c0 = on_at
            if held is None:  # the adjacent boundary clusters side by side
                cols = np.concatenate([on_hull[on_at[c] : on_at[c + 1]] for c in near])
                c0 = dict(zip(near, itertools.accumulate((on_at[c + 1] - on_at[c] for c in near), initial=0)))
            rects = {(ca, cb): (at[ca], at[ca + 1], c0[cb], c0[cb] + on_at[cb + 1] - on_at[cb])
                     for ca in (2 * s, 2 * s + 1) for cb in near}
            if held is None:
                _row_blocks(spec, S.points, by_rank[at[2 * s] : at[2 * s + 2]], cols,
                            lambda r0, part: _cluster_blocks(part, at[2 * s] + r0, rects, top))
            else:
                _cluster_blocks(block, 0, rects, top)

        rep_ids, component = reps.tolist(), g.component_of[reps].tolist()
        pairings: dict[tuple[int, int], tuple] = {}

        def pairing_max(ca: int, cb: int) -> tuple[tuple[int, int, float], CandidateEdge]:
            # max over the pairing of the clusters ranked ca and cb, with
            # either endpoint taking the boundary-restricted role; the
            # connecting edge has at least one endpoint on the hull, so
            # nothing is missed.  A pair with both endpoints on the hull
            # sits in both rectangles with the same bits.  Only entries
            # within tol of the heaviest become pairs, and only at k = 2 is
            # a pairing asked for twice, certified at its first reading
            key = min(ca, cb), max(ca, cb)
            if key not in pairings:
                heaviest = min(top[ca, cb][0][0], top[cb, ca][0][0])
                found = [(*sorted((by_rank.item(at[a] + r), on_hull.item(on_at[b] + c))), -w)
                         for a, b in ((ca, cb), (cb, ca)) for w, r, c in top[a, b]
                         if _near(w, heaviest, tol)]
                chosen = _unique_max(found, tol, lambda: "maxima of the cluster pairing "
                                     f"{(rep_ids[ca], rep_ids[cb])}")
                pairings[key] = chosen, CandidateEdge(*chosen)
            return pairings[key]

        # One candidate edge per cyclically adjacent component pair, scanning
        # all four cross-cluster pairings.  The cyclic labeling x_1..x_k
        # x'_1..x'_k is only unique up to rotation and rotations move which
        # pairings sit at the wrap of the pattern, so restricting each scan
        # to the two mixed pairings is not labeling-safe; the component-level
        # adjacency is, and the four pairings cover every cross pair.
        selected = []
        for i in range(k):
            prev = (i - 1) % k
            cands, edges = zip(
                pairing_max(2 * i, 2 * prev + 1),
                pairing_max(2 * prev, 2 * i + 1),
                pairing_max(2 * i, 2 * prev),
                pairing_max(2 * i + 1, 2 * prev + 1),
            )
            components = component[2 * prev], component[2 * i]
            selected.append(_unique_max(cands, tol, lambda: f"connecting candidates of components {components}"))
            entries.append(StepFourEntry(components, edges, CandidateEdge(*selected[-1])))
        discarded = min(range(k), key=lambda t: selected[t][2])
        _certify(selected[discarded], selected, tol, lambda: "minimum among the connecting edges")
        kept = [c for t, c in enumerate(selected) if t != discarded]
        keys = np.concatenate([keys, [i * n + j for i, j, _ in kept]])
        weights = np.concatenate([weights, [w for _, _, w in kept]])

    join = _union_find(k)
    if keys.size != n - 1 or not all(
        join(int(g.component_of[i]), int(g.component_of[j])) for i, j, _ in kept
    ):
        raise StructureViolation("connecting edges did not produce a spanning tree")
    by = np.argsort(keys, kind="stable")  # the keys are distinct and sort as their pairs
    pairs = np.empty((n - 1, 2), dtype=np.intp)
    np.divmod(keys[by], n, out=(pairs[:, 0], pairs[:, 1]))
    # rebound, so the unsorted weights are freed before SpanningTree copies these
    weights = weights[by]
    tree = SpanningTree(pairs, weights)
    return tree, ConnectingEdgeReport(entries=tuple(entries), discarded=discarded)


def _cluster_ranges(g: FNGraph, hull: HullIndex, reps: np.ndarray):
    """``(by_rank, at, on_perm, on_at)``: the points grouped by the position
    of their cluster's representative in ``reps``, each cluster in index
    order, by one stable argsort, and the offsets where each group starts
    and the last ends; then the same for the positions of the points of
    ``hull.boundary``.  The ranks are the smallest integer type that holds
    them, which numpy sorts by radix."""
    rank = np.zeros(g.fn.size, dtype=np.min_scalar_type(reps.size))
    rank[reps] = np.arange(reps.size)
    key = rank[g.cluster_of]
    on_key = key[hull.boundary]
    at, on_at = (list(itertools.accumulate(np.bincount(r, minlength=reps.size).tolist(), initial=0))
                 for r in (key, on_key))
    return np.argsort(key, kind="stable"), at, np.argsort(on_key, kind="stable"), on_at


def _cluster_blocks(block: np.ndarray, r0: int, rects: dict, top: dict) -> None:
    """Merge into ``top[key]`` the best two entries ``(-w, r, c)`` of the
    part that ``block``, whose first row is row r0, holds of the rectangle
    ``rects[key] = (a, b, c0, c1)``: rows a:b and columns c0:c1 of the
    whole distance block.  r and c count from the rectangle's corner, and
    each list is sorted: heaviest first, then first in row-major order (one
    entry for a 1 x 1 rectangle).  A pass in row blocks
    (:func:`fng._row_blocks`) thus keeps nothing per row beyond its block."""
    for key, (a, b, c0, c1) in rects.items():
        lo, hi = max(a, r0), min(b, r0 + len(block))
        if lo < hi:
            found = _best_two(block[lo - r0 : hi - r0, c0:c1], lo - a)
            top[key] = sorted(top[key] + found)[:2] if key in top else found


def _best_two(rect: np.ndarray, r0: int) -> list[tuple[float, int, int]]:
    """``(-w, r0 + r, c)`` of a 2-D block's first maximum w, at (r, c), and
    of the first largest value at another position (none for a single
    value), in row-major order.  The maximum is left masked with -inf where
    the block is contiguous."""
    width = rect.shape[1]
    flat = rect.ravel()
    i = int(flat.argmax())
    w = flat.item(i)
    if flat.size == 1:
        return [(-w, r0, 0)]
    flat[i] = -np.inf
    j = int(flat.argmax())
    return [(-w, r0 + i // width, i % width), (-flat.item(j), r0 + j // width, j % width)]


def _unique_max(cands, tol: float, site):
    """The first heaviest of the ``(i, j, w)`` triples ``cands``, certified
    (:func:`_certify`)."""
    return _certify(max(cands, key=operator.itemgetter(2)), cands, tol, site)


def _certify(chosen, cands, tol: float, site):
    """``chosen``, an ``(i, j, w)`` triple; TiesPresent when one of the
    triples ``cands`` with another pair lies within tol of it, naming the
    decision ``site()``, which is only called then."""
    i, j, w = chosen
    for ci, cj, cw in cands:
        if (ci, cj) != (i, j) and _near(cw, w, tol):
            raise TiesPresent(f"tied {site()}: {(i, j)} and {(ci, cj)} within tol={tol:g}")
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
