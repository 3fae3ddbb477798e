"""Maximum spanning trees of complete norm-distance graphs.

`mxst_mpsy` runs the Monma-Paterson-Suri-Yao construction: take all
furthest-neighbor edges, order the FNG components cyclically around the
hull, compute one candidate connecting edge per adjacent component pair
(restricting one endpoint to the hull boundary), and drop the shortest
candidate.  It computes the hull first and takes the furthest neighbors
over its b boundary points (:func:`fng._furthest`): b(b-1)/2 + (n-b) b
norm evaluations, no stored distances and no sort.  `connect_components`
does the rest from that graph and the hull, evaluating only the cluster x
boundary-cluster blocks it compares, each once per call (at k = 2 both
adjacent component pairs read the same eight blocks); callers that
already hold both (the invariant suite, the CLI's drawing) call it
directly.

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

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import StructureViolation, TiesPresent
from .fng import (
    DEFAULT_TOL,
    FNGraph,
    PointSet,
    _decompose,
    _furthest,
    _top2,
    _triangle,
    distances_between,
    order_components,
)
from .geometry import HullIndex, _IndexArrays, check_tol, convex_hull
from .norms import NormSpec


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
    hull = convex_hull(S.points, tol)
    g = _decompose(_furthest(spec, S.points, hull.boundary, tol))
    return connect_components(spec, S, g, hull, tol)


def connect_components(
    spec: NormSpec, S: PointSet, g: FNGraph, hull: HullIndex, tol: float = DEFAULT_TOL
) -> tuple[SpanningTree, ConnectingEdgeReport]:
    """The tree from a furthest-neighbor graph ``g`` of S and its hull.

    Orders the components around the hull, adds one connecting edge per
    cyclically adjacent component pair but the shortest, and validates the
    result (StructureViolation when the components do not alternate or the
    edges do not span).  TiesPresent when one of its decisions compares two
    distinct pairs within tol.
    """
    n = S.n
    cycle = order_components(g, hull)
    k = g.k

    # the FNG edges sorted(i, fn[i]), each spine once, at its smaller endpoint
    idx = np.arange(n)
    pairs = np.sort(np.stack([idx, g.fn], axis=1)[(g.fn[g.fn] != idx) | (idx < g.fn)], axis=1)
    entries: list[StepFourEntry] = []
    discarded: int | None = None

    if k > 1:
        members = g.cluster_members()
        x = cycle[:k].tolist()
        xp = cycle[k:].tolist()

        @functools.cache
        def block_max(ca: int, cb: int) -> tuple[CandidateEdge, ...]:
            # at k = 2 the two cyclically adjacent pairs are one pair, so
            # each ordered block is evaluated once and shared
            cols = members[cb][hull.position[members[cb]] >= 0]
            return _max_pair(spec, S, members[ca], cols)

        def pairing_max(ca: int, cb: int) -> CandidateEdge:
            # max over the pairing with either endpoint taking the
            # boundary-restricted role; the connecting edge has at least
            # one endpoint on the hull, so nothing is missed.  A pair with
            # both endpoints on the hull sits in both blocks.
            cands = block_max(ca, cb) + block_max(cb, ca)
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
        kept = [(e.selected.i, e.selected.j) for t, e in enumerate(entries) if t != discarded]
        pairs = np.concatenate([pairs, np.array(kept, dtype=np.intp)])

    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    tree = SpanningTree(pairs, distances_between(spec, S, pairs[:, 0], pairs[:, 1]))
    if not validate_tree(tree, n):
        raise StructureViolation("connecting edges did not produce a spanning tree")
    return tree, ConnectingEdgeReport(entries=tuple(entries), discarded=discarded)


def _max_pair(spec: NormSpec, S: PointSet, rows, cols) -> tuple[CandidateEdge, ...]:
    """The largest and the second-largest pair of the rows x cols distance
    block (disjoint index arrays), first maximum first; one for a 1 x 1 block."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    sub = distances_between(spec, S, rows[:, None], cols[None, :]).reshape(1, -1)
    (top,), _, (runner,), _ = _top2(sub, axis=1)
    flats = (top,) if sub.size == 1 else (top, runner)
    return tuple(_candidate(rows, cols, sub[0], int(f)) for f in flats)


def _candidate(rows, cols, sub, flat: int) -> CandidateEdge:
    r, c = divmod(flat, len(cols))
    u, v = int(rows[r]), int(cols[c])
    return CandidateEdge(i=min(u, v), j=max(u, v), weight=float(sub[flat]))


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
    picked = []
    for idx in np.lexsort((ju, iu, -w)):
        if join(int(iu[idx]), int(ju[idx])):
            picked.append(idx)
            if len(picked) == n - 1:
                break
    picked.sort()  # flat upper-triangle positions order pairs as (i, j) does
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
