"""Maximum spanning trees of complete norm-distance graphs.

`mxst_mpsy` runs the Monma-Paterson-Suri-Yao construction: take all
furthest-neighbor edges, order the FNG components cyclically around the
hull, compute one candidate connecting edge per adjacent component pair
(restricting one endpoint to the hull boundary), and drop the shortest
candidate.  The furthest neighbors and the all-distances-distinct
certificate come from one streamed pass over the distance triangle
(:func:`fng.build_fng`): n(n-1)/2 norm evaluations, a flat vector of about
8 n^2 / 2 bytes and no n x n table.  `connect_components` does the rest
from that graph and the hull, evaluating only the cluster x
boundary-cluster blocks it compares; callers that already hold both (the
invariant suite, the CLI's drawing) call it directly.  `mxst_bruteforce`
is the independent descending-greedy oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureViolation
from .fng import (
    DEFAULT_TOL,
    FNGraph,
    PointSet,
    _triangle,
    build_fng,
    distances_between,
    order_components,
)
from .geometry import HullIndex, convex_hull
from .norms import NormSpec


@dataclass(frozen=True)
class SpanningTree:
    """n-1 weighted undirected edges (i < j), plus the total weight."""

    edges: tuple[tuple[int, int, float], ...]
    total_weight: float

    def edge_set(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.edges}


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

    Requires all pairwise distances distinct within tol (TiesPresent
    otherwise).  Returns the tree and the per-component-pair report of
    connecting-edge candidates.
    """
    if S.n <= 1:
        return SpanningTree(edges=(), total_weight=0.0), ConnectingEdgeReport((), None)
    g = build_fng(spec, S, tol)
    hull = convex_hull(S.points, tol)
    return connect_components(spec, S, g, hull)


def connect_components(
    spec: NormSpec, S: PointSet, g: FNGraph, hull: HullIndex
) -> tuple[SpanningTree, ConnectingEdgeReport]:
    """The tree from a tie-free furthest-neighbor graph ``g`` of S and its hull.

    Orders the components around the hull, adds one connecting edge per
    cyclically adjacent component pair but the shortest, and validates the
    result (StructureViolation when the components do not alternate or the
    edges do not span).
    """
    n = S.n
    cycle = order_components(g, hull)
    k = g.k

    edge_set = g.undirected_edges()
    entries: list[StepFourEntry] = []
    discarded: int | None = None

    if k > 1:
        members = g.cluster_members()
        boundary_members = {
            rep: [i for i in pts if i in hull.boundary] for rep, pts in members.items()
        }
        x = cycle[:k]
        xp = cycle[k:]

        def pairing_max(ca: int, cb: int) -> CandidateEdge:
            # max over the pairing with either endpoint taking the
            # boundary-restricted role; the connecting edge has at least
            # one endpoint on the hull, so nothing is missed
            lhs = _max_pair(spec, S, members[ca], boundary_members[cb])
            rhs = _max_pair(spec, S, members[cb], boundary_members[ca])
            return lhs if lhs.weight >= rhs.weight else rhs

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
            selected = max(cands, key=lambda c: c.weight)
            entries.append(
                StepFourEntry(
                    components=(g.component_of[x[prev]], g.component_of[x[i]]),
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


def _max_pair(spec: NormSpec, S: PointSet, rows: list[int], cols: list[int]) -> CandidateEdge:
    """The first maximum of the rows x cols distance block."""
    sub = distances_between(spec, S, np.asarray(rows)[:, None], np.asarray(cols)[None, :])
    flat = int(np.argmax(sub))
    u = rows[flat // len(cols)]
    v = cols[flat % len(cols)]
    return CandidateEdge(i=min(u, v), j=max(u, v), weight=float(sub.flat[flat]))


def mxst_bruteforce(spec: NormSpec, S: PointSet) -> SpanningTree:
    """Descending-greedy (maximum-Kruskal) oracle over all n(n-1)/2 edges.

    Ties at equal weight are broken lexicographically by (i, j), which makes
    the result deterministic even for tied inputs.
    """
    n = S.n
    if n <= 1:
        return SpanningTree(edges=(), total_weight=0.0)
    iu, ju, w = _triangle(spec, S)
    join = _union_find(n)
    edges = []
    for idx in np.lexsort((ju, iu, -w)):
        i, j = int(iu[idx]), int(ju[idx])
        if join(i, j):
            edges.append((i, j, float(w[idx])))
            if len(edges) == n - 1:
                break
    edges.sort()
    return SpanningTree(
        edges=tuple(edges), total_weight=float(sum(e[2] for e in edges))
    )


def validate_tree(t: SpanningTree, n: int) -> bool:
    """Connectivity + acyclicity + edge-count check via component merging."""
    if n <= 1:
        return len(t.edges) == 0
    if len(t.edges) != n - 1:
        return False
    join = _union_find(n)
    for i, j, _ in t.edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            return False
        if not join(i, j):  # duplicate edge or cycle
            return False
    return True


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
