"""Furthest-neighbor graphs: out-maps, spines, clusters, cyclic component order.

With all pairwise distances distinct, every point has a unique furthest
neighbor; following that map, distances strictly increase until a 2-cycle
(a *spine*) is reached.  Each spine determines a component, split into two
clusters by the parity of the path length to the spine endpoints.

:func:`build_fng` needs no n x n table.  One streamed pass walks the strict
upper triangle of the distance matrix in row blocks, evaluating each of the
n(n-1)/2 distances once; it keeps running row and column maxima (the
furthest-neighbor map) and copies the values into one flat vector of about
8 n^2 / 2 bytes, whose sorted gaps certify that all distances are distinct.
This pass is the seam where a furthest-site Voronoi structure could replace
the quadratic scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    DuplicatePoints,
    FurthestTie,
    StructureViolation,
    TiesPresent,
)
from .geometry import HullIndex, check_distinct
from .norms import NormSpec, norm_many

DEFAULT_TOL = 1e-9

# distances evaluated per row block of the streamed pass, and values per
# chunk of its gap scan; bounds the pass's temporaries independently of n
_BLOCK = 1 << 14


@dataclass(frozen=True)
class PointSet:
    """Indexed planar points; duplicates and non-finite coordinates rejected."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DegenerateInput(f"expected an (n, 2) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DegenerateInput("point set contains non-finite coordinates")
        check_distinct(pts)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)


def pairwise_distances(spec: NormSpec, S: PointSet) -> np.ndarray:
    """Full symmetric distance table (n x n, zero diagonal)."""
    pts = S.points
    diff = pts[:, None, :] - pts[None, :, :]
    d = norm_many(spec, diff)
    off = ~np.eye(len(pts), dtype=bool)
    if np.any(d[off] <= 0.0):
        raise DuplicatePoints("zero off-diagonal distance: duplicate points")
    return d


def detect_ties(table, tol: float = DEFAULT_TOL) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All unordered pairs of index pairs whose distances agree within tol.

    An empty result certifies the all-distances-distinct precondition the
    structure theory (and :func:`mxst.mxst_mpsy`) relies on.  The list is
    sorted, each entry ordered as (smaller pair, larger pair).
    """
    t = np.asarray(table, dtype=float)
    n = t.shape[0]
    if n < 2:
        return []
    iu, ju = np.triu_indices(n, k=1)
    vals = t[iu, ju]
    order = np.argsort(vals)
    sv = vals[order]
    runs = list(_tie_offsets(sv, tol))
    if not runs:
        return []
    a = np.concatenate([hits for _, hits in runs])
    b = np.concatenate([hits + d for d, hits in runs])
    # the flat upper-triangle index orders pairs as (i, j) tuples do
    lo = np.minimum(order[a], order[b])
    hi = np.maximum(order[a], order[b])
    keep = np.lexsort((hi, lo))
    lo, hi = lo[keep], hi[keep]
    return list(zip(
        zip(iu[lo].tolist(), ju[lo].tolist()),
        zip(iu[hi].tolist(), ju[hi].tolist()),
    ))


def _tie_offsets(sv: np.ndarray, tol: float):
    """Yield (d, a) for d = 1, 2, ...: the positions a with sv[a + d] - sv[a] <= tol.

    ``sv`` is sorted, so for each a the gap grows with d: the hits at
    offset d are among those at d - 1, and the walk ends at the first
    offset without any.  Together the offsets list every tied pair once.
    """
    a = np.flatnonzero(sv[1:] - sv[:-1] <= tol)
    d = 1
    while a.size:
        yield d, a
        d += 1
        a = a[a + d < len(sv)]
        a = a[sv[a + d] - sv[a] <= tol]


def _has_tie(sv: np.ndarray, tol: float) -> bool:
    """Whether two consecutive sorted values lie within tol, scanned in chunks."""
    for s in range(0, len(sv) - 1, _BLOCK):
        e = min(s + _BLOCK, len(sv) - 1)
        if np.any(sv[s + 1 : e + 1] - sv[s:e] <= tol):
            return True
    return False


def furthest_neighbor(spec: NormSpec, S: PointSet, i: int, tol: float = DEFAULT_TOL) -> int:
    """Index of the unique furthest point from point i (O(n) scan).

    This scan is the seam where a furthest-site Voronoi query structure
    could be substituted for sub-quadratic builds.
    """
    if S.n < 2:
        raise DegenerateInput("need at least two points")
    row = norm_many(spec, S.points - S.points[i])
    row[i] = -math.inf
    j = int(np.argmax(row))
    second = np.partition(row, -2)[-2]
    if row[j] - second <= tol:
        raise FurthestTie(f"furthest neighbor of point {i} is tied within {tol}")
    return j


@dataclass
class FNGraph:
    """Furthest-neighbor out-map plus its component/cluster decomposition.

    ``cluster_of[i]`` is the spine endpoint whose cluster contains i (the
    endpoint reachable from i by a directed path of even length);
    ``component_cycle`` is filled by :func:`order_components`.
    """

    fn: tuple[int, ...]
    spines: tuple[tuple[int, int], ...]
    component_of: tuple[int, ...]
    cluster_of: tuple[int, ...]
    component_cycle: tuple[int, ...] | None = field(default=None)

    @property
    def k(self) -> int:
        return len(self.spines)

    def partner(self, rep: int) -> int:
        for x, xp in self.spines:
            if rep == x:
                return xp
            if rep == xp:
                return x
        raise KeyError(f"{rep} is not a spine endpoint")

    def cluster_members(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, rep in enumerate(self.cluster_of):
            out.setdefault(rep, []).append(i)
        return out

    def undirected_edges(self) -> set[tuple[int, int]]:
        """FNG edges as undirected pairs; each spine collapses to one edge."""
        return {(min(i, f), max(i, f)) for i, f in enumerate(self.fn)}


def build_fng(spec: NormSpec, S: PointSet, tol: float = DEFAULT_TOL) -> FNGraph:
    """Construct the furthest-neighbor graph; distances must be tie-free.

    Raises DuplicatePoints on a zero distance, then TiesPresent when two
    distances agree within tol (as ``detect_ties`` would report), without
    building the n x n table.
    """
    if S.n < 2:
        raise DegenerateInput("need at least two points")
    fn, vals = _triangle_pass(spec, S.points)
    vals.sort()
    if vals[0] <= 0.0:
        raise DuplicatePoints("zero off-diagonal distance: duplicate points")
    if _has_tie(vals, tol):
        count = sum(hits.size for _, hits in _tie_offsets(vals, tol))
        raise TiesPresent(f"{count} tied distance pairs at tol={tol:g}")
    return _decompose(fn)


def _triangle_pass(spec: NormSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Furthest-neighbor map and the strict upper triangle of distances.

    Returns ``(fn, vals)``: ``vals`` equals ``table[np.triu_indices(n, 1)]``
    of :func:`pairwise_distances` bit for bit, each distance evaluated once
    as ``||p_i - p_j||`` with i < j, and ``fn`` equals that table's row
    argmax with the diagonal masked (first index on equal values) whenever
    ``||-v|| == ||v||`` exactly, as for every exactly symmetric norm.
    Rows are taken in blocks of about ``_BLOCK`` distances, held in a
    (rows x later columns) trapezoid whose lower-left corner is -inf.  Row
    i's entries left of the diagonal are the earlier rows' column entries,
    so its maximum is the running column maximum, then the block row's.
    """
    n = len(pts)
    vals = np.empty(n * (n - 1) // 2)
    best = np.full(n, -np.inf)  # max of d(i, j) over the rows i < j seen so far
    fn = np.zeros(n, dtype=np.intp)
    step = min(max(1, _BLOCK // n), n - 1)
    upper = np.triu(np.ones((step, n - 1), dtype=bool))  # column j > row i
    tri_i, tri_j = np.triu_indices(step, k=1)
    k = 0
    for r0 in range(0, n - 1, step):
        r1 = min(r0 + step, n - 1)
        b = r1 - r0
        block = np.full((b, n - 1 - r0), -np.inf)  # columns r0 + 1 .. n - 1
        iu, ju = (tri_i, tri_j) if b == step else np.triu_indices(b, k=1)
        block[iu, ju - 1] = norm_many(spec, _differences(pts, r0 + iu, r0 + ju))
        block[:, b - 1 :] = norm_many(
            spec, _differences(pts, np.arange(r0, r1)[:, None], np.arange(r1, n))
        )

        col_best = block.max(axis=0)
        raised = col_best > best[r0 + 1 :]
        best[r0 + 1 :][raised] = col_best[raised]
        fn[r0 + 1 :][raised] = block.argmax(axis=0)[raised] + r0

        row_best = block.max(axis=1)
        raised = row_best > best[r0:r1]
        fn[r0:r1][raised] = block.argmax(axis=1)[raised] + r0 + 1

        row_major = block[upper[:b, : block.shape[1]]]
        vals[k : k + row_major.size] = row_major
        k += row_major.size
    return fn, vals


def _differences(pts: np.ndarray, rows, cols) -> np.ndarray:
    """``p_r - p_c`` over broadcast index arrays, shape (..., 2).

    Each coordinate plane is stored contiguously, so the norm reads its
    components without a stride.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    out = np.empty((2, *np.broadcast_shapes(rows.shape, cols.shape)))
    for c in (0, 1):
        np.subtract(pts[rows, c], pts[cols, c], out=out[c])
    return np.moveaxis(out, 0, -1)


def fng_from_table(table: np.ndarray) -> FNGraph:
    """FNG decomposition from a (tie-free) distance table."""
    n = table.shape[0]
    if n < 2:
        raise DegenerateInput("need at least two points")
    masked = table.copy()
    np.fill_diagonal(masked, -math.inf)
    return _decompose(masked.argmax(axis=1))


def _decompose(fn) -> FNGraph:
    """Spines, clusters and components of a furthest-neighbor map."""
    fn = [int(f) for f in fn]
    n = len(fn)
    spines = [(i, j) for i, j in enumerate(fn) if fn[j] == i and i < j]

    partner = {}
    for x, xp in spines:
        partner[x] = xp
        partner[xp] = x

    cluster_of = [-1] * n
    for start in range(n):
        if cluster_of[start] != -1:
            continue
        chain = []
        cur = start
        while cluster_of[cur] == -1:
            if fn[fn[cur]] == cur:  # landed on a spine endpoint
                cluster_of[cur] = cur
                break
            chain.append(cur)
            cur = fn[cur]
        # walking back one edge flips the cluster to the partner endpoint
        for u in reversed(chain):
            cluster_of[u] = partner[cluster_of[fn[u]]]

    comp_of_rep = {}
    for si, (x, xp) in enumerate(spines):
        comp_of_rep[x] = si
        comp_of_rep[xp] = si
    component_of = tuple(comp_of_rep[rep] for rep in cluster_of)

    return FNGraph(
        fn=tuple(fn),
        spines=tuple(spines),
        component_of=component_of,
        cluster_of=tuple(cluster_of),
    )


def distances_between(spec: NormSpec, S: PointSet, rows, cols) -> np.ndarray:
    """``||p_r - p_c||`` over broadcast index arrays ``rows`` and ``cols``.

    Evaluated as :func:`pairwise_distances` does, so ``rows < cols`` gives
    its upper-triangle values bit for bit.
    """
    return norm_many(spec, _differences(S.points, rows, cols))


def order_components(g: FNGraph, hull: HullIndex) -> tuple[int, ...]:
    """Cluster representatives in cyclic order around the hull boundary.

    The 2k spine endpoints, sorted by hull rank, must read as
    x_1, ..., x_k, x'_1, ..., x'_k with each (x_i, x'_i) a spine; any other
    pattern signals numerical trouble or an undetected tie.  The resulting
    cycle is cached on ``g.component_cycle``.
    """
    reps = [x for s in g.spines for x in s]
    missing = [r for r in reps if r not in hull.boundary]
    if missing:
        raise StructureViolation(f"spine endpoints {missing} not on hull boundary")
    seq = sorted(reps, key=lambda r: hull.position[r])
    k = len(g.spines)
    spine_set = {frozenset(s) for s in g.spines}
    for t in range(k):
        if frozenset((seq[t], seq[t + k])) not in spine_set:
            raise StructureViolation(
                "spine endpoints do not alternate as x_1..x_k x'_1..x'_k around the hull"
            )
    cycle = tuple(seq)
    g.component_cycle = cycle
    return cycle
