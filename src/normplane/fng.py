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

Ties are read from that flat triangle (``np.triu_indices`` order) alone, by
one tied-pair scan (:func:`_tie_offsets`) and one chunked gap scan
(:func:`_gaps`); :func:`pairwise_distances` is the triangle mirrored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    DuplicatePoints,
    StructureViolation,
    TiesPresent,
)
from .geometry import DEFAULT_TOL, HullIndex, check_points
from .norms import NormSpec, norm_many

# distances evaluated per row block of the streamed pass, and values per
# chunk of its gap scan; bounds the pass's temporaries independently of n
_BLOCK = 1 << 14


@dataclass(frozen=True)
class PointSet:
    """Indexed planar points; duplicates and non-finite coordinates rejected."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        check_points(pts)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)


def pairwise_distances(spec: NormSpec, S: PointSet) -> np.ndarray:
    """Full symmetric distance table (n x n, zero diagonal): the mirrored triangle."""
    iu, ju, vals = _triangle(spec, S)
    d = np.zeros((S.n, S.n))
    d[iu, ju] = d[ju, iu] = vals
    return d


def _triangle(spec: NormSpec, S: PointSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(iu, ju, vals)`` over pairs i < j in ``np.triu_indices`` order; DuplicatePoints on 0."""
    iu, ju = np.triu_indices(S.n, k=1)
    vals = distances_between(spec, S, iu, ju)
    if np.any(vals <= 0.0):
        raise DuplicatePoints("zero off-diagonal distance: duplicate points")
    return iu, ju, vals


def detect_ties(table, tol: float = DEFAULT_TOL) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All unordered pairs of index pairs whose distances agree within tol.

    An empty result certifies the all-distances-distinct precondition the
    structure theory (and :func:`mxst.mxst_mpsy`) relies on.  The list is
    sorted, each entry ordered as (smaller pair, larger pair).
    """
    t = np.asarray(table, dtype=float)
    iu, ju = np.triu_indices(t.shape[0], k=1)
    lo, hi = _tied_pairs(t[iu, ju], tol)
    return list(zip(
        zip(iu[lo].tolist(), ju[lo].tolist()),
        zip(iu[hi].tolist(), ju[hi].tolist()),
    ))


def _tied_pairs(vals: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(lo, hi)``, lo < hi, of every two values within tol, lexsorted.

    Flat upper-triangle positions order pairs as (i, j) tuples do.
    """
    order = np.argsort(vals)
    runs = [(0, np.empty(0, dtype=np.intp)), *_tie_offsets(vals[order], tol)]
    a = order[np.concatenate([hits for _, hits in runs])]
    b = order[np.concatenate([hits + d for d, hits in runs])]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = np.lexsort((hi, lo))
    return lo[keep], hi[keep]


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


def _gaps(sv: np.ndarray):
    """The gaps ``sv[a + 1] - sv[a]`` of sorted values, in chunks of ``_BLOCK``."""
    for s in range(0, len(sv) - 1, _BLOCK):
        e = min(s + _BLOCK, len(sv) - 1)
        yield sv[s + 1 : e + 1] - sv[s:e]


@dataclass
class FNGraph:
    """Furthest-neighbor out-map plus its component/cluster decomposition.

    ``cluster_of[i]`` is the spine endpoint whose cluster contains i (the
    endpoint reachable from i by a directed path of even length).
    """

    fn: tuple[int, ...]
    spines: tuple[tuple[int, int], ...]
    component_of: tuple[int, ...]
    cluster_of: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.spines)

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
    if any(np.any(g <= tol) for g in _gaps(vals)):
        count = sum(hits.size for _, hits in _tie_offsets(vals, tol))
        raise TiesPresent(f"{count} tied distance pairs at tol={tol:g}")
    return _decompose(fn)


def _triangle_pass(spec: NormSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Furthest-neighbor map and the strict upper triangle of distances.

    Returns ``(fn, vals)``: ``vals`` equals ``table[np.triu_indices(n, 1)]``
    of :func:`pairwise_distances` bit for bit, each distance evaluated once
    as ``||p_i - p_j||`` with i < j, and ``fn`` equals that (mirrored)
    table's row argmax with the diagonal masked (first index on equal
    values).
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


def _decompose(fn) -> FNGraph:
    """Spines, clusters and components of a furthest-neighbor map."""
    fn = [int(f) for f in fn]
    n = len(fn)
    spines = [(i, j) for i, j in enumerate(fn) if fn[j] == i and i < j]

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
        # walking back one edge flips the cluster to the partner endpoint,
        # which is the endpoint's own furthest neighbor
        for u in reversed(chain):
            cluster_of[u] = fn[cluster_of[fn[u]]]

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

    :func:`pairwise_distances` is built from these values with rows < cols.
    """
    return norm_many(spec, _differences(S.points, rows, cols))


def order_components(g: FNGraph, hull: HullIndex) -> tuple[int, ...]:
    """Cluster representatives in cyclic order around the hull boundary.

    The 2k spine endpoints, sorted by hull rank, must read as
    x_1, ..., x_k, x'_1, ..., x'_k with each (x_i, x'_i) a spine; any other
    pattern signals numerical trouble or an undetected tie.  ``g`` is left
    unchanged.
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
    return tuple(seq)
