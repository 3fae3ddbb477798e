"""Min-max-diameter 2-clustering via the maximum spanning tree.

The clusters are the two color classes of the proper 2-coloring of the
maximum spanning tree.  That partition is optimal for any norm: if a pair
is further apart than some bipartition's value, every edge on its tree path
is at least that far (max-tree bottleneck property), so that bipartition
must separate each path edge and the pair ends up together exactly when the
path has even length; the alternating coloring therefore attains the best
possible value, the largest even-path pair distance.

A binary search over the sorted tree edge lengths also locates the minimal
length whose longer-edge family admits a stabbing line (feasibility is
monotone since the family shrinks); that transversal is returned as the
witness line of the split.  Each side's diameter is taken over that side's
points alone (:func:`diameter`), each pair evaluated once; no n x n table is
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DegenerateSegment, TooLarge
from .fng import DEFAULT_TOL, PointSet, _triangle, distances_between
from .mxst import mxst_mpsy
from .norms import NormSpec


@dataclass(frozen=True)
class Line:
    """The line a*x + b*y = c with (a, b) a Euclidean unit normal."""

    a: float
    b: float
    c: float

    def eval(self, pts) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        return p[..., 0] * self.a + p[..., 1] * self.b - self.c


def line_through(p, q) -> Line:
    """Normalized line through two distinct points, with a canonical sign."""
    px, py = float(p[0]), float(p[1])
    qx, qy = float(q[0]), float(q[1])
    nx, ny = py - qy, qx - px
    length = math.hypot(nx, ny)
    if length == 0.0:
        raise DegenerateInput("line through coincident points")
    a, b = nx / length, ny / length
    c = a * px + b * py
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b, c = -a, -b, -c
    return Line(a=a, b=b, c=c)


@dataclass(frozen=True)
class Bipartition:
    """A 2-clustering: disjoint index sets covering S with their diameters."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    diam_a: float
    diam_b: float
    value: float
    witness_line: Line | None


def diameter(spec: NormSpec, S: PointSet, subset) -> float:
    """Max pairwise distance within the subset (0 for at most one point)."""
    idx = np.array(sorted(subset), dtype=np.intp)
    if len(idx) <= 1:
        return 0.0
    iu, ju = np.triu_indices(len(idx), k=1)
    return float(distances_between(spec, S, idx[iu], idx[ju]).max())


def _segment_arrays(segments):
    segs = []
    for p, q in segments:
        pv = np.asarray(p, dtype=float)
        qv = np.asarray(q, dtype=float)
        if np.array_equal(pv, qv):
            raise DegenerateSegment("segment endpoints coincide")
        segs.append((pv, qv))
    return segs


def _line_stabs_all(line: Line, segs, tol: float) -> bool:
    for p, q in segs:
        sp = float(line.eval(p))
        sq = float(line.eval(q))
        if min(sp, sq) > tol or max(sp, sq) < -tol:
            return False
    return True


def _candidate_lines(segs):
    """Lines through every pair of distinct segment endpoints.

    If a family of segments has any transversal, it has one through two
    endpoints, so this candidate set is complete; a single segment's own
    supporting line is the pair of its two endpoints.
    """
    endpoints = []
    seen = set()
    for p, q in segs:
        for v in (p, q):
            key = (float(v[0]), float(v[1]))
            if key not in seen:
                seen.add(key)
                endpoints.append(v)
    for i in range(len(endpoints)):
        for j in range(i + 1, len(endpoints)):
            yield line_through(endpoints[i], endpoints[j])


def stabbing_line(segments, tol: float = DEFAULT_TOL) -> Line | None:
    """A line meeting every segment (within tol), or None if none exists."""
    segs = _segment_arrays(segments)
    if not segs:
        return None
    for line in _candidate_lines(segs):
        if _line_stabs_all(line, segs, tol):
            return line
    return None


def two_clustering(spec: NormSpec, S: PointSet, tol: float = DEFAULT_TOL) -> Bipartition:
    """Optimal 2-clustering minimizing the larger cluster diameter.

    Requires tie-free distances (TiesPresent propagates from the tree
    construction).  The sides are the two color classes of the spanning
    tree's proper 2-coloring, with point 0 in side_a; the witness is a
    stabbing line for the tree edges longer than the minimal feasible
    length of the binary search.
    """
    n = S.n
    if n < 2:
        raise DegenerateInput("2-clustering needs at least two points")
    tree, _ = mxst_mpsy(spec, S, tol)

    by_length = sorted(tree.edges, key=lambda e: e[2])
    lengths = [e[2] for e in by_length]
    longest = by_length[-1]

    def witness_for(idx: int):
        fam = [(i, j) for i, j, w in by_length if w > lengths[idx]]
        if not fam:
            # empty family: any line works; pin the one through the longest
            # tree edge so the witness stays deterministic
            return line_through(S.points[longest[0]], S.points[longest[1]])
        return stabbing_line([(S.points[i], S.points[j]) for i, j in fam], tol)

    # minimal tree edge length whose longer-edge family admits a stabbing
    # line; feasibility is monotone because the family shrinks with the
    # threshold, and the empty family at the top is always feasible
    lo, hi = 0, len(lengths) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if witness_for(mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    return _bipartition(spec, S, *_tree_two_coloring(tree, n), witness_for(lo))


def _tree_two_coloring(tree, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Proper 2-coloring of the spanning tree, side_a holding point 0."""
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j, _ in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    color = [-1] * n
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if color[v] == -1:
                color[v] = 1 - color[u]
                stack.append(v)
    side_a = tuple(i for i in range(n) if color[i] == 0)
    side_b = tuple(i for i in range(n) if color[i] == 1)
    return side_a, side_b


def _bipartition(spec: NormSpec, S: PointSet, side_a, side_b, witness) -> Bipartition:
    diam_a = diameter(spec, S, side_a)
    diam_b = diameter(spec, S, side_b)
    return Bipartition(
        side_a=side_a,
        side_b=side_b,
        diam_a=diam_a,
        diam_b=diam_b,
        value=max(diam_a, diam_b),
        witness_line=witness,
    )


def two_clustering_bruteforce(spec: NormSpec, S: PointSet) -> Bipartition:
    """Exhaustive minimum of max(diam_a, diam_b) over all 2^(n-1) splits.

    Value ties between bipartitions are broken by the lexicographically
    smallest side_a (the side containing point 0).
    """
    n = S.n
    if n < 2:
        raise DegenerateInput("2-clustering needs at least two points")
    if n > 16:
        raise TooLarge(f"exhaustive 2-clustering is limited to n <= 16, got {n}")
    iu, ju, w = _triangle(spec, S)
    desc = np.argsort(-w, kind="stable")
    pairs = [(int(iu[t]), int(ju[t]), float(w[t])) for t in desc]

    best_value = math.inf
    best_mask = 0
    best_key: tuple[int, ...] | None = None
    for mask in range(1 << (n - 1)):
        full = mask << 1  # point 0 stays in side_a
        value = 0.0
        for i, j, wij in pairs:
            if ((full >> i) & 1) == ((full >> j) & 1):
                value = wij
                break
        if value > best_value:
            continue
        key = tuple(t for t in range(n) if not (full >> t) & 1)
        if value < best_value or key < best_key:
            best_value = value
            best_mask = full
            best_key = key
    side_a = tuple(t for t in range(n) if not (best_mask >> t) & 1)
    side_b = tuple(t for t in range(n) if (best_mask >> t) & 1)
    return _bipartition(spec, S, side_a, side_b, None)
