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
monotone since the family shrinks); that transversal, the line of the
search's last feasible probe, is returned as the witness line of the split.
:func:`stabbing_line` scans the lines through pairs of segment endpoints on
plain floats, at most m^3 endpoint tests for m segments.  Each side's
diameter is taken over that side's points alone (:func:`diameter`), each
pair evaluated once; no n x n table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DegenerateSegment, TooLarge
from .fng import DEFAULT_TOL, PointSet, _triangle, distances_between
from .geometry import check_tol
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
    """Max pairwise distance within the subset (0 for at most one point).

    DegenerateInput when an index is not an integer (booleans included) or
    lies outside [0, n).
    """
    idx = np.array(sorted(subset))
    if len(idx) and idx.dtype.kind not in "iu":
        raise DegenerateInput(f"subset indices must be integers, got dtype {idx.dtype}")
    if len(idx) and (idx[0] < 0 or idx[-1] >= S.n):
        raise DegenerateInput(f"subset indices must lie in [0, {S.n})")
    idx = idx.astype(np.intp)
    if len(idx) <= 1:
        return 0.0
    iu, ju = np.triu_indices(len(idx), k=1)
    return float(distances_between(spec, S, idx[iu], idx[ju]).max())


def stabbing_line(segments, tol: float = DEFAULT_TOL) -> Line | None:
    """A line meeting every segment (within tol), or None if none exists.

    DegenerateInput on an empty family, which every line meets: there is
    no transversal to single out.

    If a family of segments has any transversal, it has one through two
    segment endpoints, so the lines through every pair of distinct endpoints
    (in first-seen order) are a complete candidate set; a single segment's
    own supporting line is the pair of its two endpoints.  Each candidate is
    tested on plain floats and abandoned at the first segment it misses.
    """
    check_tol(tol)
    segs = []
    for p, q in segments:
        pv, qv = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        if pv.shape != (2,) or qv.shape != (2,):
            raise DegenerateInput(
                f"segment endpoints must be 2-vectors, got shapes {pv.shape} and {qv.shape}"
            )
        px, py, qx, qy = *pv.tolist(), *qv.tolist()
        if px == qx and py == qy:
            raise DegenerateSegment("segment endpoints coincide")
        segs.append((px, py, qx, qy))
    if not segs:
        raise DegenerateInput("an empty segment family has every line as a transversal")
    # a dict keeps first-seen order and, like equality, merges -0.0 with 0.0
    ends = list(dict.fromkeys(e for px, py, qx, qy in segs for e in ((px, py), (qx, qy))))
    for i, p in enumerate(ends):
        for q in ends[i + 1 :]:
            line = line_through(p, q)
            a, b, c = line.a, line.b, line.c
            for px, py, qx, qy in segs:
                sp = a * px + b * py - c
                sq = a * qx + b * qy - c
                if min(sp, sq) > tol or max(sp, sq) < -tol:
                    break
            else:
                return line
    return None


def two_clustering(spec: NormSpec, S: PointSet, tol: float = DEFAULT_TOL) -> Bipartition:
    """Optimal 2-clustering minimizing the larger cluster diameter.

    Requires the tree construction's decisions to be tie-free
    (TiesPresent propagates from it).  The sides are the two color classes of the spanning
    tree's proper 2-coloring, with point 0 in side_a; the witness is a
    stabbing line for the tree edges longer than the minimal feasible
    length of the binary search.
    """
    n = S.n
    if n < 2:
        raise DegenerateInput("2-clustering needs at least two points")
    tree, _ = mxst_mpsy(spec, S, tol)

    by_length = np.argsort(tree.weights, kind="stable")
    lengths = tree.weights[by_length]
    segments = S.points[tree.edges[by_length]]  # (n - 1, 2, 2), shortest first

    def witness_for(idx: int):
        # the edges longer than lengths[idx] are a suffix of the sorted rows
        fam = segments[np.searchsorted(lengths, lengths[idx], side="right") :]
        if not len(fam):
            # empty family: any line works; pin the one through the longest
            # tree edge so the witness stays deterministic
            return line_through(*segments[-1])
        return stabbing_line(fam, tol)

    # minimal tree edge length whose longer-edge family admits a stabbing
    # line; feasibility is monotone because the family shrinks with the
    # threshold, and the empty family at the top is always feasible
    lo, hi = 0, len(lengths) - 1
    witness = None  # the line of the last feasible probe, which ends at lo
    while lo < hi:
        mid = (lo + hi) // 2
        line = witness_for(mid)
        if line is not None:
            hi, witness = mid, line
        else:
            lo = mid + 1
    if witness is None:
        witness = witness_for(lo)  # no probe was feasible: lo is the top
    return _bipartition(spec, S, *_tree_two_coloring(tree, n), witness)


def _tree_two_coloring(tree, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Proper 2-coloring of the spanning tree, side_a holding point 0."""
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in tree.edges.tolist():
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
