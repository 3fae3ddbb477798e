"""Min-max-diameter 2-clustering via the maximum spanning tree.

The clusters are the two color classes of the proper 2-coloring of the
maximum spanning tree.  That partition is optimal for any norm: if a pair
is further apart than some bipartition's value, every edge on its tree path
is at least that far (max-tree bottleneck property), so that bipartition
must separate each path edge and the pair ends up together exactly when the
path has even length; the alternating coloring therefore attains the best
possible value, the largest even-path pair distance.

The coloring is read off the construction's own structure, with no
traversal (:func:`_two_coloring`).  The tree is the furthest-neighbor
graph, a forest of k components, plus the k - 1 kept connecting edges.
Point i and its cluster representative ``cluster_of[i]`` are joined by an
even-length furthest-neighbor path, so they share a color; a spine is one
edge, so its two endpoints' clusters differ.  That colors each component
up to a swap.  The kept edges join every cyclically adjacent pair of
components but the discarded one, so they form a path over the components,
starting at the discarded edge's later component: walking it, each next
component is swapped exactly when its connecting edge would otherwise
join one color.

A binary search over the sorted tree edge lengths also locates the minimal
length whose longer-edge family admits a stabbing line (feasibility is
monotone since the family shrinks); that transversal, the line of the
search's last feasible probe, is returned as the witness line of the split.
The search hands each probe's family, as plain float rows, straight to
the scan :func:`_stab`: tree edges join distinct finite points, so only
the public :func:`stabbing_line` reads and checks a family, segment by
segment; both first check that every candidate line lies in the float
range (:func:`_check_span`).  The scan tests the lines through pairs of
segment endpoints, at most m^3 endpoint tests for m segments, each with
inline arithmetic, and reports the endpoint pair of the line it finds.
Every family probed after a feasible one contains it, so the search holds
the newest pair found (at first, the longest edge's) and, before scanning,
tests that one candidate on each probe in O(m): the scan restricted to
the pair, whose one line is the full scan's own candidate, so if it
stabs, the full scan would find a line too.  The full scan runs only when
the held line misses, and once more at the end on the last feasible
family when a held line decided it, so the probes and the witness line
are those of a scan at every probe.

Each side's diameter is taken over that side's points alone
(:func:`diameter`), as the largest block maximum of the row-blocked pass
(:func:`fng._row_blocks`) over the side against itself, with no n x n
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DegenerateSegment, TooLarge
from .fng import DEFAULT_TOL, FNGraph, PointSet, _finite, _row_blocks, _stages, _triangle
from .geometry import check_tol
from .mxst import ConnectingEdgeReport, connect_components
from .norms import NormSpec

_NON_FINITE = "segment endpoints must be finite"
_BEYOND = "a line through two of the points lies beyond the float range"


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
    if not (math.isfinite(length) and math.isfinite(c)):
        raise DegenerateInput(_BEYOND)
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

    The largest block maximum of the subset's rows against its own columns,
    taken in row blocks of about ``fng._BLOCK`` distances.  DegenerateInput
    when an index is not an integer (booleans included) or lies outside
    [0, n), and when the diameter lies beyond the float range.
    """
    idx = np.array(sorted(subset))
    if len(idx) and idx.dtype.kind not in "iu":
        raise DegenerateInput(f"subset indices must be integers, got dtype {idx.dtype}")
    if len(idx) and (idx[0] < 0 or idx[-1] >= S.n):
        raise DegenerateInput(f"subset indices must lie in [0, {S.n})")
    if len(idx) <= 1:
        return 0.0
    d = np.max(_row_blocks(spec, S.points, idx, idx, lambda _, block: block.max()))
    return float(_finite(d))  # np.max, unlike max, keeps a nan block maximum


def stabbing_line(segments, tol: float = DEFAULT_TOL) -> Line | None:
    """A line meeting every segment (within tol), or None if none exists.

    The family, in any iterable form, is read segment by segment and the
    first bad segment raises: DegenerateInput for an endpoint that is not a
    finite 2-vector, DegenerateSegment for coincident endpoints.  An empty
    family, which every line meets, is DegenerateInput.  The rows read go
    to the scan :func:`_stab`.
    """
    check_tol(tol)
    segs = []
    for p, q in segments:
        try:
            pv, qv = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        except OverflowError as exc:
            raise DegenerateInput(_NON_FINITE) from exc
        if pv.shape != (2,) or qv.shape != (2,):
            raise DegenerateInput(
                f"segment endpoints must be 2-vectors, got shapes {pv.shape} and {qv.shape}"
            )
        px, py, qx, qy = *pv.tolist(), *qv.tolist()
        if not all(map(math.isfinite, (px, py, qx, qy))):
            raise DegenerateInput(_NON_FINITE)
        if px == qx and py == qy:
            raise DegenerateSegment("segment endpoints coincide")
        segs.append((px, py, qx, qy))
    if not segs:
        raise DegenerateInput("an empty segment family has every line as a transversal")
    _check_span(np.reshape(segs, (-1, 2)))
    pair = _stab(segs, tol)
    return None if pair is None else line_through(*pair)


def _check_span(pts: np.ndarray) -> None:
    """DegenerateInput unless every line through two of the finite points
    ``pts`` (m, 2) lies in the float range, as two sufficient bounds on
    plain floats say: the Euclidean diagonal of their bounding box bounds
    the length of such a line's normal ``(py - qy, qx - px)``, and
    ``hypot(max |x|, max |y|)`` its offset."""
    (x_lo, y_lo), (x_hi, y_hi) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    diagonal = math.hypot(x_hi - x_lo, y_hi - y_lo)
    reach = math.hypot(max(-x_lo, x_hi), max(-y_lo, y_hi))
    if not (math.isfinite(diagonal) and math.isfinite(reach)):
        raise DegenerateInput(_BEYOND)


def _stab(segs, tol: float, pair=None):
    """The endpoint pair ``((px, py), (qx, qy))`` whose :func:`line_through`
    is :func:`stabbing_line` of a non-empty list of ``(px, py, qx, qy)``
    rows of finite floats with distinct endpoints, in the float range
    (:func:`_check_span`), at an accepted tol, or None.

    If a family of segments has any transversal, it has one through two
    segment endpoints, so the lines through every pair of distinct endpoints
    (in first-seen order) are a complete candidate set; a single segment's
    own supporting line is the pair of its two endpoints.  Each candidate is
    tested on plain floats and abandoned at the first segment it misses.
    Given ``pair``, two of the family's endpoints, the scan is restricted
    to them: its one candidate is their line, taken from the endpoint the
    family meets first, as the full scan takes it.
    """
    if pair is None:
        # a dict keeps first-seen order and, like equality, merges -0.0 with 0.0
        ends = list(dict.fromkeys(e for px, py, qx, qy in segs for e in ((px, py), (qx, qy))))
    else:
        first = next(e for px, py, qx, qy in segs for e in ((px, py), (qx, qy)) if e in pair)
        ends = pair if first == pair[0] else pair[::-1]
    for i, (px, py) in enumerate(ends):
        for qx, qy in ends[i + 1 :]:
            # line_through(p, q) without the Line: the same operations in order
            nx, ny = py - qy, qx - px
            length = math.hypot(nx, ny)
            a, b = nx / length, ny / length
            c = a * px + b * py
            if a < 0.0 or (a == 0.0 and b < 0.0):
                a, b, c = -a, -b, -c
            for sx, sy, tx, ty in segs:
                sp = a * sx + b * sy - c
                sq = a * tx + b * ty - c
                # min(sp, sq) > tol or max(sp, sq) < -tol, NaN answers included
                if (sq if sq < sp else sp) > tol or (sq if sq > sp else sp) < -tol:
                    break
            else:
                return (px, py), (qx, qy)
    return None


def two_clustering(spec: NormSpec, S: PointSet, tol: float = DEFAULT_TOL) -> Bipartition:
    """Optimal 2-clustering minimizing the larger cluster diameter.

    Requires the tree construction's decisions to be tie-free
    (TiesPresent propagates from it).  The sides are the two color classes
    of the spanning tree's proper 2-coloring (:func:`_two_coloring`), with
    point 0 in side_a; the witness is a stabbing line for the tree edges
    longer than the minimal feasible length of the binary search.

    A probe is decided by the held pair's line when it stabs the probe's
    family: that line is the scan restricted to the pair, so it is one of
    the full scan's candidates, and the scan's verdict is the same.  The
    full scan runs on a probe whose held line misses (every infeasible
    probe) and on the final family if a held line decided it, so the probe
    sequence, the sides, the diameters and the witness line keep the bits
    of a scan per probe.  DegenerateInput, after the tree, when a line
    through two of the points lies beyond the float range
    (:func:`_check_span`).
    """
    if S.n < 2:
        raise DegenerateInput("2-clustering needs at least two points")
    hull, g, fn_dist, held = _stages(spec, S, tol)
    tree, report = connect_components(spec, S, g, fn_dist, hull, tol, held)

    _check_span(S.points)
    by_length = np.argsort(tree.weights, kind="stable")
    lengths = tree.weights[by_length]
    segments = S.points[tree.edges[by_length]]  # (n - 1, 2, 2), shortest first

    def family(idx: int):
        # the edges longer than lengths[idx] are a suffix of the sorted rows;
        # tree edges join distinct finite points and _stages checked tol
        fam = segments[np.searchsorted(lengths, lengths[idx], side="right") :]
        return fam.reshape(-1, 4).tolist()

    # minimal tree edge length whose longer-edge family admits a stabbing
    # line; feasibility is monotone because the family shrinks with the
    # threshold, and the empty family at the top is always feasible.  Its
    # line is pinned through the longest tree edge, so the witness stays
    # deterministic; that pair is the first one held
    lo, hi = 0, len(lengths) - 1
    pair, found_at = tuple(map(tuple, segments[-1].tolist())), hi
    while lo < hi:
        mid = (lo + hi) // 2
        fam = family(mid)
        # fam contains every family probed feasible so far, so the scan
        # restricted to the held pair tests one of the full scan's
        # candidates: if its line stabs, the full scan would find a line too
        if not fam or _stab(fam, tol, pair) is not None:
            hi = mid
        elif (line_pair := _stab(fam, tol)) is not None:
            hi, pair, found_at = mid, line_pair, mid
        else:
            lo = mid + 1
    if found_at != hi and (fam := family(hi)):
        pair = _stab(fam, tol)  # the witness is the scan's line of hi's family
    return _bipartition(spec, S, *_two_coloring(g, report), line_through(*pair))


def _two_coloring(g: FNGraph, report: ConnectingEdgeReport):
    """``(side_a, side_b)``, ascending: the proper 2-coloring of the tree
    built from ``g`` and ``report``, side_a holding point 0 (the module
    docstring gives the rule); the cluster of a spine's larger endpoint
    starts with color 1."""
    color = g.cluster_of == g.spines[g.component_of, 1]
    flip = np.zeros(g.k, dtype=bool)
    for t in range(1, g.k):
        e = report.entries[(report.discarded + t) % g.k]
        prev, cur = e.components
        flip[cur] = flip[prev] ^ (color[e.selected.i] == color[e.selected.j])
    color ^= flip[g.component_of]
    color ^= color[0]
    return tuple(np.flatnonzero(~color).tolist()), tuple(np.flatnonzero(color).tolist())


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
