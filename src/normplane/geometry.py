"""Norm-independent affine predicates: orientation, hulls, segment tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSegment, DegenerateTriangle, DuplicatePoints

CCW = 1
CW = -1
COLLINEAR = 0

DEFAULT_TOL = 1e-9


def _cross(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])


def orientation(a, b, c, tol: float = DEFAULT_TOL) -> int:
    """Sign of the turn a -> b -> c: CCW, CW or COLLINEAR.

    The collinearity band is tol times the product of the two segment
    lengths, so behavior is stable across coordinate magnitudes.
    """
    cross = _cross(a, b, c)
    scale = math.hypot(b[0] - a[0], b[1] - a[1]) * math.hypot(c[0] - a[0], c[1] - a[1])
    if abs(cross) <= tol * scale:
        return COLLINEAR
    return CCW if cross > 0.0 else CW


@dataclass(frozen=True)
class HullIndex:
    """Convex hull with collinear boundary points kept as first-class data.

    ``vertices`` lists the extreme points in CCW order; ``boundary`` also
    contains points lying on hull edges; ``position`` ranks every boundary
    point along the CCW traversal (degenerate all-collinear input yields a
    two-extreme "hull" whose boundary is every point, ranked by the forward
    pass along the segment).
    """

    vertices: tuple[int, ...]
    boundary: frozenset[int]
    position: dict[int, int]

    def traversal(self) -> list[int]:
        return sorted(self.position, key=self.position.get)


def convex_hull(points, tol: float = DEFAULT_TOL) -> HullIndex:
    """Monotone-chain hull over point indices, tracking collinear boundary."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        raise DuplicatePoints("empty point set")
    check_distinct(pts)
    if n == 1:
        return HullIndex(vertices=(0,), boundary=frozenset({0}), position={0: 0})

    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    order = sorted(range(n), key=lambda i: (xs[i], ys[i]))

    def build(seq):
        # pops while orientation(chain[-2], chain[-1], i, tol) != CCW, with
        # orientation's expression evaluated on plain floats
        chain: list[int] = []
        for i in seq:
            cx, cy = xs[i], ys[i]
            while len(chain) >= 2:
                ax, ay = xs[chain[-2]], ys[chain[-2]]
                bx, by = xs[chain[-1]], ys[chain[-1]]
                cross = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
                if cross > 0.0 and not abs(cross) <= tol * (
                    math.hypot(bx - ax, by - ay) * math.hypot(cx - ax, cy - ay)
                ):
                    break
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    # the lower chain runs from order[0] to order[-1] and the upper one back,
    # so for n >= 2 distinct points verts holds at least those two
    verts = lower[:-1] + upper[:-1]

    traversal = _boundary_traversal(pts, verts, tol)
    position = {idx: rank for rank, idx in enumerate(traversal)}
    return HullIndex(
        vertices=tuple(verts),
        boundary=frozenset(traversal),
        position=position,
    )


def check_distinct(pts: np.ndarray) -> None:
    """Raise DuplicatePoints naming the first repeated point and its original.

    Each row is read as one complex number, so rows match exactly when
    their coordinates compare equal (NaN matches nothing); adding 0.0 makes
    the contiguous copy that view needs and turns -0.0 into 0.0.
    """
    keys = (np.asarray(pts, dtype=float) + 0.0).view(np.complex128).reshape(-1)
    _, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True, equal_nan=False
    )
    original = first[inverse]
    repeats = np.flatnonzero(original != np.arange(len(keys)))
    if repeats.size:
        i = int(repeats[0])
        raise DuplicatePoints(f"points {int(original[i])} and {i} coincide")


# np.hypot may differ from orientation()'s math.hypot in the last bit, so a
# |cross| within this relative distance of a nonzero band is decided by
# orientation() itself
_BAND_MARGIN = 1e-14

# (edge, point) pairs per broadcast: many edges share each numpy call, and
# the traversal's temporaries (a tracemalloc peak of 0.2 MB at n = h = 170)
# stay below those of the furthest-neighbour pass
_TRAVERSAL_CHUNK = 1 << 12


def _boundary_traversal(pts: np.ndarray, verts: list[int], tol: float) -> list[int]:
    """CCW tour of all boundary points; each appears once (first occurrence).

    Each hull edge tests every point at once, with orientation()'s cross
    product and collinearity band and the edge parameter t in [-tol, 1 + tol];
    a chunk of edges is tested in one broadcast.  The tour is the on-edge
    points ordered by (edge, t, index), without each edge's end vertex.
    """
    n = len(pts)
    px, py = pts[:, 0], pts[:, 1]
    a_idx = np.asarray(verts)
    b_idx = np.roll(a_idx, -1)
    ax, ay = px[a_idx], py[a_idx]
    abx, aby = px[b_idx] - ax, py[b_idx] - ay
    ab2 = abx * abx + aby * aby
    ab_len = np.hypot(abx, aby)
    step = max(1, _TRAVERSAL_CHUNK // n)
    found_e, found_t, found_i = [], [], []
    for lo in range(0, len(verts), step):
        rows = slice(lo, lo + step)
        dx = px - ax[rows, None]
        dy = py - ay[rows, None]
        t = (dx * abx[rows, None] + dy * aby[rows, None]) / ab2[rows, None]
        near = np.flatnonzero((-tol <= t) & (t <= 1.0 + tol))
        t, dx, dy = t.ravel()[near], dx.ravel()[near], dy.ravel()[near]
        e, i = np.divmod(near, n)
        e += lo
        cross = abx[e] * dy - dx * aby[e]
        band = tol * (ab_len[e] * np.hypot(dx, dy))
        collinear = np.abs(cross) <= band
        unsure = (band != 0.0) & ~(np.abs(np.abs(cross) - band) > _BAND_MARGIN * band)
        for s in np.flatnonzero(unsure).tolist():
            a, b = pts[a_idx[e[s]]], pts[b_idx[e[s]]]
            collinear[s] = orientation(a, b, pts[i[s]], tol) == COLLINEAR
        found_e.append(e[collinear])
        found_t.append(t[collinear])
        found_i.append(i[collinear])
    e, t, i = (np.concatenate(parts) for parts in (found_e, found_t, found_i))
    order = np.lexsort((i, t, e))
    e, i = e[order], i[order]
    i = i[i != b_idx[e]]
    # a two-vertex (degenerate) hull walks the segment forward then back;
    # first occurrences reduce that to the forward pass
    _, first = np.unique(i, return_index=True)
    return i[np.sort(first)].tolist()


def segments_properly_intersect(s1, s2, tol: float = DEFAULT_TOL) -> bool:
    """True iff the open segments cross (orientation-sign test).

    Collinear overlaps report False: a proper crossing needs a single point
    interior to both segments.
    """
    (a, b), (c, d) = s1, s2
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    if np.array_equal(a, b) or np.array_equal(c, d):
        raise DegenerateSegment("segment endpoints coincide")
    o1 = orientation(a, b, c, tol)
    o2 = orientation(a, b, d, tol)
    o3 = orientation(c, d, a, tol)
    o4 = orientation(c, d, b, tol)
    return o1 * o2 < 0 and o3 * o4 < 0


def is_convex_quadrilateral(a, b, c, d, tol: float = DEFAULT_TOL) -> bool:
    """True iff a, b, c, d are cyclically ordered corners of a convex quad."""
    quad = [np.asarray(v, dtype=float) for v in (a, b, c, d)]
    signs = [
        orientation(quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4], tol)
        for i in range(4)
    ]
    return all(s == CCW for s in signs) or all(s == CW for s in signs)


def point_in_triangle(p, a, b, c, tol: float = DEFAULT_TOL) -> bool:
    """Barycentric membership test, boundary included within tol."""
    pv, av, bv, cv = (np.asarray(v, dtype=float) for v in (p, a, b, c))
    den = _cross(av, bv, cv)
    scale = (
        math.hypot(bv[0] - av[0], bv[1] - av[1])
        * math.hypot(cv[0] - av[0], cv[1] - av[1])
    )
    if abs(den) <= tol * scale:
        raise DegenerateTriangle("triangle vertices are collinear")
    l1 = _cross(pv, bv, cv) / den
    l2 = _cross(av, pv, cv) / den
    l3 = _cross(av, bv, pv) / den
    return min(l1, l2, l3) >= -tol
