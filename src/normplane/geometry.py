"""Norm-independent affine predicates: orientation, hulls, segment tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateInput, DegenerateSegment, DegenerateTriangle, DuplicatePoints

CCW = 1
CW = -1
COLLINEAR = 0

DEFAULT_TOL = 1e-9


def _cross(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])


def _span(a, b, c) -> float:
    """|ab| |ac|.  Every turn test here compares |ab x ac| with the band
    tol * (sqrt(ux*ux + uy*uy) * sqrt(vx*vx + vy*vy)), u = ab, v = ac: +, -, *
    and sqrt round alike on Python floats and float64 arrays, so the scalar
    tests and the hull's array test decide bit for bit alike."""
    ux, uy, vx, vy = b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]
    return math.sqrt(ux * ux + uy * uy) * math.sqrt(vx * vx + vy * vy)


def _unit_scale(pts) -> np.ndarray:
    """The points as a float array times the power of two that brings the
    largest |coordinate| into [1/2, 1).  Exact unless a coordinate becomes
    subnormal, so no turn decision changes under it; the turn tests' squares
    and products then stay in range for coordinates far from 1 (1e300, 2^-600)."""
    pts = np.asarray(pts, dtype=float)
    return np.ldexp(pts, -np.frexp(np.abs(pts).max())[1])


def orientation(a, b, c, tol: float = DEFAULT_TOL) -> int:
    """Sign of the turn a -> b -> c: CCW, CW or COLLINEAR.

    The collinearity band is tol times the product of the two segment
    lengths, so behavior is stable across coordinate magnitudes.
    """
    check_tol(tol)
    a, b, c = _unit_scale([a, b, c]).tolist()
    cross = _cross(a, b, c)
    if abs(cross) <= tol * _span(a, b, c):
        return COLLINEAR
    return CCW if cross > 0.0 else CW


class _IndexArrays:
    """Dataclass base storing each field as a read-only array copy: np.intp,
    or the dtype a field names in ``metadata["dtype"]``."""

    def __post_init__(self):
        for f in fields(self):
            a = np.array(getattr(self, f.name), dtype=f.metadata.get("dtype", np.intp))
            a.setflags(write=False)
            object.__setattr__(self, f.name, a)


@dataclass(frozen=True, eq=False)
class HullIndex(_IndexArrays):
    """Convex hull with collinear boundary points kept as first-class data.

    Read-only np.intp arrays: ``vertices`` (h,), the extreme points in CCW
    order; ``boundary`` (b,), every point on the hull, sorted; ``position``
    (n,), each point's rank along the CCW tour, -1 off the boundary
    (degenerate all-collinear input yields a two-extreme "hull" whose
    boundary is every point, ranked by the forward pass along the segment).
    """

    vertices: np.ndarray
    boundary: np.ndarray
    position: np.ndarray

    def traversal(self) -> np.ndarray:
        return self.boundary[np.argsort(self.position[self.boundary])]


def convex_hull(points, tol: float = DEFAULT_TOL) -> HullIndex:
    """Monotone-chain hull over point indices, tracking collinear boundary.

    The vertices come from the chain at tol 0, so every extreme point is
    kept up to rounding (a banded chain could drop a run of near-collinear
    vertices, some well off the final edge); tol's collinearity band only
    adds the points near those edges to the boundary.  The boundary thus
    holds each point's furthest neighbor under every norm.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise DuplicatePoints("empty point set")
    check_points(pts)
    check_tol(tol)
    if len(pts) == 1:
        return HullIndex(vertices=[0], boundary=[0], position=[0])

    pts = _unit_scale(pts)
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    order = np.lexsort((pts[:, 1], pts[:, 0]))  # by (x, y); distinct points never tie

    def build(seq):
        # pops while orientation(chain[-2], chain[-1], i, 0.0) != CCW, with
        # its cross product evaluated inline on plain floats
        chain: list[int] = []
        for i in seq:
            cx, cy = xs[i], ys[i]
            while len(chain) >= 2:
                ax, ay = xs[chain[-2]], ys[chain[-2]]
                if (xs[chain[-1]] - ax) * (cy - ay) - (cx - ax) * (ys[chain[-1]] - ay) > 0.0:
                    break
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order.tolist())
    upper = build(order[::-1].tolist())
    # the lower chain runs from order[0] to order[-1] and the upper one back,
    # so for n >= 2 distinct points verts holds at least those two
    verts = lower[:-1] + upper[:-1]

    traversal = _boundary_traversal(pts, verts, order, tol)
    position = np.full(len(pts), -1, dtype=np.intp)
    position[traversal] = np.arange(traversal.size)
    return HullIndex(vertices=verts, boundary=np.sort(traversal), position=position)


def check_points(pts: np.ndarray) -> None:
    """Raise DegenerateInput unless pts is an (n, 2) array of finite floats,
    and DuplicatePoints naming the first repeated point and its original.
    Each row is read as one complex number; adding 0.0 makes the contiguous
    copy that view needs and turns -0.0 into 0.0.
    """
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DegenerateInput(f"expected an (n, 2) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DegenerateInput("point set contains non-finite coordinates")
    keys = (pts + 0.0).view(np.complex128).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    original = first[inverse]
    repeats = np.flatnonzero(original != np.arange(len(keys)))
    if repeats.size:
        i = int(repeats[0])
        raise DuplicatePoints(f"points {int(original[i])} and {i} coincide")


def check_tol(tol: float) -> None:
    """Raise DegenerateInput unless the tolerance tol is finite and non-negative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DegenerateInput(f"tol must be finite and non-negative, got {tol!r}")


def _boundary_traversal(pts: np.ndarray, verts: list[int], order: np.ndarray,
                        tol: float) -> np.ndarray:
    """CCW tour of all boundary points; each appears once (first occurrence).

    p is on edge ab when its parameter t is in [-tol, 1 + tol] and a, b, p pass
    orientation()'s collinearity test, |ab x ap| <= tol |ab| |ap| evaluated as
    in ``_span``; the tour is the on-edge points ordered by (edge, t, index),
    without each edge's end vertex.
    An edge tests only the points (``order`` sorts them by x) whose x is within
    reach = 2 tol (|ab_x| + r) + 1e-12 (scale + r) of its x-span, scale being
    the largest |coordinate| and r a bound on |ap| for an on-edge p: the
    bounding box's diagonal extent, and for tol < 1/2 the smaller of extent and
    (1 + tol) |ab| / (1 - tol), so that a short edge keeps a short window.
    Exactly, |ap| <= |t| |ab| + |ab x ap| / |ab| <= (1 + tol) |ab| + tol |ap|,
    which gives that bound, and p_x - a_x = t ab_x - (ab x ap) ab_y / |ab|^2, so
    an on-edge p is within tol (|ab_x| + |ap|) <= tol (|ab_x| + r) of the span.
    Rounding moves the computed t ab_x and (ab x ap) / |ab| by a few ulps of
    |ab_x| + |ap|, and the bound on |ap| by a few ulps over 1 - tol > 1/2, far
    less than the rest of reach, and 1e-12 scale covers the window's own ends:
    the window holds every point the computed tests accept.
    """
    px, py = pts[:, 0], pts[:, 1]
    a_idx = np.asarray(verts)
    b_idx = np.roll(a_idx, -1)
    ax, ay, bx = px[a_idx], py[a_idx], px[b_idx]
    abx, aby = bx - ax, py[b_idx] - ay
    ab2 = abx * abx + aby * aby
    ab_len = np.sqrt(ab2)
    sx = px[order]
    r = math.hypot(sx[-1] - sx[0], py.max() - py.min())
    if tol < 0.5:
        r = np.minimum(r, (1.0 + tol) / (1.0 - tol) * ab_len)
    reach = 2.0 * tol * (np.abs(abx) + r) + 1e-12 * (np.abs(pts).max() + r)
    lo = np.searchsorted(sx, np.minimum(ax, bx) - reach, side="left")
    width = np.searchsorted(sx, np.maximum(ax, bx) + reach, side="right") - lo
    e = np.repeat(np.arange(a_idx.size), width)
    i = order[np.arange(e.size) + np.repeat(lo - np.cumsum(width) + width, width)]
    dx, dy = px[i] - ax[e], py[i] - ay[e]
    t = (dx * abx[e] + dy * aby[e]) / ab2[e]
    near = (-tol <= t) & (t <= 1.0 + tol)
    e, i, t, dx, dy = e[near], i[near], t[near], dx[near], dy[near]
    cross = abx[e] * dy - dx * aby[e]
    collinear = np.abs(cross) <= tol * (ab_len[e] * np.sqrt(dx * dx + dy * dy))
    e, t, i = e[collinear], t[collinear], i[collinear]
    by = np.lexsort((i, t, e))
    e, i = e[by], i[by]
    i = i[i != b_idx[e]]
    # a two-vertex (degenerate) hull walks the segment forward then back;
    # first occurrences reduce that to the forward pass
    _, first = np.unique(i, return_index=True)
    return i[np.sort(first)]


def segments_properly_intersect(s1, s2, tol: float = DEFAULT_TOL) -> bool:
    """True iff the open segments cross (orientation-sign test).

    Collinear overlaps report False: a proper crossing needs a single point
    interior to both segments.
    """
    check_tol(tol)
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
    check_tol(tol)
    quad = [np.asarray(v, dtype=float) for v in (a, b, c, d)]
    signs = [
        orientation(quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4], tol)
        for i in range(4)
    ]
    return all(s == CCW for s in signs) or all(s == CW for s in signs)


def point_in_triangle(p, a, b, c, tol: float = DEFAULT_TOL) -> bool:
    """Barycentric membership test, boundary included within tol."""
    check_tol(tol)
    pv, av, bv, cv = _unit_scale([p, a, b, c]).tolist()
    den = _cross(av, bv, cv)
    if abs(den) <= tol * _span(av, bv, cv):
        raise DegenerateTriangle("triangle vertices are collinear")
    l1 = _cross(pv, bv, cv) / den
    l2 = _cross(av, pv, cv) / den
    l3 = _cross(av, bv, pv) / den
    return min(l1, l2, l3) >= -tol
