"""Planar norms and the distance/orthogonality/bisector primitives built on them.

Three families are supported: the Euclidean norm, Lp norms for 1 <= p <= inf,
and polygonal gauges of centrally symmetric convex polygons (Minkowski
functionals).  All evaluation routines accept single vectors or arrays of
vectors (vectorized over leading axes).  Every distance goes through one
kernel, :func:`norm_many`, elementwise on the x and y coordinate planes,
one closed form per family:

- Lp, 1 < p < inf, p != 2: m (1 + (min(|x|, |y|) / m)^p)^(1/p) with
  m = max(|x|, |y|);
- polygonal: max_i |<f_i, v>| over the functionals of the first m/2
  edges; :func:`polygonal` stores the second half of the vertices as the
  exact negation of the first, so the gauge is exactly symmetric.

A vector alone gets the bits it gets inside a batch, as an ``np.float64``,
and the zero vector gets +0.0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInput,
    InvalidNorm,
    IoError,
    ParseError,
    StructureViolation,
    ZeroVector,
)
from .geometry import DEFAULT_TOL, _cross, _unit_scale, check_tol

INF = math.inf
# doublings of the default search range before sample_bisector gives up: a
# crossing lies about as many q - p out as the gauge is stretched, and 2^40
# times the default reaches past a stretch of 10^13
_WIDENINGS = 40


def _as_vec(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (2,):
        raise DegenerateInput(f"expected a 2-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DegenerateInput("non-finite coordinates")
    return a


@dataclass(frozen=True)
class NormSpec:
    """A planar norm: ``euclidean``, ``lp`` (with parameter p) or ``polygonal``.

    Instances are built through :func:`euclidean`, :func:`lp`, :func:`l1`,
    :func:`linf`, :func:`polygonal` or :func:`parse_norm`; those factories
    validate the invariants and raise :class:`InvalidNorm` on violation.
    """

    kind: str
    p: float | None = None
    vertices: tuple[tuple[float, float], ...] | None = None

    def label(self) -> str:
        if self.kind == "euclidean":
            return "euclidean"
        if self.kind == "lp":
            if self.p == INF:
                return "linf"
            if self.p == 1.0:
                return "l1"
            return f"lp:{self.p:g}"
        return f"polygon[{len(self.vertices)}]"

    @cached_property
    def _functionals(self) -> np.ndarray:
        """Functionals f_i with gauge(v) = max_i |<f_i, v>|, derived once per spec.

        f_i is edge i's outward normal scaled to put the edge line at level 1;
        the max picks the edge the ray through v crosses, without a walk's
        vertex special cases.  The stored polygon is exactly symmetric, so
        edge i + m/2's functional is exactly -f_i and only the first m/2 are
        kept.  Not a field, so ==, hash and repr ignore it.

        Derived on the polygon times the power of two that brings its largest
        |coordinate| into [1/2, 1) and scaled back, so no scale overflows the
        offsets; inf where a functional lies beyond the float range.
        """
        arr = np.asarray(self.vertices, dtype=float)
        e = int(np.frexp(np.abs(arr).max())[1])
        normals, offsets = _edge_lines(np.ldexp(arr, -e))
        h = len(normals) // 2
        with np.errstate(over="ignore"):
            f = np.ldexp(normals[:h] / offsets[:h, None], -e)
        f.flags.writeable = False
        return f


def euclidean() -> NormSpec:
    return NormSpec(kind="euclidean")


def lp(p: float) -> NormSpec:
    """Lp norm; p = inf is the max norm. Requires p >= 1."""
    if not (p >= 1.0):
        raise InvalidNorm(f"Lp norm requires p >= 1, got {p}")
    return NormSpec(kind="lp", p=float(p))


def l1() -> NormSpec:
    return lp(1.0)


def linf() -> NormSpec:
    return lp(INF)


def polygonal(vertices, tol: float = DEFAULT_TOL) -> NormSpec:
    """Gauge of a convex, centrally symmetric polygon given CCW.

    The origin must be strictly interior and the polygon must wind once
    around it (a star polygon such as the {8/3} octagram turns left at every
    vertex, yet is no convex polygon); for every vertex v the point -v must
    also be a vertex (up to ``tol`` relative to the polygon scale).
    The stored polygon is the first m/2 vertices followed by their exact
    negations, so the gauge is exactly symmetric: N(-v) == N(v).

    The symmetry, convexity and interior tests read the polygon times the
    power of two that brings its largest |coordinate| into [1/2, 1), as the
    hull's turn tests do (``geometry._unit_scale``), with the bands
    tol * scale for the symmetry and tol * scale^2 for the turns and the
    edge-line offsets, so no scale overflows them or moves their decision;
    InvalidNorm when the functionals lie beyond the float range.
    """
    check_tol(tol)
    arr = np.asarray(vertices, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
        raise InvalidNorm("polygonal norm needs at least 4 vertices as an (m, 2) array")
    if not np.all(np.isfinite(arr)):
        raise InvalidNorm("polygonal norm has non-finite vertices")
    if arr.shape[0] % 2 != 0:
        raise InvalidNorm("centrally symmetric polygon must have an even vertex count")
    m = arr.shape[0]
    unit = _unit_scale(arr)
    scale = float(np.abs(unit).max())
    # central symmetry: antipode of vertex i must be vertex i + m/2
    if np.abs(unit + np.roll(unit, m // 2, axis=0)).max() > tol * scale:
        raise InvalidNorm("polygon is not centrally symmetric")
    # 0.0 - a is exactly -a, with +0.0 for a zero coordinate
    arr = np.concatenate([arr[: m // 2], 0.0 - arr[: m // 2]])
    unit = np.concatenate([unit[: m // 2], 0.0 - unit[: m // 2]])
    # strict CCW convexity, including the wrap-around corners; turns and
    # edge-line offsets scale as the square of the polygon
    for i in range(m):
        if _cross(unit[i], unit[(i + 1) % m], unit[(i + 2) % m]) <= tol * scale * scale:
            raise InvalidNorm("polygon vertices must be strictly convex in CCW order")
    # origin strictly interior <=> every edge line has positive offset
    offsets = _edge_lines(unit)[1]
    if np.any(offsets <= tol * scale * scale):
        raise InvalidNorm("origin is not strictly interior to the polygon")
    # each offset is cross(v_i, v_i+1) > 0, so each turn around the origin
    # lies in (0, pi) and the turns sum to 2 pi times the winding number
    dots = np.einsum("ij,ij->i", unit, np.roll(unit, -1, axis=0))
    if np.arctan2(offsets, dots).sum() >= 3.0 * np.pi:
        raise InvalidNorm("polygon winds more than once around the origin")
    spec = NormSpec(kind="polygonal", vertices=tuple(map(tuple, arr)))
    if not np.isfinite(spec._functionals).all():
        raise InvalidNorm("polygonal norm's functionals lie beyond the float range")
    return spec


def _edge_lines(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per CCW edge i -> i+1: its outward normal and the line's offset <normal, v_i>."""
    edge = np.roll(arr, -1, axis=0) - arr
    normals = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    return normals, np.einsum("ij,ij->i", normals, arr)


def norm_many(spec: NormSpec, arr) -> np.ndarray:
    """Evaluate the norm over an array of vectors (..., 2) -> (...)."""
    a = np.asarray(arr, dtype=float)
    if a.shape[-1] != 2:
        raise DegenerateInput(f"expected trailing axis of size 2, got shape {a.shape}")
    x, y = a[..., 0], a[..., 1]
    if spec.kind == "polygonal":
        # elementwise, not a matrix product: BLAS may round a row differently
        # depending on where it sits in the batch, and a vector's norm must
        # not depend on the batch it is evaluated in
        out = None
        for fx, fy in spec._functionals:
            v = np.abs(x * fx + y * fy)
            out = v if out is None else np.maximum(out, v)
        return out
    if spec.kind not in ("euclidean", "lp"):
        raise InvalidNorm(f"unknown norm kind {spec.kind!r}")
    if spec.kind == "euclidean" or spec.p == 2.0:
        return np.hypot(x, y)
    p, ax, ay = spec.p, np.abs(x), np.abs(y)
    if p == 1.0:
        return ax + ay
    m = np.maximum(ax, ay)
    if p == INF:
        return m
    # m (1 + (min/m)^p)^(1/p): scaled by the larger coordinate, whose own
    # term is exactly 1, so large p cannot overflow; m = 0 gives +0.0
    t = np.minimum(ax, ay) / np.where(m > 0.0, m, 1.0)
    return m * np.power(1.0 + np.power(t, p), 1.0 / p)


def evaluate_norm(spec: NormSpec, v) -> float:
    """Norm of a single vector."""
    return float(norm_many(spec, _as_vec(v)))


def distance(spec: NormSpec, p, q) -> float:
    """Distance ||p - q|| under the given norm."""
    return float(norm_many(spec, _as_vec(p) - _as_vec(q)))


def is_strictly_convex(spec: NormSpec) -> bool:
    """True iff the unit sphere contains no line segment.

    Euclidean and Lp with 1 < p < inf qualify; L1, Linf and polygonal
    gauges do not.
    """
    return spec.kind == "euclidean" or (spec.kind == "lp" and 1.0 < spec.p < INF)


def birkhoff_orthogonal(spec: NormSpec, x, y, tol: float = DEFAULT_TOL) -> bool:
    """Test Birkhoff orthogonality: ||x|| <= ||x + t*y|| for every real t.

    The section t -> ||x + t*y|| is convex, so its minimum over the
    bracketing interval |t| <= 4*||x||/||y|| (outside it the value already
    exceeds ||x||) is found by ternary search.

    The relation holds or fails with x and y each scaled by any positive
    factor, so it is decided on x and y times the powers of two that bring
    their largest |coordinate| into [1/2, 1), exact unless a coordinate
    becomes subnormal, with tol scaled as x is (inf beyond the float
    range); the bracket's ratio then stays in range for any magnitudes.
    """
    check_tol(tol)
    xv, yv = _as_vec(x), _as_vec(y)
    ex = int(np.frexp(np.abs(xv).max())[1])
    with np.errstate(over="ignore"):  # a tol of inf: then ||x|| <= tol, and every t passes
        xv, yv, tol = np.ldexp(xv, -ex), _unit_scale(yv), float(np.ldexp(tol, -ex))
    nx = evaluate_norm(spec, xv)
    ny = evaluate_norm(spec, yv)
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("birkhoff_orthogonal requires nonzero vectors")
    lo, hi = -4.0 * nx / ny, 4.0 * nx / ny

    def g(t: float) -> float:
        return float(norm_many(spec, xv + t * yv))

    for _ in range(200):
        if hi - lo <= 1e-13 * (1.0 + abs(hi) + abs(lo)):
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) < g(m2):
            hi = m2
        else:
            lo = m1
    best = min(g(lo), g(0.5 * (lo + hi)), g(hi))
    return best >= nx - tol


@dataclass(frozen=True)
class BisectorSample:
    """Ordered points sampled on a curve equidistant from two sites."""

    points: np.ndarray  # (count, 2)
    endpoints: tuple[np.ndarray, np.ndarray]
    residuals: np.ndarray  # per-point | ||s-p|| - ||s-q|| |


def bisector_point(
    spec: NormSpec,
    p,
    q,
    line_origin,
    line_dir,
    tol: float = DEFAULT_TOL,
    t_range: float | None = None,
):
    """Point on the line where ||r - p|| = ||r - q||, or None.

    Scans f(t) = ||r(t)-p|| - ||r(t)-q|| with r(t) = origin + t*dir over
    |t| <= t_range for a sign change (or a grid point already within tol,
    which covers fat bisectors of non-strictly-convex norms), then bisects.
    Returns None when no crossing is found on the searched interval.

    The scan and the bisection run on p, q, origin and dir times the power
    of two that brings their largest |coordinate| into [1/2, 1), as the
    hull's turn tests do (``geometry._unit_scale``): every norm family is
    homogeneous, so f and tol scale by exactly that factor unless a value
    leaves the normal range, and coordinates near 1e300 do not overflow in
    the scan.  The point found is scaled back.
    """
    check_tol(tol)
    pv, qv = _as_vec(p), _as_vec(q)
    if np.array_equal(pv, qv):
        raise DegenerateInput("bisector of identical points")
    raw = np.array([pv, qv, _as_vec(line_origin), _as_vec(line_dir)])
    if not raw[3].any():
        raise ZeroVector("line direction must be nonzero")
    e = int(np.frexp(np.abs(raw).max())[1])
    pv, qv, origin, d = np.ldexp(raw, -e)
    with np.errstate(over="ignore"):  # inf: every |f| <= ||q - p|| lies within the unscaled tol
        tol = float(np.ldexp(tol, -e))
    dlen = math.hypot(d[0], d[1])
    if t_range is None:
        mid = 0.5 * (pv + qv)
        reach = math.hypot(*(origin - mid)) + math.hypot(*(qv - pv))
        t_range = 4.0 * (1.0 + reach / dlen)

    def f_many(ts: np.ndarray) -> np.ndarray:
        pts = origin[None, :] + ts[:, None] * d[None, :]
        return norm_many(spec, pts - pv) - norm_many(spec, pts - qv)

    def point(t: float) -> np.ndarray:
        return np.ldexp(origin + t * d, e)

    ts = np.linspace(-t_range, t_range, 257)
    vals = f_many(ts)

    bracket = None
    for i in range(len(ts) - 1):
        if abs(vals[i]) <= tol:
            return point(ts[i])
        # the signs, not their product, which underflows for tiny values
        if (vals[i] < 0.0 < vals[i + 1]) or (vals[i + 1] < 0.0 < vals[i]):
            bracket = (ts[i], ts[i + 1], vals[i])
            break
    if bracket is None:
        if abs(vals[-1]) <= tol:
            return point(ts[-1])
        return None

    # bisect until the midpoint is an end of the bracket: adjacent floats,
    # which hold the crossing when even they are not within tol
    a, b, fa = bracket
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return point(m)
        fm = float(f_many(np.array([m]))[0])
        if abs(fm) <= tol:
            return point(m)
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m


def sample_bisector(
    spec: NormSpec,
    p,
    q,
    count: int,
    extent: float,
    tol: float = DEFAULT_TOL,
) -> BisectorSample:
    """Sample the bisector of p and q at ``count`` transversal offsets.

    Offsets spread over [-extent, extent] along the Euclidean perpendicular
    of q - p through the midpoint; each sample is a root of
    f(t) = ||r(t)-p|| - ||r(t)-q|| on the line with direction q - p, where f
    runs from negative (far p-side) to positive (far q-side).  Where
    :func:`bisector_point`'s default range misses the root, the range is
    doubled until it holds it (StructureViolation after ``_WIDENINGS``).
    """
    check_tol(tol)
    pv, qv = _as_vec(p), _as_vec(q)
    if np.array_equal(pv, qv):
        raise DegenerateInput("bisector of identical points")
    # one float-range scope: a value beyond the range reads inf or nan
    # without a warning, and the sites' difference and the residuals are checked
    with np.errstate(over="ignore", invalid="ignore"):
        dvec = qv - pv
        dlen = math.hypot(dvec[0], dvec[1])
        if not (math.isfinite(dlen) and math.isfinite(norm_many(spec, dvec))):
            raise DegenerateInput("q - p or its norm lies beyond the float range")
        if count < 1:
            raise DegenerateInput("count must be >= 1")
        if not extent > 0.0:
            raise DegenerateInput("extent must be positive")
        if extent == INF:
            raise DegenerateInput("extent must be finite")
        perp = np.array([-dvec[1], dvec[0]]) / dlen
        mid = 0.5 * (pv + qv)
        offsets = np.linspace(-extent, extent, count)
        points = np.empty((count, 2))
        for i, s in enumerate(offsets):
            base = mid + s * perp
            pt = bisector_point(spec, pv, qv, base, dvec, tol)
            # f(t) = h(t) - h(t - 1) for a convex h, so f is nondecreasing and runs
            # from -||q - p|| to ||q - p||: a crossing exists, and the default range
            # |t| <= 4 (2 + |s| / |q - p|) is doubled until it holds it (a gauge
            # stretched 300-fold put one at t = -263, past a range of 16)
            t_range = 4.0 * (2.0 + abs(s) / dlen)
            for _ in range(_WIDENINGS):
                if pt is not None:
                    break
                t_range *= 2.0
                pt = bisector_point(spec, pv, qv, base, dvec, tol, t_range=t_range)
            if pt is None:
                raise StructureViolation(
                    f"no bisector crossing found at offset {s}; widen the search range"
                )
            points[i] = pt
        residuals = np.abs(norm_many(spec, points - pv) - norm_many(spec, points - qv))
    if not np.all(np.isfinite(residuals)):
        raise DegenerateInput("a sample's distance to p or q lies beyond the float range")
    return BisectorSample(points=points, endpoints=(pv, qv), residuals=residuals)


def parse_norm(text: str) -> NormSpec:
    """Parse the shared norm grammar.

    ``euclidean`` | ``l1`` | ``linf`` | ``lp:<p>`` | ``polygon:<path>``
    where the file at <path> holds a JSON array of [x, y] vertex pairs;
    IoError when that file cannot be read.
    """
    t = text.strip()
    if t == "euclidean":
        return euclidean()
    if t == "l1":
        return l1()
    if t == "linf":
        return linf()
    if t.startswith("lp:"):
        body = t[3:]
        try:
            return lp(float(body))
        except ValueError as exc:
            raise ParseError(f"bad Lp parameter {body!r}") from exc
    if t.startswith("polygon:"):
        path = t[len("polygon:"):]
        try:
            data = json.loads(_read_text(path, f"polygon file {path!r}"))
        except (ValueError, RecursionError) as exc:  # as in cli.load_points
            raise ParseError(f"polygon file {path!r} is not valid JSON: {exc}") from exc
        return polygonal(_numeric_rows(data, f"polygon file {path!r}"))
    raise ParseError(f"unrecognized norm {text!r}")


def _read_text(path: str, source: str) -> str:
    """The text of the file at ``path``, less a UTF-8 byte-order mark; IoError
    naming ``source`` if unreadable, ParseError if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not UTF-8 text: {exc}") from exc


def _numeric_rows(rows, source: str) -> np.ndarray:
    """Rows read from a points or polygon file as a float array, whose shape
    the caller checks.  ParseError naming ``source`` on a value that is no
    number (a string, a ragged row; in (n, 2) rows also a boolean or a
    numeric string, which numpy would read as floats) or an integer beyond
    the float range.
    """
    try:
        arr = np.asarray(rows, dtype=float)
    except OverflowError as exc:
        raise ParseError(f"{source}: a value lies beyond the float range") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{source}: rows are not numeric [x, y] pairs") from exc
    if arr.shape[1:] == (2,) and any(type(v) not in (int, float) for row in rows for v in row):
        raise ParseError(f"{source}: rows are not numeric [x, y] pairs")
    return arr
