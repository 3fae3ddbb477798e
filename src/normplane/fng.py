"""Furthest-neighbor graphs: out-maps, spines, clusters, cyclic component order.

With every row's furthest neighbor unique, following that map, distances
strictly increase until a 2-cycle (a *spine*) is reached.  Each spine
determines a component, split into two clusters by the parity of the path
length to the spine endpoints.

Every furthest neighbor lies on the hull boundary, since the norm is
convex, so :func:`build_fng` takes the b boundary points as candidates:
one kernel, :func:`_furthest`, evaluates their strict upper triangle and a
row-blocked (other points x candidates) rectangle, b(b-1)/2 + (n-b) b
distances, keeping each row's best and second-best value.  Nothing is
stored or sorted; the only distances certified distinct are each row's
best two, the comparison the map rests on (:class:`TiesPresent` names the
row and both candidates).

The global all-distances-distinct certificate is read from the flat strict
upper triangle (``np.triu_indices`` order, :func:`_triangle`) by one
tied-pair scan (:func:`_tie_offsets`) and one chunked gap scan
(:func:`_gaps`); :func:`pairwise_distances` is that triangle mirrored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DuplicatePoints, StructureViolation, TiesPresent
from .geometry import DEFAULT_TOL, HullIndex, _IndexArrays, check_points, check_tol, convex_hull
from .norms import NormSpec, norm_many

# distances evaluated per row block of the furthest-neighbor kernel, and
# values per chunk of the gap scan; bounds their temporaries independently of n
_BLOCK = 1 << 14

_OVERFLOW = "a pairwise distance lies beyond the float range"


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
    """``(iu, ju, vals)`` over pairs i < j in ``np.triu_indices`` order;
    DuplicatePoints on 0, DegenerateInput on a distance beyond the float range."""
    iu, ju = np.triu_indices(S.n, k=1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = distances_between(spec, S, iu, ju)
    if np.any(vals <= 0.0):
        raise DuplicatePoints("zero off-diagonal distance: duplicate points")
    if not np.all(np.isfinite(vals)):
        raise DegenerateInput(_OVERFLOW)
    return iu, ju, vals


def detect_ties(table, tol: float = DEFAULT_TOL) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All unordered pairs of index pairs whose distances agree within tol.

    An empty result certifies the all-distances-distinct precondition of
    the structure theory; :func:`mxst.mxst_mpsy` needs distinct distances
    only at its decisions.  The list is sorted, each entry ordered as
    (smaller pair, larger pair).
    """
    check_tol(tol)
    iu, ju, vals = _table_triangle(table)
    lo, hi = _tied_pairs(vals, tol)
    return list(zip(
        zip(iu[lo].tolist(), ju[lo].tolist()),
        zip(iu[hi].tolist(), ju[hi].tolist()),
    ))


def _table_triangle(table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(iu, ju, vals)`` of a square table's strict upper triangle; DegenerateInput otherwise."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DegenerateInput(f"expected a square distance table, got shape {t.shape}")
    iu, ju = np.triu_indices(len(t), k=1)
    return iu, ju, t[iu, ju]


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


@dataclass(frozen=True, eq=False)
class FNGraph(_IndexArrays):
    """Furthest-neighbor out-map plus its component/cluster decomposition.

    Read-only np.intp arrays: ``fn``, ``component_of`` and ``cluster_of`` (n,),
    ``spines`` (k, 2), row c the 2-cycle x < fn[x] of component c.
    ``cluster_of[i]`` is the spine endpoint whose cluster contains i, reached
    from i by an even-length path: the fixpoint of fn o fn that i leads to,
    found in at most ``n.bit_length()`` rounds of pointer doubling.
    """

    fn: np.ndarray
    spines: np.ndarray
    component_of: np.ndarray
    cluster_of: np.ndarray

    @property
    def k(self) -> int:
        return len(self.spines)

    def cluster_members(self) -> dict[int, np.ndarray]:
        """Each cluster's points in index order, keyed by its representative;
        keys in order of their clusters' smallest points."""
        by_cluster = np.argsort(self.cluster_of, kind="stable")
        reps, starts = np.unique(self.cluster_of[by_cluster], return_index=True)
        groups = np.split(by_cluster, starts[1:])
        return {int(reps[t]): groups[t] for t in np.argsort(by_cluster[starts]).tolist()}

    def undirected_edges(self) -> set[tuple[int, int]]:
        """FNG edges as undirected pairs; each spine collapses to one edge."""
        pairs = np.sort(np.stack([np.arange(self.fn.size), self.fn], axis=1), axis=1)
        return set(map(tuple, pairs.tolist()))


def build_fng(spec: NormSpec, S: PointSet, tol: float = DEFAULT_TOL) -> FNGraph:
    """Construct the furthest-neighbor graph, certifying each row's decision.

    Furthest neighbors are taken over the hull boundary (:func:`_furthest`).
    Raises DegenerateInput on a distance beyond the float range, then
    TiesPresent naming the first point whose two furthest candidates agree
    within tol.  Ties between distances no row compares are not looked at.
    """
    check_tol(tol)
    if S.n < 2:
        raise DegenerateInput("need at least two points")
    return _decompose(_furthest(spec, S.points, convex_hull(S.points, tol).boundary, tol))


def _furthest(spec: NormSpec, pts: np.ndarray, cand, tol: float) -> np.ndarray:
    """Each point's furthest neighbor among the sorted candidate indices ``cand``.

    The candidates' own distances are one streamed strict upper triangle
    (:func:`_candidate_triangle`), the other points' a (rest x cand)
    rectangle in row blocks: b(b-1)/2 + (n-b) b evaluations for b
    candidates, each ``||p_i - p_j||`` with the bits the full table holds.
    Every row keeps its best and second-best value, so no distance is
    stored.  Raises DuplicatePoints when a row's best is 0, DegenerateInput
    on a distance beyond the float range (every evaluated value is at most
    its row's best), and TiesPresent naming the first row whose best and
    second-best lie within tol.
    """
    n = len(pts)
    cand = np.asarray(cand, dtype=np.intp)
    fn = np.zeros(n, dtype=np.intp)
    best = np.full(n, -np.inf)
    second = np.full(n, -np.inf)
    rest = np.ones(n, dtype=bool)
    rest[cand] = False
    rest = np.flatnonzero(rest)
    step = max(1, _BLOCK // cand.size)
    with np.errstate(over="ignore", invalid="ignore"):
        arg, best[cand], second[cand] = _candidate_triangle(spec, pts[cand])
        fn[cand] = cand[arg]
        for r0 in range(0, rest.size, step):
            rows = rest[r0 : r0 + step]
            block = norm_many(spec, _differences(pts, rows[:, None], cand))
            arg, best[rows], _, second[rows] = _top2(block, axis=1)
            fn[rows] = cand[arg]
    if not np.all(np.isfinite(best)):
        raise DegenerateInput(_OVERFLOW)
    if best.min() <= 0.0:
        raise DuplicatePoints("zero off-diagonal distance: duplicate points")
    tied = np.flatnonzero(best - second <= tol)
    if tied.size:
        i = int(tied[0])
        row = norm_many(spec, _differences(pts, i, cand))
        row[cand == i] = row[cand == fn[i]] = -np.inf
        other = int(cand[np.argmax(row)])
        raise TiesPresent(
            f"tied furthest neighbors of point {i}: {int(fn[i])} and {other} within tol={tol:g}"
        )
    return fn


def _candidate_triangle(spec: NormSpec, q: np.ndarray):
    """``(arg, best, second)`` of each row of the (mirrored) distance table
    of the points q, diagonal excluded: the row's first argmax, its maximum
    and the largest other value (-inf for a lone point).

    Rows are taken in blocks of about ``_BLOCK`` distances, held in a
    (rows x later columns) trapezoid whose lower-left corner is -inf, so
    each distance is evaluated once, as ``||q_i - q_j||`` with i < j.  Row
    i's entries left of the diagonal are the earlier rows' column entries:
    its best two are merged from the running column maxima, then the block
    row's.
    """
    m = len(q)
    arg = np.zeros(m, dtype=np.intp)
    best = np.full(m, -np.inf)
    second = np.full(m, -np.inf)
    if m < 2:
        return arg, best, second
    step = min(max(1, _BLOCK // m), m - 1)
    tri_i, tri_j = np.triu_indices(step, k=1)
    for r0 in range(0, m - 1, step):
        r1 = min(r0 + step, m - 1)
        b = r1 - r0
        block = np.full((b, m - 1 - r0), -np.inf)  # columns r0 + 1 .. m - 1
        iu, ju = (tri_i, tri_j) if b == step else np.triu_indices(b, k=1)
        block[iu, ju - 1] = norm_many(spec, _differences(q, r0 + iu, r0 + ju))
        block[:, b - 1 :] = norm_many(
            spec, _differences(q, np.arange(r0, r1)[:, None], np.arange(r1, m))
        )
        _merge(arg[r0 + 1 :], best[r0 + 1 :], second[r0 + 1 :], _top2(block, axis=0), r0)
        _merge(arg[r0:r1], best[r0:r1], second[r0:r1], _top2(block, axis=1), r0 + 1)
    return arg, best, second


def _top2(block: np.ndarray, axis: int):
    """``(argmax, max, runner-up argmax, runner-up)`` of a 2-D block along
    ``axis``; the runner-up is the first largest value off the first argmax.
    The block is restored after the masked second pass."""
    lanes = block.T if axis == 0 else block  # a view: one lane per row
    rows = np.arange(lanes.shape[0])
    arg = lanes.argmax(axis=1)
    top = lanes[rows, arg]
    lanes[rows, arg] = -np.inf
    runner_arg = lanes.argmax(axis=1)
    runner = lanes[rows, runner_arg]
    lanes[rows, arg] = top
    return arg, top, runner_arg, runner


def _merge(arg, best, second, top2, offset) -> None:
    """Merge a block's best two per row (:func:`_top2`) into the running ones, in place.

    The block's values are other pairs than the running ones, so the best
    two of the union are the best two of these four; a running best keeps
    its index on an equal value, so the first argmax stays.
    """
    new_arg, top, _, runner = top2
    raised = top > best
    second[...] = np.maximum(np.minimum(best, top), np.maximum(second, runner))
    best[...] = np.maximum(best, top)
    arg[raised] = new_arg[raised] + offset


def _differences(pts: np.ndarray, rows, cols) -> np.ndarray:
    """``p_r - p_c`` over broadcast index arrays, shape (..., 2).

    Each coordinate plane is stored contiguously, so the norm reads its
    components without a stride.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    out = np.empty((2, *np.broadcast_shapes(rows.shape, cols.shape)))
    for c in (0, 1):
        np.subtract(pts[rows, c], pts[cols, c], out=out[c])
    return out.transpose(*range(1, out.ndim), 0)


def _decompose(fn) -> FNGraph:
    """Spines, clusters and components of a furthest-neighbor map.

    Spines are the 2-cycles i < fn[i], in index order.  g = fn o fn fixes their
    endpoints, and a point d < n edges from one reaches it in ceil(d / 2) steps
    of g, so squaring ``rep = g`` until it stops changing (``n.bit_length()``
    rounds at most) gives each cluster representative; StructureViolation if
    one is no spine endpoint (fn has a fixpoint or a longer cycle).
    """
    fn = np.asarray(fn, dtype=np.intp)
    rep = fn[fn]
    x = np.flatnonzero((np.arange(fn.size) < fn) & (rep == np.arange(fn.size)))
    for _ in range(fn.size.bit_length() + 1):
        jumped = rep[rep]
        if np.array_equal(jumped, rep):
            break
        rep = jumped
    spine_of = np.full_like(fn, -1)
    spine_of[x] = spine_of[fn[x]] = np.arange(x.size)
    component_of = spine_of[rep]
    if np.any(component_of < 0):
        raise StructureViolation("a point reaches no 2-cycle of the furthest-neighbor map")
    return FNGraph(fn=fn, spines=np.stack([x, fn[x]], axis=1),
                   component_of=component_of, cluster_of=rep)


def distances_between(spec: NormSpec, S: PointSet, rows, cols) -> np.ndarray:
    """``||p_r - p_c||`` over broadcast index arrays ``rows`` and ``cols``.

    :func:`pairwise_distances` is built from these values with rows < cols.
    """
    return norm_many(spec, _differences(S.points, rows, cols))


def order_components(g: FNGraph, hull: HullIndex) -> np.ndarray:
    """Cluster representatives in cyclic order around the hull boundary.

    The 2k spine endpoints, sorted by hull rank, must read as
    x_1, ..., x_k, x'_1, ..., x'_k with each (x_i, x'_i) a spine, that is
    fn[x_i] = x'_i; any other pattern signals numerical trouble or an
    undetected tie.  Returns the 2k endpoints as an intp array.
    """
    reps = g.spines.ravel()
    missing = reps[hull.position[reps] < 0]
    if missing.size:
        raise StructureViolation(f"spine endpoints {missing.tolist()} not on hull boundary")
    seq = reps[np.argsort(hull.position[reps])]
    if np.any(g.fn[seq[: g.k]] != seq[g.k :]):
        raise StructureViolation(
            "spine endpoints do not alternate as x_1..x_k x'_1..x'_k around the hull"
        )
    return seq
