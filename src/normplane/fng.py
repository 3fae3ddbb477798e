"""Furthest-neighbor graphs: out-maps, spines, clusters, cyclic component order.

With every row's furthest neighbor unique, following that map, distances
strictly increase until a 2-cycle (a *spine*) is reached.  Each spine
determines a component, split into two clusters by the parity of the path
length to the spine endpoints.

Every furthest neighbor lies on the hull boundary, since the norm is
convex, so the graph takes the b boundary points as candidates: one (all
points x candidates) pass of n b distances, each row keeping its best and
second-best value.  Nothing is sorted, and only a pass of one block is
kept; the only distances certified distinct are each row's best two, the
comparison the map rests on (:class:`TiesPresent` names the row and both
candidates).  :func:`_stages` is the one composition of the hull, that
pass and the decomposition; :func:`build_fng`, the tree, the 2-clustering
and the CLI all read its ``(hull, graph, furthest distances, held)``,
``held`` being that one block of every point against the boundary, which
the connecting step reads in place of evaluating its blocks again.
Every largest distance that is evaluated is found from one rows x columns
pass in blocks of whole rows of about ``_BLOCK`` distances
(:func:`_row_blocks`), each block handed to the caller's reduction, which
owns it: each row's best two (:func:`_furthest`), the block's maximum
(:func:`clustering.diameter`) or the best two entries of each (cluster x
boundary cluster) rectangle it holds rows of (:func:`mxst._cluster_blocks`,
the connecting edges, one pass per spine when no caller holds their
distances).
That pass and the flat strict upper triangle of every pair
(:func:`_triangle`), each in one float-range scope, own the float range: a
distance beyond it reads inf or nan without a warning, and each caller
raises DegenerateInput on a non-finite value it reads.

Whether two distances tie is decided in one place, :func:`_near`, with tol
an absolute gap: each row's best two here, the certificates of :mod:`mxst`
and every tie search of :func:`detect_ties`, the invariant suite and
:mod:`perturb`, each one window search (:func:`_window_ties`) of sorted
values of the flat strict upper triangle (:func:`_triangle`).  A tie of
flat positions lo < hi has one form, the key ``lo * P + hi`` over P values
(:func:`_tie_key`), sorting as its pair does.  The same tol is a relative
collinearity band for the hull (:func:`geometry.convex_hull`) and a band
in the line's units for :func:`clustering.stabbing_line`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DuplicatePoints, StructureViolation, TiesPresent
from .geometry import DEFAULT_TOL, HullIndex, _IndexArrays, _hull, _windows, check_points, check_tol
from .norms import NormSpec, norm_many

# distances evaluated per row block of the largest-distance pass; bounds its
# temporaries independently of n.
# A block's difference planes and distances are held whole, so on points in
# convex position (b = n) a block of 1 << 14 raised the tree's peak by half
_BLOCK = 1 << 13

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
    return _mirrored(S.n, *_triangle(spec, S))


def _mirrored(n: int, iu, ju, vals) -> np.ndarray:
    """The n x n table holding vals at (iu, ju) and (ju, iu), zero elsewhere."""
    d = np.zeros((n, n))
    d[iu, ju] = d[ju, iu] = vals
    return d


def _triangle(spec: NormSpec, S: PointSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(iu, ju, vals)`` over pairs i < j in ``np.triu_indices`` order;
    DuplicatePoints on 0, DegenerateInput on a distance beyond the float range."""
    iu, ju = np.triu_indices(S.n, k=1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = norm_many(spec, _differences(S.points, iu, ju))
    if np.any(vals <= 0.0):
        raise DuplicatePoints("zero off-diagonal distance: duplicate points")
    return iu, ju, _finite(vals)


def _finite(vals, message: str = _OVERFLOW):
    """``vals``; DegenerateInput with ``message`` when one of them is not finite."""
    if not np.all(np.isfinite(vals)):
        raise DegenerateInput(message)
    return vals


def detect_ties(table, tol: float = DEFAULT_TOL) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All unordered pairs of index pairs whose distances agree within tol.

    An empty result certifies the all-distances-distinct precondition of
    the structure theory; :func:`mxst.mxst_mpsy` needs distinct distances
    only at its decisions.  The list is sorted, each entry ordered as
    (smaller pair, larger pair).
    """
    check_tol(tol)
    iu, ju, vals = _table_triangle(table)
    order = np.argsort(vals)
    a, b = _sorted_ties(vals[order], tol)
    lo, hi = np.divmod(np.sort(_tie_key(order[a], order[b], vals.size)), vals.size)
    return list(zip(
        zip(iu[lo].tolist(), ju[lo].tolist()),
        zip(iu[hi].tolist(), ju[hi].tolist()),
    ))


def _table_triangle(table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(iu, ju, vals)`` of a square table's strict upper triangle;
    DegenerateInput otherwise, when a value there is not finite, or when the
    table is no distance table: not symmetric, or a diagonal value not 0."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DegenerateInput(f"expected a square distance table, got shape {t.shape}")
    iu, ju = np.triu_indices(len(t), k=1)
    vals = _finite(t[iu, ju], "the distance table holds a value that is not finite")
    if not np.array_equal(t[ju, iu], vals):
        raise DegenerateInput("the distance table is not symmetric")
    if np.any(t.diagonal() != 0.0):
        raise DegenerateInput("the distance table has a diagonal value that is not 0")
    return iu, ju, vals


def _near(a, b, tol: float):
    """Whether the distances a and b tie, ``|a - b| <= tol``: scalars, or
    arrays elementwise.  The one tie rule of every distance decision."""
    return abs(a - b) <= tol


def _tie_key(a, b, size: int):
    """The key ``min * size + max`` of the tie of flat positions a and b
    among ``size`` values; keys sort as their (min, max) pairs do."""
    return np.minimum(a, b) * size + np.maximum(a, b)


def _sorted_ties(sv: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(a, b)``, a < b, of every two tied values of the sorted
    ``sv``, each pair once.

    Float subtraction is monotone, so a value tied to any later one is tied
    to its successor, and only such values are searched, from there.
    """
    a = np.flatnonzero(_near(sv[1:], sv[:-1], tol))
    if not a.size:
        return a, a  # the common case on a perturbation rung's row
    g, b = _window_ties(sv[a], sv, tol, a + 1)
    return a[g], b


def _count_ties(sv: np.ndarray, tol: float) -> int:
    """How many pairs :func:`_sorted_ties` lists, without listing them.

    A value tied to a later one is tied to its successor, and the values
    it ties from there on are a prefix of its window (:func:`_window_ties`),
    float subtraction being monotone; each prefix's end is found by one
    bisection of all of them at once, in O(log window) passes.
    """
    a = np.flatnonzero(_near(sv[1:], sv[:-1], tol))
    x = sv[a]
    # sv[lo] ties x, and nothing from hi on is in the window
    lo, hi = a + 1, sv.searchsorted(x + 2.0 * tol, "right")
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        tied = _near(sv[mid], x, tol)
        lo, hi = np.where(tied, mid, lo), np.where(tied, hi, mid)
    return int(np.sum(lo - a))


def _window_ties(x: np.ndarray, sv: np.ndarray, tol: float,
                 start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(g, b)``: each ``x[g]`` paired with every ``sv[b]`` it ties, sv
    sorted, b in the window from x - 2 tol (or ``start[g]``, when given) up
    to x + 2 tol, enough for any rounding of x - tol and x + tol."""
    start = sv.searchsorted(x - 2.0 * tol) if start is None else start
    g, b = _windows(start, sv.searchsorted(x + 2.0 * tol, "right") - start)
    hit = _near(x[g], sv[b], tol)
    return g[hit], b[hit]


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
        idx = np.arange(self.fn.size)
        pairs = np.stack([np.minimum(idx, self.fn), np.maximum(idx, self.fn)], axis=1)
        return set(map(tuple, pairs.tolist()))


def build_fng(spec: NormSpec, S: PointSet, tol: float = DEFAULT_TOL) -> FNGraph:
    """Construct the furthest-neighbor graph, certifying each row's decision.

    Furthest neighbors are taken over the hull boundary (:func:`_furthest`,
    n b distances for b boundary points).  Raises DegenerateInput on a
    distance beyond the float range, then TiesPresent naming the first point
    whose two furthest candidates agree within tol.  Ties between distances
    no row compares are not looked at.
    """
    return _stages(spec, S, tol)[1]


def _stages(spec: NormSpec, S: PointSet, tol: float, hull: HullIndex | None = None):
    """``(hull, g, fn_dist, held)``: the hull, the furthest-neighbor graph
    over its boundary, each point's furthest distance, and the pass's n x b
    block against ``hull.boundary`` when it was one block (:func:`_furthest`),
    else None.  A caller that needs the hull even when a later stage raises
    builds it first and passes it.  DegenerateInput on a bad tol (:func:`check_tol`)
    or below two points; otherwise raises as :func:`_furthest` does."""
    check_tol(tol)
    if S.n < 2:
        raise DegenerateInput("need at least two points")
    if hull is None:
        hull = _hull(S.points, tol)
    fn, fn_dist, held = _furthest(spec, S.points, hull.boundary, tol)
    return hull, _decompose(fn), fn_dist, held


def _furthest(spec: NormSpec, pts: np.ndarray, cand, tol: float):
    """``(fn, fn_dist, held)``: each point's furthest neighbor among the
    sorted candidate indices ``cand``, its distance, and, when the pass was
    one block, that block ``held[i, t] = ||p_i - p_cand[t]||`` (the
    distances :func:`mxst.connect_components` reads), else None.

    One (all rows x cand) pass (:func:`_row_blocks`), n b evaluations for b
    candidates, each ``||p_i - p_j||`` with the bits the full table holds.
    Every row keeps its best and second-best value (:func:`_top2`); only a
    pass of one block, at most ``_BLOCK`` distances, is kept whole.  A
    candidate's own column holds 0, which is its
    runner-up only when it has a single rival (b = 2); that runner-up is no
    rival and never ties.  Raises DegenerateInput when a row's best is not
    finite (no value exceeds it, and a nan is its row's best), DuplicatePoints
    when it is 0, and TiesPresent naming the first row whose best and
    second-best lie within tol, and those two.
    """
    cand = np.asarray(cand, dtype=np.intp)
    arg, best = np.empty(len(pts), dtype=np.intp), np.empty(len(pts))
    runner_arg, second = np.empty_like(arg), np.empty_like(best)
    def put(r0, block):
        r = slice(r0, r0 + len(block))
        arg[r], best[r], runner_arg[r], second[r] = _top2(block)
        return block if len(block) == len(pts) else None  # the whole pass

    held = _row_blocks(spec, pts, np.arange(len(pts)), cand, put)[0]
    _finite(best)
    if best.min() <= 0.0:
        raise DuplicatePoints("zero off-diagonal distance: duplicate points")
    fn = cand[arg]
    tied = np.flatnonzero(_near(best, second, tol))
    tied = tied[cand[runner_arg[tied]] != tied]
    if tied.size:
        i = int(tied[0])
        raise TiesPresent(
            f"tied furthest neighbors of point {i}: {int(fn[i])} and "
            f"{int(cand[runner_arg[i]])} within tol={tol:g}"
        )
    return fn, best, held


def _row_blocks(spec: NormSpec, pts: np.ndarray, rows, cols, reduce) -> list:
    """``[reduce(r0, block), ...]``: ``block`` holds the distances
    ``||p_r - p_c||`` of the consecutive slices ``rows[r0 : r0 + s]`` against
    ``cols`` (index arrays, cols non-empty), s rows of about ``_BLOCK``
    distances, C-contiguous, and the reduction owns it.  The whole pass runs
    in one float-range scope: a distance beyond the range reads inf or nan
    without a warning, so a reduction must not rely on float warnings."""
    step = max(1, _BLOCK // cols.size)
    with np.errstate(over="ignore", invalid="ignore"):
        # each block's differences are freed before its reduction runs
        blocks = ((r0, norm_many(spec, _differences(pts, rows[r0 : r0 + step, None], cols)))
                  for r0 in range(0, rows.size, step))
        return [reduce(r0, block) for r0, block in blocks]


def _top2(block: np.ndarray):
    """``(argmax, max, runner-up argmax, runner-up)`` of each row of a 2-D
    block; the runner-up is the first largest value off the first argmax.
    Each row's entries are read and written through flat offsets into the
    raveled block, whose maxima are masked with -inf for the runner-up
    search and then put back, so the block keeps its values."""
    block = np.ascontiguousarray(block)  # the caller's block: _row_blocks builds C order
    flat = block.reshape(-1)
    base = np.arange(block.shape[0]) * block.shape[1]
    arg = block.argmax(axis=1)
    at = base + arg
    top = flat[at]
    flat[at] = -np.inf
    runner_arg = block.argmax(axis=1)
    runner = flat[base + runner_arg]
    flat[at] = top
    return arg, top, runner_arg, runner


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
