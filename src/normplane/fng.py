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
(:func:`clustering.diameter`) or the best two pairs of each (row cluster x
column cluster) block (:func:`mxst._cluster_blocks`, the connecting edges,
one pass per spine when no caller holds their distances).
That pass, in one float-range scope, and :func:`distances_between` own the
float range: a distance beyond it reads inf or nan without a warning, and
each caller raises DegenerateInput on a non-finite value it reads.

The flat strict upper triangle (:func:`_triangle`, mirrored by
:func:`pairwise_distances`) feeds one window search for ties
(:func:`_window_ties`) behind :func:`detect_ties`, the invariant suite and
each :mod:`perturb` tie search: a value x meets the sorted values up to the
last one at most x + 2 tol, enough for any rounding of x + tol, and the
exact ``|x - v| <= tol`` decides.  A tie of flat positions lo < hi has one
form, the key ``lo * P + hi`` over P values, sorting as its pair does.
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
    order = np.argsort(vals)
    lo, hi = np.divmod(_ordered_ties(order, vals[order], tol), vals.size)
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


def _ordered_ties(order: np.ndarray, sv: np.ndarray, tol: float) -> np.ndarray:
    """The sorted keys ``lo * P + hi``, lo < hi, of every two of the P values
    within tol, ``order`` being their argsort and ``sv`` the values in that
    order; keys sort as (lo, hi) pairs, and flat upper-triangle positions as
    (i, j) tuples."""
    a, b = _sorted_ties(sv, tol)
    a, b = order[a], order[b]
    return np.sort(np.minimum(a, b) * sv.size + np.maximum(a, b))


def _sorted_ties(sv: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(a, b)``, a < b, of every two values of the sorted ``sv``
    within tol, each pair once.

    Float subtraction is monotone, so a value tied to any later one is tied
    to its successor; its window (:func:`_window_ties`) starts there.
    """
    a = np.flatnonzero(sv[1:] - sv[:-1] <= tol)
    if not a.size:
        return a, a  # the common case on a perturbation rung's row
    g, b = _window_ties(sv[a], sv, a + 1, tol)
    return a[g], b


def _window_ties(x: np.ndarray, sv: np.ndarray, start: np.ndarray,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``(g, b)``: each ``x[g]`` paired with every ``sv[b]``, b from
    ``start[g]`` up to the last value at most ``x[g] + 2 tol``, with
    ``|x[g] - sv[b]| <= tol``; sv sorted.  For the sorted ``v >= x`` of one
    array, ``|x - v|`` is exactly ``v - x``."""
    g, b = _windows(start, sv.searchsorted(x + 2.0 * tol, "right") - start)
    hit = np.abs(x[g] - sv[b]) <= tol
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
    if not np.all(np.isfinite(best)):
        raise DegenerateInput(_OVERFLOW)
    if best.min() <= 0.0:
        raise DuplicatePoints("zero off-diagonal distance: duplicate points")
    fn = cand[arg]
    tied = np.flatnonzero(best - second <= tol)
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


def distances_between(spec: NormSpec, S: PointSet, rows, cols) -> np.ndarray:
    """``||p_r - p_c||`` over broadcast index arrays ``rows`` and ``cols``.

    :func:`pairwise_distances` is built from these values with rows < cols.
    """
    with np.errstate(over="ignore", invalid="ignore"):
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
