"""Deterministic perturbation making all pairwise distances distinct.

Only valid in strictly convex planes, where bisectors are curves: moving a
point off a bisector breaks the corresponding tie, and moving it directly
away from a tie partner changes that distance by exactly the step size.
The procedure works the convex-hull layers inward: directional sweeps move
each hull vertex away from its j-th hull predecessor, residual ties that
still touch the current hull are broken by moves directly away from the tie
partner, then the hull layer is retired and the interior is processed, with
the minimum distance gap always measured against the whole set.

The bookkeeping holds no n x n table and no tie list: the flat distance
triangle (``np.triu_indices`` order, each pair evaluated once), its sort
order and its values in that order, which determine every tie, and two
masks read from the adjacent gaps of the sorted values: ``pair_tied`` over
the P = n(n-1)/2 flat pairs and ``point_tied`` over the points.  A move
changes only the mover's n - 1 pairs, and it is accepted only when it keeps
a strict subset of the mover's ties and adds none, so ties only ever break.
An accepted move merges the mover's sorted row into the others' order
(O(P), no sort of the triangle) and rebuilds the masks, which decide the
sweeps' triggers.  Ties are searched and keyed as in :mod:`fng`, from
given tied pairs against all sorted values (:meth:`_Perturber._ties_holding`):
once from the mover's tied pairs for a move, whose rungs then test the
candidate row alone (:meth:`_Perturber._row_test`), and once from its
layer's tied pairs for the residual phase, which drops after each move the
ties whose values parted.

Non-strictly-convex norms are rejected: a flat piece of the unit sphere
yields bisectors with interior, and small translations provably cannot
break such ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DegenerateInput, NotStrictlyConvex
from .fng import (DEFAULT_TOL, PointSet, _near, _sorted_ties, _table_triangle, _tie_key, _triangle,
                  _window_ties)
from .geometry import _hull, check_tol
from .norms import NormSpec, is_strictly_convex, norm_many

# fractions of the per-move cap tried for each move, largest first; a move
# is accepted only if it strictly shrinks the tie set without adding ties
_LADDER = (
    1.0, 15 / 16, 7 / 8, 13 / 16, 3 / 4, 11 / 16, 5 / 8, 9 / 16,
    1 / 2, 7 / 16, 3 / 8, 5 / 16, 1 / 4, 3 / 16, 1 / 8, 1 / 16, 1 / 32, 1 / 64,
)

_NO_MOVE = (
    "no admissible move breaks the remaining ties (step budget or tolerance floor reached)"
)


@dataclass(frozen=True)
class PerturbReport:
    """Move log of a perturbation run.

    ``displacement[i]`` is the norm of point i's net move (always < eps);
    each step records (moved point, (moved point, anchor point), step size),
    the direction being away from the anchor; ``residual_min_gap`` is the
    smallest difference between distinct distance values afterwards.
    """

    displacement: tuple[float, ...]
    steps: tuple[tuple[int, tuple[int, int], float], ...]
    residual_min_gap: float


def min_distance_gap(table, tol: float = DEFAULT_TOL) -> float:
    """Minimum gap between distinct distance values of the table.

    Values within tol of each other are treated as one value (a tie); the
    gap is measured between consecutive value clusters.  Returns +inf when
    at most one distinct value exists.
    """
    check_tol(tol)
    _, _, vals = _table_triangle(table)
    return _least_gap(np.sort(vals), tol)


def _least_gap(sv: np.ndarray, tol: float) -> float:
    """The smallest gap between adjacent sorted values that do not tie, or +inf."""
    return float(np.min(np.diff(sv)[~_near(sv[1:], sv[:-1], tol)], initial=math.inf))


def check_eps(eps: float) -> None:
    """Raise DegenerateInput unless the displacement budget eps is positive and finite."""
    if not 0.0 < eps < math.inf:
        raise DegenerateInput(f"eps must be positive and finite, got {eps!r}")


def perturb_distinct(
    spec: NormSpec, S: PointSet, eps: float, tol: float = DEFAULT_TOL
) -> tuple[PointSet, PerturbReport]:
    """Move each point less than eps so that all pairwise distances differ.

    Raises NotStrictlyConvex for norms whose unit sphere has flat pieces,
    and BudgetExceeded if a point would have to move further than eps or
    the move log would exceed n*(n-1) steps.
    """
    check_tol(tol)
    if not is_strictly_convex(spec):
        raise NotStrictlyConvex(
            f"{spec.label()} is not strictly convex; perturbation cannot break its ties"
        )
    check_eps(eps)
    worker = _Perturber(spec, S, eps, tol)
    worker.run()
    disp = norm_many(spec, worker.pts - S.points)
    report = PerturbReport(
        displacement=tuple(float(x) for x in disp),
        steps=tuple(worker.steps),
        residual_min_gap=_least_gap(worker.sorted_vals, 0.0),
    )
    return PointSet(worker.pts), report


class _Perturber:
    def __init__(self, spec: NormSpec, S: PointSet, eps: float, tol: float):
        self.spec = spec
        self.eps = eps
        self.tol = tol
        self.pts = np.array(S.points, dtype=float)
        self.n = len(self.pts)
        self.moved = np.zeros(self.n)
        self.steps: list[tuple[int, tuple[int, int], float]] = []
        self.max_steps = self.n * (self.n - 1)
        self.iu, self.ju, self.vals = _triangle(spec, S)
        # the values in ``order``; both are kept by merging after each move
        self.order = np.argsort(self.vals)
        self.sorted_vals = self.vals[self.order]
        self._mark_ties()
        # every rung's cap is at most eps / (2n), so past this floor no move
        # is ever admissible: fail before any tie is listed; without
        # distances (n <= 1) nothing is tied
        if self.pair_tied.any() and eps / (2.0 * self.n) <= 4.0 * tol:
            raise BudgetExceeded(_NO_MOVE)
        self.not_mine = np.ones(self.vals.size, dtype=bool)  # all True between calls

    def _mark_ties(self) -> None:
        """Rebuild ``pair_tied``, the flat pairs tied to another, and
        ``point_tied``, the points holding such a pair, from the ties of
        neighbours in value order, as :func:`fng._sorted_ties` reads them."""
        sv = self.sorted_vals
        close = np.flatnonzero(_near(sv[1:], sv[:-1], self.tol))
        tied = self.order[np.concatenate([close, close + 1])]
        self.pair_tied = np.zeros(self.vals.size, dtype=bool)
        self.pair_tied[tied] = True
        self.point_tied = np.zeros(self.n, dtype=bool)
        self.point_tied[self.iu[tied]] = True
        self.point_tied[self.ju[tied]] = True

    def _flat(self, a, b):
        """Flat upper-triangle positions of the pairs {a, b} (points or arrays)."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return lo * (2 * self.n - lo - 1) // 2 + hi - lo - 1

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        active = np.arange(self.n)
        while self.pair_tied.any() and active.size:
            # _hull skips convex_hull's check_points: the input passed it, and
            # an accepted move keeps every point finite and distinct, since a
            # rung whose row holds a distance <= 0 or beyond the float range
            # is skipped
            hull = _hull(self.pts[active], self.tol)
            tour = active[hull.traversal()]
            self._directional_sweeps(tour)
            self._residual_breakers(tour)
            active = active[hull.position < 0]
        if self.pair_tied.any():
            raise BudgetExceeded("ties remain after every hull layer was processed")

    def _directional_sweeps(self, tour: np.ndarray) -> None:
        """Step j moves tied hull vertices away from their j-th predecessor:
        at j = 1 each vertex holding a tie, at j >= 2 each whose pair with
        that predecessor is tied."""
        K = len(tour)
        verts = tour.tolist()
        for j in range(1, K):
            if not self.point_tied[tour].any():
                return
            # each vertex's pair with its j-th predecessor
            pairs = self._flat(tour, np.concatenate([tour[-j:], tour[:-j]])).tolist()
            for h in range(K - 1, -1, -1):
                if self.point_tied[verts[h]] if j == 1 else self.pair_tied[pairs[h]]:
                    # best effort: symmetric configurations can survive a
                    # directional move; the residual phase handles them
                    self._attempt_move(verts[h], verts[(h - j) % K])

    def _residual_breakers(self, tour: np.ndarray) -> None:
        """Break every remaining tie that touches the current hull layer."""
        if not self.point_tied[tour].any():
            return
        on_layer = np.zeros(self.n, dtype=bool)
        on_layer[tour] = True
        # the layer is fixed and ties only break, so the ties touching it are
        # those holding its tied pairs, as flat positions (lo, hi) in tie
        # order, less those whose values parted
        tied = (on_layer[self.iu] | on_layer[self.ju]) & self.pair_tied
        lo, hi = np.divmod(self._ties_holding(np.flatnonzero(tied)), self.vals.size)
        layer = on_layer.tolist()
        while lo.size:
            if not any(self._attempt_move(mover, anchor)
                       for mover, anchor in self._tries(lo, hi, layer)):
                raise BudgetExceeded(_NO_MOVE)
            live = _near(self.vals[lo], self.vals[hi], self.tol)
            lo, hi = lo[live], hi[live]

    def _tries(self, lo: np.ndarray, hi: np.ndarray, on_layer: list[bool]):
        """In tie order, each side's endpoints on the layer move away from
        the side's other endpoint, each (mover, anchor) once, as a failed
        attempt changes nothing; the first move made restarts.  The ties'
        endpoints reach Python in chunks of doubling size as the tries
        consume them."""
        seen = set()
        start, chunk = 0, 16
        while start < lo.size:
            x, y = lo[start:start + chunk], hi[start:start + chunk]
            for i, j, k, l in zip(*(ends.tolist() for ends in
                                    (self.iu[x], self.ju[x], self.iu[y], self.ju[y]))):
                for m, a in ((i, j), (j, i), (k, l), (l, k)):
                    if on_layer[m] and (m, a) not in seen:
                        seen.add((m, a))
                        yield m, a
            start, chunk = start + chunk, 2 * chunk

    # -- a single verified move ------------------------------------------

    def _attempt_move(self, mover: int, anchor: int) -> bool:
        """Move ``mover`` away from ``anchor`` if some step strictly helps.

        The step is at most min(eps, eps_remaining)/(2n); candidates descend
        until one strictly shrinks the mover's ties without creating new
        ones.  Moving directly away from ``anchor`` changes that one
        distance by exactly the step size, so the triggering tie cannot
        survive every candidate unless the tolerance floor is reached.  An
        accepted move merges the mover's row into the value order and
        rebuilds the tie masks from it; the ties only ever break.
        """
        remaining = self.eps - self.moved[mover]
        cap = min(self.eps, remaining) / (2.0 * self.n)
        if cap <= 4.0 * self.tol:
            return False
        direction = self.pts[mover] - self.pts[anchor]
        dn = float(norm_many(self.spec, direction))
        unit = direction / dn
        others = np.flatnonzero(np.arange(self.n) != mover)
        mine = self._flat(others, mover)  # flat positions
        # the others keep their values and their order
        rest, rest_sv = self._others_by_value(mine)
        # a distance beyond the float range reads inf or nan, and its rung
        # is skipped like one that would make two points coincide
        with np.errstate(over="ignore", invalid="ignore"):
            ties_after = self._row_test(mine, rest, rest_sv)
            for frac in _LADDER:
                delta = cap * frac
                if delta <= 2.0 * self.tol:
                    return False
                cand_pt = self.pts[mover] + delta * unit
                row = norm_many(self.spec, cand_pt[None, :] - self.pts)[others]
                if not 0.0 < row.min() <= row.max() < math.inf:
                    continue
                if ties_after(row):
                    break
            else:
                return False
        if len(self.steps) >= self.max_steps:
            raise BudgetExceeded(f"move log would exceed n*(n-1) = {self.max_steps} steps")
        if self.moved[mover] + delta >= self.eps:
            raise BudgetExceeded(f"point {mover} would move beyond eps = {self.eps}")
        # merge the mover's sorted row into the others, O(P) instead of a
        # sort of all P values.  The merge fills new arrays: filled in place,
        # 1,000 uniform points took twice as long, with 50 times the minor
        # page faults
        by_value = np.argsort(row)
        new_sv = row[by_value]
        at = rest_sv.searchsorted(new_sv)
        at += np.arange(at.size)  # the row's positions in the merged order
        from_rest = np.ones(self.vals.size, dtype=bool)
        from_rest[at] = False
        order, sorted_vals = np.empty_like(self.order), np.empty_like(self.sorted_vals)
        order[at] = mine[by_value]
        order[from_rest] = rest
        sorted_vals[at] = new_sv
        sorted_vals[from_rest] = rest_sv
        self.order, self.sorted_vals = order, sorted_vals
        self.pts[mover] = cand_pt
        self.vals[mine] = row
        self.moved[mover] += delta
        self.steps.append((mover, (mover, anchor), float(delta)))
        self._mark_ties()
        return True

    def _others_by_value(self, mine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The flat positions other than ``mine`` ascending by value, and
        their values in that order."""
        self.not_mine[mine] = False
        keep = self.not_mine[self.order]
        self.not_mine[mine] = True
        return self.order[keep], self.sorted_vals[keep]

    def _ties_holding(self, pairs: np.ndarray) -> np.ndarray:
        """The sorted keys of the current ties holding one of the flat
        positions ``pairs``: the window search of those that ``pair_tied``
        flags against all sorted values, each pair's match with itself left out."""
        tied = pairs[self.pair_tied[pairs]]
        g, b = _window_ties(self.vals[tied], self.sorted_vals, self.tol)
        a, b = tied[g], self.order[b]
        keys = np.sort(_tie_key(a, b, self.vals.size)[a != b])
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]  # a tie of two of its pairs is found twice
        return keys[first]

    def _row_test(self, mine: np.ndarray, rest: np.ndarray, rest_sv: np.ndarray):
        """``ties_after(row)``: whether the mover's pairs (flat positions
        ``mine``), taking the values ``row``, keep a strict subset of the
        mover's current ties (:meth:`_ties_holding`, found once) and add
        none.  Only ties holding the mover can change, so a row is tested
        against those alone, in value order, cheapest test first: its values
        against the sorted values ``rest_sv`` of the other pairs ``rest``
        (:func:`fng._window_ties`), rejecting on the count of those ties or
        on one the mover did not have; then among themselves
        (:func:`fng._sorted_ties` on the same sorted row)."""
        size, tol = self.vals.size, self.tol
        had = self._ties_holding(mine)

        def kept(x: np.ndarray, y: np.ndarray) -> bool:
            """Whether the mover had the tie of each flat pair (x, y)."""
            keys = _tie_key(x, y, size)
            return bool((had.take(had.searchsorted(keys), mode="clip") == keys).all())

        def ties_after(row: np.ndarray) -> bool:
            by_value = np.argsort(row)
            sr, pairs = row[by_value], mine[by_value]
            a, b = _window_ties(sr, rest_sv, tol)
            # no strict shrink (the new ties are distinct), or a tie the mover did not have
            if a.size >= had.size or not kept(pairs[a], rest[b]):
                return False
            p, q = _sorted_ties(sr, tol)  # among the mover's own pairs
            return not p.size or (a.size + p.size < had.size and kept(pairs[p], pairs[q]))

        return ties_after
