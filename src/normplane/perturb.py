"""Deterministic perturbation making all pairwise distances distinct.

Only valid in strictly convex planes, where bisectors are curves: moving a
point off a bisector breaks the corresponding tie, and moving it directly
away from a tie partner changes that distance by exactly the step size.
The procedure works the convex-hull layers inward: directional sweeps move
each hull vertex away from its j-th hull predecessor, residual ties that
still touch the current hull are broken by moves directly away from the tie
partner, then the hull layer is retired and the interior is processed, with
the minimum distance gap always measured against the whole set.

The bookkeeping holds no n x n table: the flat distance triangle
(``np.triu_indices`` order, each pair evaluated once), its sort order and
its values in that order, and one tie list, built once: every tie as a
sorted key ``lo * P + hi`` of two flat positions (P = n(n-1)/2), its
(i, j, k, l) endpoint row, and a live mask.  A move changes only the
mover's n - 1 pairs, and it is accepted only when it keeps a strict subset
of the mover's live ties and adds none, so the tie list only ever shrinks:
an accepted move clears the ties it broke and decrements the live-tie
counts per point and per tied pair, which decide the sweeps' triggers, and
merges the mover's sorted row into the others' order (O(P), no sort of the
triangle).  Each rung tests only the candidate row, against the mover's
live ties alone (read from the ties indexed by point), with the one window
search of :mod:`fng`, cheapest test first: its values against the other
pairs' sorted values (:func:`fng._window_ties`, each window starting at the
first value at least row - 2 tol), rejecting on the count of those ties or
on one the mover did not have; then among themselves
(:func:`fng._tied_pairs` on the row), only when two of its sorted values
lie within tol.  The residual phase keeps the live ties touching the layer
as one index array, filtered by the live mask after each move.

Non-strictly-convex norms are rejected: a flat piece of the unit sphere
yields bisectors with interior, and small translations provably cannot
break such ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DegenerateInput, NotStrictlyConvex
from .fng import (DEFAULT_TOL, PointSet, _ordered_ties, _table_triangle, _tied_pairs, _triangle,
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
    """The smallest gap above tol in one ``np.diff`` of sorted values, or +inf."""
    gaps = np.diff(sv)
    return float(np.min(gaps[gaps > tol], initial=math.inf))


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


def _touching(ends: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ties, at)``: the ties (rows of ``ends``) holding each point,
    ascending, point p's being ``ties[at[p]:at[p + 1]]``."""
    size = len(ends)
    key = ends * size
    key += np.arange(size)[:, None]
    key = key.ravel()
    key.sort()  # by point, then row; a row holding a point twice lists it twice
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    ties = key[first]
    at = ties.searchsorted(np.arange(n + 1) * size)
    ties %= max(size, 1)
    return ties, at


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
        # every rung's cap is at most eps / (2n), so past this floor no move
        # is ever admissible: fail if any value is tied to its successor,
        # before listing the (possibly many) ties; without distances (n <= 1)
        # nothing is tied
        if self.vals.size and eps / (2.0 * self.n) <= 4.0 * tol and (
            np.diff(self.sorted_vals) <= tol
        ).any():
            raise BudgetExceeded(_NO_MOVE)
        # the tie list is built once: a move only ever drops ties, so a tie
        # stays ``alive`` until a move of one of its endpoints breaks it;
        # point_ties counts the live ties' ends at each point, pair_ties the
        # live ties holding each tied flat pair pair_ids[t]
        self.keys, self.ends, self.pair_ids, self.pair_ties = self._tie_list()
        self.alive = np.ones(self.keys.size, dtype=bool)
        self.point_ties = np.bincount(self.ends.ravel(), minlength=self.n)
        self.touch, self.touch_at = _touching(self.ends, self.n)
        self.not_mine = np.ones(self.vals.size, dtype=bool)  # all True between calls

    def _tie_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, ends, pair_ids, pair_ties)``: today's tie keys
        ``lo * P + hi``, sorted; their ``(i, j, k, l)`` rows, pairs
        (i, j) < (k, l); the tied flat pairs, ascending; and the number of
        ties holding each."""
        lo, hi = _ordered_ties(self.order, self.sorted_vals, self.tol)
        ends = np.stack([self.iu[lo], self.ju[lo], self.iu[hi], self.ju[hi]], axis=1)
        pair_ids, pair_ties = np.unique(np.concatenate([lo, hi]), return_counts=True)
        return lo * self.vals.size + hi, ends, pair_ids, pair_ties

    @property
    def ties(self) -> np.ndarray:
        """The live tie keys ``lo * P + hi``, sorted."""
        return self.keys[self.alive]

    def _flat(self, a, b):
        """Flat upper-triangle positions of the pairs {a, b} (points or arrays)."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return lo * (2 * self.n - lo - 1) // 2 + hi - lo - 1

    def _pair_tied(self, a: int, b: int) -> bool:
        """Whether a live tie holds the pair {a, b} (Python ints)."""
        lo, hi = (a, b) if a < b else (b, a)
        flat = lo * (2 * self.n - lo - 1) // 2 + hi - lo - 1
        at = self.pair_ids.searchsorted(flat)
        return at < self.pair_ids.size and self.pair_ids[at] == flat and self.pair_ties[at] > 0

    def _live_ties(self, mover: int) -> np.ndarray:
        """The live ties holding ``mover``, ascending."""
        touched = self.touch[self.touch_at[mover]:self.touch_at[mover + 1]]
        return touched[self.alive[touched]]

    def _drop_ties(self, mover: int, new_ties: np.ndarray) -> None:
        """Retire the mover's live ties that the sorted keys ``new_ties``
        no longer hold (a move changes no other tie)."""
        touched = self._live_ties(mover)
        keys = self.keys[touched]
        pos = new_ties.searchsorted(keys)
        held = pos < new_ties.size
        held[held] = new_ties[pos[held]] == keys[held]
        gone = touched[~held]
        self.alive[gone] = False
        np.subtract.at(self.point_ties, self.ends[gone].ravel(), 1)
        lo, hi = np.divmod(keys[~held], self.vals.size)
        np.subtract.at(self.pair_ties, self.pair_ids.searchsorted(np.concatenate([lo, hi])), 1)

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        active = np.arange(self.n)
        while self.alive.any() and active.size:
            # _hull skips convex_hull's check_points: the input passed it, and
            # an accepted move keeps every point finite and distinct, since a
            # rung whose row holds a distance <= 0 or beyond the float range
            # is skipped
            hull = _hull(self.pts[active], self.tol)
            tour = active[hull.traversal()]
            self._directional_sweeps(tour)
            self._residual_breakers(tour)
            active = active[hull.position < 0]
        if self.alive.any():
            raise BudgetExceeded("ties remain after every hull layer was processed")

    def _directional_sweeps(self, tour: np.ndarray) -> None:
        """Step j moves tied hull vertices away from their j-th predecessor."""
        K = len(tour)
        verts = tour.tolist()
        for j in range(1, K):
            if not self.point_ties[tour].any():
                return
            for h in range(K - 1, -1, -1):
                mover = verts[h]
                anchor = verts[(h - j) % K]
                if j == 1:
                    trigger = self.point_ties[mover] > 0
                else:
                    trigger = self._pair_tied(mover, anchor)
                if trigger:
                    # best effort: symmetric configurations can survive a
                    # directional move; the residual phase handles them
                    self._attempt_move(mover, anchor)

    def _residual_breakers(self, tour: np.ndarray) -> None:
        """Break every remaining tie that touches the current hull layer."""
        on_layer = np.zeros(self.n, dtype=bool)
        on_layer[tour] = True
        # the layer is fixed and ties only die, so the live ties touching it
        # are this list filtered by ``alive`` after each move, in tie order
        pending = np.flatnonzero(on_layer[self.ends].any(axis=1) & self.alive)
        layer = on_layer.tolist()
        while pending.size:
            if not any(self._attempt_move(mover, anchor)
                       for mover, anchor in self._tries(pending, layer)):
                raise BudgetExceeded(_NO_MOVE)
            pending = pending[self.alive[pending]]

    def _tries(self, pending: np.ndarray, on_layer: list[bool]):
        """In tie order, each side's endpoints on the layer move away from
        the side's other endpoint, each (mover, anchor) once, as a failed
        attempt changes nothing; the first move made restarts.  The ties'
        rows reach Python in chunks of doubling size as the tries consume
        them."""
        seen = set()
        start, chunk = 0, 16
        while start < pending.size:
            for i, j, k, l in self.ends[pending[start:start + chunk]].tolist():
                for m, a in ((i, j), (j, i), (k, l), (l, k)):
                    if on_layer[m] and (m, a) not in seen:
                        seen.add((m, a))
                        yield m, a
            start, chunk = start + chunk, 2 * chunk

    # -- a single verified move ------------------------------------------

    def _attempt_move(self, mover: int, anchor: int) -> bool:
        """Move ``mover`` away from ``anchor`` if some step strictly helps.

        The step is at most min(eps, eps_remaining)/(2n); candidates descend
        until one strictly shrinks the mover's live ties without creating
        new ones.  Moving directly away from ``anchor`` changes that one
        distance by exactly the step size, so the triggering tie cannot
        survive every candidate unless the tolerance floor is reached.  An
        accepted move retires the ties it broke; the tie list never grows.
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
        ties_after = self._row_test(mover, mine)
        # a distance beyond the float range reads inf or nan, and its rung
        # is skipped like one that would make two points coincide
        new_ties = None
        with np.errstate(over="ignore", invalid="ignore"):
            for frac in _LADDER:
                delta = cap * frac
                if delta <= 2.0 * self.tol:
                    break
                cand_pt = self.pts[mover] + delta * unit
                row = norm_many(self.spec, cand_pt[None, :] - self.pts)[others]
                if not 0.0 < row.min() <= row.max() < math.inf:
                    continue
                new_ties = ties_after(row)
                if new_ties is not None:
                    break
        if new_ties is None:
            return False
        if len(self.steps) >= self.max_steps:
            raise BudgetExceeded(f"move log would exceed n*(n-1) = {self.max_steps} steps")
        if self.moved[mover] + delta >= self.eps:
            raise BudgetExceeded(f"point {mover} would move beyond eps = {self.eps}")
        # the others keep their values and their order: merge the mover's
        # sorted row into them, O(P) instead of a sort of all P values.  The
        # merge fills new arrays: filled in place, 1,000 uniform points took
        # twice as long, with 50 times the minor page faults
        rest, rest_sv = self._others_by_value(mine)
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
        self._drop_ties(mover, new_ties)
        return True

    def _others_by_value(self, mine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The flat positions other than ``mine`` ascending by value, and
        their values in that order."""
        self.not_mine[mine] = False
        keep = self.not_mine[self.order]
        self.not_mine[mine] = True
        return self.order[keep], self.sorted_vals[keep]

    def _row_test(self, mover: int, mine: np.ndarray):
        """``ties_after(row)``: sorted tie keys that hold at least the
        mover's ties once its pairs (flat positions ``mine``) take the values
        ``row``, or None unless the row keeps a strict subset of the mover's
        live ties and adds none, so the tie list never grows.  Only ties
        holding the mover can change, so a row is tested against those
        alone, read from the ties indexed by point, cheapest test first: its
        values against the other pairs' sorted values
        (:func:`fng._window_ties`), then among themselves
        (:func:`fng._tied_pairs`), searched only when two of the row's
        sorted values lie within tol (float subtraction is monotone, so any
        two tied values include two adjacent ones)."""
        size, tol = self.vals.size, self.tol
        rest, rest_sv = self._others_by_value(mine)
        touched = self._live_ties(mover)
        touched_keys = self.keys[touched]

        def kept(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
            """The keys of the flat pairs (x, y), or None unless the mover had each."""
            keys = np.minimum(x, y) * size + np.maximum(x, y)
            pos = touched_keys.searchsorted(keys)
            return keys if (touched_keys.take(pos, mode="clip") == keys).all() else None

        def ties_after(row: np.ndarray) -> np.ndarray | None:
            a, b = _window_ties(row, rest_sv, rest_sv.searchsorted(row - 2.0 * tol), tol)
            if a.size >= touched.size:
                return None  # no strict shrink; the new ties are distinct
            new = kept(mine[a], rest[b])
            if new is None:
                return None  # a tie the mover did not have
            sr = np.sort(row)
            if (sr[1:] - sr[:-1] <= tol).any():  # among the mover's own pairs
                p, q = _tied_pairs(row, tol)
                if a.size + p.size >= touched.size:
                    return None
                own = kept(mine[p], mine[q])
                if own is None:
                    return None
                new = np.concatenate([new, own])
            return np.sort(new)

        return ties_after
