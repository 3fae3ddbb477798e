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
(``np.triu_indices`` order, each pair evaluated once), its sort order, and
the ties as sorted keys ``lo * P + hi`` of two flat positions (P = n(n-1)/2).
A move changes only the mover's n - 1 pairs, so a step is accepted when the
ties touching the mover strictly shrink.  Each rung tests only the candidate
row: against the other pairs' sorted values (``np.searchsorted`` in a +-2 tol
window, then the exact ``|a - b| <= tol``) and against itself.

Non-strictly-convex norms are rejected: a flat piece of the unit sphere
yields bisectors with interior, and small translations provably cannot
break such ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DegenerateInput, NotStrictlyConvex
from .fng import DEFAULT_TOL, PointSet, _table_triangle, _tie_offsets, _tied_pairs, _triangle
from .geometry import check_tol, convex_hull
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
        residual_min_gap=_least_gap(worker.vals[worker.order], 0.0),
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
        self.order = np.argsort(self.vals)
        # every rung's cap is at most eps / (2n), so past this floor no move
        # is ever admissible: fail at the tie walk's first step, before listing
        # the (possibly many) ties; without distances (n <= 1) nothing is tied
        if self.vals.size and eps / (2.0 * self.n) <= 4.0 * tol and next(
            _tie_offsets(self.vals[self.order], tol), None
        ):
            raise BudgetExceeded(_NO_MOVE)
        lo, hi = _tied_pairs(self.vals, tol)
        self._set_ties(lo * self.vals.size + hi)

    # -- bookkeeping ---------------------------------------------------

    def _set_ties(self, keys: np.ndarray) -> None:
        self.ties = keys
        lo, hi = np.divmod(keys, self.vals.size)
        # (i, j, k, l) per tie: pairs (i, j) < (k, l), in key order
        self.ends = np.stack([self.iu[lo], self.ju[lo], self.iu[hi], self.ju[hi]], axis=1)
        pairs = np.unique(np.concatenate([lo, hi]))
        self.tied_pairs = set(zip(self.iu[pairs].tolist(), self.ju[pairs].tolist()))
        self.tied_points = set(np.unique(self.ends).tolist())

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        active = np.arange(self.n)
        while self.ties.size and active.size:
            hull = convex_hull(self.pts[active], self.tol)
            tour = active[hull.traversal()].tolist()
            self._directional_sweeps(tour)
            self._residual_breakers(tour)
            active = active[hull.position < 0]
        if self.ties.size:
            raise BudgetExceeded("ties remain after every hull layer was processed")

    def _directional_sweeps(self, tour: list[int]) -> None:
        """Step j moves tied hull vertices away from their j-th predecessor."""
        K = len(tour)
        for j in range(1, K):
            if not self.tied_points.intersection(tour):
                return
            for h in range(K - 1, -1, -1):
                mover = tour[h]
                anchor = tour[(h - j) % K]
                if j == 1:
                    trigger = mover in self.tied_points
                else:
                    trigger = (min(mover, anchor), max(mover, anchor)) in self.tied_pairs
                if trigger:
                    # best effort: symmetric configurations can survive a
                    # directional move; the residual phase handles them
                    self._attempt_move(mover, anchor)

    def _residual_breakers(self, tour: list[int]) -> None:
        """Break every remaining tie that touches the current hull layer."""
        tour_set = set(tour)
        while True:
            pending = self.ends[np.isin(self.ends, tour).any(axis=1)].tolist()
            if not pending:
                return
            # in tie order, each side's endpoints on the layer move away
            # from the side's other endpoint, each (mover, anchor) once, as
            # a failed attempt changes nothing; the first move made restarts
            seen = set()
            tries = (
                (m, a) for i, j, k, l in pending
                for m, a in ((i, j), (j, i), (k, l), (l, k))
                if m in tour_set and (m, a) not in seen and not seen.add((m, a))
            )
            if not any(self._attempt_move(mover, anchor) for mover, anchor in tries):
                raise BudgetExceeded(_NO_MOVE)

    # -- a single verified move ------------------------------------------

    def _attempt_move(self, mover: int, anchor: int) -> bool:
        """Move ``mover`` away from ``anchor`` if some step strictly helps.

        The step is at most min(eps, eps_remaining)/(2n); candidates descend
        until one strictly shrinks the tie set without creating new ties.
        Moving directly away from ``anchor`` changes that one distance by
        exactly the step size, so the triggering tie cannot survive every
        candidate unless the tolerance floor is reached.
        """
        remaining = self.eps - self.moved[mover]
        cap = min(self.eps, remaining) / (2.0 * self.n)
        if cap <= 4.0 * self.tol:
            return False
        direction = self.pts[mover] - self.pts[anchor]
        dn = float(norm_many(self.spec, direction))
        unit = direction / dn
        others = np.flatnonzero(np.arange(self.n) != mover)
        lo, hi = np.minimum(others, mover), np.maximum(others, mover)
        mine = lo * (2 * self.n - lo - 1) // 2 + hi - lo - 1  # flat positions
        ties_after = self._row_test(mover, mine)
        for frac in _LADDER:
            delta = cap * frac
            if delta <= 2.0 * self.tol:
                break
            cand_pt = self.pts[mover] + delta * unit
            row = norm_many(self.spec, cand_pt[None, :] - self.pts)[others]
            if np.any(row <= 0.0):
                continue
            new_ties = ties_after(row)
            if new_ties is not None:
                if len(self.steps) >= self.max_steps:
                    raise BudgetExceeded(
                        f"move log would exceed n*(n-1) = {self.max_steps} steps"
                    )
                if self.moved[mover] + delta >= self.eps:
                    raise BudgetExceeded(
                        f"point {mover} would move beyond eps = {self.eps}"
                    )
                self.pts[mover] = cand_pt
                self.vals[mine] = row
                self.order = np.argsort(self.vals)
                self.moved[mover] += delta
                self.steps.append((mover, (mover, anchor), float(delta)))
                self._set_ties(new_ties)
                return True
        return False

    def _row_test(self, mover: int, mine: np.ndarray):
        """``ties_after(row)``: the tie keys once the mover's pairs (flat
        positions ``mine``) take the values ``row``, if a strict subset of
        today's ties, else None; only ties touching the mover can change."""
        size, tol = self.vals.size, self.tol
        rest = self.order[~np.isin(self.order, mine, kind="table")]  # the others, by value
        rest_sv = self.vals[rest]
        touching = (self.ends == mover).any(axis=1)
        kept, touched = self.ties[~touching], set(self.ties[touching].tolist())

        def ties_after(row: np.ndarray) -> np.ndarray | None:
            # a window wide enough for any rounding of row -+ tol, then the
            # exact predicate of detect_ties (|a - b| is symmetric in sign)
            lo = np.searchsorted(rest_sv, row - 2.0 * tol, side="left")
            width = np.searchsorted(rest_sv, row + 2.0 * tol, side="right") - lo
            a = np.repeat(np.arange(row.size), width)
            b = np.arange(a.size) + np.repeat(lo - np.cumsum(width) + width, width)
            hit = np.abs(row[a] - rest_sv[b]) <= tol
            p, q = _tied_pairs(row, tol)  # among the mover's own pairs
            x = np.concatenate([mine[a[hit]], mine[p]])
            y = np.concatenate([rest[b[hit]], mine[q]])
            new = np.minimum(x, y) * size + np.maximum(x, y)
            if new.size < len(touched) and touched.issuperset(new.tolist()):
                return np.sort(np.concatenate([kept, new]))
            return None

        return ties_after
