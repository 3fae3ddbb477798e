"""Deterministic perturbation making all pairwise distances distinct.

Only valid in strictly convex planes, where bisectors are curves: moving a
point off a bisector breaks the corresponding tie, and moving it directly
away from a tie partner changes that distance by exactly the step size.
The procedure works the convex-hull layers inward: directional sweeps move
each hull vertex away from its j-th hull predecessor, residual ties that
still touch the current hull are broken by moves directly away from the tie
partner, then the hull layer is retired and the interior is processed, with
the minimum distance gap always measured against the whole set.

Non-strictly-convex norms are rejected: a flat piece of the unit sphere
yields bisectors with interior, and small translations provably cannot
break such ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DegenerateInput, NotStrictlyConvex
from .fng import DEFAULT_TOL, PointSet, detect_ties, pairwise_distances
from .geometry import convex_hull
from .norms import NormSpec, is_strictly_convex, norm_many

# fractions of the per-move cap tried for each move, largest first; a move
# is accepted only if it strictly shrinks the tie set without adding ties
_LADDER = (
    1.0, 15 / 16, 7 / 8, 13 / 16, 3 / 4, 11 / 16, 5 / 8, 9 / 16,
    1 / 2, 7 / 16, 3 / 8, 5 / 16, 1 / 4, 3 / 16, 1 / 8, 1 / 16, 1 / 32, 1 / 64,
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
    t = np.asarray(table, dtype=float)
    n = t.shape[0]
    if n < 2:
        return math.inf
    vals = np.sort(t[np.triu_indices(n, k=1)])
    diffs = np.diff(vals)
    inter = diffs[diffs > tol]
    return float(inter.min()) if inter.size else math.inf


def perturb_distinct(
    spec: NormSpec, S: PointSet, eps: float, tol: float = DEFAULT_TOL
) -> tuple[PointSet, PerturbReport]:
    """Move each point less than eps so that all pairwise distances differ.

    Raises NotStrictlyConvex for norms whose unit sphere has flat pieces,
    and BudgetExceeded if a point would have to move further than eps or
    the move log would exceed n*(n-1) steps.
    """
    if not is_strictly_convex(spec):
        raise NotStrictlyConvex(
            f"{spec.label()} is not strictly convex; perturbation cannot break its ties"
        )
    if not eps > 0.0:
        raise DegenerateInput("eps must be positive")
    worker = _Perturber(spec, S, eps, tol)
    worker.run()
    disp = norm_many(spec, worker.pts - S.points)
    report = PerturbReport(
        displacement=tuple(float(x) for x in disp),
        steps=tuple(worker.steps),
        residual_min_gap=min_distance_gap(worker.table, 0.0),
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
        self.table = pairwise_distances(spec, S)
        self._set_ties(frozenset(detect_ties(self.table, self.tol)))

    # -- bookkeeping ---------------------------------------------------

    def _set_ties(self, ties: frozenset) -> None:
        self.ties = ties
        self.tied_pairs = {p for tie in ties for p in tie}
        self.tied_points = {i for pair in self.tied_pairs for i in pair}

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        active = list(range(self.n))
        while self.ties and active:
            tour = self._hull_tour(active)
            self._directional_sweeps(tour)
            self._residual_breakers(tour)
            retired = set(tour)
            active = [i for i in active if i not in retired]
        if self.ties:
            raise BudgetExceeded("ties remain after every hull layer was processed")

    def _hull_tour(self, active: list[int]) -> list[int]:
        hull = convex_hull(self.pts[active], self.tol)
        return [active[i] for i in hull.traversal()]

    def _directional_sweeps(self, tour: list[int]) -> None:
        """Step j moves tied hull vertices away from their j-th predecessor."""
        K = len(tour)
        for j in range(1, K):
            if not self.tied_points.intersection(tour):
                return
            for h in range(K - 1, -1, -1):
                mover = tour[h]
                anchor = tour[(h - j) % K]
                if mover == anchor:
                    continue
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
            pending = [
                tie for tie in sorted(self.ties)
                if tour_set.intersection(tie[0]) or tour_set.intersection(tie[1])
            ]
            if not pending:
                return
            progressed = False
            for tie in pending:
                for side in tie:
                    for mover in side:
                        if mover not in tour_set:
                            continue
                        anchor = side[1] if mover == side[0] else side[0]
                        if self._attempt_move(mover, anchor):
                            progressed = True
                            break
                    if progressed:
                        break
                if progressed:
                    break
            if not progressed:
                raise BudgetExceeded(
                    "no admissible move breaks the remaining ties "
                    "(step budget or tolerance floor reached)"
                )

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
        if dn <= 0.0:
            return False
        unit = direction / dn
        others = np.arange(self.n) != mover
        for frac in _LADDER:
            delta = cap * frac
            if delta <= 2.0 * self.tol:
                break
            cand_pt = self.pts[mover] + delta * unit
            row = norm_many(self.spec, cand_pt[None, :] - self.pts)
            row[mover] = 0.0
            if np.any(row[others] <= 0.0):
                continue
            cand_table = self.table.copy()
            cand_table[mover, :] = row
            cand_table[:, mover] = row
            new_ties = frozenset(detect_ties(cand_table, self.tol))
            if new_ties < self.ties:
                if len(self.steps) >= self.max_steps:
                    raise BudgetExceeded(
                        f"move log would exceed n*(n-1) = {self.max_steps} steps"
                    )
                if self.moved[mover] + delta >= self.eps:
                    raise BudgetExceeded(
                        f"point {mover} would move beyond eps = {self.eps}"
                    )
                self.pts[mover] = cand_pt
                self.table = cand_table
                self.moved[mover] += delta
                self.steps.append((mover, (mover, anchor), float(delta)))
                self._set_ties(new_ties)
                return True
        return False
