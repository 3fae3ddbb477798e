import hashlib
import math
import re
import sys
import warnings

import numpy as np
import pytest

from conftest import grid_points
from normplane import fng, perturb
from normplane import (
    BudgetExceeded,
    DegenerateInput,
    NotStrictlyConvex,
    PointSet,
    detect_ties,
    distance,
    linf,
    lp,
    min_distance_gap,
    mxst_bruteforce,
    mxst_mpsy,
    pairwise_distances,
    perturb_distinct,
    polygonal,
)

UNIT_SQUARE = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def test_min_distance_gap_reference():
    t = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    assert min_distance_gap(t) == pytest.approx(1.0)
    t = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    assert min_distance_gap(t) == pytest.approx(4.0)
    single = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert min_distance_gap(single) == math.inf


def test_the_perturber_sorts_the_triangle_once(monkeypatch):
    # the value order feeds the floor check and the tie masks alike
    sizes, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: sizes.append(np.size(a))
                        or argsort(a, *args, **kw))
    S = PointSet(np.array([(i, j) for j in range(6) for i in range(6)], dtype=float))
    worker = perturb._Perturber(lp(2), S, 1e-3, 1e-9)
    assert sizes.count(worker.vals.size) == 1 and worker.pair_tied.any()


def test_min_distance_gap_matches_bruteforce(rng):
    for _ in range(50):
        n = int(rng.integers(3, 12))
        vals = np.round(rng.uniform(0.5, 5.0, size=n * (n - 1) // 2), 1)
        t = np.zeros((n, n))
        iu, ju = np.triu_indices(n, k=1)
        t[iu, ju] = vals
        t += t.T
        tol = 1e-9
        best = math.inf
        for a in range(len(vals)):
            for b in range(len(vals)):
                d = abs(vals[a] - vals[b])
                if d > tol:
                    best = min(best, d)
        assert min_distance_gap(t, tol) == pytest.approx(best)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_min_distance_gap_rejects_a_negative_or_non_finite_tol(tol):
    t = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    with pytest.raises(DegenerateInput, match="^tol must be finite and non-negative, got "):
        min_distance_gap(t, tol)


@pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2, 2)])
def test_min_distance_gap_rejects_a_table_that_is_not_square(shape):
    message = f"expected a square distance table, got shape {shape}"
    with pytest.raises(DegenerateInput, match=f"^{re.escape(message)}$"):
        min_distance_gap(np.zeros(shape))


def test_perturb_equilateral_triangle():
    S = PointSet(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]]))
    S2, report = perturb_distinct(lp(2), S, eps=0.1)
    assert detect_ties(pairwise_distances(lp(2), S2)) == []
    assert max(report.displacement) < 0.1
    assert report.residual_min_gap > 0
    # displacements measured in the active norm against the originals
    for i in range(3):
        assert report.displacement[i] == pytest.approx(
            distance(lp(2), S2.points[i], S.points[i])
        )


def test_perturb_square_then_tree_pipeline():
    S2, report = perturb_distinct(lp(2), UNIT_SQUARE, eps=0.05)
    assert detect_ties(pairwise_distances(lp(2), S2)) == []
    assert max(report.displacement) < 0.05
    tree, _ = mxst_mpsy(lp(2), S2)
    assert tree.edge_set() == mxst_bruteforce(lp(2), S2).edge_set()


def test_perturb_rejects_non_strictly_convex():
    for spec in (linf(), lp(1), polygonal([[1, 1], [-1, 1], [-1, -1], [1, -1]])):
        with pytest.raises(NotStrictlyConvex):
            perturb_distinct(spec, UNIT_SQUARE, eps=0.05)


@pytest.mark.parametrize("eps", [math.inf, math.nan, -math.inf, 0.0, -1.0])
def test_perturb_rejects_non_finite_or_non_positive_eps(eps):
    # eps = inf used to step the tied square to NaN coordinates and end in
    # BudgetExceeded "would move beyond eps = inf"
    with pytest.raises(DegenerateInput, match="^eps must be positive and finite"):
        perturb_distinct(lp(2), UNIT_SQUARE, eps=eps)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_perturb_rejects_a_negative_or_non_finite_tol(tol):
    # at tol -1 or nan the square used to come back unmoved, its 7 ties left
    with pytest.raises(DegenerateInput, match="^tol must be finite and non-negative, got "):
        perturb_distinct(lp(2), UNIT_SQUARE, 1e-3, tol=tol)


def test_perturb_budget_exceeded_when_steps_cannot_clear_tolerance():
    # eps so small that every admissible step stays below the tie tolerance
    with pytest.raises(BudgetExceeded):
        perturb_distinct(lp(2), UNIT_SQUARE, eps=1e-12, tol=1e-9)


def test_an_attempt_at_the_tolerance_floor_evaluates_no_rung(monkeypatch):
    # eps / (2n) = 4.04 tol lets a point move once: mover 3's later attempts
    # find their cap min(eps, eps - moved) / (2n) at most 4 tol and return
    # False before any distance is evaluated, and the square's ties remain
    attempt, norm_many = perturb._Perturber._attempt_move, perturb.norm_many
    evaluations, floored = [], []
    monkeypatch.setattr(perturb, "norm_many",
                        lambda *args: evaluations.append(1) or norm_many(*args))

    def checked(self, mover, anchor):
        at_floor = (self.eps - self.moved[mover]) / (2.0 * self.n) <= 4.0 * self.tol
        before = len(evaluations)
        moved = attempt(self, mover, anchor)
        if at_floor:
            floored.append(mover)
            assert moved is False and len(evaluations) == before
        return moved

    monkeypatch.setattr(perturb._Perturber, "_attempt_move", checked)
    message = re.escape(
        "no admissible move breaks the remaining ties (step budget or tolerance floor reached)"
    )
    tol = 1e-9
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        perturb_distinct(lp(2), UNIT_SQUARE, eps=8 * UNIT_SQUARE.n * tol * 1.01, tol=tol)
    assert set(floored) == {3}


def test_perturb_stops_at_the_step_budget(monkeypatch):
    # the square takes 3 moves under lp:4; with the log capped at one step
    # the second accepted move must raise instead of being recorded
    init = perturb._Perturber.__init__

    def capped(self, *args):
        init(self, *args)
        self.max_steps = 1

    monkeypatch.setattr(perturb._Perturber, "__init__", capped)
    message = re.escape("move log would exceed n*(n-1) = 1 steps")
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        perturb_distinct(lp(4), UNIT_SQUARE, eps=1e-3)


def test_perturb_fails_fast_when_no_move_is_admissible(monkeypatch):
    # eps / (2n) <= 4 tol caps every step at the tolerance floor: tie-free
    # input is returned unmoved, and tied input fails before its tied pairs
    # (millions here) are listed
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    S2, report = perturb_distinct(lp(2), S, eps=1e-12, tol=1e-9)
    assert S2.points.tobytes() == S.points.tobytes() and report.steps == ()

    def listed(*args):
        raise AssertionError("tied pairs listed although no move is admissible")

    monkeypatch.setattr(perturb._Perturber, "_ties_holding", listed)
    monkeypatch.setattr(perturb, "_window_ties", listed)
    message = re.escape(
        "no admissible move breaks the remaining ties (step budget or tolerance floor reached)"
    )
    rng = np.random.default_rng(11)
    for _ in range(3):
        S = PointSet(rng.uniform(0.0, 0.01, size=(100, 2)))
        with pytest.raises(BudgetExceeded, match=f"^{message}$"):
            perturb_distinct(lp(2), S, eps=1e-3, tol=1e-3)
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        perturb_distinct(lp(2), UNIT_SQUARE, eps=1e-12, tol=1e-9)


@pytest.mark.parametrize("n", [0, 1])
def test_perturb_returns_fewer_than_two_points_unmoved(n):
    S = PointSet(np.random.default_rng(3).uniform(size=(n, 2)))
    for tol in (0.0, 1e-9):
        S2, report = perturb_distinct(lp(2), S, eps=1e-3, tol=tol)
        assert S2.points.tobytes() == S.points.tobytes() and S2.n == n
        assert report.steps == () and report.displacement == (0.0,) * n
        assert report.residual_min_gap == math.inf


def test_residual_breakers_try_each_move_once_per_tie_state(monkeypatch):
    # 18 uniform points scaled by 2**-600: every distance lies below the
    # absolute tol, so every pair ties and each tie lists the same
    # (mover, anchor) pairs again.  A failed attempt leaves the ties as they
    # were, so a repeated (mover, anchor, steps so far) is wasted work; the
    # unfiltered loop made 560 attempts over 80 such triples
    attempts, residual = [], []
    breakers, attempt = perturb._Perturber._residual_breakers, perturb._Perturber._attempt_move

    def in_residual_phase(self, tour):
        residual.append(tour)
        try:
            return breakers(self, tour)
        finally:
            residual.pop()

    def counted(self, mover, anchor):
        if residual:
            attempts.append((mover, anchor, len(self.steps)))
        return attempt(self, mover, anchor)

    monkeypatch.setattr(perturb._Perturber, "_residual_breakers", in_residual_phase)
    monkeypatch.setattr(perturb._Perturber, "_attempt_move", counted)
    S = PointSet(np.random.default_rng(1).uniform(size=(18, 2)) * 2.0 ** -600)
    message = re.escape(
        "no admissible move breaks the remaining ties (step budget or tolerance floor reached)"
    )
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        perturb_distinct(lp(2), S, eps=1e-3)
    assert attempts and len(set(attempts)) == len(attempts)


def test_perturb_step_log_and_budget_accounting(rng):
    for trial in range(30):
        n = int(rng.integers(4, 26))
        S = grid_points(rng, n)
        spec = [lp(2), lp(1.5), lp(4)][trial % 3]
        S2, report = perturb_distinct(spec, S, eps=1e-3)
        assert detect_ties(pairwise_distances(spec, S2)) == []
        assert max(report.displacement) < 1e-3
        assert len(report.steps) <= n * (n - 1)
        # every step: (mover, (mover, anchor), size), size positive
        for mover, (a, b), size in report.steps:
            assert mover == a and a != b and size > 0


def test_perturb_noop_when_already_distinct(rng):
    pts = rng.uniform(-5, 5, size=(10, 2))
    S = PointSet(pts)
    if detect_ties(pairwise_distances(lp(2), S)):
        pytest.skip("random draw collided")
    S2, report = perturb_distinct(lp(2), S, eps=0.01)
    assert report.steps == ()
    assert np.array_equal(S2.points, S.points)


def test_single_move_breaks_bisector_tie(rng):
    # y equidistant from p and q; pushing y away from p leaves the bisector
    from normplane import sample_bisector

    for spec in (lp(2), lp(1.5), lp(4)):
        p = np.array([-1.0, 0.2])
        q = np.array([1.0, -0.3])
        sample = sample_bisector(spec, p, q, count=7, extent=2.0)
        for y in sample.points:
            for eps in (0.1, 1.0, 10.0):
                moved = y + eps * (y - p)
                assert distance(spec, moved, q) < distance(spec, moved, p)


DECAGON = [
    [math.cos(2 * math.pi * k / 10), math.sin(2 * math.pi * k / 10)] for k in range(10)
]


def test_polygonal_ball_translation_keeps_ties():
    # two difference vectors on the same flat edge of a decagon ball:
    # translating the points horizontally slides both differences along the
    # flat, so the gauge ties survive every such perturbation
    ball = polygonal(DECAGON)
    top_y = math.sin(2 * math.pi * 2 / 10)  # flat edge between 72 and 108 deg
    p1 = np.array([0.0, 0.0])
    p2 = p1 + np.array([0.10, top_y])
    p3 = p1 + np.array([-0.20, top_y])
    S = PointSet(np.array([p1, p2, p3]))
    assert distance(ball, p1, p2) == pytest.approx(1.0, abs=1e-12)
    assert distance(ball, p1, p3) == pytest.approx(1.0, abs=1e-12)
    assert detect_ties(pairwise_distances(ball, S)) != []

    eps = np.array([0.0, 0.03, 0.07])  # distinct per-point horizontal shifts
    moved = S.points + np.stack([eps, np.zeros(3)], axis=1)
    S_moved = PointSet(moved)
    d12 = distance(ball, moved[0], moved[1])
    d13 = distance(ball, moved[0], moved[2])
    assert d12 == pytest.approx(1.0, abs=1e-12)
    assert d13 == pytest.approx(1.0, abs=1e-12)
    assert detect_ties(pairwise_distances(ball, S_moved)) != []


def _ties_of(vals, tol):
    """The tie keys ``lo * P + hi`` of the P values, sorted, from a rescan."""
    order = np.argsort(vals)
    a, b = fng._sorted_ties(vals[order], tol)
    return np.sort(fng._tie_key(order[a], order[b], vals.size))


def _rescan(self):
    """Today's tie keys, sorted, from a rescan of the values."""
    return _ties_of(self.vals, self.tol)


def _full_rescan(self, mine, *others):
    """The move test as a full ``detect_ties`` rescan of the candidate table."""
    position = {(int(i), int(j)): p for p, (i, j) in enumerate(zip(self.iu, self.ju))}
    today = set(_rescan(self).tolist())

    def ties_after(row):
        vals = self.vals.copy()
        vals[mine] = row
        table = np.zeros((self.n, self.n))
        table[self.iu, self.ju] = vals
        table[self.ju, self.iu] = vals
        new = {position[a] * vals.size + position[b] for a, b in detect_ties(table, self.tol)}
        return new < today

    return ties_after


def _perturb_outcome(spec, S, eps, tol):
    try:
        S2, report = perturb_distinct(spec, S, eps=eps, tol=tol)
    except BudgetExceeded as exc:
        return str(exc)
    return S2.points.tobytes(), report


@pytest.mark.parametrize("tol, eps, n_max", [(0.0, 1e-3, 20), (1e-9, 1e-3, 20), (1e-3, 0.5, 12)])
def test_row_move_test_matches_full_rescan(monkeypatch, tol, eps, n_max):
    # perturb_distinct re-checks only the moved row; a full rescan of the
    # candidate table must accept exactly the same moves
    rng = np.random.default_rng(31337)
    cases = [
        (spec, grid_points(rng, int(rng.integers(4, n_max + 1))))
        for _ in range(4)
        for spec in (lp(1.5), lp(2.0), lp(4.0))
    ]
    shipped = [_perturb_outcome(spec, S, eps, tol) for spec, S in cases]
    monkeypatch.setattr(perturb._Perturber, "_row_test", _full_rescan)
    rescanned = [_perturb_outcome(spec, S, eps, tol) for spec, S in cases]
    assert rescanned == shipped
    assert sum(isinstance(out, tuple) and len(out[1].steps) > 0 for out in shipped) >= 6


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_accepted_moves_only_shrink_the_tie_list(monkeypatch, tol):
    # the ties of a rescan of the distances after every accepted move are a
    # strict subset of those before it, and after every attempt the pair
    # and point masks equal masks built from that rescan
    attempt = perturb._Perturber._attempt_move
    moves = []

    def checked(self, mover, anchor):
        before = _rescan(self)
        moved = attempt(self, mover, anchor)
        after = _rescan(self)
        if moved:
            moves.append(mover)
            assert after.size < before.size and np.isin(after, before).all()
        else:
            assert np.array_equal(after, before)
        pair = np.zeros(self.vals.size, dtype=bool)
        pair[np.concatenate(np.divmod(after, self.vals.size))] = True
        point = np.zeros(self.n, dtype=bool)
        point[self.iu[pair]] = point[self.ju[pair]] = True
        assert np.array_equal(self.pair_tied, pair) and np.array_equal(self.point_tied, point)
        return moved

    monkeypatch.setattr(perturb._Perturber, "_attempt_move", checked)
    rng = np.random.default_rng(4242)
    for k in range(4, 21):
        for spec in (lp(2), lp(1.5), lp(4)):
            S = grid_points(rng, k)
            S2, report = perturb_distinct(spec, S, eps=1e-3, tol=tol)
            assert detect_ties(pairwise_distances(spec, S2), tol) == []
    assert len(moves) > 100


def _ties_holding_bank(monkeypatch, tol):
    """Perturb a grid bank, checking every tie search (the mover's ties that
    a move's test reads, the layer's ties that the residual phase reads)
    against a full rescan; returns the name of each search's caller."""
    ties_holding = perturb._Perturber._ties_holding
    checks = []

    def checked(self, mine):
        found = ties_holding(self, mine)
        today = _rescan(self)
        lo, hi = np.divmod(today, self.vals.size)
        held = np.isin(lo, mine) | np.isin(hi, mine)
        assert np.array_equal(found, today[held])
        # the pairs searched are exactly the mover's pairs in those ties
        in_ties = np.intersect1d(mine, np.concatenate([lo[held], hi[held]]))
        assert np.array_equal(mine[self.pair_tied[mine]], in_ties)
        checks.append(sys._getframe(1).f_code.co_name)
        return found

    monkeypatch.setattr(perturb._Perturber, "_ties_holding", checked)
    rng = np.random.default_rng(6464)
    for k in range(4, 17):
        for spec in (lp(2), lp(1.5), lp(4)):
            _perturb_outcome(spec, grid_points(rng, k), 1e-3, tol)
    return checks


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_mover_ties_match_a_full_rescan_at_every_attempt(monkeypatch, tol):
    # a move's test reads the mover's current ties once, by the window
    # search over the mover's pairs that pair_tied flags, and the residual
    # phase reads its layer's ties by the same search; every time they must
    # be the ties a rescan of all distances finds holding the pairs given.
    # Ties only break, so masks left from before the last move flag a
    # superset of the tied pairs and the search still finds the same ties:
    # the check on the pairs searched is what must catch them
    checks = _ties_holding_bank(monkeypatch, tol)
    assert len(checks) > 100 and "_residual_breakers" in checks

    mark = perturb._Perturber._mark_ties

    def lagging(self):
        built = getattr(self, "built", None)
        mark(self)
        self.built = self.pair_tied, self.point_tied
        if built is not None:
            self.pair_tied, self.point_tied = built

    monkeypatch.setattr(perturb._Perturber, "_mark_ties", lagging)
    with pytest.raises(AssertionError):
        _ties_holding_bank(monkeypatch, tol)


@pytest.mark.parametrize("spec", [lp(1.5), lp(2), lp(4)], ids=["lp1.5", "lp2", "lp4"])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_merged_order_sorts_the_values_after_every_move(monkeypatch, spec, tol):
    # an accepted move merges the mover's sorted row into the others' order;
    # the result must still be a permutation of the P flat positions that
    # reads the values in non-decreasing order, with sorted_vals those values
    attempt = perturb._Perturber._attempt_move
    moves = []

    def checked(self, mover, anchor):
        moved = attempt(self, mover, anchor)
        if moved:
            moves.append(mover)
            assert np.array_equal(np.sort(self.order), np.arange(self.vals.size))
            assert (np.diff(self.vals[self.order]) >= 0.0).all()
            assert np.array_equal(self.sorted_vals, self.vals[self.order])
        return moved

    monkeypatch.setattr(perturb._Perturber, "_attempt_move", checked)
    rng = np.random.default_rng(5151)
    for k in (6, 12, 20):
        perturb_distinct(spec, grid_points(rng, k), eps=1e-3, tol=tol)
    perturb_distinct(spec, PointSet(rng.uniform(0.0, 0.01, size=(30, 2))), eps=1e-3, tol=tol)
    assert len(moves) > 20


def _triangle_rescan(self, mine, *others):
    """The move test as a rescan of the whole candidate triangle's ties."""
    today = _rescan(self)

    def ties_after(row):
        vals = self.vals.copy()
        vals[mine] = row
        new = _ties_of(vals, self.tol)
        return new.size < today.size and bool(np.isin(new, today).all())

    return ties_after


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_own_pair_search_runs_and_matches_the_full_rescan(monkeypatch, tol):
    # on full grids some rungs' rows tie among their own pairs (a grid point
    # keeps mirror-image distances); the own-pair search (_sorted_ties on
    # the sorted row) must find ties there, and every move must be the one
    # a rescan of the whole candidate triangle accepts
    sorted_ties = perturb._sorted_ties
    calls = []

    def counted(sv, tol):
        lo, hi = sorted_ties(sv, tol)
        calls.append((sv.size, lo.size))
        return lo, hi

    cases = [(spec, PointSet(np.array([(i, j) for j in range(k) for i in range(k)], dtype=float)))
             for k in (5, 6) for spec in (lp(1.5), lp(2.0), lp(4.0))]
    monkeypatch.setattr(perturb, "_sorted_ties", counted)
    shipped = [_perturb_outcome(spec, S, 1e-3, tol) for spec, S in cases]
    # a row holds n - 1 values, the whole triangle n(n - 1)/2
    rows = [tied for size, tied in calls if size in {S.n - 1 for _, S in cases}]
    monkeypatch.setattr(perturb._Perturber, "_row_test", _triangle_rescan)
    rescanned = [_perturb_outcome(spec, S, 1e-3, tol) for spec, S in cases]
    assert rescanned == shipped
    assert all(isinstance(out, tuple) and out[1].steps for out in shipped)
    assert sum(tied > 0 for tied in rows) >= 10


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_tied_pairs_match_every_pair_compared(tol):
    # a rung's own pairs come from _sorted_ties on the row in value order,
    # and detect_ties's keys (fng._tie_key) from the same search, sorted;
    # both must be exactly the pairs of a row whose |a - b| <= tol, checked
    # on rows with exact repeats and neighbours one ulp apart.  The rung's
    # cross pairs come from the same window search (fng._window_ties) of
    # the row against the other pairs' sorted values: exactly the pairs
    # with |row - rest| <= tol, checked on a rest holding each picked row
    # value repeated, one ulp either side and tol either side
    rng = np.random.default_rng(808)
    found = crossed = 0
    for trial in range(200):
        m = int(rng.integers(1, 40))
        row = rng.uniform(0.5, 2.0, size=m)
        if m > 1:
            picks = rng.integers(0, m, size=(int(rng.integers(1, m + 1)), 2))
            for dst, src in picks.tolist():
                row[dst] = [row[src], np.nextafter(row[src], 3.0), np.nextafter(row[src], 0.0),
                            row[src] + tol, row[src] - 0.5 * tol][trial % 5]
        by_value = np.argsort(row)
        lo, hi = np.divmod(_ties_of(row, tol), m)
        iu, ju = np.triu_indices(m, k=1)
        close = np.abs(row[iu] - row[ju]) <= tol
        assert lo.tolist() == iu[close].tolist() and hi.tolist() == ju[close].tolist()
        p, q = (by_value[x] for x in fng._sorted_ties(row[by_value], tol))
        own = sorted(zip(np.minimum(p, q).tolist(), np.maximum(p, q).tolist()))
        assert own == list(zip(lo.tolist(), hi.tolist()))
        found += lo.size
        planted = row[rng.integers(0, m, size=int(rng.integers(0, m + 1)))]
        rest = np.sort(np.concatenate([
            rng.uniform(0.5, 2.0, size=int(rng.integers(0, 40))),
            planted, np.nextafter(planted, 3.0), np.nextafter(planted, 0.0),
            planted + tol, planted - tol,
        ]))
        g, b = fng._window_ties(row, rest, tol)
        g_all, b_all = np.nonzero(np.abs(row[:, None] - rest) <= tol)
        assert g.tolist() == g_all.tolist() and b.tolist() == b_all.tolist()
        crossed += g.size
    assert found > 200 and crossed > 200


def test_a_rung_beyond_the_float_range_is_skipped():
    # the first set's largest step would carry its outer point past the
    # largest float, and the square's would carry a diagonal beyond it: such
    # rungs are skipped without a warning and a smaller step is taken, so
    # every coordinate and distance stays finite
    u = 2.0 ** 1023
    for pts in ([[1.46875 * u, 0.0], [1.71875 * u, 0.0], [1.96875 * u, 0.0]],
                [[0.0, 0.0], [1.2e308, 0.0], [1.2e308, 1.2e308], [0.0, 1.2e308]]):
        S = PointSet(np.array(pts))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S2, report = perturb_distinct(lp(2), S, eps=1.7e308)
        assert report.steps and np.isfinite(S2.points).all()
        vals = pairwise_distances(lp(2), S2)[np.triu_indices(S.n, k=1)]
        assert np.isfinite(vals).all() and detect_ties(pairwise_distances(lp(2), S2)) == []


def _pinned_bank():
    """Full k x k grids (k = 3-6) in both point orders, six seeded 20-point
    grids and 30 uniform points in a 0.01 square."""
    sets = []
    for k in range(3, 7):
        sets.append(np.array([(i, j) for j in range(k) for i in range(k)], dtype=float))
        sets.append(np.array([(i, j) for i in range(k) for j in range(k)], dtype=float))
    rng = np.random.default_rng(2929)
    sets += [grid_points(rng, 20).points for _ in range(6)]
    sets.append(rng.uniform(0.0, 0.01, size=(30, 2)))
    return [PointSet(pts) for pts in sets]


# sha256 of the bank's outcomes, recorded at 7b67e73
PERTURB_GOLDEN = "b6381d9a5f7d1ab11111f9c0e354fed58162ab6548fba4f172e8b334ad3bbdc6"


def test_perturb_outcomes_are_pinned():
    # each outcome: the point bytes, the step log and the residual gap, or
    # the exception's type and message; a numpy scalar reaching the step
    # log changes its repr and shows here
    digest = hashlib.sha256()
    for S in _pinned_bank():
        for spec in (lp(1.5), lp(2), lp(4)):
            for tol in (0.0, 1e-9):
                try:
                    S2, report = perturb_distinct(spec, S, eps=1e-3, tol=tol)
                except Exception as exc:  # noqa: BLE001 - the outcome is the exception
                    outcome = (type(exc).__name__, str(exc))
                else:
                    outcome = (S2.points.tobytes(), report.steps, report.residual_min_gap)
                digest.update(repr(outcome).encode())
    assert digest.hexdigest() == PERTURB_GOLDEN
