import math
import re

import numpy as np
import pytest

from conftest import grid_points
from normplane import perturb
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


def test_perturb_budget_exceeded_when_steps_cannot_clear_tolerance():
    # eps so small that every admissible step stays below the tie tolerance
    with pytest.raises(BudgetExceeded):
        perturb_distinct(lp(2), UNIT_SQUARE, eps=1e-12, tol=1e-9)


def test_perturb_fails_fast_when_no_move_is_admissible(monkeypatch):
    # eps / (2n) <= 4 tol caps every step at the tolerance floor: tie-free
    # input is returned unmoved, and tied input fails before its tied pairs
    # (millions here) are listed
    S = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    S2, report = perturb_distinct(lp(2), S, eps=1e-12, tol=1e-9)
    assert S2.points.tobytes() == S.points.tobytes() and report.steps == ()

    def listed(vals, tol):
        raise AssertionError("tied pairs listed although no move is admissible")

    monkeypatch.setattr(perturb, "_tied_pairs", listed)
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


def _full_rescan(self, mover, mine):
    """The move test as a full ``detect_ties`` rescan of the candidate table."""
    position = {(int(i), int(j)): p for p, (i, j) in enumerate(zip(self.iu, self.ju))}
    today = set(self.ties.tolist())

    def ties_after(row):
        vals = self.vals.copy()
        vals[mine] = row
        table = np.zeros((self.n, self.n))
        table[self.iu, self.ju] = vals
        table[self.ju, self.iu] = vals
        new = {position[a] * vals.size + position[b] for a, b in detect_ties(table, self.tol)}
        return np.array(sorted(new), dtype=np.intp) if new < today else None

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
