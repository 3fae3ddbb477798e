import numpy as np
import pytest

import normplane.clustering as clustering_module
from conftest import tie_free_points
from normplane import (
    DegenerateInput,
    DegenerateSegment,
    Line,
    NormPlaneError,
    PointSet,
    TooLarge,
    diameter,
    euclidean,
    line_through,
    lp,
    mxst_mpsy,
    pairwise_distances,
    stabbing_line,
    two_clustering,
    two_clustering_bruteforce,
)


def test_diameter_basic(rng):
    S = PointSet(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))
    assert diameter(lp(2), S, []) == diameter(lp(2), S, np.array([])) == 0.0
    assert diameter(lp(2), S, [0]) == 0.0
    assert diameter(lp(2), S, [0, 1]) == pytest.approx(5.0)
    for subset in ({1, 0}, (np.int32(0), np.uint8(1)), np.array([1, 0], dtype=np.uint64)):
        assert diameter(lp(2), S, subset) == diameter(lp(2), S, [0, 1])
    pts = rng.uniform(-5, 5, size=(12, 2))
    S = PointSet(pts)
    subset = [1, 3, 5, 8]
    best = max(
        float(np.linalg.norm(pts[a] - pts[b])) for a in subset for b in subset
    )
    assert diameter(lp(2), S, subset) == pytest.approx(best)


@pytest.mark.parametrize("index", [-1, 3])
def test_diameter_rejects_an_index_outside_the_set(index):
    # index -1 used to wrap silently to the last point
    S = PointSet(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))
    for subset in ([index], [0, index]):
        with pytest.raises(DegenerateInput, match=r"^subset indices must lie in \[0, 3\)"):
            diameter(lp(2), S, subset)


@pytest.mark.parametrize("subset", [[0.7, 1.2], [-0.5, 1], [True, False], np.array([0.0, 1.0])])
def test_diameter_rejects_indices_that_are_not_integers(subset):
    # these used to be truncated to {0, 1} and return 5.0
    S = PointSet(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))
    with pytest.raises(DegenerateInput, match=r"^subset indices must be integers, got dtype "):
        diameter(lp(2), S, subset)


def test_stabbing_line_rejects_an_empty_family():
    # every line meets an empty family, so None ("no transversal") would be wrong
    with pytest.raises(DegenerateInput, match="^an empty segment family has every line"):
        stabbing_line([])
    with pytest.raises(DegenerateInput):
        stabbing_line(iter(()), 0.0)


def test_stabbing_line_single_segment():
    line = stabbing_line([([0, 0], [2, 2])])
    assert line is not None
    assert abs(line.eval([1, 1])) < 1e-9  # the supporting line


def test_stabbing_line_two_parallel_segments():
    segs = [([0, 0], [0, 1]), ([2, 0], [2, 1])]
    line = stabbing_line(segs)
    assert line is not None
    for p, q in segs:
        sp, sq = float(line.eval(p)), float(line.eval(q))
        assert min(sp, sq) <= 1e-9 and max(sp, sq) >= -1e-9


def test_stabbing_line_absent_for_scattered_tiny_segments():
    segs = [([0, 0], [0.1, 0]), ([10, 0], [10.1, 0]), ([5, 10], [5.1, 10])]
    assert stabbing_line(segs) is None
    assert _sweep_oracle(segs) is None


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_stabbing_line_rejects_a_negative_or_non_finite_tol(tol):
    # at tol nan these three segments used to get the line y = 0
    segs = [([0, 0], [1, 0]), ([5, 5], [6, 5]), ([0, 9], [0, 10])]
    assert stabbing_line(segs) is None
    with pytest.raises(DegenerateInput, match="^tol must be finite and non-negative, got "):
        stabbing_line(segs, tol)


def test_stabbing_line_degenerate_segment():
    with pytest.raises(DegenerateSegment):
        stabbing_line([([1, 1], [1, 1])])
    # endpoints that are not 2-vectors are rejected, not read through (x, y)
    for p, q in (([0, 0, 1], [1, 1, 0]), ([0, 0], [1, 1, 5]), (3.0, [1, 1]), ([[0, 0]], [1, 1])):
        with pytest.raises(DegenerateInput):
            stabbing_line([([5, 5], [6, 7]), (p, q)])


# the endpoint-pair scan as it was written with numpy 2-vectors: the
# reference the plain-float scan must reproduce bit for bit
def _segment_arrays(segments):
    segs = []
    for p, q in segments:
        pv = np.asarray(p, dtype=float)
        qv = np.asarray(q, dtype=float)
        if np.array_equal(pv, qv):
            raise DegenerateSegment("segment endpoints coincide")
        segs.append((pv, qv))
    return segs


def _line_stabs_all(line: Line, segs, tol: float) -> bool:
    for p, q in segs:
        sp = float(line.eval(p))
        sq = float(line.eval(q))
        if min(sp, sq) > tol or max(sp, sq) < -tol:
            return False
    return True


def _candidate_lines(segs):
    """Lines through every pair of distinct segment endpoints.

    If a family of segments has any transversal, it has one through two
    endpoints, so this candidate set is complete; a single segment's own
    supporting line is the pair of its two endpoints.
    """
    endpoints = []
    seen = set()
    for p, q in segs:
        for v in (p, q):
            key = (float(v[0]), float(v[1]))
            if key not in seen:
                seen.add(key)
                endpoints.append(v)
    for i in range(len(endpoints)):
        for j in range(i + 1, len(endpoints)):
            yield line_through(endpoints[i], endpoints[j])


def _reference_stabbing_line(segments, tol):
    segs = _segment_arrays(segments)
    if not segs:
        return None
    for line in _candidate_lines(segs):
        if _line_stabs_all(line, segs, tol):
            return line
    return None


def _stab_outcome(stab, segs, tol):
    try:
        line = stab(segs, tol)
    except NormPlaneError as exc:
        return type(exc).__name__, str(exc)
    return None if line is None else (line.a.hex(), line.b.hex(), line.c.hex())


def _segment_family(rng, kind, m):
    if kind in ("random", "nan"):
        pts = rng.uniform(-5, 5, size=(m, 2, 2))
        if kind == "nan":  # the miss test must keep its answer on NaN
            pts[tuple(rng.integers(0, (m, 2, 2)))] = np.nan
        return [(p, q) for p, q in pts]
    if kind == "grid":
        # shared, collinear and coincident endpoints on a small integer grid,
        # with zeros of either sign
        pts = rng.integers(-2, 3, size=(m, 2, 2)).astype(float)
        pts[(pts == 0) & (rng.uniform(size=pts.shape) < 0.5)] = -0.0
        return [(p, q) for p, q in pts]
    if kind == "straddling":
        theta = rng.uniform(0, np.pi)
        d, nrm = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
        c = rng.uniform(-1, 1)
        segs = []
        for _ in range(m):
            base = rng.uniform(-5, 5) * d + c * nrm
            lo, hi = rng.uniform(0.0, 1.0, 2) * [-1, 1]
            segs.append((base + lo * nrm, base + hi * nrm))
        return segs
    if kind == "collinear":
        a, b = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        ts = np.sort(rng.uniform(-1, 2, 2 * m)).reshape(m, 2)
        return [(a + s * (b - a), a + t * (b - a)) for s, t in ts]
    # chain: consecutive segments share an endpoint, as tree paths do
    pts = np.cumsum(rng.uniform(-2, 2, size=(m + 1, 2)), axis=0)
    return [(pts[k], pts[k + 1]) for k in range(m)]


def test_stabbing_line_matches_endpoint_pair_scan():
    rng = np.random.default_rng(5)
    kinds = ("random", "nan", "grid", "straddling", "collinear", "chain")
    tols = (0.0, 1e-9, 1e-3, 0.1)
    found = missed = 0
    for trial in range(2400):
        segs = _segment_family(rng, kinds[trial % 6], int(rng.integers(1, 8)))
        tol = tols[(trial // 6) % 4]
        mine = _stab_outcome(stabbing_line, segs, tol)
        assert mine == _stab_outcome(_reference_stabbing_line, segs, tol)
        found += mine is not None and len(mine) == 3
        missed += mine is None
    assert found >= 500 and missed >= 200


def _sweep_oracle(segments, angles=720):
    """Dense rotational sweep: for each direction, intersect the projection
    intervals of all segments onto the unit normal; feasible iff nonempty."""
    segs = [(np.asarray(p, float), np.asarray(q, float)) for p, q in segments]
    for t in range(angles):
        theta = np.pi * t / angles
        normal = np.array([np.cos(theta), np.sin(theta)])
        lows, highs = [], []
        for p, q in segs:
            a, b = float(p @ normal), float(q @ normal)
            lows.append(min(a, b))
            highs.append(max(a, b))
        lo, hi = max(lows), min(highs)
        if lo <= hi + 1e-12:
            offset = 0.5 * (lo + hi)
            return theta, offset
    return None


def test_stabbing_agrees_with_sweep_oracle(rng):
    agree_present = agree_absent = 0
    for trial in range(200):
        m = int(rng.integers(2, 7))
        if trial % 2 == 0:
            # segments straddling a known line: generously stabbable
            direction = rng.uniform(0, np.pi)
            d = np.array([np.cos(direction), np.sin(direction)])
            nrm = np.array([-d[1], d[0]])
            segs = []
            for _ in range(m):
                base = rng.uniform(-5, 5) * d
                lo, hi = sorted(rng.uniform(0.3, 3.0, size=2) * [-1, 1])
                segs.append((base + lo * nrm, base + hi * nrm))
        else:
            segs = [
                (rng.uniform(-5, 5, size=2), rng.uniform(-5, 5, size=2))
                for _ in range(m)
            ]
            segs = [(p, q) for p, q in segs if not np.allclose(p, q)]
        found = stabbing_line(segs)
        swept = _sweep_oracle(segs)
        if swept is not None:
            # a robust transversal exists: the endpoint-pair scan must agree
            assert found is not None
            agree_present += 1
        if found is not None:
            # soundness: the witness really does stab everything
            for p, q in segs:
                sp, sq = float(found.eval(p)), float(found.eval(q))
                assert min(sp, sq) <= 1e-9 and max(sp, sq) >= -1e-9
        else:
            assert swept is None
            agree_absent += 1
    assert agree_present >= 60 and agree_absent >= 20


def test_two_clustering_tiny_cases():
    S = PointSet(np.array([[0.0, 0.0], [5.0, 5.0]]))
    part = two_clustering(lp(2), S)
    assert part.value == 0.0
    assert sorted(part.side_a + part.side_b) == [0, 1]
    assert len(part.side_a) == len(part.side_b) == 1

    S = PointSet(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
    part = two_clustering(lp(2), S)
    assert part.value == pytest.approx(3.0)
    assert set(part.side_a) == {0, 1} or set(part.side_b) == {0, 1}


def test_two_clustering_two_pairs():
    S = PointSet(np.array([[0.0, 0.0], [0.0, 1.0], [6.0, 0.0], [6.0, 1.1]]))
    part = two_clustering(lp(2), S)
    oracle = two_clustering_bruteforce(lp(2), S)
    assert part.value == oracle.value == pytest.approx(1.1)
    assert {frozenset(part.side_a), frozenset(part.side_b)} == {
        frozenset({0, 1}),
        frozenset({2, 3}),
    }


def _triples(tree):
    """The tree's edges as (i, j, w) tuples of plain numbers, in row order."""
    return [(i, j, w) for (i, j), w in zip(tree.edges.tolist(), tree.weights.tolist())]


def test_two_clustering_witness_validity(rng):
    for _ in range(20):
        n = int(rng.integers(3, 13))
        S = tie_free_points(rng, n, euclidean())
        part = two_clustering(euclidean(), S)
        assert part.witness_line is not None
        tree, _ = mxst_mpsy(euclidean(), S)
        edges = _triples(tree)
        lengths = sorted(w for _, _, w in edges)
        # minimal feasible threshold: the witness stabs that long-edge family
        feasible_len = None
        for d in lengths:
            fam = [(i, j) for i, j, w in edges if w > d]
            if not fam:
                feasible_len = d
                break
            segs = [(S.points[i], S.points[j]) for i, j in fam]
            if stabbing_line(segs) is not None:
                feasible_len = d
                break
        fam = [(i, j) for i, j, w in edges if w > feasible_len]
        for i, j in fam:
            sp = float(part.witness_line.eval(S.points[i]))
            sq = float(part.witness_line.eval(S.points[j]))
            assert min(sp, sq) <= 1e-9 and max(sp, sq) >= -1e-9


def test_feasibility_monotone(rng):
    S = tie_free_points(rng, 12, euclidean())
    tree, _ = mxst_mpsy(euclidean(), S)
    edges = _triples(tree)
    lengths = sorted(w for _, _, w in edges)
    feats = []
    for d in lengths:
        fam = [(i, j) for i, j, w in edges if w > d]
        if not fam:
            feats.append(True)
            continue
        segs = [(S.points[i], S.points[j]) for i, j in fam]
        feats.append(stabbing_line(segs) is not None)
    # once feasible, stays feasible
    seen = False
    for f in feats:
        if seen:
            assert f
        seen = seen or f


def test_bruteforce_limits():
    S = PointSet(np.array([[0.0, 0.0], [5.0, 5.0]]))
    assert two_clustering_bruteforce(lp(2), S).value == 0.0
    big = PointSet(np.random.default_rng(1).uniform(0, 1, size=(17, 2)))
    with pytest.raises(TooLarge):
        two_clustering_bruteforce(lp(2), big)


def test_two_clustering_matches_bruteforce(rng):
    for trial in range(60):
        n = int(rng.integers(2, 15))
        spec = [euclidean(), lp(1.5), lp(3)][trial % 3]
        S = tie_free_points(rng, n, spec)
        mine = two_clustering(spec, S)
        oracle = two_clustering_bruteforce(spec, S)
        assert mine.value == oracle.value
        assert sorted(mine.side_a + mine.side_b) == list(range(n))
        assert not set(mine.side_a) & set(mine.side_b)
        assert mine.value == max(mine.diam_a, mine.diam_b)


def _beats_value_certificate(table, value):
    """True iff some bipartition achieves a smaller max diameter.

    A value below ``value`` is achievable iff the graph of pairs at distance
    greater than the largest distance below ``value`` is 2-colorable, which
    BFS decides exactly; this certifies optimality at sizes the exhaustive
    oracle cannot reach.
    """
    n = table.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    vals = table[iu, ju]
    below = vals[vals < value]
    if below.size == 0:
        return False  # every pair is at least `value` apart; n >= 3 forces it
    t = float(below.max())
    adj = [[] for _ in range(n)]
    for i, j, w in zip(iu, ju, vals):
        if w > t:
            adj[i].append(int(j))
            adj[j].append(int(i))
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False  # odd cycle: no partition beats `value`
    return True


def test_two_clustering_optimality_certificate_large_n(rng):
    # beyond the exhaustive oracle's reach: certify optimality through the
    # threshold-graph bipartiteness characterization
    for n, spec in ((30, euclidean()), (80, lp(1.5)), (150, lp(3))):
        S = tie_free_points(rng, n, spec)
        part = two_clustering(spec, S)
        table = pairwise_distances(spec, S)
        # achieved: no same-side pair exceeds the reported value
        for side in (part.side_a, part.side_b):
            sub = table[np.ix_(side, side)]
            assert sub.max() <= part.value
        # optimal: nothing below the reported value is 2-colorable
        assert not _beats_value_certificate(table, part.value)


def test_two_clustering_witness_after_an_infeasible_probe(monkeypatch):
    # on this draw the binary search meets a threshold whose longer-edge
    # family has no stabbing line, so it raises its lower end past it
    spec, S, tol = euclidean(), PointSet(np.random.default_rng(9).uniform(0, 1, (60, 2))), 0.0
    probes = []

    def recording(segments, tol):
        line = stabbing_line(segments, tol)
        probes.append(line)
        return line

    monkeypatch.setattr(clustering_module, "stabbing_line", recording)
    witness = two_clustering(spec, S, tol).witness_line
    assert None in probes

    tree, _ = mxst_mpsy(spec, S, tol)
    by_length = sorted(_triples(tree), key=lambda e: e[2])
    for _, _, d in by_length:
        fam = [(S.points[i], S.points[j]) for i, j, w in by_length if w > d]
        assert fam, "the empty family is feasible only at the top"
        line = stabbing_line(fam, tol)
        if line is not None:
            break
    assert (witness.a, witness.b, witness.c) == (line.a, line.b, line.c)
