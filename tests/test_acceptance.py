"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds).
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    HEX_BALL,
    UNIT_SQUARE_BALL,
    grid_points,
    random_symmetric_polygon,
    tie_free_points,
)
from normplane import (
    NotStrictlyConvex,
    PointSet,
    build_fng,
    convex_hull,
    detect_ties,
    distance,
    euclidean,
    l1,
    linf,
    lp,
    mxst_bruteforce,
    mxst_mpsy,
    norm_many,
    order_components,
    pairwise_distances,
    perturb_distinct,
    polygonal,
    run_checks,
    segments_properly_intersect,
    two_clustering,
    two_clustering_bruteforce,
)

N_INSTANCES = 1000


@pytest.fixture(scope="module")
def bank():
    """Shared tie-free instances for criteria 1 and 2."""
    rng = np.random.default_rng(424242)
    norm_cycle = [
        euclidean(),
        lp(1.5),
        lp(3.0),
        l1(),
        linf(),
        polygonal(UNIT_SQUARE_BALL),
        polygonal(HEX_BALL),
        random_symmetric_polygon(rng),
    ]
    instances = []
    for i in range(N_INSTANCES):
        spec = norm_cycle[i % len(norm_cycle)]
        n = int(rng.integers(3, 41))
        S = tie_free_points(rng, n, spec)
        instances.append({"spec": spec, "S": S})
    return instances


def _solve(inst):
    if "tree" not in inst:
        spec, S = inst["spec"], inst["S"]
        inst["tree"], inst["report"] = mxst_mpsy(spec, S)
        inst["oracle"] = mxst_bruteforce(spec, S)
        inst["g"] = build_fng(spec, S)
        inst["hull"] = convex_hull(S.points)
        inst["cycle"] = order_components(inst["g"], inst["hull"])
    return inst


def test_criterion_1_oracle_equivalence(bank):
    t0 = time.perf_counter()
    for inst in bank:
        _solve(inst)
        assert inst["tree"].edge_set() == inst["oracle"].edge_set(), (
            f"edge sets differ for n={inst['S'].n} under {inst['spec'].label()}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle-equivalence suite took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 (oracle equivalence, {len(bank)} instances, "
        f"{elapsed:.1f}s): PASS"
    )


def test_tree_weights_match_oracle_exactly(bank):
    # the same (i, j) rows, weights bit for bit
    for inst in bank:
        _solve(inst)
        assert np.array_equal(inst["tree"].edges, inst["oracle"].edges)
        assert np.array_equal(inst["tree"].weights, inst["oracle"].weights)
        assert inst["tree"].total_weight == inst["oracle"].total_weight


def test_criterion_2_structural_lemmas(bank):
    for inst in bank:
        _solve(inst)
        S, g, hull, tree = inst["S"], inst["g"], inst["hull"], inst["tree"]
        n, k = S.n, g.k
        fng_edges = g.undirected_edges()

        # (a) furthest-neighbor edges are tree edges
        assert fng_edges <= tree.edge_set()

        # (b) spine endpoints on the boundary; spines pairwise cross
        for x, xp in g.spines:
            assert x in hull.boundary and xp in hull.boundary
        for a in range(k):
            for b in range(a + 1, k):
                s1 = (S.points[g.spines[a][0]], S.points[g.spines[a][1]])
                s2 = (S.points[g.spines[b][0]], S.points[g.spines[b][1]])
                assert segments_properly_intersect(s1, s2)

        # (c) each cluster occupies one contiguous arc of the hull tour
        tour = hull.traversal()
        labels = [g.cluster_of[i] for i in tour]
        distinct = len(set(labels))
        runs = sum(1 for t in range(len(labels)) if labels[t] != labels[t - 1])
        assert distinct == 1 or runs == distinct

        # (d) every tree edge touches the hull boundary
        for i, j in tree.edges:
            assert i in hull.boundary or j in hull.boundary

        # (e) connecting edges join cyclically adjacent components
        comp_order = [g.component_of[rep] for rep in inst["cycle"][:k]]
        pos = {comp: t for t, comp in enumerate(comp_order)}
        for i, j in tree.edge_set() - fng_edges:
            d = (pos[g.component_of[i]] - pos[g.component_of[j]]) % k
            assert d in (1, k - 1)
    print(f"\nACCEPTANCE 2 (structural lemmas on {len(bank)} instances): PASS")


def test_criterion_3_geometric_inequalities():
    rng = np.random.default_rng(31415)
    draws = 10_000
    specs = [
        euclidean(),
        lp(1.5),
        lp(3.0),
        l1(),
        linf(),
        polygonal(UNIT_SQUARE_BALL),
        polygonal(HEX_BALL),
    ]
    for spec in specs:
        # segment point never further than the worse endpoint
        a = rng.uniform(-10, 10, size=(draws, 2))
        b = rng.uniform(-10, 10, size=(draws, 2))
        c = rng.uniform(-10, 10, size=(draws, 2))
        t = rng.uniform(0, 1, size=(draws, 1))
        x = a + t * (b - a)
        lhs = norm_many(spec, c - x)
        rhs = np.maximum(norm_many(spec, c - a), norm_many(spec, c - b))
        scale = np.maximum(rhs, 1.0)
        assert np.all(lhs <= rhs + 1e-9 * scale), spec.label()

        # convex quadrilateral: diagonals dominate both pairs of sides
        count = 0
        batch = 4 * draws
        while count < draws:
            quad = rng.uniform(-10, 10, size=(batch, 4, 2))
            cross = np.empty((batch, 4))
            for s in range(4):
                p0 = quad[:, s]
                p1 = quad[:, (s + 1) % 4]
                p2 = quad[:, (s + 2) % 4]
                cross[:, s] = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
                    p2[:, 0] - p0[:, 0]
                ) * (p1[:, 1] - p0[:, 1])
            convex = np.all(cross > 1e-9, axis=1) | np.all(cross < -1e-9, axis=1)
            quad = quad[convex][: draws - count]
            count += len(quad)
            a4, b4, c4, d4 = quad[:, 0], quad[:, 1], quad[:, 2], quad[:, 3]
            diag = norm_many(spec, a4 - c4) + norm_many(spec, b4 - d4)
            s1 = norm_many(spec, a4 - b4) + norm_many(spec, c4 - d4)
            s2 = norm_many(spec, a4 - d4) + norm_many(spec, b4 - c4)
            bound = np.maximum(s1, s2)
            assert np.all(diag >= bound - 1e-9 * np.maximum(bound, 1.0)), spec.label()
    print(f"\nACCEPTANCE 3 (geometric inequalities, {draws} draws x {len(specs)} norms): PASS")


def test_criterion_4_perturbation():
    rng = np.random.default_rng(271828)
    specs = [lp(2.0), lp(1.5), lp(4.0)]
    eps = 1e-3
    for trial in range(500):
        n = int(rng.integers(4, 26))
        S = grid_points(rng, n)
        spec = specs[trial % len(specs)]
        S2, report = perturb_distinct(spec, S, eps=eps)
        table2 = pairwise_distances(spec, S2)
        tol_check = 1e-12 * report.residual_min_gap
        assert detect_ties(table2, tol_check) == []
        assert max(report.displacement) < eps
        assert len(report.steps) <= n * (n - 1)

    # non-strictly-convex rejection
    square = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotStrictlyConvex):
        perturb_distinct(linf(), square, eps=eps)

    # polygonal fragility: per-point horizontal shifts keep the gauge ties
    ball = polygonal(
        [[math.cos(2 * math.pi * k / 10), math.sin(2 * math.pi * k / 10)] for k in range(10)]
    )
    top = math.sin(2 * math.pi * 2 / 10)
    pts = np.array([[0.0, 0.0], [0.10, top], [-0.20, top]])
    shifted = pts + np.array([[0.0, 0.0], [0.03, 0.0], [0.07, 0.0]])
    for config in (pts, shifted):
        S = PointSet(config)
        assert distance(ball, config[0], config[1]) == pytest.approx(1.0, abs=1e-12)
        assert distance(ball, config[0], config[2]) == pytest.approx(1.0, abs=1e-12)
        assert detect_ties(pairwise_distances(ball, S)) != []
    print("\nACCEPTANCE 4 (perturbation on 500 grid instances + rejections): PASS")


def test_criterion_5_two_clustering_optimality():
    rng = np.random.default_rng(161803)
    specs = [euclidean(), lp(1.5), lp(3.0)]
    t0 = time.perf_counter()
    count = 300
    for trial in range(count):
        n = int(rng.integers(2, 15))
        spec = specs[trial % len(specs)]
        S = tie_free_points(rng, n, spec)
        mine = two_clustering(spec, S)
        oracle = two_clustering_bruteforce(spec, S)
        assert mine.value == oracle.value, (
            f"clustering value mismatch at n={n} under {spec.label()}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"2-clustering suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 (2-clustering optimality, {count} instances, {elapsed:.1f}s): PASS")


def test_criterion_6_scaling_smoke():
    rng = np.random.default_rng(2000)
    S = PointSet(rng.uniform(0.0, 1.0, size=(2000, 2)))
    spec = lp(2.0)
    # exact float distinctness is the appropriate tie scale here: 2e6 random
    # distance values land within any fixed 1e-9 band by the birthday bound
    tol = 0.0
    t0 = time.perf_counter()
    tree, _ = mxst_mpsy(spec, S, tol)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"n=2000 tree took {elapsed:.1f}s"
    assert len(tree.edges) == 1999
    results = run_checks(spec, S, tol)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    print(f"\nACCEPTANCE 6 (n=2000 tree in {elapsed:.2f}s, full check suite): PASS")
