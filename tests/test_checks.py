"""The invariant suite: its check names, their order, and how each stage answers."""

import tracemalloc

import numpy as np
import pytest

import normplane.checks as checks_module
import normplane.fng as fng_module
import normplane.mxst as mxst_module
from conftest import all_norms, grid_points, random_symmetric_polygon, tie_free_points
from normplane import (
    DegenerateInput,
    PointSet,
    StructureViolation,
    SpanningTree,
    build_fng,
    convex_hull,
    detect_ties,
    lp,
    pairwise_distances,
    run_checks,
)

NAMES = (
    "distances-distinct",
    "fng-increasing-chains",
    "fng-nonleaves-on-boundary",
    "fng-spines-on-boundary",
    "fng-spines-properly-intersect",
    "fng-cluster-contiguity",
    "fng-cyclic-component-pattern",
    "fng-noncontiguous-maximum",
    "mxst-matches-bruteforce",
    "mxst-contains-fng",
    "mxst-edges-touch-boundary",
    "mxst-extra-edges-adjacent",
    "mxst-edge-counts",
)
FNG_NAMES = NAMES[1:6]
TREE_NAMES = NAMES[8:]

# two crossing spines, no two distances equal: k = 2
JITTERED_SQUARE = np.array([[0.0, 0.0], [1.01, 0.02], [0.98, 1.03], [-0.01, 0.97]])

# three mutually crossing spines plus two interior points: k = 3 under lp(2),
# lp(1.5) and lp(3), so the non-contiguous-maximum check is not vacuous
THREE_SPINES = np.array([
    [10.092, 0.092], [-9.995, -0.064], [4.866, 8.625], [-5.027, -8.796],
    [-5.135, 8.81], [5.046, -8.74], [-0.02, 0.142], [1.19, 1.03],
])


def _answers(results):
    return [(r.name, r.passed, r.detail) for r in results]


def test_tie_free_instance_pattern():
    results = run_checks(lp(2), PointSet(JITTERED_SQUARE))
    expected = [(name, True, "") for name in NAMES]
    expected[NAMES.index("fng-noncontiguous-maximum")] = (
        "fng-noncontiguous-maximum", True, "vacuous: k < 3"
    )
    assert _answers(results) == expected


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_three_component_instance_runs_every_check(p):
    spec = lp(p)
    S = PointSet(THREE_SPINES)
    assert build_fng(spec, S).k >= 3
    assert _answers(run_checks(spec, S)) == [(name, True, "") for name in NAMES]


def test_tied_grid_pattern(rng):
    spec, S, tol = lp(2), grid_points(rng, 9), 1e-9
    ties = detect_ties(pairwise_distances(spec, S), tol)
    assert ties
    results = run_checks(spec, S, tol)
    assert [r.name for r in results] == list(NAMES)
    first = results[0]
    assert not first.passed
    assert first.detail.startswith(f"{len(ties)} tied distance pairs")
    assert _answers(results[1:]) == [(name, False, "skipped: ties present") for name in NAMES[1:]]


def test_the_tie_count_lists_no_pair():
    # the full 20 x 20 grid ties 30,549,616 pairs at tol 0: listing them
    # took about 1.25 GB, counting them takes a few MB
    S = PointSet(np.array([(i, j) for j in range(20) for i in range(20)], dtype=float))
    tracemalloc.start()
    try:
        first = run_checks(lp(2), S, 0.0)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == checks_module.CheckResult(
        "distances-distinct", False, "30549616 tied distance pairs at tol=0")
    assert peak < 50e6, f"peak {peak} bytes"


def _count_bank():
    """Uniform sets, 120-point ellipses with k = 3 and k = 4, and jittered
    grids, all tie-free at tol 1e-9 under lp(1.5)."""
    rng = np.random.default_rng(40)
    for n in (3, 12, 40, 150):
        yield rng.uniform(0, 1, size=(n, 2))
    for seed in (4, 7):
        angles = np.sort(np.random.default_rng(seed).uniform(0, 2 * np.pi, size=120))
        yield np.stack([2 * np.cos(angles), np.sin(angles)], axis=1)
    for n in (30, 80):
        yield grid_points(rng, n).points + rng.uniform(-1e-3, 1e-3, size=(n, 2))


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_run_checks_evaluates_the_triangle_and_the_construction_only(monkeypatch, tol):
    # every distance a check reads comes from the one triangle the tie gate
    # reads, the construction under test included: its connecting step
    # reads the suite's table, so the triangle is all the suite evaluates
    evaluated = []
    norm_many = fng_module.norm_many

    def counting(spec, v):
        evaluated.append(v[..., 0].size)
        return norm_many(spec, v)

    monkeypatch.setattr(fng_module, "norm_many", counting)
    spec, ks = lp(1.5), set()
    for pts in _count_bank():
        S = PointSet(pts)
        evaluated.clear()
        assert all(r.passed for r in run_checks(spec, S, tol))
        assert sum(evaluated) == S.n * (S.n - 1) // 2
        ks.add(build_fng(spec, S, tol).k)
    assert {3, 4} <= ks


@pytest.mark.parametrize("n", [1, 2])
def test_fewer_than_three_points_are_trivial(n):
    S = PointSet(JITTERED_SQUARE[:n])
    expected = [("distances-distinct", True, "")]
    expected += [(name, True, "trivial for n < 3") for name in NAMES[1:]]
    assert _answers(run_checks(lp(2), S)) == expected


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_run_checks_rejects_a_negative_or_non_finite_tol(n, tol):
    # below three points the trivial answers used to come back for any tol
    with pytest.raises(DegenerateInput, match="^tol must be finite and non-negative, got "):
        run_checks(lp(2), PointSet(JITTERED_SQUARE[:n]), tol)


def test_forced_component_order_failure(monkeypatch):
    def fail(g, hull):
        raise StructureViolation("forced pattern failure")

    for module in (checks_module, mxst_module):
        monkeypatch.setattr(module, "order_components", fail)
    results = run_checks(lp(2), PointSet(THREE_SPINES))
    expected = [(name, True, "") for name in NAMES[:6]]
    expected += [
        ("fng-cyclic-component-pattern", False, "forced pattern failure"),
        ("fng-noncontiguous-maximum", False, "skipped: no component cycle"),
    ]
    expected += [
        (name, False, "tree construction failed: forced pattern failure") for name in TREE_NAMES
    ]
    assert _answers(results) == expected


def test_every_check_passes_on_tie_free_instances(rng):
    specs = all_norms() + [random_symmetric_polygon(rng) for _ in range(2)]
    for spec in specs:
        for n in (3, 5, 12, 30):
            S = tie_free_points(rng, n, spec)
            results = run_checks(spec, S)
            assert [r.name for r in results] == list(NAMES)
            failed = [r for r in results if not r.passed]
            assert not failed, (spec.label(), n, failed)
            for r in results:
                if r.name in FNG_NAMES + ("distances-distinct", "fng-cyclic-component-pattern"):
                    assert r.detail == ""


# four mutually crossing spines on a jittered octagon: k = 4 under lp(2), so
# a connecting edge can join components two apart in the cyclic order
FOUR_SPINES = np.array([
    [10.099, 0.101], [7.175, 6.894], [-0.302, 10.065], [-7.071, 7.071],
    [-9.92, 0.099], [-6.956, -7.24], [-0.301, -10.015], [7.155, -6.943],
])


def _answer_with_graph(monkeypatch, points, fn, name):
    """The (passed, detail) of check ``name`` when the suite decomposes the
    doctored map ``fn`` in place of the table's row maxima."""
    decompose = checks_module._decompose
    monkeypatch.setattr(checks_module, "_decompose", lambda _: decompose(fn))
    results = run_checks(lp(2), PointSet(points))
    return next((r.passed, r.detail) for r in results if r.name == name)


def _answer_with_tree(monkeypatch, points, doctor, name):
    """The (passed, detail) of check ``name`` when connect_components'
    tree edges are replaced by ``doctor(edges)``."""
    def connect(spec, S, g, fn_dist, hull, tol, held):
        tree, report = mxst_module.connect_components(spec, S, g, fn_dist, hull, tol, held)
        triples = zip(tree.edges.tolist(), tree.weights.tolist())
        edges = doctor([(i, j, w) for (i, j), w in triples])
        return SpanningTree([e[:2] for e in edges], [e[2] for e in edges]), report

    monkeypatch.setattr(checks_module, "connect_components", connect)
    results = run_checks(lp(2), PointSet(points))
    return next((r.passed, r.detail) for r in results if r.name == name)


def test_increasing_chains_names_the_failing_step(monkeypatch):
    # 1 points at 2 instead of its partner 0, and d(0, 1) > d(1, 2)
    fn = (1, 2, 3, 2, 5, 4, 3, 3)
    assert _answer_with_graph(monkeypatch, THREE_SPINES, fn, "fng-increasing-chains") == (
        False, "chain from 0 not strictly increasing at 0->1->2"
    )


def test_nonleaves_on_boundary_lists_each_interior_target_once_ascending(monkeypatch):
    # 4, 5 and 6 point at interior 7, and 7 at interior 6
    fn = (1, 0, 3, 2, 7, 7, 7, 6)
    assert _answer_with_graph(monkeypatch, THREE_SPINES, fn, "fng-nonleaves-on-boundary") == (
        False, "non-leaf vertices [6, 7] are interior"
    )


def test_spines_intersect_names_the_disjoint_pair(monkeypatch):
    # the square's two bottom and top sides as spines: parallel, never crossing
    fn = (1, 0, 3, 2)
    assert _answer_with_graph(monkeypatch, JITTERED_SQUARE, fn, "fng-spines-properly-intersect") == (
        False, "spines (0, 1) and (2, 3) do not cross"
    )


def test_cluster_contiguity_counts_runs_and_clusters(monkeypatch):
    # 0 points at 5, so 0 and 1 join the clusters of 4 and 5: hull order
    # 1, 3, 5, 0, 2, 4 reads clusters 5, 3, 5, 4, 2, 4
    fn = (5, 0, 3, 2, 5, 4, 3, 3)
    assert _answer_with_graph(monkeypatch, THREE_SPINES, fn, "fng-cluster-contiguity") == (
        False, "6 runs for 4 clusters on the hull"
    )


def test_noncontiguous_maximum_names_the_max_pair(monkeypatch):
    # 7 sits beside hull vertex 0; pointing it at 2 puts it in 3's cluster,
    # next to 0's in the cyclic order, and 7 is 1's furthest point there
    points = THREE_SPINES.copy()
    points[7] = [9.0, 0.5]
    assert _answers(run_checks(lp(2), PointSet(points))) == [(name, True, "") for name in NAMES]
    fn = (1, 0, 3, 2, 5, 4, 3, 2)
    assert _answer_with_graph(monkeypatch, points, fn, "fng-noncontiguous-maximum") == (
        False, "max pair (1, 7) for components (0, 1, 2) joins contiguous clusters"
    )


def test_extra_edges_adjacent_names_the_edge_and_offset(monkeypatch):
    # components sit in cycle order (0, 4), (1, 5), (2, 6), (3, 7); swapping
    # the connecting edge (2, 7) for (3, 5) joins the second and the fourth
    assert _answers(run_checks(lp(2), PointSet(FOUR_SPINES))) == [(name, True, "") for name in NAMES]

    def swap(edges):
        kept = [e for e in edges if e[:2] != (2, 7)]
        assert len(kept) == len(edges) - 1
        return sorted(kept + [(3, 5, 1.0)])

    assert _answer_with_tree(monkeypatch, FOUR_SPINES, swap, "mxst-extra-edges-adjacent") == (
        False, "edge (3, 5) joins non-adjacent components (cyclic offset 2)"
    )


def test_edge_counts_names_both_counts(monkeypatch):
    def drop_last_extra(edges):
        return [e for e in edges if e[:2] != (2, 7)]

    assert _answer_with_tree(monkeypatch, FOUR_SPINES, drop_last_extra, "mxst-edge-counts") == (
        False, "|FNG| = 4 (want 4), |extra| = 2 (want 3)"
    )
