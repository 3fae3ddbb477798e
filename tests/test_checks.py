"""The invariant suite: its check names, their order, and how each stage answers."""

import numpy as np
import pytest

import normplane.checks as checks_module
import normplane.mxst as mxst_module
from conftest import all_norms, grid_points, random_symmetric_polygon, tie_free_points
from normplane import (
    PointSet,
    StructureViolation,
    build_fng,
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


@pytest.mark.parametrize("n", [1, 2])
def test_fewer_than_three_points_are_trivial(n):
    S = PointSet(JITTERED_SQUARE[:n])
    expected = [("distances-distinct", True, "")]
    expected += [(name, True, "trivial for n < 3") for name in NAMES[1:]]
    assert _answers(run_checks(lp(2), S)) == expected


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
