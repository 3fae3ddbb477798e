"""Every distance decision goes through one tie predicate, and their outcomes are pinned."""

import ast
import hashlib
import inspect

import numpy as np

import normplane.checks as checks_module
import normplane.fng as fng_module
import normplane.mxst as mxst_module
import normplane.perturb as perturb_module
from conftest import HEX_BALL, grid_points
from test_mxst import DECISION_TIES
from normplane import (
    PointSet,
    TiesPresent,
    detect_ties,
    l1,
    lp,
    mxst_mpsy,
    pairwise_distances,
    perturb_distinct,
    polygonal,
    run_checks,
)


def _bare_tol(node) -> bool:
    """Whether an expression is ``tol`` or ``self.tol`` itself, not a scaled floor."""
    if isinstance(node, ast.Name):
        return node.id == "tol"
    return (isinstance(node, ast.Attribute) and node.attr == "tol"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_every_comparison_against_tol_is_the_tie_predicate():
    # the tie rule lives in fng._near alone, so changing it changes every
    # distance decision at once; step floors such as 4.0 * tol compare step
    # sizes, not distances, and the hull's and the stabbing line's bands
    # (geometry, clustering) read tol with other meanings
    inside, outside = 0, []
    for module in (fng_module, mxst_module, perturb_module, checks_module):
        tree = ast.parse(inspect.getsource(module))
        near = {id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                and f.name == "_near" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(map(_bare_tol, (node.left, *node.comparators))):
                if id(node) in near:
                    inside += 1
                else:
                    outside.append(f"{module.__name__}:{node.lineno}")
    assert inside == 1 and outside == []


def _decision_sets():
    """Seeded uniform, grid and near-tie point sets, the near ties holding
    one tie at each decision site of the tree construction."""
    rng = np.random.default_rng(3636)
    sets = [rng.uniform(-10, 10, size=(n, 2)) for n in (3, 7, 16, 30)]
    sets += [np.array([(i, j) for j in range(k) for i in range(k)], dtype=float) for k in (3, 4, 5)]
    sets += [grid_points(rng, n).points for n in (6, 11, 17)]
    for jitter in (0.0, 1e-10, 1e-6, 1e-4):
        half = np.stack([rng.uniform(0.1, 10, 4), rng.uniform(-10, 10, 4)], axis=1)
        mirror = half * [-1.0, 1.0] + rng.uniform(-jitter, jitter, size=(4, 2))
        sets.append(np.vstack([half, mirror, [[0.0, rng.uniform(-10, 10)]]]))
    sets += [np.array(points) for points, _ in DECISION_TIES.values()]
    return [PointSet(pts) for pts in sets]


def _outcome(call):
    """The call's result, or the type and text of the error it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the outcome is the exception
        return type(exc).__name__, str(exc)


# sha256 of the decision records below, recorded at 69f0237
DECISION_GOLDEN = "7d1043685c34ffa3e18796d724ff6385cce81a00d7b88ad655eef73a729a4190"


def test_distance_decisions_are_pinned():
    # the trees or TiesPresent texts, detect_ties lists, run_checks results
    # and perturb_distinct outcomes of every set at tol 0, 1e-9 and 1e-3;
    # a change to any tie decision shows here
    digest = hashlib.sha256()
    sites = set()
    for S in _decision_sets():
        for spec in (lp(1.5), lp(2), l1(), polygonal(HEX_BALL)):
            table = pairwise_distances(spec, S)
            for tol in (0.0, 1e-9, 1e-3):
                def tree():
                    t, report = mxst_mpsy(spec, S, tol)
                    return t.edges.tolist(), t.weights.tolist(), repr(report)

                tree_outcome = _outcome(tree)
                if tree_outcome[0] == TiesPresent.__name__:
                    sites.add(tree_outcome[1].split(":")[0].rstrip("0123456789(), "))
                records = [
                    tree_outcome,
                    detect_ties(table, tol),
                    [(r.name, r.passed, r.detail) for r in run_checks(spec, S, tol)],
                ]
                if spec.label() in ("lp:1.5", "lp:2") and S.n <= 16:
                    def moved():
                        S2, report = perturb_distinct(spec, S, 1e-3, tol)
                        return S2.points.tobytes(), report
                    records.append(_outcome(moved))
                digest.update(repr(records).encode())
    assert sites == {
        "tied furthest neighbors of point",
        "tied maxima of the cluster pairing",
        "tied connecting candidates of components",
        "tied minimum among the connecting edges",
    }
    assert digest.hexdigest() == DECISION_GOLDEN
