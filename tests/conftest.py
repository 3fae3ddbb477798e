"""Shared generators for the test suite (all randomness is seeded)."""

import math

import numpy as np
import pytest

from normplane import (
    PointSet,
    convex_hull,
    detect_ties,
    euclidean,
    l1,
    linf,
    lp,
    pairwise_distances,
    polygonal,
)

UNIT_SQUARE_BALL = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
DIAMOND_BALL = [[1, 0], [0, 1], [-1, 0], [0, -1]]
HEX_BALL = [[1.0, 0.0], [0.5, 1.0], [-0.5, 1.0], [-1.0, 0.0], [-0.5, -1.0], [0.5, -1.0]]
# HEX_BALL stretched 300-fold along x, then turned by 27 degrees: the
# bisector of (0, 0) and (2, 1) crosses the line through (3, -3.5) along
# q - p near (-523, -267), 263 times q - p away
_TURN = math.radians(27.0)
ELONGATED_HEX_BALL = (np.array(HEX_BALL) * [300.0, 1.0] @ [
    [math.cos(_TURN), math.sin(_TURN)], [-math.sin(_TURN), math.cos(_TURN)]]).tolist()


def all_norms():
    """One spec per family: the per-test workhorse list."""
    return [
        euclidean(),
        lp(1.5),
        lp(3.0),
        l1(),
        linf(),
        polygonal(UNIT_SQUARE_BALL),
        polygonal(HEX_BALL),
    ]


def strictly_convex_norms():
    return [euclidean(), lp(1.5), lp(2.0), lp(4.0)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_symmetric_polygon(rng):
    """Random centrally symmetric convex polygon containing the origin."""
    while True:
        m = int(rng.integers(2, 6))
        angles = np.sort(rng.uniform(0.05, np.pi - 0.05, size=m))
        radii = rng.uniform(0.5, 2.0, size=m)
        half = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        cand = np.vstack([half, -half])
        hull = convex_hull(cand)
        verts = cand[list(hull.vertices)]
        if len(verts) >= 4:
            return polygonal(verts)


def tie_free_points(rng, n, spec, tol=1e-9, box=10.0, max_tries=200):
    """Uniform points redrawn until all pairwise distances are distinct."""
    for _ in range(max_tries):
        pts = rng.uniform(-box, box, size=(n, 2))
        S = PointSet(pts)
        if not detect_ties(pairwise_distances(spec, S), tol):
            return S
    raise AssertionError("could not draw a tie-free instance")


def grid_points(rng, n):
    """n distinct integer grid points (a tie-laden configuration)."""
    side = int(np.ceil(np.sqrt(n))) + 1
    cells = [(i, j) for i in range(side) for j in range(side)]
    idx = rng.choice(len(cells), size=n, replace=False)
    return PointSet(np.array([cells[i] for i in idx], dtype=float))
