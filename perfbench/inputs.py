"""Seeded point generators owned by the benchmark.

They are kept apart from the test suite's helpers so that tests and
benchmark can change independently.  Every generator takes a
``numpy.random.Generator`` and returns a plain ``(n, 2)`` float array; the
library only ever receives these arrays.
"""

from __future__ import annotations

import numpy as np


def uniform(rng: np.random.Generator, n: int, side: float = 1.0) -> np.ndarray:
    """n points uniform in a square (hull size b grows like log n)."""
    return rng.uniform(0.0, side, size=(n, 2))


def ellipse(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points in convex position: random angles on a 2:1 ellipse (h = n)."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
    return np.stack([2.0 * np.cos(angles), np.sin(angles)], axis=1)


def grid(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct integer grid points, a configuration full of exact ties."""
    side = int(np.ceil(np.sqrt(n))) + 1
    cells = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    return cells[rng.choice(len(cells), size=n, replace=False)]
