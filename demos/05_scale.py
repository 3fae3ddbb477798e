"""
A maximum spanning tree of many points
======================================

Every furthest neighbor lies on the convex hull boundary, because a norm is
convex, so the tree construction computes the hull first and takes each
point's furthest neighbor over its b boundary points only: about n*b
distances instead of n^2/2, nothing stored and nothing sorted.  The only
distances certified distinct are those the construction compares (each
point's best two candidates, the connecting candidates and the discarded
one); a tie there raises TiesPresent naming the point or the pairs.

This script builds the lp:1.5 tree of n uniform points in the unit square,
prints its time, b and the number k of furthest-neighbor components, and
checks the furthest neighbors of 200 random points against full scans (and,
for n <= 2000, the whole tree against the descending-greedy oracle).
``--tol`` is the tolerance of every decision (default: the library's 1e-9).
At a million points the smallest gap between a point's two furthest
candidates falls below 1e-9, so that size runs at tol 0:

    python3 demos/05_scale.py --n 1000000 --tol 0
"""

import argparse
import time

import numpy as np

from normplane import PointSet, build_fng, convex_hull, lp, mxst_bruteforce, mxst_mpsy, norm_many


def main() -> None:
    parser = argparse.ArgumentParser(description="Build and check the lp:1.5 tree of n uniform points.")
    parser.add_argument("--n", type=int, default=600, help="number of points (default %(default)s)")
    parser.add_argument("--seed", type=int, default=5, help="random seed (default %(default)s)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="tolerance of the tree's decisions (default %(default)s)")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    spec = lp(1.5)
    S = PointSet(rng.uniform(0.0, 1.0, size=(args.n, 2)))

    start = time.perf_counter()
    tree, report = mxst_mpsy(spec, S, args.tol)
    seconds = time.perf_counter() - start
    b = len(convex_hull(S.points, args.tol).boundary)
    k = max(len(report.entries), 1)
    print(f"n = {S.n}: tree in {seconds:.3f} s, hull boundary b = {b}, components k = {k}")
    print(f"total weight {tree.total_weight:.6f} over {len(tree.edges)} edges")

    # the furthest neighbors of a sample of points, each against a full row scan
    g = build_fng(spec, S, args.tol)
    for i in rng.choice(S.n, size=min(200, S.n), replace=False):
        row = norm_many(spec, S.points[i] - S.points)
        row[i] = -np.inf
        if g.fn[i] != np.argmax(row):
            raise SystemExit(f"point {i}: {g.fn[i]} is not its furthest neighbor")
    print(f"{min(200, S.n)} sampled furthest neighbors match full row scans")
    if S.n <= 2000:
        same = tree.edge_set() == mxst_bruteforce(spec, S).edge_set()
        print(f"matches descending-greedy oracle: {same}")
        if not same:
            raise SystemExit("the tree differs from the oracle's")


if __name__ == "__main__":
    main()
