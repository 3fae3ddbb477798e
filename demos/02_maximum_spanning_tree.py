"""
Maximum spanning trees from furthest-neighbor graphs
====================================================

The maximum spanning tree of a planar point set (complete graph weighted by
norm distances) has a rigid structure when all distances are distinct: every
furthest-neighbor edge belongs to it, the furthest-neighbor graph splits
into components whose "spines" mutually cross, and the remaining tree edges
connect cyclically adjacent components through the hull boundary.  This
script builds that structure step by step and cross-checks the result
against a descending-greedy oracle.
"""

import pathlib

import numpy as np

from normplane import (
    build_fng,
    convex_hull,
    emit_svg,
    lp,
    mxst_bruteforce,
    mxst_mpsy,
    order_components,
    PointSet,
)

rng = np.random.default_rng(7)
spec = lp(1.5)
S = PointSet(rng.uniform(-10, 10, size=(18, 2)))

# Step 1-2: each point points at its furthest neighbor.
g = build_fng(spec, S)
print(f"furthest-neighbor out-map: {g.fn.tolist()}")
print(f"spines (mutual furthest pairs): {g.spines.tolist()}")
print(f"components: {g.k}")

# Step 3: spine endpoints in cyclic order around the hull; the first k
# entries are one endpoint per spine, then their partners in the same order.
hull = convex_hull(S.points)
cycle = order_components(g, hull)
print(f"hull boundary: {hull.boundary.tolist()}")
print(f"cluster cycle: {cycle.tolist()}")

# Steps 4-5: connecting edges between adjacent components, one discarded.
tree, report = mxst_mpsy(spec, S)
fng_edges = g.undirected_edges()
print(f"\ntree edges ({len(tree.edges)}):")
for (i, j), w in zip(tree.edges.tolist(), tree.weights.tolist()):
    tag = "fng" if (i, j) in fng_edges else "connector"
    print(f"  {i:>2} -- {j:<2}  w={w:8.4f}  [{tag}]")
print(f"total weight: {tree.total_weight:.4f}")
if report.entries:
    print(f"connecting-edge candidates per adjacent component pair:")
    for t, entry in enumerate(report.entries):
        mark = "  (discarded)" if t == report.discarded else ""
        print(f"  components {entry.components}: "
              f"selected {entry.selected.i}--{entry.selected.j} "
              f"w={entry.selected.weight:.4f}{mark}")

# The independent oracle: greedy over all edges by descending weight.
oracle = mxst_bruteforce(spec, S)
print(f"\nmatches descending-greedy oracle: {tree.edge_set() == oracle.edge_set()}")

out = pathlib.Path("demo_out")
out.mkdir(exist_ok=True)
emit_svg(S, hull, g, tree, None, out / "maximum_spanning_tree.svg")
print(f"figure written to {out / 'maximum_spanning_tree.svg'}")
