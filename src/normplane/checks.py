"""One-shot invariant suite for a point set under a chosen norm.

Runs every structural property of the furthest-neighbor graph and the
maximum spanning tree as an executable check and reports pass/fail per
invariant; used by the command-line ``check`` command and by the
acceptance tests.

Each call reads the flat distance triangle once (:func:`fng._triangle`) for
the tie count and the greedy oracle, and keeps it mirrored as the n x n table
every check reads distances from, so the call evaluates nothing else.
Stages are built once: ``fng`` (each table row's argmax over every point,
certified by the tie gate, so the lemma that puts each furthest neighbor on
the hull boundary is tested, plus the hull), ``cycle`` (the cyclic
component order on that graph) and ``tree`` (the tree connected from that
graph, its table distances and the hull, its connecting blocks read from
the table's boundary columns, beside the oracle).  Tied
distances anywhere skip every stage; a stage that cannot be built answers
for every check that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormPlaneError
from .fng import (
    DEFAULT_TOL,
    PointSet,
    _decompose,
    _mirrored,
    _sorted_ties,
    _triangle,
    order_components,
)
from .geometry import _hull, check_tol, segments_properly_intersect
from .mxst import _greedy, connect_components
from .norms import NormSpec


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class _Stages:
    """The structures of one call, each stage built once.

    ``missing[stage]`` is what every check needing that stage answers when
    it could not be built; a built stage has no entry.
    """

    def __init__(self, spec: NormSpec, S: PointSet, tol: float):
        self.S, self.tol = S, tol
        self.missing: dict[str, str] = {}
        self.cycle_error = ""
        self.ties, self.oracle, self.table = _global_stage(spec, S, tol)
        if self.ties:
            self.missing = dict.fromkeys(("fng", "cycle", "tree"), "skipped: ties present")
            return
        self.g = _decompose(self.table.argmax(axis=1))
        self.fn_dist = self.table[np.arange(S.n), self.g.fn]
        self.hull = _hull(S.points, tol)
        try:
            self.cycle = order_components(self.g, self.hull)
        except NormPlaneError as exc:
            self.cycle_error = str(exc)
            self.missing["cycle"] = "skipped: no component cycle"
        try:
            self.tree, _ = connect_components(spec, S, self.g, self.fn_dist, self.hull, tol,
                                              self.table[:, self.hull.boundary])
        except NormPlaneError as exc:
            self.missing["tree"] = f"tree construction failed: {exc}"


def _global_stage(spec: NormSpec, S: PointSet, tol: float):
    """``(detail, oracle, table)`` from one read of the distance triangle: the
    count of tied pairs ("" without any), then the greedy oracle tree and the
    triangle mirrored as :func:`fng.pairwise_distances` does, both None with ties."""
    iu, ju, w = _triangle(spec, S)
    tied = _sorted_ties(np.sort(w), tol)[0].size
    if tied:
        return f"{tied} tied distance pairs at tol={tol:g}", None, None
    return "", _greedy(S.n, iu, ju, w), _mirrored(S.n, iu, ju, w)


def run_checks(spec: NormSpec, S: PointSet, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Run the full invariant suite; one result per invariant, in registry order."""
    check_tol(tol)
    if S.n < 3:
        return [
            CheckResult(name, True, "trivial for n < 3" if stage else "")
            for name, stage, _ in _CHECKS
        ]
    st = _Stages(spec, S, tol)
    results = []
    for name, stage, check in _CHECKS:
        passed, detail = (False, st.missing[stage]) if stage in st.missing else check(st)
        results.append(CheckResult(name, passed, detail))
    return results


def _distances_distinct(st: _Stages) -> tuple[bool, str]:
    return "fng" not in st.missing, st.ties


def _increasing_chains(st: _Stages) -> tuple[bool, str]:
    # every edge i -> fn[i] off a spine is strictly shorter than the next
    # edge fn[i] -> fn[fn[i]]; a cycle longer than a spine cannot satisfy it
    fn, w = st.g.fn, st.fn_dist
    bad = np.flatnonzero((fn[fn] != np.arange(len(fn))) & ~(w < w[fn]))
    if not bad.size:
        return True, ""
    i = int(bad[0])
    return False, f"chain from {i} not strictly increasing at {i}->{fn[i]}->{fn[fn[i]]}"


def _nonleaves_on_boundary(st: _Stages) -> tuple[bool, str]:
    internal = np.unique(st.g.fn[st.hull.position[st.g.fn] < 0]).tolist()
    return not internal, "" if not internal else f"non-leaf vertices {internal} are interior"


def _spines_on_boundary(st: _Stages) -> tuple[bool, str]:
    missing = [x for x in st.g.spines.ravel().tolist() if st.hull.position[x] < 0]
    return not missing, "" if not missing else f"spine endpoints {missing} are interior"


def _spines_intersect(st: _Stages) -> tuple[bool, str]:
    spines, pts = st.g.spines, st.S.points
    for a in range(len(spines)):
        for b in range(a + 1, len(spines)):
            if not segments_properly_intersect(pts[spines[a]], pts[spines[b]], st.tol):
                s1, s2 = tuple(spines[a].tolist()), tuple(spines[b].tolist())
                return False, f"spines {s1} and {s2} do not cross"
    return True, ""


def _cluster_contiguity(st: _Stages) -> tuple[bool, str]:
    labels = st.g.cluster_of[st.hull.traversal()]
    distinct = np.unique(labels).size
    runs = np.count_nonzero(labels != np.roll(labels, 1))
    if distinct == 1 or runs == distinct:
        return True, ""
    return False, f"{runs} runs for {distinct} clusters on the hull"


def _cyclic_component_pattern(st: _Stages) -> tuple[bool, str]:
    return "cycle" not in st.missing, st.cycle_error


def _noncontiguous_maximum(st: _Stages) -> tuple[bool, str]:
    """Max distance from one component to two others is attained between
    non-contiguous clusters: cyclic distance exactly two in the triple's
    six-cluster cycle (partner clusters sit three apart).  Vacuous for k < 3.

    Component a's clusters sit at cycle positions a and a + k.
    """
    g, cycle = st.g, st.cycle
    k = g.k
    if k < 3:
        return True, "vacuous: k < 3"
    members = g.cluster_members()
    comp_members = [np.concatenate([members[cycle[a]], members[cycle[a + k]]]) for a in range(k)]
    for a in range(k):
        for off_b in range(1, k - 1):
            for off_c in range(off_b + 1, k):
                b = (a + off_b) % k
                c = (a + off_c) % k
                six = sorted((a, b, c, a + k, b + k, c + k))
                six_pos = {cycle[t]: r for r, t in enumerate(six)}
                rows = comp_members[a]
                cols = np.concatenate([comp_members[b], comp_members[c]])
                i, j = divmod(int(st.table[np.ix_(rows, cols)].argmax()), cols.size)
                u, v = int(rows[i]), int(cols[j])
                du = six_pos[g.cluster_of[u]]
                dv = six_pos[g.cluster_of[v]]
                if min((du - dv) % 6, (dv - du) % 6) != 2:
                    return (
                        False,
                        f"max pair {(u, v)} for components {(a, b, c)} joins contiguous clusters",
                    )
    return True, ""


def _matches_bruteforce(st: _Stages) -> tuple[bool, str]:
    same = st.tree.edge_set() == st.oracle.edge_set()
    return same, "" if same else "edge sets differ"


def _contains_fng(st: _Stages) -> tuple[bool, str]:
    missing = st.g.undirected_edges() - st.tree.edge_set()
    return not missing, "" if not missing else f"FNG edges {sorted(missing)} missing from the tree"


def _edges_touch_boundary(st: _Stages) -> tuple[bool, str]:
    edges = st.tree.edges
    bad = list(map(tuple, edges[np.all(st.hull.position[edges] < 0, axis=1)].tolist()))
    return not bad, "" if not bad else f"edges {bad} have both endpoints interior"


def _extra_edges_adjacent(st: _Stages) -> tuple[bool, str]:
    g = st.g
    k = g.k
    if k == 1:
        return True, "vacuous: single component"
    comp_pos = np.argsort(g.component_of[st.cycle[:k]])  # component -> cyclic position
    i, j = st.tree.edges.T
    fng = (g.fn[i] == j) | (g.fn[j] == i)
    d = (comp_pos[g.component_of[i]] - comp_pos[g.component_of[j]]) % k
    bad = np.flatnonzero(~fng & (d != 1) & (d != k - 1))
    if not bad.size:
        return True, ""
    t = bad[0]
    edge = (int(i[t]), int(j[t]))
    return False, f"edge {edge} joins non-adjacent components (cyclic offset {d[t]})"


def _edge_counts(st: _Stages) -> tuple[bool, str]:
    k, n = st.g.k, st.S.n
    fng_edges = st.g.undirected_edges()
    extra = st.tree.edge_set() - fng_edges
    if len(fng_edges) == n - k and len(extra) == k - 1:
        return True, ""
    return False, f"|FNG| = {len(fng_edges)} (want {n - k}), |extra| = {len(extra)} (want {k - 1})"


# (name, stage it needs, check): the suite's invariants in report order
_CHECKS = (
    ("distances-distinct", None, _distances_distinct),
    ("fng-increasing-chains", "fng", _increasing_chains),
    ("fng-nonleaves-on-boundary", "fng", _nonleaves_on_boundary),
    ("fng-spines-on-boundary", "fng", _spines_on_boundary),
    ("fng-spines-properly-intersect", "fng", _spines_intersect),
    ("fng-cluster-contiguity", "fng", _cluster_contiguity),
    ("fng-cyclic-component-pattern", "fng", _cyclic_component_pattern),
    ("fng-noncontiguous-maximum", "cycle", _noncontiguous_maximum),
    ("mxst-matches-bruteforce", "tree", _matches_bruteforce),
    ("mxst-contains-fng", "tree", _contains_fng),
    ("mxst-edges-touch-boundary", "tree", _edges_touch_boundary),
    ("mxst-extra-edges-adjacent", "tree", _extra_edges_adjacent),
    ("mxst-edge-counts", "tree", _edge_counts),
)
