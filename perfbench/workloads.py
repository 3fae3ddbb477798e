"""The four benchmark workloads: seeded instance lists, the timed call, the gate.

Why each workload exists is recorded in ``BENCHMARK.json``.  Each workload is
a fixed list of instances built from the seed.  Sizes and
norms follow a fixed schedule (index i takes ``schedule[i % period]``), so a
seed only changes coordinates, never the mix of sizes.  The timed call takes
a point array and goes through normplane's public functions; the gate checks
every output against an oracle, outside the timing.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import inputs

# the hexagonal gauge of the test suite's polygonal family
HEX_BALL = [[1.0, 0.0], [0.5, 1.0], [-0.5, 1.0], [-1.0, 0.0], [-0.5, -1.0], [0.5, -1.0]]
PERTURB_EPS = 1e-3
TREE_NORMS = ("euclidean", "lp:1.5", "hex")
CLI_POINTS = partial(inputs.uniform, side=0.01)


@dataclass
class Instance:
    index: int
    kind: str  # "tree" | "cluster" | "perturb" | "cli"
    n: int
    norm: str
    points: np.ndarray
    spec: object
    path: str | None = None  # cli input file
    out: str | None = None  # cli output file


@dataclass
class Workload:
    name: str
    # one period of (kind, generator, n, norm); instance i uses entry i % period
    schedule: tuple[tuple[str, object, int, str], ...]
    length: int
    control: tuple[tuple[int, str], ...] = ()  # (n, norm) small-n oracle cases

    @property
    def period(self) -> int:
        return len(self.schedule)


def _product(kind, gen, sizes, norms):
    return tuple((kind, gen, n, norm) for norm in norms for n in sizes)


def _tie_repair_schedule():
    # three grids, one per norm, then one default-flag CLI call; at side 0.01
    # the absolute default tol=1e-9 meets about three ties per 100 points,
    # the defect ROADMAP reports at n=500 in the unit square, at a size that
    # lets one run hold many calls
    grids = _product("perturb", inputs.grid, (20,), ("lp:2", "lp:1.5", "lp:4"))
    return grids + (("cli", CLI_POINTS, 100, "lp:2"),)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform_tree",
            _product("tree", inputs.uniform, (200, 300, 450), TREE_NORMS),
            length=108,
        ),
        Workload(
            "convex_tree",
            _product("tree", inputs.ellipse, (80, 120, 170), TREE_NORMS),
            length=108,
        ),
        Workload(
            "tie_repair",
            _tie_repair_schedule(),
            length=80,
        ),
        Workload(
            "cluster_certify",
            _product("cluster", inputs.uniform, (40,), ("euclidean", "lp:1.5", "lp:3")),
            length=240,
            control=tuple((n, norm) for n in (8, 10, 12, 14) for norm in ("euclidean", "lp:1.5", "lp:3")),
        ),
    )
}


def make_spec(api, norm: str):
    if norm == "hex":
        return api.norms.polygonal(HEX_BALL)
    return api.norms.parse_norm(norm)


def build(api, w: Workload, seed: int, workdir: str, length: int | None = None) -> list[Instance]:
    """Generate the workload's instance list; CLI inputs are written to files."""
    rng = np.random.default_rng(seed)
    specs = {}
    out = []
    for i in range(w.length if length is None else length):
        kind, gen, n, norm = w.schedule[i % w.period]
        if norm not in specs:
            specs[norm] = make_spec(api, norm)
        inst = Instance(i, kind, n, norm, gen(rng, n), specs[norm])
        if kind == "cli":
            inst.path = os.path.join(workdir, f"in-{seed}-{i}.json")
            inst.out = os.path.join(workdir, f"out-{seed}-{i}.json")
            with open(inst.path, "w", encoding="utf-8") as fh:
                json.dump(inst.points.tolist(), fh)
        out.append(inst)
    return out


def build_control(api, w: Workload, seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 1])
    return [
        Instance(i, "control", n, norm, inputs.uniform(rng, n), make_spec(api, norm))
        for i, (n, norm) in enumerate(w.control)
    ]


def call(api, inst: Instance):
    """The timed operation on one instance."""
    if inst.kind == "tree":
        tree, _ = api.mxst.mxst_mpsy(inst.spec, api.fng.PointSet(inst.points), tol=0.0)
        return tree
    if inst.kind == "cluster":
        S = api.fng.PointSet(inst.points)
        part = api.clustering.two_clustering(inst.spec, S, 0.0)
        return part, api.checks.run_checks(inst.spec, S, 0.0)
    if inst.kind == "perturb":
        S2, report = api.perturb.perturb_distinct(inst.spec, api.fng.PointSet(inst.points), PERTURB_EPS)
        tree, _ = api.mxst.mxst_mpsy(inst.spec, S2)
        return S2.points, report, tree
    if inst.kind == "cli":
        return api.cli.main(["mxst", "--norm", inst.norm, "--points", inst.path, "--out", inst.out])
    raise ValueError(f"unknown instance kind {inst.kind!r}")


def collect(inst: Instance, raw):
    """Turn a call's raw result into what the gate needs (run outside timing)."""
    if inst.kind != "cli":
        return raw
    if raw != 0:
        return (raw, None)
    with open(inst.out, encoding="utf-8") as fh:
        return (raw, fh.read())


@dataclass
class Gate:
    """Checks outputs against the oracles; verdicts are cached per output.

    Caches are keyed by instance object, since the memory pass draws its own
    instances whose indices repeat those of the timed list.
    """

    api: object
    oracle: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def _tree_oracle(self, spec, points) -> set:
        return self.api.mxst.mxst_bruteforce(spec, self.api.fng.PointSet(points)).edge_set()

    def check(self, inst: Instance, out) -> str | None:
        """None when the output is correct, else the reason it is not."""
        return getattr(self, "_check_" + inst.kind)(inst, out)

    def _check_tree(self, inst, tree):
        if id(inst) not in self.oracle:
            self.oracle[id(inst)] = self._tree_oracle(inst.spec, inst.points)
        if tree.edge_set() != self.oracle[id(inst)]:
            return "tree edge set differs from mxst_bruteforce"
        return None

    def _check_cluster(self, inst, out):
        part, results = out
        bad = [r.name for r in results if not r.passed]
        if bad:
            return f"run_checks failed: {bad}"
        if id(inst) not in self.oracle:
            self.oracle[id(inst)] = self._split_oracle(inst)
        side_a, value = self.oracle[id(inst)]
        if tuple(part.side_a) != side_a:
            return "two_clustering split differs from the oracle tree's 2-colouring"
        if not math.isclose(part.value, value, rel_tol=1e-12):
            return f"two_clustering value {part.value!r} != oracle {value!r}"
        return None

    def _split_oracle(self, inst):
        n = inst.n
        adj = [[] for _ in range(n)]
        for i, j in self._tree_oracle(inst.spec, inst.points):
            adj[i].append(j)
            adj[j].append(i)
        colour = [-1] * n
        colour[0] = 0
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if colour[v] == -1:
                    colour[v] = 1 - colour[u]
                    stack.append(v)
        diams = []
        for c in (0, 1):
            pts = inst.points[[i for i in range(n) if colour[i] == c]]
            diff = pts[:, None, :] - pts[None, :, :]
            diams.append(float(self.api.norms.norm_many(inst.spec, diff).max()) if len(pts) > 1 else 0.0)
        return tuple(i for i in range(n) if colour[i] == 0), max(diams)

    def check_control(self, inst) -> str | None:
        S = self.api.fng.PointSet(inst.points)
        mine = self.api.clustering.two_clustering(inst.spec, S, 0.0).value
        want = self.api.clustering.two_clustering_bruteforce(inst.spec, S).value
        if mine != want:
            return f"control n={inst.n} {inst.norm}: value {mine!r} != bruteforce {want!r}"
        return None

    def _check_perturb(self, inst, out):
        pts, report, tree = out
        key = (id(inst), pts.tobytes(), frozenset(tree.edge_set()))
        if key not in self.verdicts:
            self.verdicts[key] = self._perturb_verdict(inst, pts, report, tree)
        return self.verdicts[key]

    def _perturb_verdict(self, inst, pts, report, tree):
        fng = self.api.fng
        table = fng.pairwise_distances(inst.spec, fng.PointSet(pts))
        if fng.detect_ties(table, 1e-12 * report.residual_min_gap):
            return "ties remain after perturbation"
        if not max(report.displacement) < PERTURB_EPS:
            return "a point moved eps or further"
        if len(report.steps) > inst.n * (inst.n - 1):
            return "move log longer than n(n-1)"
        if tree.edge_set() != self._tree_oracle(inst.spec, pts):
            return "tree on perturbed points differs from mxst_bruteforce"
        return None

    def _check_cli(self, inst, out):
        rc, text = out
        if rc != 0:
            return f"CLI exit code {rc}"
        key = (id(inst), text)
        if key not in self.verdicts:
            self.verdicts[key] = self._cli_verdict(inst, text)
        return self.verdicts[key][0]

    def perturbed(self, inst: Instance, out) -> bool:
        """Whether a checked CLI output reports ``mode == "perturbed"``."""
        return self.verdicts.get((id(inst), out[1]), (None, False))[1]

    def _cli_verdict(self, inst, text):
        try:
            payload = json.loads(text)
            report = payload["report"]
            perturbed = report["mode"] == "perturbed"
            pts = np.asarray(report["perturbation"]["points"] if perturbed else inst.points, dtype=float)
            edges = {(int(i), int(j)) for i, j, _ in payload["edges"]}
        except (ValueError, KeyError, TypeError) as exc:
            return f"CLI output does not parse: {exc!r}", False
        if payload["n"] != inst.n or pts.shape != inst.points.shape:
            return "CLI output reports a different point count", perturbed
        if perturbed and not report["perturbation"]["max_displacement"] < PERTURB_EPS:
            return "CLI perturbation moved a point eps or further", perturbed
        if edges != self._tree_oracle(inst.spec, pts):
            return "CLI tree differs from mxst_bruteforce on the reported points", perturbed
        return None, perturbed
