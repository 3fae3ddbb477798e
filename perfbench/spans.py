"""Import-site timing wrappers and the per-layer metrics derived from them.

For the traced pass only, every function named in ``SITES`` is replaced, in
the namespace of each module that calls it, by a wrapper that records a
span (name, start, end, parent span, workload call) in memory.  The
originals are put back by :meth:`Tracer.restore`.  A name a module no
longer imports is recorded as absent instead of failing, so the benchmark
keeps working when call sites are removed.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


def _norm_many(args, kwargs, result):
    return {"evals": int(np.asarray(args[1]).size // 2)}


def _detect_ties(args, kwargs, result):
    n = np.shape(args[0])[0]
    return {"values": n * (n - 1) // 2, "tie_pairs": len(result)}


def _convex_hull(args, kwargs, result):
    return {"b": len(result.boundary)}


def _fng_from_table(args, kwargs, result):
    return {"k": len(result.spines)}


def _stabbing_line(args, kwargs, result):
    return {"hit": result is not None}


def _perturb_distinct(args, kwargs, result):
    points, report = result
    return {"moves": len(report.steps), "n": points.n}


# (layer, function, modules whose namespace holds a call site, probe);
# the defining module comes first, so calls the benchmark makes through it
# are spans too
SITES = (
    ("norms", "norm_many", ("norms", "fng", "perturb", "clustering"), _norm_many),
    ("fng", "pairwise_distances", ("fng", "mxst", "clustering", "checks"), None),
    ("fng", "detect_ties", ("fng", "mxst", "perturb", "checks"), _detect_ties),
    ("fng", "fng_from_table", ("fng", "mxst", "checks"), _fng_from_table),
    ("fng", "order_components", ("fng", "mxst", "checks", "cli"), None),
    ("geometry", "convex_hull", ("geometry", "mxst", "perturb", "checks", "cli"), _convex_hull),
    ("geometry", "segments_properly_intersect", ("geometry", "checks"), None),
    ("mxst", "mxst_mpsy", ("mxst", "clustering", "checks", "cli"), None),
    ("mxst", "mxst_bruteforce", ("mxst", "checks", "cli"), None),
    ("perturb", "perturb_distinct", ("perturb", "cli"), _perturb_distinct),
    ("clustering", "two_clustering", ("clustering", "cli"), None),
    ("clustering", "stabbing_line", ("clustering",), _stabbing_line),
    ("checks", "run_checks", ("checks",), None),
    ("cli", "main", ("cli",), None),
)

# float64 vectors in (16 bytes) and norms out (8 bytes)
NORM_BYTES_PER_EVAL = 24


class Tracer:
    """Installs the wrappers and keeps the spans of one traced pass."""

    def __init__(self, api):
        self.api = api
        self.spans: list[dict] = []
        self.call = -1  # workload call the next spans belong to
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, fname, modules, probe in SITES:
            for modname in modules:
                module = getattr(self.api, modname)
                original = module.__dict__.get(fname)
                if original is None:
                    self.absent.append(f"normplane.{modname}.{fname}")
                    continue
                self._saved.append((module, fname, original))
                setattr(module, fname, self._wrap(f"{layer}.{fname}", original, probe))

    def restore(self) -> None:
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()

    def _wrap(self, name, original, probe):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = {"name": name, "parent": stack[-1] if stack else -1, "call": self.call}
            spans.append(span)
            stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.update(probe(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper


def layer_metrics(spans: list[dict], absent_sites: list[str]):
    """Per-layer metrics, the reason each metric with no spans is absent,
    and the self time of each span name (duration minus its child spans)."""
    dur = [s["end"] - s["start"] for s in spans]
    own = list(dur)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)
        if s["parent"] >= 0:
            own[s["parent"]] -= dur[i]
    self_s = {name: sum(own[i] for i in idx) for name, idx in by_name.items()}

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def calls(name):
        return len(by_name[name])

    def summed(name, key):
        return sum(spans[i].get(key, 0) for i in by_name[name])

    def mean(name, key):
        return summed(name, key) / calls(name) if calls(name) else 0.0

    def layer_self(layer):
        return sum(v for name, v in self_s.items() if name.startswith(layer + "."))

    def under(i, owner):
        p = spans[i]["parent"]
        while p >= 0 and spans[p]["name"] != owner:
            p = spans[p]["parent"]
        return p >= 0

    def tables_per_call(owner):
        tables = sum(1 for i in by_name["fng.pairwise_distances"] if under(i, owner))
        return tables / calls(owner) if calls(owner) else 0.0

    # tie scans made directly by a perturb_distinct call: the first is the
    # initial scan, every further one is a ladder rung
    scans = {p: 0 for p in by_name["perturb.perturb_distinct"] if "moves" in spans[p]}
    for i in by_name["fng.detect_ties"]:
        if spans[i]["parent"] in scans:
            scans[spans[i]["parent"]] += 1
    attempts = sum(c - 1 for c in scans.values())
    moves = sum(spans[p]["moves"] for p in scans)
    hits = sum(1 for i in by_name["clustering.stabbing_line"] if spans[i].get("hit"))
    n_stab = calls("clustering.stabbing_line")

    m = {
        "fng.detect_ties.s": total("fng.detect_ties"),
        "fng.detect_ties.calls": calls("fng.detect_ties"),
        "fng.detect_ties.values": summed("fng.detect_ties", "values"),
        "fng.tie_pairs": summed("fng.detect_ties", "tie_pairs"),
        "norms.norm_many.calls": calls("norms.norm_many"),
        "norms.evals": summed("norms.norm_many", "evals"),
        "norms.bytes_computed": summed("norms.norm_many", "evals") * NORM_BYTES_PER_EVAL,
        "norms.self_s": layer_self("norms"),
        "fng.pairwise_distances.s": total("fng.pairwise_distances"),
        "fng.pairwise_distances.calls": calls("fng.pairwise_distances"),
        "fng.fng_from_table.s": total("fng.fng_from_table"),
        "fng.order_components.s": total("fng.order_components"),
        "fng.components_k": mean("fng.fng_from_table", "k"),
        "fng.self_s": layer_self("fng"),
        "geometry.convex_hull.s": total("geometry.convex_hull"),
        "geometry.convex_hull.calls": calls("geometry.convex_hull"),
        "geometry.self_s": layer_self("geometry"),
        "geometry.hull_b": mean("geometry.convex_hull", "b"),
        "mxst.mxst_mpsy.s": total("mxst.mxst_mpsy"),
        "mxst.mxst_bruteforce.s": total("mxst.mxst_bruteforce"),
        "mxst.self_s": layer_self("mxst"),
        "perturb.perturb_distinct.s": total("perturb.perturb_distinct"),
        "perturb.self_s": layer_self("perturb"),
        "perturb.attempts": attempts,
        "perturb.moves": moves,
        "perturb.accept_ratio": moves / attempts if attempts else 0.0,
        "perturb.table_bytes_computed": sum(
            (c - 1) * spans[p]["n"] ** 2 * 8 for p, c in scans.items()
        ),
        "clustering.two_clustering.s": total("clustering.two_clustering"),
        "clustering.self_s": layer_self("clustering"),
        "clustering.stabbing_line.calls": n_stab,
        "clustering.stabbing_line.s": total("clustering.stabbing_line"),
        "clustering.witness_hit_ratio": hits / n_stab if n_stab else 0.0,
        "clustering.tables_per_call": tables_per_call("clustering.two_clustering"),
        "checks.run_checks.s": total("checks.run_checks"),
        "checks.self_s": layer_self("checks"),
        "checks.tables_per_call": tables_per_call("checks.run_checks"),
        "cli.main.s": total("cli.main"),
        "cli.self_s": layer_self("cli"),
    }

    absent = {}
    for metric in m:
        fname = _SOURCE.get(metric) or metric.rsplit(".", 1)[0]
        if by_name[fname]:
            continue
        missing = [s for s in absent_sites if s.endswith("." + fname.split(".")[1])]
        if missing:
            absent[metric] = f"never called; not imported at {', '.join(missing)}"
        else:
            absent[metric] = f"no {fname} call on this workload"
    return m, absent, self_s


# the function whose spans a metric rests on, where its name does not say
_SOURCE = {
    "fng.tie_pairs": "fng.detect_ties",
    "norms.evals": "norms.norm_many",
    "norms.bytes_computed": "norms.norm_many",
    "norms.self_s": "norms.norm_many",
    "fng.components_k": "fng.fng_from_table",
    "fng.self_s": "fng.pairwise_distances",
    "geometry.self_s": "geometry.convex_hull",
    "geometry.hull_b": "geometry.convex_hull",
    "mxst.self_s": "mxst.mxst_mpsy",
    "perturb.self_s": "perturb.perturb_distinct",
    "perturb.attempts": "perturb.perturb_distinct",
    "perturb.moves": "perturb.perturb_distinct",
    "perturb.accept_ratio": "perturb.perturb_distinct",
    "perturb.table_bytes_computed": "perturb.perturb_distinct",
    "clustering.self_s": "clustering.two_clustering",
    "clustering.witness_hit_ratio": "clustering.stabbing_line",
    "clustering.tables_per_call": "clustering.two_clustering",
    "checks.self_s": "checks.run_checks",
    "checks.tables_per_call": "checks.run_checks",
    "cli.self_s": "cli.main",
}
