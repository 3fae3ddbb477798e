"""Command-line front end: point-set ingestion, norm selection, JSON output.

Commands
--------
mxst      maximum spanning tree (with tie fallbacks)
fng       furthest-neighbor graph decomposition
cluster2  min-max-diameter 2-clustering
perturb   make all pairwise distances distinct (strictly convex norms)
bisector  sample the bisector of a two-point input
check     run the full invariant suite on the input

Exit codes: 0 success, 1 domain error, 2 I/O error.  Domain errors are
reported as JSON objects on standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import checks, svg
from .clustering import two_clustering
from .errors import IoError, NormPlaneError, ParseError, TiesPresent
from .fng import PointSet, build_fng, order_components
from .geometry import convex_hull
from .mxst import connect_components, mxst_bruteforce, mxst_mpsy
from .norms import NormSpec, is_strictly_convex, parse_norm, sample_bisector
from .perturb import perturb_distinct


@dataclass
class RunConfig:
    command: str
    norm: str = "euclidean"
    points: str = ""
    out: str | None = None
    svg: str | None = None
    eps: float = 1e-3
    tol: float = 1e-9
    fallback_ties: bool = False


def load_points(path: str) -> PointSet:
    """Read a point set from a JSON array of [x, y] pairs or a 2-column CSV."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path!r} is not valid JSON: {exc}") from exc
        rows = data
    else:
        rows = []
        for lineno, row in enumerate(csv.reader(text.splitlines())):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ParseError(f"{path!r} line {lineno + 1}: need two columns")
            try:
                rows.append([float(row[0]), float(row[1])])
            except ValueError:
                if lineno == 0:  # optional header
                    continue
                raise ParseError(f"{path!r} line {lineno + 1}: non-numeric value")
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path!r}: rows are not numeric [x, y] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParseError(f"{path!r}: expected [x, y] pairs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path!r}: non-finite coordinates")
    return PointSet(arr)  # raises DuplicatePoints on repeats


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise IoError(f"cannot write {out!r}: {exc}") from exc


def _edge_list(tree) -> list[list]:
    return [[i, j, w] for i, j, w in tree.edges]


def _report_json(report) -> dict | None:
    if report is None:
        return None
    return {
        "entries": [
            {
                "components": list(e.components),
                "candidates": [[c.i, c.j, c.weight] for c in e.candidates],
                "selected": [e.selected.i, e.selected.j, e.selected.weight],
            }
            for e in report.entries
        ],
        "discarded": report.discarded,
    }


def _cmd_mxst(cfg: RunConfig, spec: NormSpec, S: PointSet) -> int:
    perturb_info = None
    mode = "exact"
    try:
        tree, report = mxst_mpsy(spec, S, cfg.tol)
    except TiesPresent:
        if cfg.fallback_ties:
            tree, report = mxst_bruteforce(spec, S), None
            mode = "oracle-fallback"
        elif is_strictly_convex(spec):
            S, preport = perturb_distinct(spec, S, cfg.eps, cfg.tol)
            tree, report = mxst_mpsy(spec, S, cfg.tol)
            mode = "perturbed"
            perturb_info = {
                "max_displacement": max(preport.displacement),
                "moves": len(preport.steps),
                "residual_min_gap": preport.residual_min_gap,
                "points": [[x, y] for x, y in S.points],
            }
        else:
            raise
    k = len(report.entries) if report is not None and report.entries else 1
    payload = {
        "norm": spec.label(),
        "n": S.n,
        "edges": _edge_list(tree),
        "total_weight": tree.total_weight,
        "components": k if mode != "oracle-fallback" else None,
        "report": {
            "mode": mode,
            "oracle_derived": mode == "oracle-fallback",
            "connecting": _report_json(report),
            "perturbation": perturb_info,
        },
    }
    _emit(payload, cfg.out)
    if cfg.svg:
        _draw(spec, S, cfg.tol, cfg.svg, tree=tree)
    return 0


def _cmd_fng(cfg: RunConfig, spec: NormSpec, S: PointSet) -> int:
    g = build_fng(spec, S, cfg.tol)
    hull = convex_hull(S.points, cfg.tol)
    cycle = order_components(g, hull)
    payload = {
        "norm": spec.label(),
        "n": S.n,
        "fn": list(g.fn),
        "spines": [list(s) for s in g.spines],
        "components": g.k,
        "clusters": {str(rep): sorted(members) for rep, members in g.cluster_members().items()},
        "cycle": list(cycle),
    }
    _emit(payload, cfg.out)
    if cfg.svg:
        svg.emit_svg(S, hull, g, None, None, cfg.svg)
    return 0


def _cmd_cluster2(cfg: RunConfig, spec: NormSpec, S: PointSet) -> int:
    part = two_clustering(spec, S, cfg.tol)
    line = part.witness_line
    payload = {
        "norm": spec.label(),
        "n": S.n,
        "side_a": list(part.side_a),
        "side_b": list(part.side_b),
        "diam_a": part.diam_a,
        "diam_b": part.diam_b,
        "value": part.value,
        "witness": [line.a, line.b, line.c] if line is not None else None,
    }
    _emit(payload, cfg.out)
    if cfg.svg:
        _draw(spec, S, cfg.tol, cfg.svg, bipartition=part)
    return 0


def _cmd_perturb(cfg: RunConfig, spec: NormSpec, S: PointSet) -> int:
    S2, report = perturb_distinct(spec, S, cfg.eps, cfg.tol)
    payload = {
        "norm": spec.label(),
        "n": S2.n,
        "eps": cfg.eps,
        "points": [[x, y] for x, y in S2.points],
        "report": {
            "displacement": list(report.displacement),
            "steps": [[i, list(pair), d] for i, pair, d in report.steps],
            "residual_min_gap": report.residual_min_gap,
        },
    }
    _emit(payload, cfg.out)
    if cfg.svg:
        _draw(spec, S2, cfg.tol, cfg.svg)
    return 0


def _cmd_bisector(cfg: RunConfig, spec: NormSpec, S: PointSet) -> int:
    if S.n != 2:
        raise ParseError("bisector needs an input of exactly two points")
    p, q = S.points
    extent = 2.0 * float(math.hypot(*(q - p)))
    sample = sample_bisector(spec, p, q, count=33, extent=extent, tol=cfg.tol)
    payload = {
        "norm": spec.label(),
        "p": [p[0], p[1]],
        "q": [q[0], q[1]],
        "count": 33,
        "extent": extent,
        "points": [[x, y] for x, y in sample.points],
        "residuals": list(map(float, sample.residuals)),
        "max_residual": float(sample.residuals.max()),
    }
    _emit(payload, cfg.out)
    return 0


def _cmd_check(cfg: RunConfig, spec: NormSpec, S: PointSet) -> int:
    results = checks.run_checks(spec, S, cfg.tol)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        suffix = f": {r.detail}" if r.detail else ""
        print(f"{status} {r.name}{suffix}")
    payload = {
        "norm": spec.label(),
        "n": S.n,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    if cfg.out:
        _emit(payload, cfg.out)
    if cfg.svg:
        _draw(spec, S, cfg.tol, cfg.svg)
    return 0 if all(r.passed for r in results) else 1


def _draw(spec, S, tol, path, tree=None, bipartition=None) -> None:
    """Best-effort full rendering: hull always, FNG/tree when tie-free."""
    hull = convex_hull(S.points, tol)
    g = None
    try:
        g = build_fng(spec, S, tol)
        if tree is None:
            tree, _ = connect_components(spec, S, g, hull)
    except NormPlaneError:
        g = None
    svg.emit_svg(S, hull, g, tree, bipartition, path)


_COMMANDS = {
    "mxst": _cmd_mxst,
    "fng": _cmd_fng,
    "cluster2": _cmd_cluster2,
    "perturb": _cmd_perturb,
    "bisector": _cmd_bisector,
    "check": _cmd_check,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        if not (math.isfinite(config.tol) and config.tol >= 0.0):
            raise ParseError(f"--tol must be finite and non-negative, got {config.tol!r}")
        spec = parse_norm(config.norm)
        return _COMMANDS[config.command](config, spec, load_points(config.points))
    except IoError as exc:
        _error_json(exc)
        return 2
    except NormPlaneError as exc:
        _error_json(exc)
        return 1


def _error_json(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normplane",
        description="Spanning trees, furthest-neighbor graphs and 2-clusterings "
        "of planar point sets under arbitrary norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("mxst", "maximum spanning tree"),
        ("fng", "furthest-neighbor graph"),
        ("cluster2", "min-max-diameter 2-clustering"),
        ("perturb", "perturb points to make distances distinct"),
        ("bisector", "sample the bisector of a two-point input"),
        ("check", "run the invariant suite on the input"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--norm", default="euclidean",
                       help="euclidean | l1 | linf | lp:<p> | polygon:<path>")
        p.add_argument("--points", required=True, help="JSON or CSV point file")
        p.add_argument("--out", default=None, help="write the JSON result here")
        p.add_argument("--svg", default=None, help="write an SVG rendering here")
        p.add_argument("--eps", type=float, default=1e-3,
                       help="perturbation budget (default 1e-3)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="numeric tolerance (default 1e-9)")
        p.add_argument("--fallback-ties", action="store_true", dest="fallback_ties",
                       help="on ties, fall back to the brute-force tree")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        norm=args.norm,
        points=args.points,
        out=args.out,
        svg=args.svg,
        eps=args.eps,
        tol=args.tol,
        fallback_ties=args.fallback_ties,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
