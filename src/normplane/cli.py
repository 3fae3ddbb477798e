"""Command-line front end: point-set ingestion, norm selection, JSON output.

Commands, and the flags each reads besides --norm, --points, --out, --tol
-------------------------------------------------------------------------
mxst      maximum spanning tree (with tie fallbacks): --svg --eps --fallback-ties
fng       furthest-neighbor graph decomposition: --svg
cluster2  min-max-diameter 2-clustering: --svg
perturb   make all pairwise distances distinct (strictly convex norms): --svg --eps
bisector  sample the bisector of a two-point input
check     run the full invariant suite on the input: --svg

A flag a command does not read is a usage error, as is any unknown flag.

Exit codes: 0 success, 1 domain error, 2 I/O or usage error; a points or
polygon file that cannot be read is an I/O error (``norms._read_text``).
Domain and I/O errors are reported as JSON objects on standard error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import checks, svg
from .clustering import two_clustering
from .errors import DegenerateInput, IoError, NormPlaneError, ParseError, TiesPresent
from .fng import PointSet, _stages, order_components
from .geometry import DEFAULT_TOL, _hull, check_tol
from .mxst import connect_components, mxst_bruteforce, mxst_mpsy
from .norms import (NormSpec, _numeric_rows, _read_text, is_strictly_convex, parse_norm,
                    sample_bisector)
from .perturb import check_eps, perturb_distinct


def load_points(path: str) -> PointSet:
    """Read a point set from a JSON array of [x, y] pairs or a 2-column CSV."""
    text = _read_text(path, repr(path))
    if text.lstrip().startswith("["):
        try:
            rows = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
            raise ParseError(f"{path!r} is not valid JSON: {exc}") from exc
    else:
        rows, reader = [], csv.reader(text.splitlines())
        try:
            for lineno, row in enumerate(reader):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < 2:
                    raise ParseError(f"{path!r} line {lineno + 1}: need two columns")
                # trailing empty cells ("1,2,") are harmless; a third value is not
                if any(cell.strip() for cell in row[2:]):
                    raise ParseError(f"{path!r} line {lineno + 1}: more than two columns")
                try:
                    rows.append([float(row[0]), float(row[1])])
                except ValueError:
                    # an optional header: line 1 with no numeric cell among two
                    if lineno == 0 and not any(map(_is_float, row[:2])):
                        continue
                    raise ParseError(f"{path!r} line {lineno + 1}: non-numeric value")
        except csv.Error as exc:  # a field over the reader's size limit
            raise ParseError(f"{path!r} line {reader.line_num}: {exc}") from exc
    arr = _numeric_rows(rows, repr(path))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParseError(f"{path!r}: expected [x, y] pairs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path!r}: non-finite coordinates")
    return PointSet(arr)  # raises DuplicatePoints on repeats


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out is None:
        print(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise IoError(f"cannot write {out!r}: {exc}") from exc


def _finite_or_none(x: float) -> float | None:
    """JSON has no infinity: a non-finite value is written as null."""
    return x if math.isfinite(x) else None


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


def _cmd_mxst(args: argparse.Namespace, spec: NormSpec, S: PointSet) -> int:
    perturb_info = None
    mode = "exact"
    try:
        tree, report = mxst_mpsy(spec, S, args.tol)
    except TiesPresent:
        if args.fallback_ties:
            tree, report = mxst_bruteforce(spec, S), None
            mode = "oracle-fallback"
        elif is_strictly_convex(spec):
            S, preport = perturb_distinct(spec, S, args.eps, args.tol)
            tree, report = mxst_mpsy(spec, S, args.tol)
            mode = "perturbed"
            perturb_info = {
                "max_displacement": max(preport.displacement),
                "moves": len(preport.steps),
                "residual_min_gap": _finite_or_none(preport.residual_min_gap),
                "points": S.points.tolist(),
            }
        else:
            raise
    k = len(report.entries) if report is not None and report.entries else 1
    payload = {
        "norm": spec.label(),
        "n": S.n,
        "edges": [[i, j, w] for (i, j), w in zip(tree.edges.tolist(), tree.weights.tolist())],
        "total_weight": tree.total_weight,
        "components": k if mode != "oracle-fallback" else None,
        "report": {
            "mode": mode,
            "oracle_derived": mode == "oracle-fallback",
            "connecting": _report_json(report),
            "perturbation": perturb_info,
        },
    }
    _emit(payload, args.out)
    if args.svg and mode == "oracle-fallback":
        # the construction tied at one of its decisions: hull and oracle tree only
        svg.emit_svg(S, _hull(S.points, args.tol), None, tree, None, args.svg)
    elif args.svg:
        _draw(spec, S, args.tol, args.svg)
    return 0


def _cmd_fng(args: argparse.Namespace, spec: NormSpec, S: PointSet) -> int:
    hull, g, _, _ = _stages(spec, S, args.tol)
    cycle = order_components(g, hull)
    payload = {
        "norm": spec.label(),
        "n": S.n,
        "fn": g.fn.tolist(),
        "spines": g.spines.tolist(),
        "components": g.k,
        "clusters": {str(rep): members.tolist() for rep, members in g.cluster_members().items()},
        "cycle": cycle.tolist(),
    }
    _emit(payload, args.out)
    if args.svg:
        svg.emit_svg(S, hull, g, None, None, args.svg)
    return 0


def _cmd_cluster2(args: argparse.Namespace, spec: NormSpec, S: PointSet) -> int:
    part = two_clustering(spec, S, args.tol)
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
    _emit(payload, args.out)
    if args.svg:
        _draw(spec, S, args.tol, args.svg, bipartition=part)
    return 0


def _cmd_perturb(args: argparse.Namespace, spec: NormSpec, S: PointSet) -> int:
    S2, report = perturb_distinct(spec, S, args.eps, args.tol)
    payload = {
        "norm": spec.label(),
        "n": S2.n,
        "eps": args.eps,
        "points": S2.points.tolist(),
        "report": {
            "displacement": list(report.displacement),
            "steps": [[i, list(pair), d] for i, pair, d in report.steps],
            "residual_min_gap": _finite_or_none(report.residual_min_gap),
        },
    }
    _emit(payload, args.out)
    if args.svg:
        _draw(spec, S2, args.tol, args.svg)
    return 0


def _cmd_bisector(args: argparse.Namespace, spec: NormSpec, S: PointSet) -> int:
    if S.n != 2:
        raise ParseError("bisector needs an input of exactly two points")
    p, q = S.points
    extent = 2.0 * math.dist(p, q)  # inf, without a warning, when q - p overflows
    sample = sample_bisector(spec, p, q, count=33, extent=extent, tol=args.tol)
    payload = {
        "norm": spec.label(),
        "p": [p[0], p[1]],
        "q": [q[0], q[1]],
        "count": 33,
        "extent": extent,
        "points": sample.points.tolist(),
        "residuals": list(map(float, sample.residuals)),
        "max_residual": float(sample.residuals.max()),
    }
    _emit(payload, args.out)
    return 0


def _cmd_check(args: argparse.Namespace, spec: NormSpec, S: PointSet) -> int:
    results = checks.run_checks(spec, S, args.tol)
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
    if args.out:
        _emit(payload, args.out)
    if args.svg:
        _draw(spec, S, args.tol, args.svg)
    return 0 if all(r.passed for r in results) else 1


def _draw(spec, S, tol, path, bipartition=None) -> None:
    """Best-effort full rendering: the construction's hull always, the FNG
    when its rows are tie-free, and the construction's tree when its
    decisions are.  The stages are built once (:func:`fng._stages`), from
    the hull built first, so a stage that raises leaves the hull to draw."""
    hull, g, tree = _hull(S.points, tol), None, None
    try:
        _, g, fn_dist, held = _stages(spec, S, tol, hull)
        tree, _ = connect_components(spec, S, g, fn_dist, hull, tol, held)
    except NormPlaneError:
        pass  # draws what was built: a tie in the connecting step keeps the FNG
    svg.emit_svg(S, hull, g, tree, bipartition, path)


# name: (handler, help, the flags it reads besides --norm, --points, --out and --tol)
_COMMANDS = {
    "mxst": (_cmd_mxst, "maximum spanning tree", ("--svg", "--eps", "--fallback-ties")),
    "fng": (_cmd_fng, "furthest-neighbor graph", ("--svg",)),
    "cluster2": (_cmd_cluster2, "min-max-diameter 2-clustering", ("--svg",)),
    "perturb": (_cmd_perturb, "perturb points to make distances distinct", ("--svg", "--eps")),
    "bisector": (_cmd_bisector, "sample the bisector of a two-point input", ()),
    "check": (_cmd_check, "run the invariant suite on the input", ("--svg",)),
}


def _error_json(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


@functools.cache  # one parser per process: main may run many times
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normplane",
        description="Spanning trees, furthest-neighbor graphs and 2-clusterings "
        "of planar point sets under arbitrary norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--norm", default="euclidean",
                       help="euclidean | l1 | linf | lp:<p> | polygon:<path>")
        p.add_argument("--points", required=True, help="JSON or CSV point file")
        p.add_argument("--out", default=None, help="write the JSON result here")
        if "--svg" in flags:
            p.add_argument("--svg", default=None, help="write an SVG rendering here")
        if "--eps" in flags:
            p.add_argument("--eps", type=float, default=1e-3,
                           help="perturbation budget (default %(default)s)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="numeric tolerance (default %(default)s)")
        if "--fallback-ties" in flags:
            p.add_argument("--fallback-ties", action="store_true", dest="fallback_ties",
                           help="on ties, fall back to the brute-force tree")
    return parser


def main(argv=None) -> int:
    """Execute one command; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        try:
            check_tol(args.tol)
        except DegenerateInput as exc:
            raise ParseError(f"--{exc}") from exc
        if "eps" in args:
            check_eps(args.eps)
        spec = parse_norm(args.norm)
        handler, _, _ = _COMMANDS[args.command]
        return handler(args, spec, load_points(args.points))
    except IoError as exc:
        _error_json(exc)
        return 2
    except NormPlaneError as exc:
        _error_json(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
