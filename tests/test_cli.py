import hashlib
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from normplane import (
    PointSet,
    build_fng,
    convex_hull,
    detect_ties,
    emit_svg,
    euclidean,
    lp,
    mxst_bruteforce,
    mxst_mpsy,
    pairwise_distances,
    parse_norm,
    two_clustering,
)
import normplane.checks as checks_module
import normplane.cli as cli_module
import normplane.fng as fng_module
from normplane.cli import _build_parser, load_points, main
from normplane.errors import DuplicatePoints, ParseError
from normplane.geometry import DEFAULT_TOL
from conftest import ELONGATED_HEX_BALL, HEX_BALL
from test_clustering import FAR_LINF_POINTS
from test_fng import JITTERED_SQUARE

TRI_345 = [[0, 0], [3, 0], [3, 4]]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_points_json(tmp_path):
    path = _write(tmp_path, "pts.json", "[[0,0],[1,0],[3,0]]")
    S = load_points(path)
    assert S.n == 3
    assert np.array_equal(S.points, [[0, 0], [1, 0], [3, 0]])


def test_load_points_csv_with_and_without_header(tmp_path):
    path = _write(tmp_path, "pts.csv", "x,y\n0,0\n1,0\n")
    assert load_points(path).n == 2
    path = _write(tmp_path, "raw.csv", "0,0\n1,0\n2.5,3.5\n")
    S = load_points(path)
    assert S.n == 3 and S.points[2, 1] == 3.5
    # blank lines, empty or all spaces, are skipped
    path = _write(tmp_path, "gaps.csv", "x,y\n\n0,0\n \n1,0\n , \n2.5,3.5\n\n")
    assert np.array_equal(load_points(path).points, S.points)


def test_load_points_rejects_bad_input(tmp_path):
    with pytest.raises(DuplicatePoints):
        load_points(_write(tmp_path, "dup.json", "[[0,0],[0,0]]"))
    with pytest.raises(ParseError):
        load_points(_write(tmp_path, "bad.json", "[[0,0],[1]]"))
    with pytest.raises(ParseError):
        load_points(_write(tmp_path, "nan.json", '[[0,0],[1,"x"]]'))


def test_json_round_trip_bit_exact(tmp_path):
    pts = np.random.default_rng(5).uniform(-1, 1, size=(8, 2))
    path = tmp_path / "pts.json"
    path.write_text(json.dumps([[x, y] for x, y in pts]))
    S = load_points(str(path))
    again = tmp_path / "again.json"
    again.write_text(json.dumps([[x, y] for x, y in S.points]))
    S2 = load_points(str(again))
    assert np.array_equal(S.points, S2.points)


def test_cli_mxst_triangle(tmp_path, capsys):
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    assert main(["mxst", "--norm", "lp:2", "--points", pts]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert len(payload["edges"]) == 2
    assert payload["total_weight"] == pytest.approx(9.0)
    assert list(payload) == ["norm", "n", "edges", "total_weight", "components", "report"]


def test_cli_cluster2_triangle(tmp_path, capsys):
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    assert main(["cluster2", "--norm", "lp:2", "--points", pts]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(3.0)


def test_cli_perturb_linf_rejected(tmp_path, capsys):
    pts = _write(tmp_path, "sq.json", "[[0,0],[1,0],[1,1],[0,1]]")
    code = main(["perturb", "--norm", "linf", "--points", pts])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotStrictlyConvex"


def test_cli_mxst_defaults_keep_the_exact_mode_when_only_other_distances_tie(tmp_path, capsys):
    # 100 uniform points in a 0.01 square hold distances within the default
    # tol 1e-9 of each other, none at a decision: mxst used to perturb them
    pts = np.random.default_rng(100).uniform(0.0, 0.01, size=(100, 2))
    S = PointSet(pts)
    assert detect_ties(pairwise_distances(lp(2), S))
    path = _write(tmp_path, "small.json", json.dumps(pts.tolist()))
    assert main(["mxst", "--norm", "lp:2", "--points", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["mode"] == "exact" and payload["report"]["perturbation"] is None
    assert {(i, j) for i, j, _ in payload["edges"]} == mxst_bruteforce(lp(2), S).edge_set()


def test_cli_mxst_tie_fallbacks(tmp_path, capsys):
    sq = _write(tmp_path, "sq.json", "[[0,0],[1,0],[1,1],[0,1]]")
    # strictly convex norm: ties auto-perturb
    assert main(["mxst", "--norm", "lp:2", "--points", sq]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["mode"] == "perturbed"
    assert payload["report"]["perturbation"]["max_displacement"] < 1e-3
    # non-strictly-convex norm without fallback: domain error
    assert main(["mxst", "--norm", "linf", "--points", sq]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TiesPresent"
    # with the fallback flag the oracle tree is returned and flagged
    assert main(["mxst", "--norm", "linf", "--points", sq, "--fallback-ties"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["oracle_derived"] is True
    assert payload["components"] is None
    assert len(payload["edges"]) == 3


def test_cli_fng_and_out_file(tmp_path, capsys):
    pts = _write(tmp_path, "jit.json", json.dumps([[x, y] for x, y in JITTERED_SQUARE]))
    out = tmp_path / "fng.json"
    assert main(["fng", "--points", pts, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["components"] == 2
    assert sorted(map(tuple, payload["spines"])) == [(0, 2), (1, 3)]


def test_cli_check_passes_and_fails(tmp_path, capsys):
    good = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    assert main(["check", "--points", good]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) == 13
    # tie-laden input: distances-distinct fails, exit 1
    sq = _write(tmp_path, "sq.json", "[[0,0],[1,0],[1,1],[0,1]]")
    assert main(["check", "--points", sq]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("FAIL distances-distinct") for line in lines)


def test_cli_check_random_tie_free_instance(tmp_path, capsys, rng):
    pts = rng.uniform(-5, 5, size=(24, 2))
    path = _write(tmp_path, "rand.json", json.dumps([[x, y] for x, y in pts]))
    out = tmp_path / "report.json"
    code = main(["check", "--points", path, "--out", str(out)])
    lines = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out.read_text())
    if code == 0:
        assert all(line.startswith("PASS") for line in lines)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {
            "distances-distinct",
            "fng-increasing-chains",
            "fng-nonleaves-on-boundary",
            "fng-spines-on-boundary",
            "fng-spines-properly-intersect",
            "fng-cluster-contiguity",
            "fng-cyclic-component-pattern",
            "fng-noncontiguous-maximum",
            "mxst-matches-bruteforce",
            "mxst-contains-fng",
            "mxst-edges-touch-boundary",
            "mxst-extra-edges-adjacent",
            "mxst-edge-counts",
        } <= names
    else:
        # astronomically unlikely: the seeded draw had a tie
        assert any(line.startswith("FAIL distances-distinct") for line in lines)


def test_cli_missing_file_is_io_error(tmp_path, capsys):
    code = main(["mxst", "--points", str(tmp_path / "nope.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IoError"


def test_cli_rejects_negative_or_non_finite_tol(tmp_path, capsys):
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    for command in ("mxst", "check"):
        for tol in ("-1", "nan", "inf"):
            assert main([command, "--points", pts, "--tol", tol]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            error = json.loads(captured.err)
            assert error["error"] == "ParseError"
            assert "--tol" in error["message"]
            message = f"--tol must be finite and non-negative, got {float(tol)!r}"
            assert error["message"] == message
        assert main([command, "--points", pts, "--tol", "0"]) == 0
        capsys.readouterr()


def test_console_scripts_name_callables():
    # an installed package runs each [project.scripts] target; the tests run
    # from src/, so a renamed entry point would otherwise go unnoticed
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"normplane": "normplane.cli:main"}
    for target in scripts.values():
        module, _, name = target.partition(":")
        assert callable(getattr(importlib.import_module(module), name))


def test_cli_bisector_two_points(tmp_path, capsys):
    pts = _write(tmp_path, "pair.json", "[[-1,0],[1,0]]")
    assert main(["bisector", "--norm", "lp:2", "--points", pts]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_residual"] <= 1e-9
    assert all(abs(x) < 1e-8 for x, _ in payload["points"])


@pytest.mark.parametrize("norm", ["euclidean", "l1", "linf", "lp:3"])
def test_cli_bisector_at_tol_0(tmp_path, capsys, norm):
    # the bisection used to stop after 200 halvings short of |f| <= 0 and
    # report "no bisector crossing found"
    pts = _write(tmp_path, "pair.json", "[[0.1, 0.2], [1.3, -0.7]]")
    assert main(["bisector", "--norm", norm, "--points", pts, "--tol", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 33
    assert payload["max_residual"] <= 1e-15


def test_cli_bisector_under_an_elongated_gauge(tmp_path, capsys):
    # the crossing at offset -2 |q - p| lies 263 times q - p out along q - p,
    # past a single retry's range of 123: "no bisector crossing found"
    ball = _write(tmp_path, "ball.json", json.dumps(ELONGATED_HEX_BALL))
    pts = _write(tmp_path, "pair.json", "[[0, 0], [2, 1]]")
    assert main(["bisector", "--norm", f"polygon:{ball}", "--points", pts]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 33
    assert payload["max_residual"] <= 1e-9
    assert payload["points"][0] == pytest.approx([-523.03, -266.52], abs=0.01)


def test_cli_fng_orders_components_on_the_construction_hull(tmp_path, capsys):
    # a 9 x 9 grid jittered by 1e-3: at tol 1e-4 a chain that pops turns
    # within the band drops corner 80, the furthest point of some rows and a
    # spine end, so ordering the components on that hull raised a
    # StructureViolation
    cells = np.array([(i, j) for i in range(9) for j in range(9)], dtype=float)
    pts = cells + np.random.default_rng(20240817).uniform(-1e-3, 1e-3, cells.shape)
    path = _write(tmp_path, "grid.json", json.dumps(pts.tolist()))
    assert main(["fng", "--points", path, "--tol", "1e-4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = pairwise_distances(euclidean(), PointSet(pts))
    np.fill_diagonal(table, -np.inf)
    assert payload["fn"] == table.argmax(axis=1).tolist()
    assert 80 in payload["cycle"]


@pytest.mark.parametrize("norm", ["euclidean", "l1", "linf", "lp:3"])
@pytest.mark.parametrize("tol", ["0", "1e-9"])
@pytest.mark.parametrize("points, size", [
    # the product of two values of f below about 1e-162 underflowed to 0,
    # so --tol 0 found no sign change ("no bisector crossing found")
    ("[[1e-300, 0], [0, 2e-300]]", 2.3e-300),
    # the scan's product of two values of f near 1e300 overflowed, a
    # RuntimeWarning, which pytest turns into an error
    ("[[1e300, 0], [-1e300, 1e300]]", 2.3e300),
])
def test_cli_bisector_far_from_unit_scale(tmp_path, capsys, norm, tol, points, size):
    pts = _write(tmp_path, "pair.json", points)
    assert main(["bisector", "--norm", norm, "--points", pts, "--tol", tol]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 33
    if tol == "0":
        assert payload["max_residual"] <= 1e-15 * size
    else:  # absolute: every scanned |f| of the tiny pair is within it
        assert payload["max_residual"] <= max(1e-9, 1e-15 * size)


def test_cli_bisector_of_a_subnormal_pair(tmp_path, capsys):
    # tol scaled by the 2^1073 that brings 5e-324 to unit scale overflowed:
    # "OverflowError: math range error"
    pts = _write(tmp_path, "pair.json", "[[0, 0], [5e-324, 0]]")
    assert main(["bisector", "--points", pts]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 33
    assert payload["max_residual"] <= DEFAULT_TOL


@pytest.mark.parametrize("command, norm, points, message", [
    ("bisector", "euclidean", "[[1e308, 0], [-1e308, 0]]",
     "q - p or its norm lies beyond the float range"),
    ("cluster2", "linf", json.dumps(FAR_LINF_POINTS),
     "a line through two of the points lies beyond the float range"),
], ids=["bisector", "cluster2"])
def test_cli_pairs_and_lines_beyond_the_float_range_exit_1(tmp_path, capsys, command, norm,
                                                          points, message):
    # the bisector printed five RuntimeWarnings, then DegenerateInput:
    # non-finite coordinates; cluster2 printed the witness [0, 0, 0]
    pts = _write(tmp_path, "far.json", points)
    assert main([command, "--norm", norm, "--points", pts]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "DegenerateInput", "message": message}


@pytest.mark.parametrize("command", ["mxst", "perturb"])
@pytest.mark.parametrize(
    "points", ["[[1e308, 0], [-1e308, 0], [0, 1e308]]", "[[1e308, 0], [-1e308, 1], [3e307, 7e307]]"]
)
def test_cli_overflowing_distances_exit_1(tmp_path, capsys, command, points):
    # the first set used to run without end in the perturbation, the second
    # to fail with a StructureViolation (mxst) or move a point to nan (perturb)
    pts = _write(tmp_path, "far.json", points)
    assert main([command, "--points", pts]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "DegenerateInput",
        "message": "a pairwise distance lies beyond the float range",
    }


def test_emit_svg_structure(tmp_path):
    S = PointSet(np.array(TRI_345, dtype=float))
    hull = convex_hull(S.points)
    g = build_fng(lp(2), S)
    tree, _ = mxst_mpsy(lp(2), S)
    text = emit_svg(S, hull, g, tree, None, str(tmp_path / "tri.svg"))
    assert text.count('class="tree-edge"') == 2
    assert 'class="stab-line"' not in text
    assert (tmp_path / "tri.svg").exists()

    S2 = PointSet(JITTERED_SQUARE)
    g2 = build_fng(lp(2), S2)
    tree2, _ = mxst_mpsy(lp(2), S2)
    hull2 = convex_hull(S2.points)
    part = two_clustering(lp(2), S2)
    text2 = emit_svg(S2, hull2, g2, tree2, part, None)
    assert text2.count('class="spine"') == 2
    assert text2.count('class="stab-line"') == 1


def test_run_config_dispatch(tmp_path, capsys):
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    assert main(["mxst", "--norm", "euclidean", "--points", pts]) == 0
    svg_path = tmp_path / "tri.svg"
    assert main(["mxst", "--norm", "euclidean", "--points", pts, "--svg", str(svg_path)]) == 0
    assert svg_path.exists()


@pytest.mark.parametrize("command", ["perturb", "mxst"])
def test_cli_eps_inf_exits_1_with_degenerate_input(tmp_path, capsys, command):
    sq = _write(tmp_path, "sq.json", "[[0,0],[1,0],[1,1],[0,1]]")
    assert main([command, "--norm", "lp:2", "--points", sq, "--eps", "inf"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DegenerateInput"
    assert err["message"] == "eps must be positive and finite, got inf"


@pytest.mark.parametrize("command", ["perturb", "mxst"])
@pytest.mark.parametrize("eps", ["-1", "nan", "inf", "0"])
def test_cli_rejects_a_bad_eps_before_any_work(tmp_path, capsys, command, eps):
    # on tie-free input mxst used to exit 0, never reaching the perturbation
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    assert main([command, "--norm", "lp:2", "--points", pts, "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "DegenerateInput",
        "message": f"eps must be positive and finite, got {float(eps)!r}",
    }
    assert main([command, "--norm", "lp:2", "--points", pts, "--eps", "0.5"]) == 0


@pytest.mark.parametrize("points", ["[[0, 0]]", "[[0, 0], [1, 2]]"])
def test_cli_perturb_output_is_strict_json(tmp_path, capsys, points):
    # one or two points leave no gap between distinct distances, which was
    # printed as the non-JSON token Infinity
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    pts = _write(tmp_path, "few.json", points)
    assert main(["perturb", "--norm", "lp:2", "--points", pts]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["report"]["residual_min_gap"] is None
    assert payload["points"] == json.loads(points)


def test_cli_perturb_reports_moved_points(tmp_path, capsys):
    sq = _write(tmp_path, "sq.json", "[[0,0],[1,0],[1,1],[0,1]]")
    out = tmp_path / "p.json"
    assert main(["perturb", "--norm", "lp:2", "--points", sq, "--eps", "0.01",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["points"]) == 4
    assert payload["report"]["residual_min_gap"] > 0
    assert max(payload["report"]["displacement"]) < 0.01
    # the auto-perturbing mxst run reports the moved coordinates too
    assert main(["mxst", "--norm", "lp:2", "--points", sq]) == 0
    tree_payload = json.loads(capsys.readouterr().out)
    assert len(tree_payload["report"]["perturbation"]["points"]) == 4


def test_cli_cluster2_svg_contains_stab_line(tmp_path, capsys):
    pts = _write(
        tmp_path, "pairs.json", "[[0,0],[0,1],[6,0],[6,1.1]]"
    )
    svg_path = tmp_path / "split.svg"
    assert main(["cluster2", "--points", pts, "--svg", str(svg_path)]) == 0
    text = svg_path.read_text()
    assert text.count('class="stab-line"') == 1
    assert text.count('class="tree-edge"') == 3


# the flags each command reads besides --norm, --points, --out and --tol
EXTRA_FLAGS = {
    "mxst": ("--svg", "--eps", "--fallback-ties"),
    "fng": ("--svg",),
    "cluster2": ("--svg",),
    "perturb": ("--svg", "--eps"),
    "bisector": (),
    "check": ("--svg",),
}
FLAG_ARGS = {"--svg": ["x.svg"], "--eps": ["5"], "--fallback-ties": []}


@pytest.mark.parametrize("command", sorted(EXTRA_FLAGS))
def test_cli_help_lists_exactly_the_flags_read(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert sorted(listed) == sorted(
        ("--norm", "--points", "--out", "--tol") + EXTRA_FLAGS[command]
    )


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in sorted(EXTRA_FLAGS) for f in FLAG_ARGS if f not in EXTRA_FLAGS[c]],
)
def test_cli_flag_a_command_does_not_read_is_a_usage_error(
    tmp_path, capsys, monkeypatch, command, flag
):
    monkeypatch.chdir(tmp_path)
    pts = _write(tmp_path, "pair.json", "[[-1,0],[1,0]]")
    with pytest.raises(SystemExit) as info:
        main([command, "--points", pts, flag, *FLAG_ARGS[flag]])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert not (tmp_path / "x.svg").exists()


def test_cli_parser_is_built_once_and_keeps_no_flags_between_calls():
    parser = _build_parser()
    assert _build_parser() is parser
    first = parser.parse_args(["mxst", "--points", "p.json", "--tol", "0", "--fallback-ties"])
    again = parser.parse_args(["mxst", "--points", "p.json"])
    assert (first.tol, first.fallback_ties) == (0.0, True)
    assert (again.tol, again.fallback_ties, again.eps) == (1e-9, False, 1e-3)


@pytest.mark.parametrize("command", ["fng", "perturb", "check"])
def test_cli_svg_on_fng_perturb_and_check(tmp_path, capsys, command):
    pts = _write(tmp_path, "jit.json", json.dumps([[x, y] for x, y in JITTERED_SQUARE]))
    svg_path = tmp_path / "out.svg"
    assert main([command, "--points", pts, "--svg", str(svg_path)]) == 0
    capsys.readouterr()
    text = svg_path.read_text()
    assert text.count('class="hull"') == 1
    assert text.count('class="point"') == 4
    assert text.count('class="spine"') == 2
    # fng draws the graph alone; the other two draw its tree as well
    assert text.count('class="tree-edge"') == (0 if command == "fng" else 3)


def test_cli_svg_of_oracle_fallback_draws_hull_and_tree_only(tmp_path, capsys):
    sq = _write(tmp_path, "sq.json", "[[0,0],[1,0],[1,1],[0,1]]")
    svg_path = tmp_path / "tie.svg"
    argv = ["mxst", "--norm", "l1", "--fallback-ties", "--points", sq, "--svg", str(svg_path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["report"]["mode"] == "oracle-fallback"
    text = svg_path.read_text()
    assert text.count('class="hull"') == 1
    assert text.count('class="tree-edge"') == 3
    assert 'class="fng-arrow"' not in text and 'class="spine"' not in text


def test_cli_check_svg_keeps_the_fng_when_only_the_connecting_step_ties(tmp_path, capsys):
    # under l1 each row's furthest neighbor is unique, but the connecting
    # step's candidate edges tie: the drawing keeps the FNG and has no tree
    pts = _write(tmp_path, "kite.json", "[[4, 1], [0, 1], [0, 5], [5, 5]]")
    svg_path = tmp_path / "kite.svg"
    assert main(["check", "--norm", "l1", "--points", pts, "--svg", str(svg_path)]) == 1
    capsys.readouterr()
    text = svg_path.read_text()
    assert text.count('class="spine"') == 2
    assert 'class="tree-edge"' not in text


def test_cli_bisector_rejects_three_points(tmp_path, capsys):
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    assert main(["bisector", "--points", pts]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ParseError",
        "message": "bisector needs an input of exactly two points",
    }


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("one.csv", "0,0\n1\n", "line 2: need two columns"),
        ("late.csv", "x,y\n0,0\n1,oops\n", "line 3: non-numeric value"),
        ("flat.json", "[1, 2, 3]", "expected [x, y] pairs, got shape (3,)"),
        ("triples.json", "[[0, 0, 0], [1, 1, 1]]", "expected [x, y] pairs, got shape (2, 3)"),
        ("nan.json", "[[0, 0], [NaN, 1]]", "non-finite coordinates"),
        ("inf.json", "[[0, 0], [1e999, 1]]", "non-finite coordinates"),
        ("bools.json", "[[true, false], [0, 1], [2, 5]]", "rows are not numeric [x, y] pairs"),
        ("strings.json", '[["1", "2"], [0, 1]]', "rows are not numeric [x, y] pairs"),
        ("first.csv", "0,oops\n1,0\n2,3\n", "line 1: non-numeric value"),
        ("half.csv", "x,1\n1,0\n2,3\n", "line 1: non-numeric value"),
        # ids in a first column would otherwise become x coordinates
        ("ids.csv", "id,x,y\n0,0.5,0.7\n1,0.2,0.9\n", "line 1: more than two columns"),
        ("wide.csv", "0,0\n1,0\n2,3,,4\n", "line 3: more than two columns"),
        ("broken.json", "[[0, 0], [1, 2",
         "is not valid JSON: Expecting ',' delimiter: line 1 column 15 (char 14)"),
        # an integer beyond the float range used to raise OverflowError
        pytest.param("huge.json", f"[[0, 0], [{10**400}, 1]]",
                     "a value lies beyond the float range", id="huge.json"),
    ],
)
def test_load_points_parse_errors_name_the_fault(tmp_path, name, text, message):
    path = _write(tmp_path, name, text)
    with pytest.raises(ParseError) as info:
        load_points(path)
    assert str(info.value).endswith(message)
    assert str(info.value).startswith(repr(path))


@pytest.mark.parametrize(
    "name, text",
    [
        ("bools.json", "[[true, false], [0, 1], [2, 5]]"),
        ("strings.json", '[["1", "2"], [0, 1], [2, 5]]'),
        ("first.csv", "0,oops\n1,0\n2,3\n"),
    ],
)
def test_cli_non_numeric_coordinates_exit_1_naming_the_file(tmp_path, capsys, name, text):
    path = _write(tmp_path, name, text)
    assert main(["mxst", "--points", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "ParseError"
    assert error["message"].startswith(repr(path))


@pytest.mark.parametrize(
    "text, message",
    [
        # each used to end in an uncaught ValueError or OverflowError, or,
        # for the booleans, in the square read as [[1, 1], [0, 1], ...]
        ('[[1, 1], [-1, 1], [-1, -1], [1, "x"]]', "rows are not numeric [x, y] pairs"),
        ("[[1, 1], [-1, 1], [-1, -1], [1]]", "rows are not numeric [x, y] pairs"),
        ('{"vertices": 4}', "rows are not numeric [x, y] pairs"),
        (f"[[1, 1], [-1, 1], [-1, -1], [{10**400}, -1]]", "a value lies beyond the float range"),
        ("[[1, true], [-1, true], [-1, -1], [1, -1]]", "rows are not numeric [x, y] pairs"),
        ('[["1", "1"], [-1, 1], [-1, -1], [1, -1]]', "rows are not numeric [x, y] pairs"),
    ],
    ids=["string", "ragged", "object", "huge-integer", "booleans", "numeric-strings"],
)
def test_cli_polygon_file_parse_errors_name_the_fault(tmp_path, capsys, text, message):
    ball = _write(tmp_path, "ball.json", text)
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    assert main(["mxst", "--norm", f"polygon:{ball}", "--points", pts]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ParseError",
        "message": f"polygon file {ball!r}: {message}",
    }


def test_cli_out_into_missing_directory_is_io_error(tmp_path, capsys):
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    out = tmp_path / "missing" / "tree.json"
    assert main(["mxst", "--points", pts, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "IoError"
    assert error["message"].startswith(f"cannot write {str(out)!r}")


@pytest.mark.parametrize("command", sorted(EXTRA_FLAGS))
def test_cli_tol_default_is_the_library_default(command, capsys, monkeypatch):
    # the parser reads geometry.DEFAULT_TOL: a changed constant changes every
    # command's default and its help text
    def default_and_help():
        tol = _build_parser().parse_args([command, "--points", "p.json"]).tol
        with pytest.raises(SystemExit):
            main([command, "--help"])
        return tol, re.search(r"numeric tolerance \(default (\S+)\)", capsys.readouterr().out)[1]

    assert default_and_help() == (DEFAULT_TOL, "1e-09")
    try:
        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "DEFAULT_TOL", 0.25)
            _build_parser.cache_clear()
            assert default_and_help() == (0.25, "0.25")
    finally:
        _build_parser.cache_clear()
    assert default_and_help() == (DEFAULT_TOL, "1e-09")


@pytest.mark.parametrize("norm_file", [False, True], ids=["points", "polygon"])
@pytest.mark.parametrize("unreadable", ["missing.json", "."], ids=["missing", "directory"])
def test_cli_unreadable_input_file_is_io_error(tmp_path, capsys, norm_file, unreadable):
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    path = str(tmp_path / unreadable)
    if norm_file:
        argv = ["mxst", "--norm", f"polygon:{path}", "--points", pts]
    else:
        argv = ["mxst", "--points", path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "IoError"
    source = f"polygon file {path!r}" if norm_file else repr(path)
    assert error["message"].startswith(f"cannot read {source}: [Errno ")


@pytest.mark.parametrize("norm_file", [False, True], ids=["points", "polygon"])
def test_cli_input_file_that_is_not_utf8_is_parse_error(tmp_path, capsys, norm_file):
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    path = tmp_path / "latin1.json"
    path.write_bytes(b"[[0, 0], [1, 0], [0, 1]] \xe9")
    if norm_file:
        argv = ["mxst", "--norm", f"polygon:{path}", "--points", pts]
    else:
        argv = ["mxst", "--points", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "ParseError"
    source = f"polygon file {str(path)!r}" if norm_file else repr(str(path))
    assert error["message"].startswith(f"{source} is not UTF-8 text: ")


@pytest.mark.parametrize(
    "norm_file, name, text, message",
    [
        (False, "deep.json", "[" * 5000, "is not valid JSON: maximum recursion depth exceeded"),
        (True, "deep.json", "[" * 5000, "is not valid JSON: maximum recursion depth exceeded"),
        (False, "long.json", f"[[0, 0], [{'9' * 4301}, 1]]",
         "is not valid JSON: Exceeds the limit (4300 digits)"),
        (True, "long.json", f"[[1, 1], [-1, 1], [-1, -1], [{'9' * 4301}, -1]]",
         "is not valid JSON: Exceeds the limit (4300 digits)"),
        (False, "wide.csv", f"0,0\n1,{'1' * 131073}\n", "line 2: field larger than field limit"),
    ],
    ids=["deep-points", "deep-polygon", "long-integer-points", "long-integer-polygon",
         "long-csv-field"],
)
def test_cli_input_file_past_a_reader_limit_is_parse_error(tmp_path, capsys, norm_file, name,
                                                           text, message):
    # each of these used to escape the readers as a RecursionError, a
    # ValueError that is no JSONDecodeError, or a csv.Error
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    path = _write(tmp_path, name, text)
    if norm_file:
        argv = ["mxst", "--norm", f"polygon:{path}", "--points", pts]
    else:
        argv = ["mxst", "--points", path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    error = json.loads(captured.err)
    assert error["error"] == "ParseError"
    source = f"polygon file {path!r}" if norm_file else repr(path)
    assert error["message"].startswith(f"{source} {message}")


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[" * 5000, "maximum recursion depth exceeded"),
        (f"[[1, 1], [-1, 1], [-1, -1], [{'9' * 4301}, -1]]", "Exceeds the limit (4300 digits)"),
    ],
    ids=["deep", "long-integer"],
)
def test_both_json_readers_name_the_decoder_reason(tmp_path, text, reason):
    # the same unreadable file gives the same reason as points and as a norm
    path = _write(tmp_path, "bad.json", text)
    with pytest.raises(ParseError) as as_points:
        load_points(path)
    with pytest.raises(ParseError) as as_norm:
        parse_norm(f"polygon:{path}")
    tails = [str(info.value).split(" is not valid JSON: ", 1)[1] for info in (as_points, as_norm)]
    assert tails[0] == tails[1] and tails[0].startswith(reason)


@pytest.mark.parametrize("kind", ["csv", "json", "polygon"])
def test_cli_input_file_with_a_utf8_byte_order_mark_reads_as_without(tmp_path, capsys, kind):
    # spreadsheet "CSV UTF-8" exports start with one; it used to make the
    # first line non-numeric, a JSON file read as CSV and a polygon file
    # invalid JSON
    text = {"csv": "0,0\n3,0\n3,4\n", "json": json.dumps(TRI_345),
            "polygon": json.dumps(HEX_BALL)}[kind]
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    outputs = []
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        path = tmp_path / f"{name}.{'csv' if kind == 'csv' else 'json'}"
        path.write_bytes(mark + text.encode())
        if kind == "polygon":
            argv = ["mxst", "--norm", f"polygon:{path}", "--points", pts]
        else:
            argv = ["mxst", "--points", str(path)]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


def test_cli_svg_into_missing_directory_is_io_error(tmp_path, capsys):
    pts = _write(tmp_path, "tri.json", json.dumps(TRI_345))
    svg_path = tmp_path / "missing" / "tree.svg"
    assert main(["mxst", "--points", pts, "--svg", str(svg_path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["n"] == 3  # the tree is written before the drawing
    error = json.loads(captured.err)
    assert error["error"] == "IoError"
    assert error["message"].startswith(f"cannot write SVG to {str(svg_path)!r}")


@pytest.mark.parametrize("norm", ["euclidean", "l1"])
def test_cli_check_svg_of_a_tied_furthest_neighbor_row_draws_hull_and_points(
    tmp_path, capsys, norm
):
    # point 0's two furthest neighbors tie, so the FNG is never built: the
    # drawing holds the hull and the points only
    pts = _write(tmp_path, "corner.json", "[[0, 0], [5, 0], [0, 5]]")
    svg_path = tmp_path / "corner.svg"
    assert main(["check", "--norm", norm, "--points", pts, "--svg", str(svg_path)]) == 1
    capsys.readouterr()
    text = svg_path.read_text()
    assert text.count('class="hull"') == 1
    assert text.count('class="point"') == 3
    for absent in ("fng-arrow", "spine", "tree-edge"):
        assert f'class="{absent}"' not in text


@pytest.mark.parametrize("norm", ["euclidean", "l1"])
def test_cli_check_svg_of_a_tied_furthest_neighbor_row_builds_the_hull_once(
    tmp_path, capsys, monkeypatch, norm
):
    # the drawing builds the hull before the stages, so the tied row that
    # stops them leaves it to draw; the suite, stopped by the same tie,
    # builds none
    built = []
    for module in (cli_module, fng_module, checks_module):
        hull = module._hull
        monkeypatch.setattr(module, "_hull", lambda pts, tol, module=module, hull=hull:
                            built.append(module.__name__) or hull(pts, tol))
    pts = _write(tmp_path, "corner.json", "[[0, 0], [5, 0], [0, 5]]")
    assert main(["check", "--norm", norm, "--points", pts, "--svg", str(tmp_path / "c.svg")]) == 1
    capsys.readouterr()
    assert built == ["normplane.cli"]


def test_emit_svg_of_an_empty_set_is_the_bare_canvas(tmp_path):
    S = PointSet(np.empty((0, 2)))
    tree, _ = mxst_mpsy(euclidean(), S)
    text = emit_svg(S, None, None, tree, None, str(tmp_path / "empty.svg"))
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert text.endswith('<rect width="640.0" height="640.0" fill="white"/>\n</svg>\n')
    assert (tmp_path / "empty.svg").read_text() == text


def test_cli_third_csv_value_exits_1_and_trailing_empty_cells_load(tmp_path, capsys):
    wide = _write(tmp_path, "wide.csv", "id,x,y\n0,0.5,0.7\n1,0.2,0.9\n")
    assert main(["mxst", "--points", wide]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ParseError",
        "message": f"{wide!r} line 1: more than two columns",
    }
    trailing = _write(tmp_path, "trailing.csv", "x,y,\n0,0,\n3,0, \n3,4,,\n")
    assert np.array_equal(load_points(trailing).points, TRI_345)
    assert main(["mxst", "--norm", "lp:2", "--points", trailing]) == 0
    assert json.loads(capsys.readouterr().out)["total_weight"] == pytest.approx(9.0)


def _golden_inputs():
    """A uniform set with k = 2 components under lp:1.5, and a 60-point
    ellipse in shuffled index order."""
    angles = np.random.default_rng(60).uniform(0, 2 * np.pi, size=60)
    return {
        "uniform": np.random.default_rng(0).uniform(-10, 10, size=(40, 2)),
        "ellipse": np.stack([2 * np.cos(angles), np.sin(angles)], axis=1),
    }


# sha256 of each output under lp:1.5 at tol 0, recorded at c3b99f2
GOLDEN = {
    ("uniform", "mxst", "stdout"):
        "2a1701e2a61432cb8430b519b9e33afa9d973ca556bd8f5317ce677f42c0b934",
    ("uniform", "mxst", "svg"):
        "a9f858edf384b72c9b601017c4c765ed2d13453449578a4823e8860a114b3693",
    ("uniform", "fng", "stdout"):
        "cb754657c822c4d03d8d56ad488abd66d0dc6958a73801056c83cfead4055c85",
    ("uniform", "fng", "svg"):
        "5e5c9aefe54ce6669c29a888520f4fccb3530708280cefd3e4075ed97403dd0d",
    ("uniform", "cluster2", "stdout"):
        "d1ebfe59bdc8b29a60c7d605db98796456d613fd615a552f4d8133f693af22c1",
    ("uniform", "cluster2", "svg"):
        "14705de298c27330dcf5c0a5548c3594d3e1449c1856361ccaad7e6f5dbbdf9d",
    ("uniform", "check", "stdout"):
        "11ecf47c0b31946a0d6f7c11c3d69759763804064ecd9cc4dfeb9a39d0038efa",
    ("uniform", "check", "svg"):
        "a9f858edf384b72c9b601017c4c765ed2d13453449578a4823e8860a114b3693",
    ("uniform", "check", "out"):
        "0feb2f80ca063a0c027c18c6bb6b4163f11dc6bb878ea5dbbefb369b91b7074d",
    ("ellipse", "mxst", "stdout"):
        "b922d4511453deb68c834f5a8ae474a2635ceba903211e1a0e12c39e6bbb7945",
    ("ellipse", "mxst", "svg"):
        "ef942fbdb6c638d475b1e24ca570d2ef406a4f212c24d3a68c1fcd56b5d0a39d",
    ("ellipse", "fng", "stdout"):
        "bdcd26375e0ea328c3c327417b902a785971119f07a74b3a3a4afacbca52aef1",
    ("ellipse", "fng", "svg"):
        "af361d850ef457c982db243e67a00db6650034a7451e6d67999a7da801a90acf",
    ("ellipse", "cluster2", "stdout"):
        "24c31509bde0484ddf1c85bf10e061d0e4f4c6e399ba711f2a00131e12f1a219",
    ("ellipse", "cluster2", "svg"):
        "d4112f20a72c297fd517060c663b4ba9aa4d1981fbc8e7ec1e2dad465f817125",
    ("ellipse", "check", "stdout"):
        "11ecf47c0b31946a0d6f7c11c3d69759763804064ecd9cc4dfeb9a39d0038efa",
    ("ellipse", "check", "svg"):
        "ef942fbdb6c638d475b1e24ca570d2ef406a4f212c24d3a68c1fcd56b5d0a39d",
    ("ellipse", "check", "out"):
        "4986f56c6058fc118b0a168a6bce5bee234779801eb517cfe6d1c470fb5689fc",
}


def test_cli_output_bytes_are_pinned(tmp_path, capsys):
    # byte identity of stdout, the check JSON and every SVG: a numpy scalar
    # reaching json.dumps raises TypeError, and a changed repr shows here
    digests = {}
    for name, pts in _golden_inputs().items():
        path = _write(tmp_path, f"{name}.json", json.dumps(pts.tolist()))
        for command in ("mxst", "fng", "cluster2", "check"):
            svg_path, out = tmp_path / f"{name}-{command}.svg", tmp_path / f"{name}.out"
            argv = [command, "--norm", "lp:1.5", "--points", path, "--tol", "0",
                    "--svg", str(svg_path)]
            if command == "check":
                argv += ["--out", str(out)]
            assert main(argv) == 0
            outputs = {"stdout": capsys.readouterr().out.encode(), "svg": svg_path.read_bytes()}
            if command == "check":
                outputs["out"] = out.read_bytes()
            for kind, data in outputs.items():
                digests[name, command, kind] = hashlib.sha256(data).hexdigest()
    assert digests == GOLDEN


# sha256 of each stdout, recorded at 58424b5
TOOL_GOLDEN = {
    ("perturb", "tol 0"):
        "41ad2a892cc022d7f90963a7044e817a057f11c5e42c67beb8088792fdaa4e26",
    ("perturb", "default"):
        "8d9659c874a8d7607c9ae85d9ff3071bbd5b7d9c0d9327ee012673b38b777bef",
    ("bisector", "a", "euclidean"):
        "e47ad69ca0c114db845c4a4e67ebe3f76c41043fd92351c2b344cb1ea6293e12",
    ("bisector", "a", "lp:1.5"):
        "0c70eaa25333253ca6d0a3e8e6f4704fc8e3e9e7e7da06dc9297f8986e2646c1",
    ("bisector", "a", "l1"):
        "0767e14b64f036ad525db6b7e378ee1df312d56f71b66ca14ed09c9fb2f78af3",
    ("bisector", "a", "linf"):
        "5a7692da5bd8f2e25029d0b00db1f36e1c51990b5f67583729d22ff46bbdeaee",
    ("bisector", "a", "hex"):
        "e342010886d87f8cf883345bea7387f9b48b50e690acc9404a47d37bec06e060",
    ("bisector", "b", "euclidean"):
        "3c449aaa68e66f41bd8883127eba5402aac161ed514103c0cf8630df3d606fe6",
    ("bisector", "b", "lp:1.5"):
        "41708e5c97696c1582941bad51bd382ec39c8d231b46b1b64ecdea7c98944018",
    ("bisector", "b", "l1"):
        "1c067553fdb31038b5669656cbac8e3bdcf14e1681e7dd0f036ab2a960e5b3e9",
    ("bisector", "b", "linf"):
        "74cf8465df31a8b48a81577300a571b6a1501d146483435696fff83949b8d198",
    ("bisector", "b", "hex"):
        "ea3277e3e02f3c79e372490df228c049c2860421e76774d4645e86f0bf74f249",
}


def test_cli_perturb_and_bisector_bytes_are_pinned(tmp_path, capsys):
    # stdout of perturb on a full 6 x 6 grid under lp:1.5 (at tol 0 and at
    # the default) and of bisector on two point pairs under five norms
    axis = np.arange(6.0)
    grid = _write(tmp_path, "grid.json",
                  json.dumps(np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2).tolist()))
    hexagon = _write(tmp_path, "hex.json", json.dumps(HEX_BALL))
    runs = {("perturb", "tol 0"): ["perturb", "--norm", "lp:1.5", "--points", grid, "--tol", "0"],
            ("perturb", "default"): ["perturb", "--norm", "lp:1.5", "--points", grid]}
    for name, pair in {"a": [[0, 0], [2, 1]], "b": [[-1.5, 0.25], [0.75, -2.0]]}.items():
        path = _write(tmp_path, f"pair-{name}.json", json.dumps(pair))
        for norm in ("euclidean", "lp:1.5", "l1", "linf", "hex"):
            arg = f"polygon:{hexagon}" if norm == "hex" else norm
            runs["bisector", name, norm] = ["bisector", "--norm", arg, "--points", path]
    digests = {}
    for key, argv in runs.items():
        assert main(argv) == 0
        digests[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == TOOL_GOLDEN
