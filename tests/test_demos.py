"""Smoke test: every demo script runs to completion on the public API."""

import pathlib
import runpy
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script)])  # each demo's defaults
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
