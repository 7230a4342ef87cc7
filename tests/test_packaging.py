"""The Python and numpy that ``pyproject.toml`` claims are the ones the README
names, and the ones this suite runs on meet them; its console script is the
``main`` that ``python -m tripace`` runs."""

import re
import runpy
import sys
import tomllib
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import tripace.cli

ROOT = Path(__file__).parents[1]


def version(text: str) -> tuple[int, ...]:
    """The leading numbers of a version string, ``"2.4.6rc1"`` as (2, 4, 6)."""
    return tuple(int(part) for part in re.match(r"\d+(?:\.\d+)*", text).group().split("."))


def test_floors_are_the_readme_ones_and_are_met():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    python_floor, numpy_floor = re.search(
        r"Python ≥ ([\d.]+) and numpy ≥ ([\d.]+)", readme
    ).groups()
    assert project["requires-python"] == f">={python_floor}"
    assert project["dependencies"] == [f"numpy>={numpy_floor}"]
    assert sys.version_info >= version(python_floor)
    assert version(np.__version__) >= version(numpy_floor)


def test_console_script_is_the_main_of_python_m_tripace(monkeypatch):
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    scripts = project["scripts"]
    assert scripts == {"tripace": "tripace.cli:main"}
    entry = EntryPoint(name="tripace", value=scripts["tripace"], group="console_scripts")
    assert entry.load() is tripace.cli.main
    # the CLI tests' subprocesses run ``python -m tripace``, which must call this main
    calls = []
    monkeypatch.setattr(tripace.cli, "main", lambda: calls.append("main") or 0)
    with pytest.raises(SystemExit) as done:
        runpy.run_module("tripace", run_name="__main__")
    assert done.value.code == 0 and calls == ["main"]
