"""The Python and numpy that ``pyproject.toml`` claims are the ones the README
names, and the ones this suite runs on meet them."""

import re
import sys
import tomllib
from pathlib import Path

import numpy as np

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
