"""The package's layers, and the column order that positional rows rely on.

``timekit``, ``stats``, ``archive`` and ``pso`` are the layers below the
model: none of them may import ``preference``, ``experiment`` or ``cli``,
not even for type checking.  The split schema lives in ``archive``, and
``extend_archive`` builds an archive's row of times positionally from a
split vector and the loaders from a result record's columns, so the order
of the columns is pinned here too.  No module imports ``dataclasses`` or
``inspect``, which would add to the start-up of every command.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tripace.archive import CSV_COLUMNS, DISCIPLINES, TIME_COLUMNS, SplitVector

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tripace"
LOWER = ("timekit", "stats", "archive", "pso")
UPPER = {"preference", "experiment", "cli"}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
SLOW_IMPORTS = {"dataclasses", "inspect"}


def imported_names(module: str) -> set[str]:
    """Full names of what ``module`` imports, anywhere in its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # the package is flat, so a relative import is from ``tripace``
            base = ".".join(filter(None, ["tripace" if node.level else "", node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_scan_sees_relative_and_type_checking_imports():
    assert {"tripace.archive", "tripace.pso.run"} <= imported_names("preference")
    assert "tripace.archive.Archive" in imported_names("stats")  # under TYPE_CHECKING


@pytest.mark.parametrize("module", LOWER)
def test_lower_layer_imports_no_upper_layer(module):
    upper = {f"tripace.{name}" for name in UPPER}
    found = {name for name in imported_names(module) if ".".join(name.split(".")[:2]) in upper}
    assert found == set()


def test_split_vector_fields_are_the_disciplines():
    assert SplitVector._fields == DISCIPLINES


def test_record_split_and_overall_fields_follow_the_identity_fields():
    assert TIME_COLUMNS == (*DISCIPLINES, "overall")
    assert CSV_COLUMNS[4:] == TIME_COLUMNS


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_neither_dataclasses_nor_inspect(module):
    assert {name.split(".")[0] for name in imported_names(module)} & SLOW_IMPORTS == set()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # numpy imports inspect itself, and a site hook may load either, so only
    # the modules that importing tripace.cli adds after numpy are counted
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import tripace.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    ).stdout
    added = set(ast.literal_eval(out))
    assert "tripace.cli" in added
    assert added & SLOW_IMPORTS == set()
