"""The package's layers, and the field order that positional records rely on.

``timekit``, ``stats``, ``archive`` and ``pso`` are the layers below the
model: none of them may import ``preference``, ``experiment`` or ``cli``,
not even for type checking.  The split schema lives in ``archive``, and
``extend_archive`` and the loaders build a record positionally from a split
vector, so the order of the fields is pinned here too.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

from tripace.archive import DISCIPLINES, ResultRecord, SplitVector

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tripace"
LOWER = ("timekit", "stats", "archive", "pso")
UPPER = {"preference", "experiment", "cli"}


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
    names = tuple(f.name for f in dataclasses.fields(ResultRecord))
    assert names[4:] == (*DISCIPLINES, "overall")
