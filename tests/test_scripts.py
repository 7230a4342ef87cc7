"""Smoke test of the scripts in ``scripts/``: each runs to completion on a
small budget against the current package API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reference_experiment_prints_both_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_reference_experiment.py"),
         "--runs", "1", "--max-fes", "500"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "=== strongly correlated archive ===" in done.stdout
    assert "=== weakly correlated archive ===" in done.stdout
    assert done.stdout.count("Run | Swimming | T1 | Cycling | T2 | Running | Total\n") == 2
