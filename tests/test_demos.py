"""Smoke test: every demo runs to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    "01_first_coalitions.py",
    "02_family_tables.py",
    "03_coalition_graphs.py",
    "04_characterizations_and_bounds.py",
]


def _run(demo: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    _run(demo)


def test_coalition_graph_demo_prints_the_three_census_hits():
    # Demo 03 prints the suite's own census, one "  n=..." line per hit.
    hits = [line for line in _run("03_coalition_graphs.py").splitlines() if line.startswith("  n=")]
    assert [line.split(":")[0] for line in hits] == ["  n=5", "  n=6", "  n=7"]
