"""Every demo script runs to the end under ``python -O``, a pinned demo
prints its pinned bytes, and no library check is an ``assert`` that
``python -O`` would strip."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of stdout: a rewrite of the code a pinned demo runs must print the same bytes
PINNED_STDOUT = {
    "03_hypersimplex_tilings": "9b78511ce129c963beadf543e2bc62991cc30fd4fcf83af532d289feb78bfe8d",
    "06_amplituhedron": "9b15f0ed106c9e06b2118e5e6b330386b3047ea01ba004d92ff6cd00707bc43b",
    "07_cluster_seeds": "d2fe81456c752304675f453641cbf67c7c284cfdaa7c295fdd62e47c194ebc35",
}


def test_all_demos_are_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_under_optimize(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-O", str(demo.relative_to(ROOT))],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if demo.stem in PINNED_STDOUT:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_STDOUT[demo.stem]


def test_library_has_no_assert_statements():
    modules = sorted((ROOT / "src" / "positroid_lab").glob("*.py"))
    assert len(modules) > 10
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
