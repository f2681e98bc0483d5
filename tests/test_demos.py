"""Every demo script, and the README's library tour, runs to completion as
its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabswitch

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(stabswitch.__file__).resolve().parents[1])


def run_python(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_all_five_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "rewiring.search" in tour
    proc = run_python(["-c", tour], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "multi-qubit gates" in proc.stdout
