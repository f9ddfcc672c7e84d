"""Every script in demos/ runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    # a demo that writes a file is told to write it under tmp_path
    args = [str(tmp_path / "loan_bench.csv")] if demo.name == "04_loan_benchmark.py" else []
    done = subprocess.run(
        [sys.executable, str(demo), *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
