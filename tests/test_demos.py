"""Smoke-run every demo script with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_trace_generation.py": ["--rate", "2", "--duration", "20"],
    "02_performance_model.py": [],
    "03_kv_transfer.py": ["--llm", "bloom-176b"],
    "04_single_cluster_simulation.py": ["--rate", "1", "--duration", "20"],
    "05_provisioning_search.py": ["--power-budget", "4", "--duration", "20"],
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script):
    path = filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *DEMOS[script]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
