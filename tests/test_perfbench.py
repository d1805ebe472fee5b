"""perfbench's traced mode, once per workload of BENCHMARK.json.

The tracer wraps library entry points by name and reads some of their
arguments (perfbench/tracer.py), so a rename or a signature change that it
relies on fails here rather than only in a `--trace 1` benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_worker_passes_every_check(workload, tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    spans = tmp_path / "spans.json.gz"
    cmd = [sys.executable, str(REPO / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", "1", "--mode", "traced", "--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    checks = json.loads(proc.stdout.strip().splitlines()[-1])["checks"]
    assert checks and [c for c in checks if not c["passed"]] == []
    assert spans.stat().st_size > 0
