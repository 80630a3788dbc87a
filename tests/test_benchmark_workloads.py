"""One round of every benchmark workload against the library in src/, so that
a change dropping a name, field or keyword that perfbench/ calls fails here
and not first in a benchmark run."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_runs_correct_with_no_failures(workload, tmp_path):
    # The environment perfbench/run.py gives its workers: src/ alone on the
    # path and one BLAS thread.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--out", str(tmp_path / "out")],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["unexpected"] == []
    assert result["rounds"] and all(r["failed"] == 0 for r in result["rounds"])
