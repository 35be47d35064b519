"""The benchmark runs on the library as it stands: each workload, timed and
traced, at its tiny size. The tracer patches library internals by name, so
a renamed or deleted one shows here as a failed run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_runs_each_workload_at_tiny_size(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--size", "tiny", "--trace", str(trace), "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    # a timed run reports the end-to-end metrics, a traced one the per-layer ones
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
