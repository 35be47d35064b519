"""The benchmark runs on the library as it stands: each workload, timed and
traced, at its tiny size. The tracer patches library internals by name, so
a renamed or deleted one shows here as a failed run."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qdbsim import cli

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


def _spans_constant(name: str):
    """A literal the benchmark's tracer declares, read without running it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_the_names_the_benchmark_traces_still_exist():
    """The tracer wraps these names and counts each span it sees; one gone
    missing would show only as a per-layer count that reads zero."""
    qdb = importlib.import_module("qdbsim.qdb")
    for name in _spans_constant("QDB_OPS"):
        fn = getattr(qdb, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == "qdbsim.qdb", name
    for layer, cls, attr, _ in _spans_constant("EXTRA_TARGETS"):
        owner = importlib.import_module(f"qdbsim.{layer}")
        if cls is not None:
            owner = vars(owner)[cls]
        assert attr in vars(owner), (layer, cls, attr)


def test_the_cli_calls_the_benchmark_makes_keep_their_form(tmp_path):
    for name in ("parse_script", "dry_run", "run_script", "main"):
        fn = getattr(cli, name)
        assert inspect.isfunction(fn) and fn.__module__ == "qdbsim.cli", name
    inspect.signature(cli.run_script).bind(
        tmp_path / "s.qdb", tmp_path / "o", seed=1, max_qubits=20, fmt="json")
    steps = cli.parse_script("prepare k=4\nremove j=1 mode=projective\n")
    cli.dry_run(steps, seed=0, script_dir=Path("."))  # as the benchmark picks a seed
    script = tmp_path / "s.qdb"
    script.write_text("prepare k=2\n")
    assert cli.main(["run", str(script), "--seed", "1", "--out", str(tmp_path / "o")]) == 0
