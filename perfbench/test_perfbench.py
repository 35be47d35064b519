"""Tests of the benchmark itself (not of qdbsim). Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qdbsim  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qdbsim import cli  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def tiny(workload: str, trace: int, seed: int = 3) -> tuple[dict, list[str]]:
    code, lines = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                            "--trace", str(trace), "--size", "tiny")
    assert code == 0, lines
    return json.loads(lines[-1]), lines


# -- span arithmetic ---------------------------------------------------------

def S(sid, name, start, end, parent):
    return spans.Span(sid, name, start, end, parent, 0, None)


SYNTHETIC = [
    S(0, "cli.main", 0.0, 10.0, -1),
    S(1, "qdb.write", 1.0, 6.0, 0),
    S(2, "circuit.simulate", 2.0, 5.0, 1),
    S(3, "statevector.apply_gate", 2.5, 3.5, 2),
    S(4, "statevector.apply_gate", 3.5, 4.0, 2),
    S(5, "qdb.write", 6.5, 9.0, 0),  # a write nested in a write is counted once
    S(6, "qdb.write", 7.0, 8.0, 5),
    S(7, "dumps.dump_records", 11.0, 12.0, -1),
]


def test_self_times_subtract_direct_children():
    got = spans.self_times(SYNTHETIC)
    assert got == pytest.approx({0: 2.5, 1: 2.0, 2: 1.5, 3: 1.0, 4: 0.5, 5: 1.5, 6: 1.0, 7: 1.0})
    assert sum(got.values()) == pytest.approx(spans.covered_time(SYNTHETIC)) == 11.0


def test_inclusive_times_skip_same_named_ancestors():
    got = spans.inclusive_times(SYNTHETIC)
    assert got["qdb.write"] == pytest.approx(5.0 + 2.5)
    assert got["statevector.apply_gate"] == pytest.approx(1.5)


def test_layer_metrics_split_gate_time():
    gate = [spans.Span(0, "statevector.apply_gate", 0.0, 2.0, -1, 0, ("x", 19, 12)),
            spans.Span(1, "statevector.apply_gate", 2.0, 3.0, -1, 1, ("ry", 5, 0))]
    m = spans.layer_metrics(gate, {}, 19)
    assert m["statevector.apply_gate.x.s"] == m["statevector.apply_gate.q17-20.s"] == 2.0
    assert m["statevector.apply_gate.c9p.s"] == 2.0
    assert m["statevector.apply_gate.ry.s"] == m["statevector.apply_gate.c0.s"] == 1.0
    assert m["statevector.apply_gate.calls"] == 2


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_inputs_repeat_for_a_seed(name):
    make = workloads.WORKLOADS[name].inputs
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 99])
def test_generated_scripts_pass_the_dry_run(seed):
    inp = workloads.script_long_inputs(seed)
    steps = cli.parse_script(inp["text"])
    cli.dry_run(steps, seed=workloads.cli_seed(seed, inp["text"]), script_dir=Path("."))
    kinds = [cmd for _, cmd, _ in steps]
    assert len(kinds) == 400
    assert 0.6 < kinds.count("write") / len(kinds) < 0.75
    assert 0.2 < kinds.count("permute") / len(kinds) < 0.32
    assert kinds.count("extend") == 1 and kinds[-3:] == ["emit", "remove", "dump"]


# -- tracing -----------------------------------------------------------------

def _namespace_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "qdbsim" or name.startswith("qdbsim."):
            snap[name] = dict(vars(mod))
    for cls in (qdbsim.Circuit, qdbsim.QdbState):
        snap[cls.__qualname__] = dict(vars(cls))
    return snap


def test_tracer_patches_imported_names_and_restores_them():
    before = _namespace_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod, attr in [("qdbsim.circuit", "apply_gate"), ("qdbsim.statevector", "apply_gate"),
                          ("qdbsim.extend", "_grow"), ("qdbsim.qdb", "_grow"),
                          ("qdbsim.cli", "schmidt"), ("qdbsim", "write")]:
            assert getattr(sys.modules[mod], attr) is not before[mod][attr], (mod, attr)
        assert "__post_init__" in vars(qdbsim.Circuit)
        db = qdbsim.prepare_general(4, 0, {1: "1"}, m_data=1)
        qdbsim.write(db, 2, "1")
    finally:
        tracer.uninstall()
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    for key, names in before.items():
        for attr, value in names.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"
    records = tracer.records()
    m = spans.layer_metrics(records, tracer.counts, tracer.peak_qubits)
    assert m["qdb.write.calls"] == 1 and m["qdb.prepare_general.calls"] == 1
    assert m["circuit.gates_validated"] > 0 and m["qdb.history_gates"] > 0
    assert m["statevector.peak_qubits"] == 4  # 2 index + 1 data + 1 sensor qubit


def test_an_op_that_raises_fails_the_run():
    def plan_transfer():
        raise qdbsim.VerificationError("no (phi, rho) pair")

    with pytest.raises(qdbsim.VerificationError):
        workloads.Recorder().op(plan_transfer)


# -- end-to-end arithmetic ---------------------------------------------------

def _session(latencies):
    return workloads.SessionResult(sum(latencies), latencies, 6, "f")


@pytest.mark.parametrize("name", NAMES)
def test_op_times_are_scaled_to_the_reference_speed(name):
    wl = workloads.WORKLOADS[name]
    sessions = [_session([0.4, 0.1, 0.3]), _session([0.2, 0.3, 0.3]), _session([0.3, 0.2, 0.6])]
    nominal = wl.reference.nominal_s
    ref_times = [1.5 * nominal, 2 * nominal, 3 * nominal]  # median: the host ran at half speed
    values, notes = run.end_to_end(wl, sessions, ref_times, [0.5, 0.3, 0.4], 100.0)
    per_op = [wl.op_time(c) / 2 for c in ([0.4, 0.2, 0.3], [0.1, 0.3, 0.2], [0.3, 0.3, 0.6])]
    assert values["session_ref_s"] == pytest.approx(sum(per_op))
    assert values["op_p50_ref_ms"] == pytest.approx(1e3 * sorted(per_op)[1])
    assert values["ops_per_ref_s"] == pytest.approx(3 / sum(per_op))
    assert values["setup_s"] == 0.4 and values["gates_per_op"] == 2
    assert notes["unscaled_session_s"] == pytest.approx(2 * sum(per_op))


@pytest.mark.parametrize("kernel", [hostspeed.INTERPRETER, hostspeed.MIXED])
def test_reference_kernels_run_in_about_their_nominal_time(kernel):
    t = statistics.median(kernel.one_pass() for _ in range(3))
    assert kernel.nominal_s / 10 < t < kernel.nominal_s * 10


# -- whole runs at tiny size -------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced(name):
    first, lines = tiny(name, 0)
    assert first["correct"] is True and first["attempted"] >= 1
    assert list(first["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for spec in BENCH["end_to_end"]:
        assert first["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert first["metrics"][spec["name"]]["value"] > 0
    second, _ = tiny(name, 0)
    assert first["metrics"]["gates_per_op"] == second["metrics"]["gates_per_op"]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_counts_repeat(name):
    first, lines = tiny(name, 1)
    assert first["correct"] is True
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    second, lines2 = tiny(name, 1)
    for count in ("circuit.gates_simulated", "circuit.gates_validated", "extend.plan_steps",
                  "qdb.history_gates", "text_format.emit_bytes",
                  "cli.artifact_bytes"):
        assert first["metrics"][count] == second["metrics"][count], count
    # the fingerprint covers every artifact's bytes (script_long) or every read-out
    assert lines[0].split("fingerprint=")[1] == lines2[0].split("fingerprint=")[1]
    assert first["metrics"]["trace.covered_share"]["value"] > 0.95


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = run_bench("--workload", "write_heavy", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path)
    assert code != 0 and lines == []
