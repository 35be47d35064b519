"""Command-line interface: scripts, artifacts, exit codes."""

import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qdbsim
from conftest import pattern_mask
from qdbsim.cli import Session, dry_run, main, parse_script, run_script
from qdbsim.errors import CapacityError, QdbError, ScriptError, VerificationError
from qdbsim.extend import extend
from qdbsim.qdb import prepare_general
from qdbsim.statevector import DEFAULT_MAX_QUBITS, project
from qdbsim.tolerances import PLAN_RESIDUAL_TOL, STATE_TOL


def run_cli(*argv):
    return main(list(argv))


def write_script(tmp_path, text, name="script.qdb"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- script parsing ----------------------------------------------------------


def test_parse_script_commands_and_comments():
    steps = parse_script("# heading\nprepare k=4 l=1\n\ndump  # trailing\n")
    assert [(c, kv) for _, c, kv in steps] == [
        ("prepare", {"k": "4", "l": "1"}),
        ("dump", {}),
    ]
    assert [ln for ln, _, _ in steps] == [2, 4]


@pytest.mark.parametrize(
    "text,line",
    [
        ("frobnicate\n", 1),
        ("prepare k\n", 1),
        ("prepare k=4 k=5\n", 1),
        ("prepare =4\n", 1),
        ("prepare k=4\nwrite j=x d=1\n", 2),
    ],
)
def test_parse_and_value_errors_carry_lines(text, line):
    with pytest.raises(ScriptError) as exc:
        dry_run(parse_script(text), seed=None, script_dir=Path("."))
    assert exc.value.line == line


@pytest.mark.parametrize("value", ["false", "1", "yes"])
def test_read_copy_all_accepts_only_true(tmp_path, capsys, value):
    script = write_script(tmp_path, f"prepare k=4 m=1\nread-copy all={value}\n")
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 2
    assert "line 2: all must be true" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,line,message", [
    ("prepare k=4 m=2 data=1:01,1:10\n", 1, "data label 1 given twice"),
    ("prepare k=4 m=2 data=1:01,01:01\n", 1, "data label 1 given twice"),
    ("prepare k=4 m=2\npermute map=1:2,2:1,1:1,2:2\n", 2, "mapping label 1 given twice"),
])
def test_a_repeated_label_is_refused_on_its_line(tmp_path, capsys, text, line, message):
    script = write_script(tmp_path, text)
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 2
    assert f"line {line}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,line,message", [
    ("prepare k=16 m=1 data=1_1:1\n", 1, "data label '1_1' is not an integer"),
    ("prepare k=16 m=1\nwrite j=1_2 d=1\n", 2, "j must be an integer, got '1_2'"),
    ("prepare k=1_6 m=1\n", 1, "k must be an integer, got '1_6'"),
    ("prepare k=+4 m=1\n", 1, "k must be an integer, got '+4'"),
    ("prepare k=\u0664 m=1\n", 1, "k must be an integer"),
    ("prepare k=4 m=1\nread-copy j=--1\n", 2, "j must be an integer, got '--1'"),
    ("prepare k=4 m=1\npermute map=1:2,2_0:1\n", 2, "bad mapping pair '2_0:1'"),
    ("prepare k=4 m=1\npermute map=0,2,1,3_0\n", 2, "bad permutation '0,2,1,3_0'"),
    ("prepare k=4 m=1\npermute map=0,2,1,\n", 2, "bad permutation '0,2,1,'"),
])
def test_numbers_are_plain_decimals(tmp_path, capsys, text, line, message):
    # int() would read 1_1 as 11, +4 as 4 and other scripts' digits as digits
    script = write_script(tmp_path, text)
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 2
    assert f"line {line}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option", ["--seed", "--max-qubits"])
def test_options_take_plain_decimals(tmp_path, capsys, option):
    script = write_script(tmp_path, "prepare k=2\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("run", str(script), option, "2_0")
    assert exc.value.code == 2
    assert "'2_0'" in capsys.readouterr().err
    assert run_cli("run", str(script), option, "20", "--out", str(tmp_path / "o")) == 0


@pytest.mark.parametrize("option,value,rule", [
    ("--seed", "x", "the seed must be a plain decimal integer"),
    ("--seed", "1_0", "the seed must be a plain decimal integer"),
    ("--max-qubits", "2_0", "the qubit budget must be a plain decimal integer"),
])
def test_a_malformed_option_names_its_rule(tmp_path, capsys, option, value, rule):
    script = write_script(tmp_path, "prepare k=2\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("run", str(script), option, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: {rule}, got '{value}'" in err
    assert not any(name in err for name in ("_seed_type", "_budget_type", "_decimal"))


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_a_budget_below_one_qubit_is_refused_when_parsed(tmp_path, capsys, budget):
    script = write_script(tmp_path, "prepare k=2\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("run", str(script), f"--max-qubits={budget}")
    assert exc.value.code == 2
    assert "the qubit budget must be at least 1" in capsys.readouterr().err


def test_negative_numbers_still_parse_and_fail_on_their_meaning(tmp_path, capsys):
    script = write_script(tmp_path, "prepare k=4 m=1\nwrite j=-1 d=1\n")
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 3


def test_a_negative_data_width_exits_3(tmp_path, capsys):
    script = write_script(tmp_path, "prepare k=4 m=-3\n")
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 3
    assert "data register width cannot be negative" in capsys.readouterr().err


# --- the run subcommand ------------------------------------------------------


def test_run_produces_expected_artifacts(tmp_path, capsys):
    script = write_script(
        tmp_path,
        "prepare k=4 data=1:1,2:10 m=2\n"
        "write j=3 d=11\n"
        "read-copy j=2\n"
        "dump\n"
        "emit\n",
    )
    out = tmp_path / "artifacts"
    assert run_cli("run", str(script), "--out", str(out)) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["001-read-copy.json", "002-dump.json", "003-circuit.txt"]
    dump = json.loads((out / "002-dump.json").read_text())
    assert len(dump) == 4
    assert dump[0]["bits"].startswith("A=")
    read = json.loads((out / "001-read-copy.json").read_text())
    assert read["entangled"] is True
    assert "qubits" in (out / "003-circuit.txt").read_text().splitlines()[0]
    assert "done: 5 commands, 3 artifacts" in capsys.readouterr().out


def test_a_script_builds_each_layouts_entry_axes_once(tmp_path, capsys, monkeypatch):
    # writes select two branches and permutes two per transposition, all
    # through one memoized split per layout (``statevector._axes``): before
    # and after the extend. Gates split by their own wires, with no data.
    sv = importlib.import_module("qdbsim.statevector")
    lines = ["prepare k=16 m=4 data=" + ",".join(f"{j}:{j:04b}" for j in range(1, 16))]
    for i in range(50):
        if i == 25:
            lines.append("extend l=3")
        elif i % 3:
            lines.append(f"write j={1 + i % 15} d={(i * 7) % 16:04b}")
        else:
            a, b = 1 + i % 15, 1 + (i + 4) % 15
            lines.append(f"permute map={a}:{b},{b}:{a}")
    built, selected = [], []

    class Spied(sv._Axes):
        __slots__ = ()

        def __init__(self, wires, data, n):
            built.append(data)
            super().__init__(wires, data, n)

        def select(self, amps, pattern):
            selected.append(self.data)
            return super().select(amps, pattern)

    monkeypatch.setattr(sv, "_Axes", Spied)
    sv._axes.cache_clear()
    assert run_cli("run", str(write_script(tmp_path, "\n".join(lines) + "\n")),
                   "--out", str(tmp_path / "out")) == 0
    sv._axes.cache_clear()  # no spied split outlives the test
    # a folded write selects two branches, a 2-cycle permute two
    assert sum(1 for data in selected if data) >= 2 * (len(lines) - 2)
    assert sum(1 for data in built if data) <= 2
    capsys.readouterr()


def test_run_artifacts_are_deterministic(tmp_path):
    script = write_script(
        tmp_path, "prepare k=3 data=1:1\nextend l=4\ndump\nemit\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", str(script), "--out", str(out1)) == 0
    assert run_cli("run", str(script), "--out", str(out2)) == 0
    for p1 in sorted(out1.iterdir()):
        p2 = out2 / p1.name
        assert p1.read_bytes() == p2.read_bytes()


DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _assert_close_json(got, want, where):
    """Equal JSON values, except that floats may differ by 1e-12: dumped
    amplitudes and purities carry the last bits of numpy's rounding."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close_json(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


@pytest.mark.parametrize("demo,seed", [("sample", 7), ("sample-remove", 11)])
def test_demo_scripts_reproduce_their_goldens(tmp_path, demo, seed):
    out = tmp_path / "out"
    assert run_cli("run", str(DEMOS / f"{demo}.qdb"), "--seed", str(seed),
                   "--out", str(out)) == 0
    golden = DEMOS / f"{demo}-out"
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        got, want = (out / name).read_text(), (golden / name).read_text()
        if name.endswith(("-circuit.txt", "-plan.json")):
            assert got == want, name
        else:
            _assert_close_json(json.loads(got), json.loads(want), name)


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("0*.py")), ids=lambda p: p.name)
def test_demo_programs_run(tmp_path, demo):
    # the package's source goes first on the child's path, as for the entry point
    src = str(DEMOS.parent / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_run_default_out_dir_next_to_script(tmp_path):
    script = write_script(tmp_path, "prepare k=2\ndump\n", name="demo.qdb")
    assert run_cli("run", str(script)) == 0
    assert (tmp_path / "demo-out" / "001-dump.json").exists()


def test_run_csv_format(tmp_path):
    script = write_script(tmp_path, "prepare k=4\ndump\n")
    out = tmp_path / "o"
    assert run_cli("run", str(script), "--out", str(out), "--format", "csv") == 0
    lines = (out / "001-dump.csv").read_text().splitlines()
    assert len(lines) == 4
    assert all(len(line.split(",")) == 4 for line in lines)


@pytest.mark.parametrize("gate, why", [("ry(nan) q[0]", "must be finite"),
                                       ("phase(inf) q[0]", "must be finite"),
                                       ("rot2(0,1.5,0.3)", "must be integers")])
def test_a_data_encoding_with_a_bad_parameter_is_refused(tmp_path, capsys, gate, why):
    # a NaN angle would fill the state with NaN; rot2(0,1.5,.) would act as rot2(0,1,.)
    (tmp_path / "u.txt").write_text(f"qubits 1\n# one gate\n{gate}\n")
    script = write_script(tmp_path, "# an encoded database\nprepare k=4 m=1 data=1:1 u_d=u.txt\n")
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    # the script's line, then the file and the gate's line in it
    assert "line 2: data-encoding circuit u.txt, line 3: " in err
    assert why in err
    assert not (tmp_path / "o").exists()


def test_run_remove_reservoir_under_data_encoding(tmp_path):
    # under u_d = H both merged branches hold |+>: the removed pattern must
    # end with no amplitude and the reservoir with (l+1)/(k+l) = 1/2
    (tmp_path / "h.txt").write_text("qubits 1\nh q[0]\n")
    script = write_script(
        tmp_path, "prepare k=4 m=1 data=1:1 u_d=h.txt\nremove j=2 mode=reservoir\ndump\n")
    out = tmp_path / "o"
    assert run_cli("run", str(script), "--out", str(out)) == 0
    dump = json.loads((out / "001-dump.json").read_text())
    weight = {}
    for rec in dump:
        pattern = rec["bits"].split("I=")[1]
        weight[pattern] = weight.get(pattern, 0.0) + rec["re"] ** 2 + rec["im"] ** 2
    assert set(weight) == {"00", "01", "11"}
    assert weight["00"] == pytest.approx(0.5, abs=1e-12)
    assert weight["01"] == pytest.approx(0.25, abs=1e-12)


def test_removing_the_reservoir_says_it_cannot_be_removed(tmp_path, capsys):
    script = write_script(tmp_path, "prepare k=4 m=1\nremove j=0\n")
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert "remove (line 2): entry 0 is the reservoir and cannot be removed" in err


def test_run_extend_writes_plan_artifacts(tmp_path):
    script = write_script(
        tmp_path,
        "prepare k=2\nextend l=5\nextend-imbalanced l=6 z=2\ndump\n",
    )
    out = tmp_path / "o"
    assert run_cli("run", str(script), "--out", str(out)) == 0
    chain = json.loads((out / "001-extend-plan.json").read_text())
    assert chain["l"] == 5 and len(chain["plans"]) == 2
    for plan in chain["plans"]:
        assert plan["residual"] < 1e-10
    imb = json.loads((out / "002-extend-imbalanced-plan.json").read_text())
    assert imb["balanced"] is False
    assert imb["l_prime"] == 3 and imb["l_double_prime"] == 2


def test_run_remove_projective_samples_with_seed(tmp_path):
    script = write_script(
        tmp_path, "prepare k=4 data=1:1\nremove j=1 mode=projective\n"
    )
    out = tmp_path / "o"
    assert run_cli("run", str(script), "--seed", "7", "--out", str(out)) == 0
    rec = json.loads((out / "001-remove.json").read_text())
    assert rec["success_probability"] == pytest.approx(0.75)
    assert rec["outcome"] in ("success", "failure")
    # same seed, same outcome
    out2 = tmp_path / "o2"
    run_cli("run", str(script), "--seed", "7", "--out", str(out2))
    assert (out / "001-remove.json").read_bytes() == (out2 / "001-remove.json").read_bytes()


@pytest.mark.parametrize("seed,verdict,built", [(4, "failure", 0), (1, "success", 1)])
def test_projective_removal_builds_only_the_state_it_keeps(tmp_path, monkeypatch,
                                                          seed, verdict, built):
    qdb_mod = importlib.import_module("qdbsim.qdb")
    states = []
    renormalized = qdb_mod._renormalized
    monkeypatch.setattr(qdb_mod, "_renormalized",
                        lambda amps: states.append(amps.size) or renormalized(amps))
    monkeypatch.setattr(qdb_mod, "_collapsed", None)  # no collapsed state either
    script = write_script(tmp_path, "prepare k=4\nremove j=1 mode=projective\n")
    assert run_cli("run", str(script), "--seed", str(seed), "--out", str(tmp_path / "o")) == 0
    assert json.loads((tmp_path / "o" / "001-remove.json").read_text())["outcome"] == verdict
    assert len(states) == built  # the survivor on success, nothing on failure


def test_run_read_projective_consumes_database(tmp_path, capsys):
    script = write_script(
        tmp_path, "prepare k=4 data=2:1\nread-projective j=2\nemit\n"
    )
    code = run_cli("run", str(script), "--out", str(tmp_path / "o"))
    assert code == 3
    assert "consumed" in capsys.readouterr().err


def test_execution_errors_name_command_and_line(tmp_path, capsys, monkeypatch):
    # an entry's amplitude is checked only while executing: entry 1 is hollowed
    db = prepare_general(4, 0, m_data=1)
    hit = pattern_mask(db.state, db.layout.index_qubits, db.layout.pattern(1))
    ghost = dataclasses.replace(db, state=project(db.state, ~hit)[0])
    monkeypatch.setattr(importlib.import_module("qdbsim.cli"), "_prepare", lambda meta: ghost)
    script = write_script(tmp_path, "prepare k=4 m=1\ndump\nwrite j=1 d=1\n")
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 3
    assert "error: write (line 3): entry 1 carries no amplitude" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["001-dump.json"]


@pytest.mark.parametrize("line,budget,width", [
    ("write j=1 d=1", 3, 4),
    ("write j=1 d=1 mode=swap", 3, 4),
    ("read-copy j=1", 3, 4),
    ("read-copy all=true", 3, 4),
    ("extend l=2", 3, 4),  # the unfold's index qubit
    ("extend-imbalanced l=6 z=2", 4, 5),  # z ancillas
    ("extend-imbalanced l=6 z=2 route=marker", 5, 6),  # and the marker qubit
    ("remove j=1", 3, 4),  # clearing entry 1's word takes a sensor
])
def test_an_over_budget_line_is_refused_by_the_dry_run(tmp_path, capsys, line, budget, width):
    script = write_script(tmp_path, f"prepare k=4 m=1 data=1:1\ndump\n{line}\n")
    message = f"{line.split()[0]} (line 3): {width} qubits exceeds the budget of {budget}"
    with pytest.raises(CapacityError) as exc:
        dry_run(parse_script(script.read_text()), seed=None, script_dir=tmp_path,
                max_qubits=budget)
    assert str(exc.value) == message
    out = tmp_path / "o"
    assert run_cli("run", str(script), "--max-qubits", str(budget), "--out", str(out)) == 4
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()  # not even the dump before it


@pytest.mark.parametrize("line,l", [("extend l=2", 2), ("extend-imbalanced l=3 z=2", 3)])
def test_a_planner_failure_comes_from_the_dry_run(tmp_path, capsys, monkeypatch, line, l):
    def refuse(k, l):
        raise VerificationError(f"no schedule for k={k}, l={l}")

    # the package's ``extend`` attribute is the function; patch the module
    monkeypatch.setattr(importlib.import_module("qdbsim.extend"), "plan_transfer", refuse)
    script = write_script(tmp_path, f"prepare k=4\ndump\n{line}\n")
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 5
    cmd = line.split()[0]
    assert f"error: {cmd} (line 3): no schedule for k=4, l={l}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # not even the dump before it


def test_an_over_budget_prepare_is_refused_by_the_dry_run(tmp_path, capsys):
    script = write_script(tmp_path, "prepare k=4194304 m=1\ndump\n")
    with pytest.raises(CapacityError, match="23 qubits exceeds the budget of 10"):
        dry_run(parse_script(script.read_text()), seed=None, script_dir=tmp_path, max_qubits=10)
    assert run_cli("run", str(script), "--max-qubits", "10", "--out", str(tmp_path / "o")) == 4
    assert ("error: prepare (line 1): 23 qubits exceeds the budget of 10"
            in capsys.readouterr().err)
    # the descriptor's checks still come first
    script = write_script(tmp_path, "prepare k=4194304 data=0:1\n")
    assert run_cli("run", str(script), "--max-qubits", "10", "--out", str(tmp_path / "o")) == 3
    assert "entry 0 is the reservoir" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_imbalanced_extend_far_beyond_k_runs_at_once(tmp_path):
    script = write_script(tmp_path, "prepare k=6\nextend-imbalanced l=60 z=4\n")
    start = time.perf_counter()
    assert run_cli("run", str(script), "--out", str(tmp_path / "o")) == 0
    assert time.perf_counter() - start < 1.0
    plan = json.loads((tmp_path / "o" / "001-extend-imbalanced-plan.json").read_text())
    assert plan["amplification"]["residual"] < PLAN_RESIDUAL_TOL


# --- the dry-run pass --------------------------------------------------------


def test_dry_run_fails_before_any_artifact(tmp_path, capsys):
    script = write_script(tmp_path, "prepare k=2\ndump\nwrite j=5 d=1\n")
    out = tmp_path / "o"
    assert run_cli("run", str(script), "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert not out.exists()                     # nothing written
    assert "prepare:" not in captured.out       # nothing executed
    assert "write (line 3)" in captured.err     # failing command named


def test_dry_run_predicts_sampled_branch(tmp_path, capsys):
    # seed 1: first removal succeeds (0.51 < 0.75), second fails (0.95 > 2/3),
    # so the dump on line 4 can never run and the script is rejected up front
    script = write_script(
        tmp_path,
        "prepare k=4\nremove j=1 mode=projective\nremove j=2 mode=projective\ndump\n",
    )
    out = tmp_path / "o"
    assert run_cli("run", str(script), "--seed", "1", "--out", str(out)) == 3
    assert not out.exists()
    assert "failure branch" in capsys.readouterr().err
    # seed 0 samples success twice and the same script runs through
    assert run_cli("run", str(script), "--seed", "0", "--out", str(out)) == 0
    first = json.loads((out / "001-remove.json").read_text())
    second = json.loads((out / "002-remove.json").read_text())
    assert first["outcome"] == second["outcome"] == "success"
    assert second["success_probability"] == pytest.approx(2 / 3)


def test_emit_streams_its_artifact(tmp_path, capsys):
    words = {j: format(1 + j % 3, "02b") for j in range(1, 4096)}
    spec = ",".join(f"{j}:{word}" for j, word in words.items())
    script = write_script(tmp_path, f"prepare k=4096 m=2 data={spec}\nextend l=2048\nemit\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert run_cli("run", str(script), "--seed", "1", "--out", str(out)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = (out / "002-circuit.txt").read_text()
    assert len(text) > 18 * 10 ** 6  # a word on every label, in u and u^-1 of every step
    assert peak < len(text) / 2  # the script's whole run never holds the text
    db = extend(prepare_general(4096, 0, words, m_data=2), 2048)
    assert text == db.emit()
    assert f"emit: {len(db.circuit)} gates" in capsys.readouterr().out


def test_dry_run_rejects_emit_after_projection(tmp_path, capsys):
    script = write_script(tmp_path, "prepare k=4\nremove j=1 mode=projective\nemit\n")
    assert run_cli("run", str(script), "--seed", "0") == 3
    assert "no circuit re-creates it" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        "prepare k=4 m=1\nread-copy j=1\nread-copy j=2\n",
        "prepare k=4 m=1\nwrite j=1 d=1 mode=swap\nextend l=2\n",
        "prepare k=4\nextend-imbalanced l=6 z=2\nextend l=1\n",
        "prepare k=3 l=2\nextend l=3\n",
        "prepare k=3\npermute map=0:1,1:0\nread-copy j=1\n",  # read lacks a data register
        "prepare k=4 data=1:1\npermute map=0:1,1:0\n",
        "prepare k=2\nprepare k=3\n",
        "dump\n",
        "prepare k=4\nremove j=1\n",  # removal needs no data register
        "prepare k=4 m=1\nwrite j=9 d=1 mode=bogus\n",  # the bad mode is found first
    ],
)
def test_dry_run_verdict_matches_execution(tmp_path, body):
    """Anything the dry run rejects must be exactly what execution would
    reject: replaying the commands without the dry run hits the same error."""
    script = write_script(tmp_path, body)
    code = run_cli("run", str(script), "--out", str(tmp_path / "o"))
    _, failure = replay(body, None, tmp_path / "raw")
    assert code == (failure[1] if failure else 0)


def replay(text, seed, out_dir, *, dry=False, max_qubits=DEFAULT_MAX_QUBITS):
    """Run a script line by line in one session, executing (or, with ``dry``,
    applying transitions only) and with no separate dry run first; return the
    session and (line, exit code) of the first failure, or 0."""
    sess = Session(seed, Path("."), out_dir=out_dir, max_qubits=max_qubits, dry=dry)
    for ln, cmd, kv in parse_script(text):
        try:
            sess.step(ln, cmd, kv)
        except QdbError as exc:
            return sess, (ln, exc.exit_code)
    return sess, 0


# Mostly lines that can run, with unknown labels, bad words and modes, a
# second prepare, and lines that attach registers or consume the database.
_label = st.sampled_from([1, 1, 2, 2, 3, 3, 4, 0, 7, 9])
_prepare = st.builds("prepare k={} l={} m={}".format, st.integers(1, 8),
                     st.sampled_from([0, 0, 0, 1, 2, 4]), st.sampled_from([0, 1, 2, 2]))
_line = st.one_of(
    st.builds("extend l={}".format, st.integers(0, 4)),
    st.builds("extend-imbalanced l={} z={} route={}".format,  # l=6 z=2 leaves a profile
              st.sampled_from([1, 2, 3, 4, 6, 6]), st.integers(1, 2),
              st.sampled_from(["direct", "marker"])),
    st.builds("write j={} d={} mode={}".format, _label,
              st.sampled_from(["1", "1", "01", "10", "11", "0", "101", "2"]),
              st.sampled_from(["xor", "xor", "xor", "xor", "swap", "bogus"])),
    st.builds("read-copy j={}".format, _label),
    st.just("read-copy all=true"),
    st.builds("read-projective j={}".format, _label),
    st.builds("remove j={} mode={}".format, _label,
              st.sampled_from(["reservoir"] * 3 + ["projective"] * 2 + ["bogus"])),
    st.builds("permute map={0}:{1},{1}:{0}".format, _label, _label),
    st.sampled_from(["emit", "dump"]),
    _prepare,
)


@settings(deadline=None, max_examples=60)
@given(first=st.one_of(_prepare, st.builds(  # or start from a profiled database
           "prepare k={} m={}\nextend-imbalanced l=6 z=2".format,
           st.integers(2, 8), st.integers(0, 2))),
       rest=st.lists(_line, max_size=4), seed=st.sampled_from([None, 3]),
       spare=st.sampled_from([0, 1, 2, DEFAULT_MAX_QUBITS]))
def test_dry_run_agrees_with_raw_replay(first, rest, seed, spare):
    """The dry run fails exactly where raw replay fails with a script,
    semantic or capacity error, passes every line raw replay completes, and
    ends on the metadata raw replay ends on. The budget is the width the
    first lines leave plus ``spare`` qubits, so writes, copy-reads and
    growth overflow it."""
    text = "\n".join([first, *rest]) + "\n"
    budget = replay(first, None, None, dry=True)[0].db.layout.n_qubits + spare
    with tempfile.TemporaryDirectory() as tmp:
        raw, raw_fail = replay(text, seed, Path(tmp), max_qubits=budget)
    dry, dry_fail = replay(text, seed, None, dry=True, max_qubits=budget)
    if raw_fail and raw_fail[1] in (2, 3, 4):
        assert dry_fail == raw_fail
    elif raw_fail:  # verification: the dry run may stop there, not before
        assert not dry_fail or dry_fail[0] >= raw_fail[0]
    else:
        assert not dry_fail
        assert dry.consumed == raw.consumed
        if raw.db is not None:
            want, got = raw.db, dry.db
            assert (got.k, got.l, got.layout.labels, got.descriptor.data, got.projective) \
                == (want.k, want.l, want.layout.labels, want.descriptor.data, want.projective)
            assert (got.amplitude_profile is None) == (want.amplitude_profile is None)
            if want.amplitude_profile is not None:
                assert got.amplitude_profile.keys() == want.amplitude_profile.keys()
                for j, wgt in want.amplitude_profile.items():
                    assert abs(got.amplitude_profile[j] - wgt) <= STATE_TOL


@settings(deadline=None, max_examples=40)
@given(first=_prepare, rest=st.lists(_line, max_size=4), seed=st.sampled_from([None, 3]))
def test_execution_applies_the_records_its_dry_run_derived(first, rest, seed):
    """After each line the executing session's record equals, field by field,
    the record the dry run derived for that line; and ``run_script`` writes
    the bytes raw replay writes, with the same verdict."""
    text = "\n".join([first, *rest]) + "\n"
    dry = Session(seed, Path("."), dry=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        executed = Session(seed, Path("."), out_dir=tmp / "lines")
        for ln, cmd, kv in parse_script(text):
            try:
                executed.run(*dry.step(ln, cmd, kv))
            except QdbError:
                break  # where raw replay fails too: see the tests above
            assert executed.consumed == dry.consumed
            if dry.db is not None:
                assert executed.db.meta == dry.db, (ln, cmd)
        script = write_script(tmp, text)
        try:
            code = run_script(script, tmp / "run", seed=seed, max_qubits=DEFAULT_MAX_QUBITS,
                              fmt="json")
        except QdbError as exc:
            code = exc.exit_code
        _, failure = replay(text, seed, tmp / "raw")
        assert code == (failure[1] if failure else 0)
        ran = sorted(p.name for p in (tmp / "run").glob("*"))
        if code == 0:
            assert ran == sorted(p.name for p in (tmp / "raw").glob("*"))
        for name in ran:  # a failed run wrote what raw replay wrote before failing
            assert (tmp / "run" / name).read_bytes() == (tmp / "raw" / name).read_bytes(), name


# Scripts that between them run every command. Seed 0 keeps the database
# after the projective removal.
_EVERY_COMMAND = [
    "prepare k=5 m=2 data=1:01,3:11\nextend l=2\nextend-imbalanced l=6 z=2\n"
    "write j=2 d=10\npermute map=1:2,2:1\nremove j=3\nemit\n"
    "remove j=4 mode=projective\ndump\nread-copy j=1\ndump\n",
    "prepare k=4 m=1\nwrite j=1 d=1 mode=swap\nemit\ndump\n",
    "prepare k=4 m=1 data=2:1\nread-copy all=true\ndump\n",
    "prepare k=4 m=1 data=2:1\nread-projective j=2\n",
]


def _transition_of(cmd, kv):
    """The library transition a script line's command runs."""
    if cmd == "write":
        return "write_meta" if kv.get("mode", "xor") == "xor" else "write_swap_meta"
    if cmd == "read-copy":
        return "read_copy_all_meta" if "all" in kv else "read_copy_meta"
    if cmd == "remove":
        return "remove_projective_meta" if kv.get("mode") == "projective" \
            else "remove_reservoir_meta"
    if cmd == "dump":  # a dump only reads the record
        return None
    return cmd.replace("-", "_") + "_meta"


@pytest.fixture
def transition_calls(monkeypatch):
    """Count the calls of each transition ``qdbsim.cli`` calls, wherever in
    the package they are made."""
    cli = importlib.import_module("qdbsim.cli")
    calls = Counter()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qdbsim"]
    for name, fn in list(vars(cli).items()):
        if not (name.endswith("_meta") and not name.startswith("_")):
            continue
        calls[name] = 0  # listed even if never called

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("text", _EVERY_COMMAND)
def test_each_script_line_runs_its_transition_once(tmp_path, transition_calls, text):
    script = write_script(tmp_path, text)
    assert run_cli("run", str(script), "--seed", "0", "--out", str(tmp_path / "o")) == 0
    lines = Counter(_transition_of(cmd, kv) for _, cmd, kv in parse_script(text))
    for name, count in transition_calls.items():
        assert count == lines[name], name


def test_the_command_scripts_cover_every_transition(transition_calls):
    lines = {_transition_of(cmd, kv) for text in _EVERY_COMMAND
             for _, cmd, kv in parse_script(text)}
    assert lines - {None} == set(transition_calls)


def test_a_library_op_still_runs_its_own_transition(transition_calls):
    db = qdbsim.prepare_general(4, 0, m_data=1)
    qdbsim.write(db, 1, "1")
    assert transition_calls["write_meta"] == 1 and transition_calls["prepare_meta"] == 1


def test_run_accepts_preloaded_imbalanced_flow(tmp_path):
    script = write_script(
        tmp_path,
        "prepare k=4 l=4 m=1\nwrite j=2 d=1\nextend-imbalanced l=4 z=1\ndump\n",
    )
    out = tmp_path / "o"
    assert run_cli("run", str(script), "--out", str(out)) == 0
    dump = json.loads((out / "002-dump.json").read_text())
    assert len(dump) == 8
    want = 1 / math.sqrt(8)
    for rec in dump:
        assert math.hypot(rec["re"], rec["im"]) == pytest.approx(want, abs=1e-9)


# --- exit codes --------------------------------------------------------------


def test_exit_code_2_for_parse_errors(tmp_path, capsys):
    script = write_script(tmp_path, "warp k=2\n")
    assert run_cli("run", str(script)) == 2
    assert "unknown command" in capsys.readouterr().err


def test_exit_code_2_for_missing_script(tmp_path, capsys):
    assert run_cli("run", str(tmp_path / "absent.qdb")) == 2


def test_exit_code_3_for_semantic_errors(tmp_path, capsys):
    script = write_script(tmp_path, "prepare k=3\nwrite j=9 d=1\n")
    assert run_cli("run", str(script)) == 3


def test_exit_code_3_for_projective_without_seed(tmp_path, capsys):
    script = write_script(tmp_path, "prepare k=3 data=1:1\nremove j=1 mode=projective\n")
    assert run_cli("run", str(script)) == 3
    assert "--seed" in capsys.readouterr().err


def test_exit_code_4_for_capacity(tmp_path, capsys):
    script = write_script(tmp_path, "prepare k=2\nextend l=100\n")
    assert run_cli("run", str(script), "--max-qubits", "5") == 4


def test_reservoir_too_heavy_to_unfold_is_accepted_and_can_be_spent(tmp_path, capsys):
    # prepare k=4 l=600 is accepted: one imbalanced extension spends the whole
    # reservoir, while unfolding 600 entries behind a single new index qubit
    # would need a 10-bit index register, so the dry run refuses that
    spend = write_script(tmp_path, "prepare k=4 l=600\nextend-imbalanced l=600 z=10\n")
    assert run_cli("run", str(spend), "--out", str(tmp_path / "spent")) == 0
    assert "-> k=604 " in capsys.readouterr().out
    unfold = write_script(tmp_path, "prepare k=4 l=600\nextend l=600\n", "unfold.qdb")
    out = tmp_path / "unfolded"
    assert run_cli("run", str(unfold), "--out", str(out)) == 4
    captured = capsys.readouterr()
    assert not out.exists() and "prepare:" not in captured.out
    assert "error: extend (line 2): 600 new entries do not fit the 2-bit index register" \
        in captured.err


def test_verify_subcommand(capsys):
    assert run_cli("verify", "--level", "fast") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "verification passed" in out


def test_console_script_entry_point(tmp_path):
    script = write_script(tmp_path, "prepare k=2\ndump\n")
    # the package's source goes first on the child's path, however the suite
    # was started (installed or not, with or without PYTHONPATH)
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "qdbsim.cli", "run", str(script),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "001-dump.json").exists()
