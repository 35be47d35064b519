"""Circuit text format: emit/parse round trips and parse diagnostics."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import H_ENCODING, RY_CNOT_ENCODING, RY_ENCODING
from qdbsim.circuit import Circuit, GateRecord, simulate
from qdbsim.errors import CapacityError, CircuitParseError, SemanticError
from qdbsim.extend import extend
from qdbsim.gates import GateSpec, h, phase, rot2, ry, swap, x, y, ytilde
from qdbsim.qdb import (
    QdbDescriptor,
    QdbLayout,
    QdbMeta,
    permute,
    prepare_general,
    remove_reservoir,
    write,
)
from qdbsim.text_format import _chunks, emit_text, parse_text


def full_vocabulary_circuit() -> Circuit:
    c = Circuit(4)
    c.label(0, "I")
    c.label(1, "I")
    c.label(2, "D")
    c.append(x(0))
    c.append(h(1, ctrl=(0,)))
    c.append(ry(2, 0.7853981633974483, nctrl=(3,)))
    c.append(y(3, 0.25))
    c.append(ytilde(0, 0.75, ctrl=(1,), nctrl=(2,)))
    c.append(phase(1, 2.5))
    c.append(swap(2, 3))
    c.append(rot2(3, 12, 1 / 3))
    return c


def test_round_trip_is_byte_identical():
    c = full_vocabulary_circuit()
    text = emit_text(c)
    again = emit_text(parse_text(text))
    assert text == again


def test_round_trip_preserves_semantics():
    c = full_vocabulary_circuit()
    parsed = parse_text(emit_text(c))
    assert parsed.n_qubits == c.n_qubits
    assert parsed.labels == c.labels
    got = simulate(parsed).amplitudes
    want = simulate(c).amplitudes
    assert np.max(np.abs(got - want)) < 1e-15


def test_emit_starts_with_width_header():
    text = emit_text(full_vocabulary_circuit())
    assert text.splitlines()[0] == "qubits 4"


def test_float_params_survive_exactly():
    c = Circuit(1)
    c.append(ry(0, 0.1 + 0.2))  # not representable in short decimal
    parsed = parse_text(emit_text(c))
    assert parsed.gates[0].params[0] == c.gates[0].params[0]


@pytest.mark.parametrize(
    "text,line",
    [
        ("x q[0]\n", 1),  # missing header
        ("qubits 2\nfrob q[0]\n", 2),
        ("qubits 2\nx q[5]\n", 2),
        ("qubits 2\nx nonsense\n", 2),
        ("qubits 2\nry q[0]\n", 2),  # missing parameter
        ("qubits 2\nx q[0] ctrl q[0]\n", 2),  # overlapping wires
        ("qubits 2\nx q[0] ctrl\n", 2),  # a control keyword with no qubit
        ("qubits 2\nx q[0] nctrl\n", 2),
        ("qubits 3\nx q[0] ctrl nctrl q[1]\n", 2),
        ("qubits 3\nx q[0] ctrl q[1] nctrl\n", 2),
        ("qubits 2\nry(nan) q[0]\n", 2),  # parameters must be finite
        ("qubits 2\nphase(inf) q[0]\n", 2),
        ("qubits 2\nrot2(0,1,nan)\n", 2),
        ("qubits 2\nrot2(nan,1,0.5)\n", 2),
        ("qubits 2\nrot2(inf,1,0.5)\n", 2),
        ("qubits 2\nrot2(0,1.5,0.5)\n", 2),  # rot2 indices must be integers
        ("qubits two\n", 1),
        ("# no qubits\nqubits 0\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(CircuitParseError) as exc:
        parse_text(text)
    assert exc.value.line == line
    assert exc.value.exit_code == 2


def test_comments_and_blank_lines_ignored():
    text = "qubits 1\n# a comment\n\nx q[0]\n"
    c = parse_text(text)
    assert len(c) == 1


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_circuit_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    c = Circuit(n)
    for _ in range(int(rng.integers(0, 10))):
        kind = rng.choice(["x", "h", "ry", "y", "ytilde", "phase", "swap"])
        wires = list(rng.permutation(n))
        if kind == "swap" and n >= 2:
            g = swap(wires.pop(), wires.pop())
        elif kind == "swap":
            continue
        else:
            t = wires.pop()
            params = {
                "x": (), "h": (),
                "ry": (float(rng.uniform(-3, 3)),),
                "y": (float(rng.uniform(0.05, 0.95)),),
                "ytilde": (float(rng.uniform(0.05, 0.95)),),
                "phase": (float(rng.uniform(0, 6)),),
            }[kind]
            g = GateSpec(kind, params, (t,))
        if wires and rng.random() < 0.4:
            g = GateSpec(g.kind, g.params, g.targets,
                         tuple((q, int(rng.integers(2))) for q in wires[:2]))
        c.append(g)
    text = emit_text(c)
    assert emit_text(parse_text(text)) == text


# --- the renderer against a per-gate reference --------------------------------


def reference_emit(circuit: Circuit) -> str:
    """The circuit text rendered gate by gate with no memo."""
    lines = [f"qubits {circuit.n_qubits}"]
    lines += [f"label q[{q}] {circuit.labels[q]}" for q in sorted(circuit.labels)]
    for g in circuit.gates:
        line = g.kind
        if g.params:
            ints = (True, True, False) if g.kind == "rot2" else (False,) * len(g.params)
            line += "(" + ",".join(str(int(p)) if i else repr(float(p))
                                   for p, i in zip(g.params, ints)) + ")"
        if g.targets:
            line += " " + " ".join(f"q[{t}]" for t in g.targets)
        pos = [q for q, b in g.controls if b == 1]
        neg = [q for q, b in g.controls if b == 0]
        if pos:
            line += " ctrl " + " ".join(f"q[{q}]" for q in pos)
        if neg:
            line += " nctrl " + " ".join(f"q[{q}]" for q in neg)
        lines.append(line)
    return "\n".join(lines) + "\n"


ANGLES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1 + 0.2]),
                   st.floats(-10, 10, allow_nan=False))
PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0, 1))


@st.composite
def circuits(draw):
    """Circuits that reuse a few wire sets across gates of every kind."""
    n = draw(st.integers(3, 7), label="n")
    wire_sets = []
    for _ in range(draw(st.integers(1, 4))):
        wires = draw(st.permutations(range(n)))
        width = draw(st.integers(0, n - 2))
        polarity = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
        wire_sets.append((wires[0], wires[1], tuple(zip(wires[2:2 + width], polarity))))
    c = Circuit(n)
    for q in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        c.label(q, draw(st.sampled_from(["I", "D", "A", "S"])))
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["x", "h", "ry", "y", "ytilde", "phase", "swap", "rot2"]))
        if kind == "rot2":
            a, b = draw(st.lists(st.integers(0, 2**n - 1), min_size=2, max_size=2,
                                 unique=True))
            c.append(GateSpec("rot2", (float(a), float(b), draw(ANGLES))))
            continue
        t0, t1, controls = draw(st.sampled_from(wire_sets))
        if draw(st.booleans()):  # an equal tuple, not the shared one
            controls = tuple([(q, b) for q, b in controls])
        targets = (t0, t1) if kind == "swap" else (t0,)
        params = {"x": (), "h": (), "swap": (), "ry": (draw(ANGLES),),
                  "phase": (draw(ANGLES),), "y": (draw(PROBABILITIES),),
                  "ytilde": (draw(PROBABILITIES),)}[kind]
        c.append(GateSpec(kind, params, targets, controls))
    return c


@settings(deadline=None, max_examples=100)
@given(c=circuits())
def test_emit_matches_the_per_gate_reference(c):
    text = emit_text(c)
    assert text == reference_emit(c)
    assert emit_text(parse_text(text)) == text


def test_library_history_emit_matches_the_per_gate_reference():
    db = prepare_general(8, 0, {1: 0b101, 3: 0b011, 6: 0b110}, m_data=3)
    db = write(db, 3, 0b110)
    db = write(db, 5, 0b011)
    db = extend(db, 2)
    db = permute(db, {1: 6, 6: 1})
    db = remove_reservoir(db, 6)
    held: dict[tuple, list[int]] = {}
    for g in db.circuit.gates:
        held.setdefault(g.controls, []).append(id(g.controls))
    held = {c: ids for c, ids in held.items() if c}
    # one tuple shared by several gates (the data write, u and u^-1) ...
    assert any(len(ids) > len(set(ids)) for ids in held.values())
    # ... beside equal tuples built apart (each write's toggles)
    assert any(len(set(ids)) > 1 for ids in held.values())
    text = emit_text(db.circuit)
    assert text == reference_emit(db.circuit)
    assert emit_text(parse_text(text)) == text


def test_signed_zero_phases_on_one_wire_set_stay_apart():
    c = Circuit(2, [phase(0, 0.0, ctrl=(1,)), phase(0, -0.0, ctrl=(1,)), phase(0, 0.0, ctrl=(1,))])
    assert c.gates[0] == c.gates[1]  # GateSpec equality cannot tell them apart
    text = emit_text(c)
    assert text.splitlines()[1:] == ["phase(0.0) q[0] ctrl q[1]", "phase(-0.0) q[0] ctrl q[1]",
                                     "phase(0.0) q[0] ctrl q[1]"]
    assert text == reference_emit(c)
    assert emit_text(parse_text(text)) == text
    # a record yields the same fields, one control tuple shared by all three
    controls = ((1, 1),)

    def steps():
        for angle in (0.0, -0.0, 0.0):
            yield "phase", (angle,), (0,), controls

    record = GateRecord(steps, (), 3)
    assert emit_text(Circuit._joined(2, (record,), {}, 3)) == text
    inverse = Circuit._joined(2, (record.inverse(),), {}, 3)
    assert emit_text(inverse).splitlines()[1:] == [
        "phase(-0.0) q[0] ctrl q[1]", "phase(0.0) q[0] ctrl q[1]", "phase(-0.0) q[0] ctrl q[1]"]
    assert emit_text(inverse) == reference_emit(inverse)


def test_wide_circuits_name_every_qubit():
    c = Circuit(80, [x(79, ctrl=(70,), nctrl=(3,)), x(79, ctrl=(70,), nctrl=(3,))])
    c.label(75, "A")
    text = emit_text(c)
    assert text == reference_emit(c)
    assert "x q[79] ctrl q[70] nctrl q[3]" in text


# --- the data-write block, rendered entry by entry ---------------------------


@st.composite
def _databases(draw):
    """Fresh, extended (an index qubit above the data register) and
    hand-built databases (qubits in any order, so the data register need
    not be one ascending run, and labels but the reservoir on any
    patterns), each with or
    without a data encoding u_d."""
    qdb = importlib.import_module("qdbsim.qdb")
    u_d = draw(st.sampled_from([None, H_ENCODING, RY_ENCODING, RY_CNOT_ENCODING]), label="u_d")
    m = draw(st.integers(1, 3)) if u_d is None else u_d.n_qubits
    k = draw(st.integers(2, 9), label="k")
    words = draw(st.dictionaries(st.integers(1, k - 1), st.integers(1, 2 ** m - 1),
                                 max_size=k - 1), label="words")
    shape = draw(st.sampled_from(["fresh", "extended", "hand"]), label="shape")
    if shape != "hand":
        db = prepare_general(k, 0, words, m_data=m, u_d=u_d)
        return extend(db, draw(st.integers(1, k))) if shape == "extended" else db
    t = qdb.index_width(k)
    qubits = draw(st.permutations(range(t + m)), label="qubits")
    # growth reflects about the reservoir at pattern 0, where every op keeps it
    patterns = [0] + draw(st.permutations(range(1, 1 << t)), label="patterns")[:k - 1]
    layout = QdbLayout(tuple(qubits[:t]), tuple(qubits[t:]), dict(enumerate(patterns)))
    return qdb._prepare(QdbMeta(QdbDescriptor(k, 0, words, u_d=u_d, m_data=m), layout))


def _history_step(data, db, op):
    labels = list(db.layout.labels[1:])
    if op == "extend":
        return extend(db, db.l or data.draw(st.integers(1, db.k)))
    if not labels:  # each entry but the reservoir removed
        return db
    if op == "write":
        m = len(db.layout.data_qubits)
        return write(db, data.draw(st.sampled_from(labels)), data.draw(st.integers(1, 2 ** m - 1)))
    if op == "permute":
        return permute(db, dict(zip(labels, data.draw(st.permutations(labels)))))
    return remove_reservoir(db, data.draw(st.sampled_from(labels)))


def _assert_renders_as_its_gates(circuit, data):
    text = emit_text(circuit)
    assert text == reference_emit(circuit)
    run = data.draw(st.integers(1, 40), label="run")
    chunks = list(_chunks(circuit, run))
    assert "".join(chunks) == text and list(_chunks(circuit)) == [text]
    for chunk in chunks[:-1]:  # whole lines, at least a run of them
        assert chunk.endswith("\n") and chunk.count("\n") >= run


@settings(deadline=None, max_examples=60)
@given(db=_databases(), data=st.data())
def test_histories_render_as_their_gates_whole_and_in_chunks(db, data):
    _assert_renders_as_its_gates(db.circuit, data)
    # a transfer after a write that changes a held word: u's block repeats
    # the preparation's entries (on a fresh or hand-built layout) but that one
    held = [j for j in db.layout.labels if db.descriptor.data_value(j)]
    m = len(db.layout.data_qubits)
    if held and m > 1:
        label = data.draw(st.sampled_from(held), label="rewritten")
        old = db.descriptor.data_value(label)
        db = write(db, label, data.draw(st.sampled_from(
            [word for word in range(1, 2 ** m) if word != old]), label="word"))
    db = extend(db, data.draw(st.integers(1, db.k), label="grow"))
    ops = st.lists(st.sampled_from(["write", "extend", "permute", "remove"]), max_size=4)
    for op in data.draw(ops, label="ops"):
        try:
            db = _history_step(data, db, op)
        except (SemanticError, CapacityError):
            continue
    _assert_renders_as_its_gates(db.circuit, data)


def test_a_second_emit_renders_every_entry_again(monkeypatch):
    qdb = importlib.import_module("qdbsim.qdb")
    rendered = []
    real = qdb._entry_lines

    def counted(*args):
        rendered.append(args[0])
        return real(*args)

    monkeypatch.setattr(qdb, "_entry_lines", counted)
    db = prepare_general(16, 0, {j: 1 + j % 7 for j in range(1, 16)}, m_data=3)
    db = extend(write(db, 3, 5), 4)
    first = db.emit()
    count = len(rendered)
    # the preparation's 15 entries, and u's only where the write changed a word
    assert count == 15 + 1
    assert db.emit() == first and len(rendered) == 2 * count
