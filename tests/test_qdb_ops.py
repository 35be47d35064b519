"""Database operations: prepare, write, read, remove, permute."""

import dataclasses
import functools
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    H_ENCODING,
    RY_CNOT_ENCODING,
    RY_ENCODING,
    assert_register_scan_matches_brute_force,
    pattern_mask,
    qubit_slot,
    state_matches_oracle,
)
from qdbsim.circuit import Circuit, GateRecord, simulate
from qdbsim.dumps import dump_records
from qdbsim.errors import (
    CapacityError,
    SemanticError,
    VerificationError,
)
from qdbsim.extend import extend, extend_imbalanced, extend_meta, transfer, unfold
from qdbsim.gates import GateSpec, gate_inverse, h, phase, ry, x
from qdbsim.oracle import expected_qdb_amplitudes, permutation_matrix
from qdbsim.qdb import (
    QdbDescriptor,
    QdbLayout,
    QdbState,
    _encoding,
    _grow,
    _moves,
    index_width,
    pattern_permutation_circuit,
    permute,
    permute_meta,
    prepare_balanced,
    prepare_circuit,
    prepare_general,
    prepare_meta,
    preparation_circuit,
    read_copy,
    read_copy_all,
    read_projective,
    relabel_contiguous,
    remove_projective,
    remove_projective_meta,
    remove_reservoir,
    remove_reservoir_meta,
    transpose_entries,
    transposition_circuit,
    write,
    write_swap_conditional,
)
from qdbsim.statevector import (
    StateVector,
    add_ancillas,
    drop_qubits,
    project,
    schmidt,
    states_equal,
)
from qdbsim.text_format import emit_text, parse_text
from qdbsim.tolerances import DUMP_THRESHOLD, EMPTY_ENTRY_WEIGHT, STATE_TOL
from qdbsim.verify import DB_OPS, _by_gates, _check_op, _write_gates


# --- descriptor and layout ---------------------------------------------------


def test_index_width():
    assert [index_width(k) for k in (1, 2, 3, 4, 5, 8, 9, 22)] == [1, 1, 2, 2, 3, 3, 4, 5]


def test_descriptor_drops_zero_words_and_pads():
    d = QdbDescriptor(k=4, l=0, data={1: "0", 2: "1", 3: 0}, m_data=2)
    assert d.data == {2: "01"}
    assert d.data_value(2) == 1
    assert d.data_value(1) == 0


def test_descriptor_rejects_reservoir_data_and_wide_words():
    with pytest.raises(SemanticError):
        QdbDescriptor(k=2, l=0, data={0: "1"}, m_data=1)
    with pytest.raises(SemanticError):
        QdbDescriptor(k=2, l=0, data={1: "101"}, m_data=2)
    with pytest.raises(SemanticError):  # full width, but not binary
        QdbDescriptor(k=2, l=0, data={1: "12"}, m_data=2)
    with pytest.raises(SemanticError):
        QdbDescriptor(k=2, l=0, data={0: "01"}, m_data=2)
    assert QdbDescriptor(k=3, l=0, data={1: "00", 2: "10"}, m_data=2).data == {2: "10"}


def test_a_negative_data_width_is_refused_not_masked():
    for prepare in (prepare_meta, prepare_general):
        with pytest.raises(SemanticError, match="data register width cannot be negative"):
            prepare(4, 0, {}, m_data=-3)


def test_descriptor_json_round_trip():
    circ = Circuit(2)
    circ.append(h(0))
    d = QdbDescriptor(k=5, l=3, data={1: "10", 4: "01"}, u_d=circ, m_data=2)
    again = QdbDescriptor.from_json(d.to_json())
    assert (again.k, again.l, again.data, again.m_data) == (5, 3, d.data, 2)
    assert again.u_d is not None and len(again.u_d) == 1
    plain = QdbDescriptor.from_json(QdbDescriptor(k=2, l=0).to_json())
    assert plain.u_d is None
    # a register wider than every word keeps its width
    wide = QdbDescriptor(4, 0, {}, m_data=3)
    assert QdbDescriptor.from_json(wide.to_json()) == wide
    # text without m_data, as written before it was kept, takes the widest word
    assert QdbDescriptor.from_json('{"k": 3, "l": 0, "data": {"1": "010"}}').m_data == 3
    with pytest.raises(SemanticError, match="wider than the 1-bit"):
        QdbDescriptor.from_json('{"k": 3, "l": 0, "data": {"1": "10"}, "m_data": 1}')
    for bad in ('"wide"', "true", "2.5"):
        with pytest.raises(SemanticError, match="m_data must be an integer"):
            QdbDescriptor.from_json('{"k": 3, "l": 0, "m_data": %s}' % bad)


def test_descriptor_json_rejects_garbage():
    with pytest.raises(SemanticError):
        QdbDescriptor.from_json("not json")
    with pytest.raises(SemanticError):
        QdbDescriptor.from_json('{"k": 2, "l": 0, "bogus": 1}')
    with pytest.raises(SemanticError):
        QdbDescriptor.from_json('{"k": 2, "l": 0, "data": {"x": "1"}}')
    with pytest.raises(SemanticError, match="data must be an object"):
        QdbDescriptor.from_json('{"k": 2, "l": 0, "data": ["1"]}')


@pytest.mark.parametrize("k,l", [("4.7", '"2"'), ("true", "0"), ("4", "0.0"), ("4", "null"),
                                 ('"4"', "0"), ("4.0", "0")])
def test_descriptor_json_needs_json_integers(k, l):
    # int() would truncate 4.7, parse "2" and take true as 1
    with pytest.raises(SemanticError, match="needs integer k and l"):
        QdbDescriptor.from_json('{"k": %s, "l": %s}' % (k, l))
    with pytest.raises(SemanticError, match="needs integer k and l"):
        QdbDescriptor.from_json('{"l": 0}')


@pytest.mark.parametrize("key", ["1_0", " 2", "2 ", "+2", "02", "-0", "\u0662", ""])
def test_descriptor_json_data_labels_are_plain_decimals(key):
    # int() would read "1_0" as 10 and " 2" as 2
    with pytest.raises(SemanticError, match="is not an integer"):
        QdbDescriptor.from_json('{"k": 16, "l": 0, "data": {"%s": "1"}}' % key)
    assert QdbDescriptor.from_json('{"k": 16, "l": 0, "data": {"10": "1"}}').data == {10: "1"}


@pytest.mark.parametrize("index,data", [((-1,), ()), ((0, 1), (2, -3))],
                         ids=["index", "data"])
def test_layout_refuses_negative_qubits(index, data):
    with pytest.raises(SemanticError, match="^negative qubit index$") as exc:
        QdbLayout(index_qubits=index, data_qubits=data, logical_index_map={0: 0})
    assert exc.value.exit_code == 3


def test_layout_fresh_geometry():
    lay = QdbLayout.fresh(5, 2)
    assert lay.index_qubits == (0, 1, 2)
    assert lay.data_qubits == (3, 4)
    assert lay.n_qubits == 5
    assert lay.pattern(3) == 3
    assert lay.physical_index(2, 0b10) == 0b10010
    assert lay.pattern_controls(4) == ((0, 0), (1, 0), (2, 1))


def test_layout_registers_given_as_lists_place_as_tuples():
    lay = QdbLayout(index_qubits=[2, 0], data_qubits=[1], logical_index_map={0: 0, 1: 3})
    assert lay == QdbLayout((2, 0), (1,), {0: 0, 1: 3})
    assert lay.physical_index(1, 1) == 0b111


def _place_by_qubit(layout, pat, data_value):
    """Basis index by a loop over every index and data qubit: the reference
    for ``QdbLayout._place``, which places each register by its runs."""
    idx = 0
    for i, q in enumerate(layout.index_qubits):
        idx |= ((pat >> i) & 1) << q
    for b, q in enumerate(layout.data_qubits):
        idx |= ((data_value >> b) & 1) << q
    return idx


@st.composite
def _layouts(draw):
    """Fresh, extended (the new index qubit above the data register),
    reservoir-removed, permuted and hand-built non-monotone layouts."""
    shape = draw(st.sampled_from(["fresh", "extended", "removed", "permuted", "hand"]))
    if shape == "hand":  # distinct qubits, gaps allowed, in any order
        size = draw(st.integers(1, 12))
        base = sorted(draw(st.lists(st.integers(0, 40), min_size=size, max_size=size,
                                    unique=True)))
        qubits = [base[i] for i in draw(st.permutations(range(size)))]
        t = draw(st.integers(1, min(size, 8)))
        patterns = draw(st.lists(st.integers(0, (1 << t) - 1), min_size=1, max_size=8,
                                 unique=True))
        return QdbLayout(tuple(qubits[:t]), tuple(qubits[t:]), dict(enumerate(patterns)))
    meta = prepare_meta(draw(st.integers(2, 40)), m_data=draw(st.integers(0, 5)))
    if shape == "extended":
        meta = extend_meta(meta, draw(st.integers(1, meta.k)))[0]
    elif shape != "fresh":
        meta = remove_reservoir_meta(meta, draw(st.sampled_from(meta.layout.labels[1:])))
    layout = meta.layout
    if shape == "permuted":  # the survivors' patterns dealt out anew
        lmap = layout.logical_index_map
        patterns = draw(st.permutations(list(lmap.values())))
        layout = QdbLayout(layout.index_qubits, layout.data_qubits, dict(zip(lmap, patterns)))
    return layout


@settings(deadline=None, max_examples=120)
@given(layout=_layouts(), data=st.data())
def test_place_by_runs_matches_the_per_qubit_loop(layout, data):
    t, m = len(layout.index_qubits), len(layout.data_qubits)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, (1 << t) - 1),
                                         st.integers(0, (1 << m) - 1)), min_size=1, max_size=6))
    want = [_place_by_qubit(layout, pat, value) for pat, value in pairs]
    assert [layout._place(pat, value) for pat, value in pairs] == want
    pats, values = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    got = layout._place(pats, values)
    assert got.dtype == np.int64 and got.tolist() == want
    entries = data.draw(st.lists(st.tuples(st.sampled_from(layout.labels),
                                           st.integers(0, (1 << m) - 1)), min_size=1, max_size=6))
    labels, words = zip(*entries)
    assert layout.physical_indices(labels, words).tolist() == [
        layout.physical_index(label, word) for label, word in entries]


# --- preparation -------------------------------------------------------------


@pytest.mark.parametrize("k,l", [(1, 0), (2, 0), (3, 0), (6, 0), (2, 2), (5, 3), (7, 9)])
def test_prepare_circuit_hits_closed_form(k, l):
    t = index_width(k)
    circ = prepare_circuit(k, l, range(t))
    state = simulate(circ)
    want = expected_qdb_amplitudes(QdbDescriptor(k=k, l=l))
    amps = state.amplitudes
    for idx in range(state.dim):
        assert abs(abs(amps[idx]) - want.get(idx, 0.0)) < 1e-12


def test_prepare_circuit_single_entry_is_empty():
    assert len(prepare_circuit(1, 0, [0])) == 0


@settings(deadline=None, max_examples=60)
@given(k=st.integers(1, 22), l=st.integers(0, 25))
def test_prepare_closed_form_property(k, l):
    db = prepare_general(k, l)
    db.check()
    assert abs(abs(db.reservoir_amplitude()) - math.sqrt((l + 1) / (k + l))) < 1e-10
    if k > 1:
        assert abs(abs(db.amplitude(1)) - math.sqrt(1 / (k + l))) < 1e-10


def test_prepare_general_places_data_words():
    db = prepare_general(5, 1, {1: "1", 3: "10", 4: 3})
    db.check()
    assert db.descriptor.m_data == 2
    assert db.descriptor.data == {1: "01", 3: "10", 4: "11"}
    for label in range(5):
        idx = db.layout.physical_index(label, db.descriptor.data_value(label))
        assert abs(db.state.amplitudes[idx]) > 0.1


def test_prepare_general_matches_dense_oracle():
    db = prepare_general(5, 1, {1: "1", 3: "10"})
    assert state_matches_oracle(db) < 1e-12


def test_prepare_with_data_encoding_circuit():
    enc = Circuit(1)
    enc.append(h(0))
    db = prepare_general(3, 0, {1: "1"}, u_d=enc)
    db.check()  # check() undoes the encoding internally
    # encoded data register is not computational: entry 1 stores H|1>
    minus = (db.amplitude(1, 0) - db.amplitude(1, 1)) / math.sqrt(2)
    assert abs(abs(minus) - math.sqrt(1 / 3)) < 1e-12


def test_a_data_encoding_with_rot2_is_refused_before_anything_runs():
    # rot2 names basis indices of a whole register, and the data register
    # never is one: the record refuses it, so no transition accepts what an
    # effect would refuse
    u_d = Circuit(2, [ry(0, 0.3), GateSpec("rot2", (0, 3, 0.4))])
    with pytest.raises(SemanticError, match="rot2"):
        prepare_meta(4, 0, {1: 1}, m_data=2, u_d=u_d)
    with pytest.raises(SemanticError, match="rot2"):
        QdbDescriptor(4, 0, {1: "01"}, u_d=u_d, m_data=2)
    text = QdbDescriptor(4, 0, {1: "01"}, u_d=Circuit(2, [ry(0, 0.3)]), m_data=2).to_json()
    with pytest.raises(SemanticError, match="rot2"):
        QdbDescriptor.from_json(text.replace("ry(0.3) q[0]", "rot2(0,3,0.4)"))


def test_labels_are_non_negative():
    # a label of -1 would be re-keyed by relabel_contiguous onto label 0,
    # the reservoir, with its word
    with pytest.raises(SemanticError, match="negative"):
        QdbLayout((0, 1), (2,), {-1: 0, 1: 1, 2: 2})
    for word in ("1", "0"):
        with pytest.raises(SemanticError, match="negative"):
            QdbDescriptor(3, 0, {-1: word}, m_data=1)
    with pytest.raises(SemanticError, match="negative"):
        QdbDescriptor.from_json('{"k": 3, "l": 0, "data": {"-1": "1"}, "m_data": 1}')


def test_an_encoded_effect_decodes_once_and_encodes_in_place(monkeypatch):
    # a folded write, a removal's merge and a copy-read each simulate E^-1
    # on the state once, and run E in place on the copy the op returns (the
    # copy-read on that copy widened by its copy register)
    qdb = importlib.import_module("qdbsim.qdb")
    db = prepare_general(4, 0, {1: "1"}, m_data=1, u_d=RY_ENCODING)
    simulated, ran = [], []
    real_simulate, real_run = qdb.simulate, qdb._run_gates
    monkeypatch.setattr(qdb, "simulate", lambda circ, *args, **kw: (
        simulated.append(circ) or real_simulate(circ, *args, **kw)))
    monkeypatch.setattr(qdb, "_run_gates", lambda state, gates: (
        ran.append((state, list(gates))) or real_run(state, gates)))
    for op in (lambda d: write(d, 2, "1"), lambda d: remove_reservoir(d, 3),
               lambda d: read_copy(d, 1)):
        simulated.clear(), ran.clear()
        before, db = db, op(db)
        data = db.layout.data_qubits
        assert simulated == [_encoding(RY_ENCODING, before.n_qubits, data).inverse()]
        ((encoded, gates),) = ran
        assert encoded is db.state
        assert gates == _encoding(RY_ENCODING, db.n_qubits, data).gates
    assert state_matches_oracle(db) < 1e-12


def test_prepare_balanced_matches_general_route_exactly():
    bal = prepare_balanced(8)
    gen = prepare_general(8)
    assert states_equal(bal.state, gen.state, tol=1e-12, up_to_global_phase=False)
    assert all(g.kind == "h" for g in bal.circuit.gates)


def test_prepare_balanced_rejects_non_power_of_two():
    with pytest.raises(SemanticError):
        prepare_balanced(6)


def test_power_of_two_general_prepare_is_depth_one_rotations():
    db = prepare_general(8)
    assert all(g.kind == "y" and g.params == (0.5,) and not g.controls
               for g in db.circuit.gates)
    assert db.circuit.metrics().depth == 1


def test_prepare_capacity_guard():
    with pytest.raises(CapacityError):
        prepare_general(8, 0, {1: "1"}, m_data=2, max_qubits=4)


def test_an_over_budget_prepare_fails_before_it_builds_its_labels():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="^23 qubits exceeds the budget of 10$"):
            prepare_general(2 ** 22, m_data=1, max_qubits=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # one label per entry would take hundreds of MiB
    with pytest.raises(CapacityError, match="^27 qubits exceeds the budget of 26$"):
        prepare_meta(2 ** 26, m_data=1)  # the default budget


def test_preparation_circuit_rebuilds_holey_layouts():
    db = prepare_general(4, 0, {1: "1", 2: "1", 3: "1"})
    out = remove_projective(db, 2)
    survivor = out.success_state
    circ = preparation_circuit(survivor.descriptor, survivor.layout)
    assert states_equal(simulate(circ), survivor.state, tol=1e-9)


@pytest.mark.parametrize("u_d", [None, Circuit(2, [ry(1, 0.3)])], ids=["plain", "encoded"])
def test_preparation_circuit_needs_a_data_register_as_wide_as_the_words(u_d):
    # a one-qubit data register would drop the word's high bit, or the
    # encoding's second qubit
    layout = QdbLayout((0, 1), (2,), {0: 0, 1: 1, 2: 2})
    with pytest.raises(SemanticError, match="data register is not 2 qubits"):
        preparation_circuit(QdbDescriptor(3, 0, {1: "11"}, u_d=u_d, m_data=2), layout)


# --- write -------------------------------------------------------------------


def test_write_xors_into_empty_and_occupied_entries():
    db = prepare_general(4, 0, {3: "10"}, m_data=2)
    db = write(db, 1, "11")
    assert db.descriptor.data_value(1) == 0b11
    db = write(db, 3, 1)  # 10 ^ 01 = 11
    assert db.descriptor.data_value(3) == 0b11
    db.check()
    assert state_matches_oracle(db) < 1e-12


def test_write_guards():
    db = prepare_general(4, 2, {1: "1"})
    with pytest.raises(SemanticError):
        write(db, 0, 1)  # reservoir
    with pytest.raises(SemanticError):
        write(db, 9, 1)  # no such label
    with pytest.raises(SemanticError):
        write(db, 1, "11")  # word wider than the register
    sensed = write(db, 2, 1, keep_sensor=True)
    with pytest.raises(SemanticError):
        write(sensed, 3, 1)  # sensor still attached


def test_write_into_entry_without_amplitude_fails():
    db = prepare_general(4, 0, {1: "1"})
    hit = pattern_mask(db.state, db.layout.index_qubits, db.layout.pattern(3))
    hollow, _ = project(db.state, ~hit)
    ghost = dataclasses.replace(db, state=hollow)  # entry 3 still in the layout
    with pytest.raises(SemanticError, match="entry 3 carries no amplitude") as err:
        write(ghost, 3, "1")
    assert err.value.exit_code == 3
    assert write(ghost, 2, "1").descriptor.data_value(2) == 1


@pytest.mark.parametrize("u_d", [None, RY_ENCODING], ids=["plain", "u_d"])
def test_hollow_entry_is_refused_whether_or_not_it_holds_data(u_d):
    # entry 1 holds a word, so its removal writes it off first; entry 3 does not
    db = prepare_general(4, 0, {1: "1"}, u_d=u_d)
    index = db.layout.index_qubits
    hit = (pattern_mask(db.state, index, db.layout.pattern(1))
           | pattern_mask(db.state, index, db.layout.pattern(3)))
    ghost = dataclasses.replace(db, state=project(db.state, ~hit)[0])
    for label in (1, 3):
        for op in (remove_reservoir, lambda d, j: write(d, j, 1),
                   lambda d, j: write(d, j, 1, keep_sensor=True)):
            with pytest.raises(SemanticError, match=f"^entry {label} carries no amplitude$"):
                op(ghost, label)


def test_hollow_entry_of_a_20_qubit_database_is_refused(monkeypatch, tmp_path, capsys):
    # the budget its 8-qubit sensor or copy register needs: capacity is refused first
    db = prepare_general(4096, 0, m_data=8, max_qubits=28)
    assert db.n_qubits == 20
    hit = pattern_mask(db.state, db.layout.index_qubits, db.layout.pattern(7))
    ghost = dataclasses.replace(db, state=project(db.state, ~hit)[0])
    for op in (lambda d: write(d, 7, 1), lambda d: read_copy(d, 7),
               lambda d: remove_reservoir(d, 7), lambda d: remove_projective(d, 7)):
        with pytest.raises(SemanticError, match="^entry 7 carries no amplitude$") as err:
            op(ghost)
        assert err.value.exit_code == 3
    cli = importlib.import_module("qdbsim.cli")
    monkeypatch.setattr(cli, "_prepare", lambda meta: ghost)
    script = tmp_path / "hollow.qdb"
    script.write_text("prepare k=4096 m=8\nwrite j=7 d=1\n")
    assert cli.main(["run", str(script), "--out", str(tmp_path / "out"),
                     "--max-qubits", "28"]) == 3
    assert "write (line 2): entry 7 carries no amplitude" in capsys.readouterr().err


def test_dump_threshold_is_a_magnitude_and_empty_entry_weight_a_weight():
    db = prepare_general(4, 0, {1: "1"}, m_data=1)

    def with_entry_3(*amps):  # entry 3's amplitudes at data words 0 and 1
        state = db.state.amplitudes.copy()
        for word, amp in enumerate(amps):
            state[db.layout.physical_index(3, word)] = amp
        return dataclasses.replace(db, state=StateVector(state))

    def dumped(ghost):
        return {r["index"] for r in dump_records(ghost)}

    spot = db.layout.physical_index(3, 0)
    # a dump keeps a basis state by its magnitude |amp|
    assert spot in dumped(with_entry_3(2 * DUMP_THRESHOLD))
    assert spot not in dumped(with_entry_3(DUMP_THRESHOLD / 2))
    # an entry is occupied by its weight, |amp|^2 summed over its pattern
    faint = with_entry_3(1e-7)  # dumped, yet its weight is 1e-14
    assert spot in dumped(faint)
    assert 3 not in faint.occupied_labels()
    for op in (lambda d: write(d, 3, 1), lambda d: read_copy(d, 3),
               lambda d: remove_reservoir(d, 3), lambda d: remove_projective(d, 3)):
        with pytest.raises(SemanticError, match="^entry 3 carries no amplitude$"):
            op(faint)
    assert 3 not in with_entry_3(math.sqrt(EMPTY_ENTRY_WEIGHT / 2)).occupied_labels()
    assert 3 in with_entry_3(math.sqrt(2 * EMPTY_ENTRY_WEIGHT)).occupied_labels()
    # two states of weight 0.6 W each: the entry's weight, 1.2 W, counts
    split = with_entry_3(*[math.sqrt(0.6 * EMPTY_ENTRY_WEIGHT)] * 2)
    assert 3 in split.occupied_labels()
    assert read_copy(split, 3).copy_qubits


def test_stored_words_are_parsed_without_the_outside_check(monkeypatch):
    import qdbsim.qdb as qdb_mod

    desc = QdbDescriptor(k=4, l=0, data={1: "10", 2: 1}, m_data=2)

    def refused(bits):
        raise AssertionError(f"stored word {bits!r} checked again")

    monkeypatch.setattr(qdb_mod, "_bits_to_int", refused)
    assert [desc.data_value(j) for j in range(4)] == [0, 2, 1, 0]
    assert desc.with_data_value(3, 3).data_value(3) == 3
    assert QdbDescriptor(k=2, l=0).data_value(1) == 0
    monkeypatch.undo()
    with pytest.raises(SemanticError, match="must be binary"):
        QdbDescriptor(k=4, l=0, data={1: "12"}, m_data=2)
    with pytest.raises(SemanticError, match="must be binary"):
        write(prepare_general(4, 0, m_data=2), 1, "1x")


def test_write_keep_sensor_leaves_product_register():
    db = prepare_general(4, 0, m_data=1)
    kept = write(db, 2, 1, keep_sensor=True)
    assert kept.sensor_qubits
    rep = schmidt(kept.state, kept.sensor_qubits)
    assert rep.purity == pytest.approx(1.0, abs=1e-10)


def test_write_preserves_moduli_and_phases():
    db = prepare_general(5, 2, {1: "1"}, m_data=2)
    before = {j: abs(db.amplitude(j)) for j in range(5)}
    db2 = write(db, 3, "10")
    after = {j: abs(db2.amplitude(j)) for j in range(5)}
    assert before == pytest.approx(after, abs=1e-12)


def test_write_with_data_encoding_round_trip():
    enc = Circuit(2)
    enc.append(h(0))
    enc.append(h(1))
    db = prepare_general(4, 0, {1: "10"}, u_d=enc)
    db = write(db, 2, "11")
    db.check()
    assert db.descriptor.data_value(2) == 0b11


@settings(deadline=None, max_examples=100)
@given(
    k=st.integers(2, 8),
    l=st.integers(0, 3),
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_random_descriptors_stay_consistent(k, l, m, seed):
    rng = np.random.default_rng(seed)
    data = {j: int(rng.integers(2**m)) for j in range(1, k)
            if rng.random() < 0.5}
    db = prepare_general(k, l, data, m_data=m)
    label = int(rng.integers(1, k))
    word = int(rng.integers(1, 2**m))
    expected = db.descriptor.data_value(label) ^ word
    db2 = write(db, label, word)
    assert db2.descriptor.data_value(label) == expected
    db2.check()


@pytest.mark.parametrize("keep_sensor", [False, True])
def test_write_budget_counts_the_sensor(keep_sensor):
    # 2 index + 2 data qubits, and the 2-qubit sensor the build circuit holds
    db = prepare_general(4, 0, {1: "01"}, m_data=2, max_qubits=6)
    assert write(db, 1, "11", keep_sensor=keep_sensor).descriptor.data_value(1) == 0b10
    tight = prepare_general(4, 0, {1: "01"}, m_data=2, max_qubits=5)
    with pytest.raises(CapacityError, match="^6 qubits exceeds the budget of 5$"):
        write(tight, 1, "11", keep_sensor=keep_sensor)


def _random_encoding(rng, m: int) -> Circuit:
    """A data encoding that mixes every bit: rotations, a CNOT chain, a phase."""
    circ = Circuit(m, [ry(q, float(rng.uniform(-3, 3))) for q in range(m)])
    circ.extend_gates(x(q + 1, ctrl=(q,)) for q in range(m - 1))
    return circ.append(phase(0, float(rng.uniform(-3, 3))))


@settings(deadline=None, max_examples=40)
@given(k=st.integers(2, 64), m=st.integers(1, 4), shape=st.sampled_from(["plain", "u_d", "profile"]),
       seed=st.integers(0, 2**32 - 1))
def test_folded_write_matches_sensor_register_write(k, m, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "profile":
        # no encoding: extend cannot grow an encoded database yet
        k = min(k, 8)
    data = {j: int(rng.integers(2**m)) for j in range(1, k) if rng.random() < 0.5}
    db = prepare_general(k, 0, data, m_data=m,
                         u_d=_random_encoding(rng, m) if shape == "u_d" else None)
    if shape == "profile":
        db = extend_imbalanced(db, 3 * int(rng.integers(2, k + 1)), 2)
        assert db.amplitude_profile is not None
    label = int(rng.choice(db.layout.labels[1:]))
    word = int(rng.integers(2**m))
    folded = write(db, label, word)
    # the write through a sensor register, simulated gate by gate
    circuit = _write_gates(db, label, word)
    state = _by_gates(db.state, circuit, db.n_qubits)
    assert states_equal(folded.state, state, tol=STATE_TOL, up_to_global_phase=False)
    assert folded.emit() == emit_text(_grow(db.circuit, circuit))
    assert folded.descriptor.data_value(label) == db.descriptor.data_value(label) ^ word
    folded.check()


def _table_case(rng, k: int, m: int, shape: str, coded: bool):
    """A database with random words: fresh, with an imbalanced profile
    (k <= 8, plain: ``extend_imbalanced``), or grown by ``extend`` (a new
    index qubit above the data register) and written, then with an entry
    removed, then permuted; under a ``_random_encoding`` if ``coded``."""
    k = min(k, 8) if shape == "profile" else k
    data = {j: int(rng.integers(2**m)) for j in range(1, k) if rng.random() < 0.7}
    if shape == "profile":
        db = extend_imbalanced(prepare_general(k, 0, data, m_data=m),
                               3 * int(rng.integers(2, k + 1)), 2)
        assert db.amplitude_profile is not None
        return db
    db = prepare_general(k, 0, data, m_data=m, u_d=_random_encoding(rng, m) if coded else None)
    if shape != "fresh":
        db = extend(db, int(rng.integers(1, k + 2)))
        db = write(db, int(rng.choice(db.layout.labels[1:])), int(rng.integers(2**m)))
    if shape in ("removed", "permuted"):
        db = remove_reservoir(db, int(rng.choice(db.layout.labels[1:])))
    if shape == "permuted":
        movable = list(db.layout.labels[1:])
        db = permute(db, dict(zip(movable, map(int, rng.permutation(movable)))))
    return db


@pytest.mark.parametrize("name", list(DB_OPS))
@settings(deadline=None, max_examples=60)
@given(k=st.integers(2, 64), m=st.integers(1, 4), coded=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_database_op_matches_its_circuit(name, k, m, coded, seed, data):
    """Each op of ``verify.DB_OPS`` against the paper's circuit for it,
    simulated gate by gate (``verify._check_op``): the same state, byte for
    byte without an encoding (transfer's within STATE_TOL), the same text,
    and a bare result that passes ``check()``. A transfer starts from a
    fresh or grown database (l = 0, no profile)."""
    shapes = ["fresh", "extended"] + ["profile", "removed", "permuted"] * (name != "transfer")
    shape = data.draw(st.sampled_from(shapes), label="shape")
    db = _table_case(np.random.default_rng(seed), k, m, shape, coded)
    labels, moves = db.layout.labels, None
    if name == "permute":  # the reservoir stays put
        chosen = data.draw(st.lists(st.sampled_from(labels[1:]), unique=True), label="labels")
        perm = dict(zip(chosen, data.draw(st.permutations(chosen), label="targets")))
        moves = {j: t for j, t in perm.items() if j != t}
        if labels == tuple(range(len(labels))) and data.draw(st.booleans(), label="as list"):
            perm = [perm.get(j, j) for j in labels]
        args = (perm,)
    elif name == "transfer":
        args = (data.draw(st.integers(1, 2 * db.k), label="l"),)
    elif name == "read_copy_all":
        args = ()
    else:
        label = data.draw(st.sampled_from(labels[1:]), label="label")
        args = (label,)
        if name == "write":
            args += (data.draw(st.integers(0, 2**m - 1), label="word"),)
    before = db.state.amplitudes.tobytes()
    out, want = _check_op(name, db, *args)
    assert db.state.amplitudes.tobytes() == before
    if moves == {}:
        assert out is db
    if db.descriptor.u_d is not None and name in ("read_copy", "read_copy_all", "permute"):
        # the encoding's arithmetic on the all-zero copy blocks may sign
        # their zeros differently; every other amplitude keeps its bits
        got = out.state.amplitudes
        nonzero = (got != 0) | (want.amplitudes != 0)
        assert got[nonzero].tobytes() == want.amplitudes[nonzero].tobytes()
    if name == "write":
        assert out.descriptor.data_value(label) == db.descriptor.data_value(label) ^ args[1]


@st.composite
def _databases(draw):
    """Fresh, extended (the new index qubit above the data register),
    permuted and reservoir-removed databases with 0 to 4 data qubits, and
    hand-built ones on a random state whose data register need not be one
    ascending run and whose qubits need not all lie in a register."""
    shape = draw(st.sampled_from(["fresh", "extended", "permuted", "removed", "hand"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "hand":
        n = draw(st.integers(2, 8))
        qubits = draw(st.permutations(range(n)))
        t = draw(st.integers(1, min(n, 3)))
        m = draw(st.integers(0, n - t))
        k = draw(st.integers(2, 1 << t))
        patterns = rng.permutation(1 << t)[:k].tolist()
        layout = QdbLayout(tuple(qubits[:t]), tuple(qubits[t:t + m]), dict(enumerate(patterns)))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        return QdbState(QdbDescriptor(k, 0, m_data=m), layout,
                        StateVector(amps / np.linalg.norm(amps)), Circuit(n))
    k, m = draw(st.integers(3, 10)), draw(st.integers(0, 4))
    db = prepare_general(k, 0, {j: int(rng.integers(1 << m)) for j in range(1, k)}, m_data=m)
    if shape == "extended":
        db = extend(db, draw(st.integers(1, k)))
    elif shape == "permuted":
        labels = list(db.layout.labels[1:])
        db = permute(db, dict(zip(labels, draw(st.permutations(labels)))))
    elif shape == "removed":
        db = remove_reservoir(db, draw(st.sampled_from(db.layout.labels[1:])))
    return db


def _slot_of(state, layout, pattern, mask=0):
    """``qubit_slot`` of a database's entry: its index register reading
    ``pattern``."""
    return qubit_slot(state.amplitudes, layout.index_qubits, pattern, mask)


@settings(deadline=None, max_examples=150)
@given(db=_databases(), data=st.data())
def test_entry_ops_move_what_slots_on_the_qubit_view_move(db, data):
    qdb = importlib.import_module("qdbsim.qdb")
    sv = importlib.import_module("qdbsim.statevector")
    layout, state = db.layout, db.state
    lmap = layout.logical_index_map
    for label, pattern in lmap.items():
        branch = qdb._entry(state, layout, pattern)
        assert branch.tobytes() == _slot_of(state, layout, pattern).tobytes()
        assert np.shares_memory(branch, state.amplitudes)  # a view, also with every axis fixed
    label = data.draw(st.sampled_from(layout.labels[1:]))
    pattern, m = lmap[label], len(layout.data_qubits)
    if m:  # a write: the branch moved by the word's mask into one copy
        word, old = data.draw(st.integers(1, (1 << m) - 1)), db.descriptor.data_value(label)
        mask = sum(((word >> b) & 1) << q for b, q in enumerate(layout.data_qubits))
        want = state.copy()
        _slot_of(want, layout, pattern, mask)[...] = _slot_of(state, layout, pattern)
        got = qdb._write_folded(db, label, word, old)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    # a permute: one slot trade per transposition of its plan
    labels = list(layout.labels[1:])
    perm = dict(zip(labels, data.draw(st.permutations(labels))))
    new, moves = permute_meta(db.meta, perm)
    want = state.copy()
    for a, b in qdb._transpositions({lmap[j]: lmap[t] for j, t in moves.items()}):
        first, second = _slot_of(want, layout, a), _slot_of(want, layout, b)
        held = first.copy()
        first[...] = second
        second[...] = held
    assert qdb._permute(db, new, moves).state.amplitudes.tobytes() == want.amplitudes.tobytes()
    # a projective removal: the branch kept alone, or zeroed
    out = qdb._remove_projective(db, remove_projective_meta(db.meta, label)[1], label)
    failure = StateVector(np.zeros_like(state.amplitudes), copy=False)
    _slot_of(failure, layout, pattern)[...] = _slot_of(state, layout, pattern)
    survivor = state.copy()
    _slot_of(survivor, layout, pattern)[...] = 0
    assert (out.failure_state.amplitudes.tobytes()
            == sv._renormalized(failure.amplitudes)[0].amplitudes.tobytes())
    assert (out.success_state.state.amplitudes.tobytes()
            == sv._renormalized(survivor.amplitudes)[0].amplitudes.tobytes())


def test_hand_built_layouts_split_into_register_runs():
    sv = importlib.import_module("qdbsim.statevector")
    # index bits 0 and 1 on qubits 0 and 2; data bit 0 on qubit 5, bits 1, 2
    # on qubits 3, 4; qubit 1 in neither register
    axes = sv._axes((0, 2), 6)
    assert axes.shape == (8, 2, 2, 2)  # qubits 5-3, 2, 1, 0
    assert [axis for axis, _, _ in axes.wire] == [1, 3]
    assert axes.free == (1, 3, 4, 5)
    ranks = sv._ranks((0, 2), (5, 3, 4))
    assert ranks == (3, 1, 2)
    assert sv._spread(0b110, ranks) == 0b0110  # bits 1, 2 on qubits 3, 4
    assert sv._axes((0, 2), 6) is axes and sv._ranks((0, 2), (5, 3, 4)) is ranks  # memoized


# The fold moves its entry's flattened branch by one XOR index, the word's
# mask spread onto the data bits' flat positions (``_spread``), and checks
# the entry's new word against its old one at their flat positions, so these
# tests corrupt the mask, on words whose three positions differ.


def test_folded_write_checks_that_the_entry_moved(monkeypatch):
    db = prepare_general(4, 0, {1: "01"}, m_data=2)
    qdb = importlib.import_module("qdbsim.qdb")
    spread = qdb._spread

    def lost(value, qubits):
        # the move is lost: the mask of the change 0b11 reads 0
        return 0 if value == 0b11 else spread(value, qubits)

    monkeypatch.setattr(qdb, "_spread", lost)
    with pytest.raises(VerificationError, match="amplitude behind"):
        write(db, 1, "11")


def test_folded_write_checks_the_bits_its_entry_moved_by(monkeypatch):
    db = prepare_general(4, 0, {1: "01"}, m_data=2)
    qdb = importlib.import_module("qdbsim.qdb")
    spread = qdb._spread

    def misdirected(value, qubits):
        # the move lands, but flips data bit 0 where the change 0b10 sets bit 1
        return spread(0b01 if value == 0b10 else value, qubits)

    monkeypatch.setattr(qdb, "_spread", misdirected)
    with pytest.raises(VerificationError, match="amplitude behind"):
        write(db, 1, "10")


def test_write_swap_conditional_keeps_sensor_and_moves_word():
    db = prepare_general(4, 0, {2: "11"}, m_data=2)
    swapped = write_swap_conditional(db, 1, "10")
    assert swapped.sensor_qubits
    assert swapped.descriptor.data_value(1) == 0b10
    # the old word |00> sits in the sensor on entry 1's branch while the
    # other branches keep |10>: the registers are necessarily entangled
    rep = schmidt(swapped.state, swapped.sensor_qubits)
    assert rep.purity == pytest.approx(0.625, abs=1e-10)


def test_write_swap_conditional_matching_word_is_clean():
    db = prepare_general(4, 0, {2: "11"}, m_data=2)
    swapped = write_swap_conditional(db, 2, "11")  # swap of equal words
    rep = schmidt(swapped.state, swapped.sensor_qubits)
    assert rep.purity == pytest.approx(1.0, abs=1e-10)
    assert swapped.descriptor.data_value(2) == 0b11


def test_write_swap_conditional_mismatch_entangles():
    db = prepare_general(4, 0, {2: "11"}, m_data=2)
    swapped = write_swap_conditional(db, 2, "01")  # 11 stays behind in sensor
    rep = schmidt(swapped.state, swapped.sensor_qubits)
    assert rep.purity < 1 - 1e-6
    assert rep.schmidt_rank >= 2


def test_history_growth_checks_only_new_gates(monkeypatch):
    # the build history is never checked again: write 40 costs what write 1
    # does. A write builds its gates from the checked layout unchecked, and
    # its toggles, one or two, move at once without going through
    # apply_gate, so nothing is checked.
    calls = []
    check = importlib.import_module("qdbsim.statevector")._check_gate

    def counting(gate, n):
        calls.append(gate)
        return check(gate, n)

    for mod in ("qdbsim.statevector", "qdbsim.circuit"):
        monkeypatch.setattr(importlib.import_module(mod), "_check_gate", counting)
    db = prepare_general(4, 0, {1: "10", 2: "01"}, m_data=2)
    per_write = []
    for i in range(40):
        start = len(calls)
        db = write(db, 1, "01" if i % 2 else "11")
        per_write.append(len(calls) - start)
    assert len(db.circuit) > 200
    assert per_write == [0] * 40  # "11" toggles both data bits, "01" one


def test_ops_leave_their_input_history_alone():
    db = prepare_general(4, 0, {1: "10", 2: "01"}, m_data=2)
    steps = [
        lambda d: write(d, 1, "11"),
        lambda d: write(d, 2, "10", keep_sensor=True),
        lambda d: read_copy(d, 1),
        lambda d: permute(d, [0, 2, 1, 3]),
        lambda d: extend(d, 2),
        lambda d: remove_reservoir(d, 3),
    ]
    for step in steps:
        gates, text = len(db.circuit), db.emit()
        out = step(db)
        assert out.circuit.gates is not db.circuit.gates
        assert len(db.circuit) == gates and db.emit() == text
        out.circuit.append(h(0))
        assert len(db.circuit) == gates
        out.circuit.gates.pop()
        if not (out.sensor_qubits or out.copy_qubits):
            db = out
    assert (db.k, db.l) == (5, 1)
    db.check()


# --- read --------------------------------------------------------------------


def test_read_copy_entanglement_tracks_data_differences():
    uniform = prepare_general(4, 0, {1: "1", 2: "1", 3: "1"})
    copied = read_copy_all(uniform)
    # identical copied words except the reservoir's: entangled
    assert schmidt(copied.state, copied.copy_qubits).entangled
    same = prepare_general(2, 0, {1: 0}, m_data=1)
    copied = read_copy_all(same)
    assert not schmidt(copied.state, copied.copy_qubits).entangled


def test_read_copy_single_entry():
    db = prepare_general(4, 0, {2: "1"})
    copied = read_copy(db, 2)
    assert copied.copy_qubits
    # the copy register holds |1> exactly on entry 2's branch
    idx = copied.layout.physical_index(2, 1) | (1 << (copied.n_qubits - 1))
    assert abs(copied.state.amplitudes[idx]) == pytest.approx(0.5, abs=1e-12)
    assert state_matches_oracle(copied) < 1e-12


def test_read_copy_with_encoding_copies_computational_word():
    enc = Circuit(1)
    enc.append(h(0))
    db = prepare_general(3, 0, {1: "1"}, u_d=enc)
    copied = read_copy(db, 1)
    # data register is encoded, copy register is computational |1>
    rep = schmidt(copied.state, copied.copy_qubits)
    assert rep.entangled  # copy differs per entry


def test_copy_read_checks_run_in_order():
    # 2 index + 2 data qubits; the copy register needs 2 more
    db = prepare_general(4, 0, {1: "01", 2: "11"}, m_data=2, max_qubits=6)
    assert read_copy(db, 2).n_qubits == read_copy_all(db).n_qubits == 6
    tight = dataclasses.replace(db, max_qubits=5)
    for op in (lambda d: read_copy(d, 2), read_copy_all):
        with pytest.raises(CapacityError, match="^6 qubits exceeds the budget of 5$"):
            op(tight)
    # the budget is refused before an empty entry, a non-bare database first of all
    hit = pattern_mask(tight.state, tight.layout.index_qubits, tight.layout.pattern(3))
    hollow = dataclasses.replace(tight, state=project(tight.state, ~hit)[0])
    with pytest.raises(CapacityError, match="^6 qubits exceeds the budget of 5$"):
        read_copy(hollow, 3)
    with pytest.raises(SemanticError, match="^entry 3 carries no amplitude$"):
        read_copy(dataclasses.replace(hollow, max_qubits=6), 3)
    copied = dataclasses.replace(read_copy(db, 1), state=hollow.state, max_qubits=5)
    for op in (lambda d: read_copy(d, 3), read_copy_all):
        with pytest.raises(SemanticError, match="requires sensor/copy registers to be detached"):
            op(copied)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_read_copy_writes_only_the_copied_amplitudes():
    # 17 -> 22 qubits: the widened array is 64 MiB, the source block 2 MiB and
    # the copied entry a handful of pages; simulating the CNOTs wrote all 64
    code = (
        "import resource\n"
        "from qdbsim.qdb import prepare_general, read_copy\n"
        "db = prepare_general(2**12, 0, {j: j % 32 for j in range(1, 2**12)}, m_data=5)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "copied = read_copy(db, 7)\n"
        "assert copied.n_qubits == 22\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert int(proc.stdout) < 24 * 1024  # KiB


def test_a_one_entry_copy_read_scans_only_its_branch():
    # 15 -> 16 qubits: the widened array is twice the state; a scan of every
    # amplitude for nonzeros held their indices beside it, 2.53 times the state
    db = prepare_general(2**14, 0, {j: 1 for j in range(1, 2**14)}, m_data=1)
    read_copy(db, 7)  # memoized layouts and splits are built outside the count
    tracemalloc.start()
    try:
        copied = read_copy(db, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert copied.n_qubits == 16
    assert peak <= 2.05 * db.state.amplitudes.nbytes


def test_read_projective_probability_and_state():
    db = prepare_general(5, 2, {3: "10"})
    word, prob = read_projective(db, 3)
    assert prob == pytest.approx(1 / 7, abs=1e-12)
    assert word.n_qubits == db.descriptor.m_data
    assert abs(word.amplitudes[0b10]) == pytest.approx(1.0, abs=1e-12)


def _read_projective_by_reset(db, label):
    """The reference read-out: project onto the entry, reset the index
    register to |0> with x gates, then drop it (``drop_qubits``)."""
    layout = db.layout
    pat = layout.pattern(label)
    collapsed, prob = project(db.state, pattern_mask(db.state, layout.index_qubits, pat))
    reset = Circuit(db.n_qubits, [x(q) for i, q in enumerate(layout.index_qubits)
                                  if (pat >> i) & 1])
    return drop_qubits(simulate(reset, collapsed), layout.index_qubits), prob


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_read_projective_matches_the_reset_read_out_bit_for_bit(data):
    u_d = data.draw(st.sampled_from([None, RY_ENCODING, RY_CNOT_ENCODING]), label="u_d")
    k = data.draw(st.integers(2, 8), label="k")
    m = u_d.n_qubits if u_d is not None else data.draw(st.integers(1, 3), label="m")
    words = data.draw(st.dictionaries(st.integers(1, k - 1), st.integers(0, 2 ** m - 1)),
                      label="words")
    db = prepare_general(k, 0, words, m_data=m, u_d=u_d)
    how = data.draw(st.sampled_from(["fresh", "extended", "permuted", "removed"]), label="how")
    if how == "extended":  # the new index qubit sits above the data register
        db = extend(db, data.draw(st.integers(1, k), label="l"))
    elif how == "permuted":
        db = permute(db, [0] + data.draw(st.permutations(range(1, k)), label="perm"))
    elif how == "removed":
        db = remove_reservoir(db, data.draw(st.integers(1, k - 1), label="removed"))
    label = data.draw(st.sampled_from(db.layout.labels), label="label")
    got, prob = read_projective(db, label)
    want, want_prob = _read_projective_by_reset(db, label)
    assert got.n_qubits == m
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    assert prob == want_prob


def test_read_projective_rejects_reservoir_and_unknown():
    db = prepare_general(3, 0)
    with pytest.raises(SemanticError):
        read_projective(db, 0)
    with pytest.raises(SemanticError):
        read_projective(db, 7)


# --- remove ------------------------------------------------------------------


def test_remove_reservoir_moves_weight_and_keeps_others():
    db = prepare_general(5, 1, {1: "1", 2: "10", 4: "11"})
    before = {j: abs(db.amplitude(j)) for j in (1, 3, 4)}
    smaller = remove_reservoir(db, 2)
    assert (smaller.k, smaller.l) == (4, 2)
    assert abs(smaller.reservoir_amplitude()) == pytest.approx(
        math.sqrt(3 / 6), abs=1e-10)
    for j in (1, 3, 4):
        assert abs(smaller.amplitude(j)) == pytest.approx(before[j], abs=1e-10)
    emptied = db.layout.physical_index(2, 0)  # pattern left the layout
    assert abs(smaller.state.amplitudes[emptied]) < 1e-10
    smaller.check()
    assert state_matches_oracle(smaller) < 1e-12


def _assert_occupied_labels_match_brute_force(db):
    mass = assert_register_scan_matches_brute_force(db.state, db.layout.index_qubits)
    want = tuple(sorted(j for j, p in db.layout.logical_index_map.items()
                        if mass[p] > DUMP_THRESHOLD))
    assert db.occupied_labels() == want


@settings(deadline=None, max_examples=20)
@given(k=st.integers(2, 64), data=st.data())
def test_occupied_labels_matches_brute_force_after_reshaping(k, data):
    # extra entries land on patterns 2**kt + i, above a gap of unused ones,
    # and the new index bit sits above the data bit
    z = data.draw(st.integers(1, min(8, 2 ** index_width(k))))
    words = {j: 1 for j in data.draw(st.sets(st.integers(1, k - 1), max_size=4))}
    db = extend(prepare_general(k, z, words, m_data=1), z)
    _assert_occupied_labels_match_brute_force(db)
    movable = [j for j in db.layout.labels if j != 0]
    perm = dict(zip(movable, data.draw(st.permutations(movable))))
    db = permute(db, perm)
    _assert_occupied_labels_match_brute_force(db)
    gone = data.draw(st.sampled_from(movable))
    db = remove_reservoir(db, gone)
    assert gone not in db.occupied_labels()
    _assert_occupied_labels_match_brute_force(db)


def test_remove_reservoir_forgets_the_label():
    db = prepare_general(4, 0, {1: "1", 2: "1", 3: "1"})
    smaller = remove_reservoir(db, 2)
    assert 2 not in smaller.layout.labels
    assert 2 not in smaller.occupied_labels()
    with pytest.raises(SemanticError):
        write(smaller, 2, 1)  # gone for good; growth goes through extend


def test_remove_reservoir_needs_no_data_register():
    smaller = remove_reservoir(prepare_general(4), 1)
    assert (smaller.k, smaller.l, smaller.layout.labels) == (3, 1, (0, 2, 3))
    smaller.check()


@pytest.mark.parametrize("label", [1, 2, 3])
@pytest.mark.parametrize("u_d,data", [(H_ENCODING, {1: "1"}),
                                      (RY_CNOT_ENCODING, {1: "101", 2: "011"})],
                         ids=["h", "ry-cnot"])
def test_remove_reservoir_under_data_encoding(u_d, data, label):
    # both merged branches hold u_d|0>: the merge runs in the decoded basis
    db = prepare_general(4, 0, data, m_data=u_d.n_qubits, u_d=u_d)
    smaller = remove_reservoir(db, label)
    assert (smaller.k, smaller.l) == (3, 1)
    smaller.check()
    assert smaller.descriptor.data == {j: w for j, w in data.items() if j != label}
    assert state_matches_oracle(smaller) < 1e-12


@pytest.mark.parametrize("u_d", [None, RY_ENCODING, RY_CNOT_ENCODING],
                         ids=["plain", "ry", "ry-cnot"])
def test_remove_reservoir_simulates_its_merge_once(monkeypatch, u_d):
    # the decoded copy the two amplitudes are read from is the one the merge
    # and the encoding then run on: the bytes of the recorded merge simulated
    m = 3 if u_d is None else u_d.n_qubits
    db = prepare_general(8, 0, {1: 1, 3: 1}, m_data=m, u_d=u_d)
    qdb = importlib.import_module("qdbsim.qdb")
    calls = []
    monkeypatch.setattr(qdb, "simulate", lambda *args, **kw: calls.append(args) or simulate(*args, **kw))
    smaller = remove_reservoir(db, 2)
    merge = Circuit(db.n_qubits, smaller.circuit.gates[len(db.circuit.gates):])
    assert smaller.state.amplitudes.tobytes() == simulate(merge, db.state).amplitudes.tobytes()
    assert len(calls) == (0 if u_d is None else 1)
    smaller.check()


def test_remove_reservoir_guards():
    db = prepare_general(3, 0, {1: "1"})
    with pytest.raises(SemanticError):
        remove_reservoir(db, 0)
    with pytest.raises(SemanticError):
        remove_reservoir(db, 5)


def test_remove_reservoir_refuses_the_reservoir_itself():
    # the reservoir is refused for what the op would do to it
    db = prepare_general(4, 0, {1: "1"}, m_data=1)
    with pytest.raises(SemanticError,
                       match="^entry 0 is the reservoir and cannot be removed$") as exc:
        remove_reservoir(db, 0)
    assert exc.value.exit_code == 3


def test_remove_projective_branches():
    db = prepare_general(4, 0, {1: "1", 2: "1"})
    out = remove_projective(db, 2)
    assert out.success_probability == pytest.approx(3 / 4, abs=1e-12)
    survivor = out.success_state
    assert (survivor.k, survivor.l) == (3, 0)
    for j in (0, 1):
        assert abs(survivor.amplitude(j)) == pytest.approx(1 / math.sqrt(3), abs=1e-9)
    assert survivor.projective
    with pytest.raises(SemanticError):
        survivor.emit()
    # failure branch: the removed entry's pattern and word, exactly
    fail = out.failure_state
    idx = db.layout.physical_index(2, 1)
    assert abs(fail.amplitudes[idx]) == pytest.approx(1.0, abs=1e-12)


def test_remove_projective_last_entry_cannot_succeed():
    db2 = prepare_general(2, 0, {1: "1"})
    out = remove_projective(db2, 1)
    assert out.success_probability == pytest.approx(0.5)
    # a one-entry database has nothing to project onto: certain failure
    db = prepare_general(1, 0)
    out = remove_projective(db, 0)
    assert out.success_probability == 0.0
    assert out.success_state is None
    assert abs(out.failure_state.amplitudes[0]) == pytest.approx(1.0)


def test_remove_projective_guards():
    db = prepare_general(4, 1, {1: "1"})
    with pytest.raises(SemanticError):
        remove_projective(db, 0)  # reservoir holds weight
    with pytest.raises(SemanticError):
        remove_projective(db, 9)


# --- permute -----------------------------------------------------------------


def test_transposition_circuit_matches_oracle():
    n = 2
    circ = transposition_circuit(2, 3, range(n), n)
    got = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        got[:, col] = simulate(circ, StateVector.basis(n, col)).amplitudes
    want = permutation_matrix({0: 0, 1: 1, 2: 3, 3: 2}, n)
    assert np.max(np.abs(got - want)) < 1e-12


def test_pattern_permutation_circuit_matches_oracle(rng):
    for _ in range(20):
        size = int(rng.integers(2, 9))
        t = index_width(size)
        perm = list(rng.permutation(size))
        mapping = {j: int(perm[j]) for j in range(size)}
        circ = pattern_permutation_circuit(mapping, range(t), t)
        dim = 2**t
        got = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            got[:, col] = simulate(circ, StateVector.basis(t, col)).amplitudes
        full = {j: mapping.get(j, j) for j in range(dim)}
        missing = sorted(set(range(dim)) - set(full.values()))
        taken = set(mapping.values())
        fixers = iter(missing)
        for j in range(dim):
            if j not in mapping and j in taken:
                full[j] = next(fixers)
        want = permutation_matrix([full[j] for j in range(dim)], t)
        assert np.max(np.abs(np.abs(got) - np.abs(want))) < 1e-12


def _routed_by_full_completion(mapping, index_qubits, n_qubits):
    """Reference routing: ``mapping`` completed over all 2^t patterns (the
    unmapped ones take the unused ones in sorted order), split into cycles
    from the smallest start, each cycle into transpositions from its end."""
    t = len(index_qubits)
    free = iter(sorted(set(range(2 ** t)) - set(mapping.values())))
    full = {p: mapping[p] if p in mapping else next(free) for p in range(2 ** t)}
    circ, seen = Circuit(n_qubits), set()
    for start in range(2 ** t):
        cyc, cur = [], start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = full[cur]
        for i in range(len(cyc) - 2, -1, -1):
            circ += transposition_circuit(cyc[i], cyc[i + 1], index_qubits, n_qubits)
    return circ


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_pattern_permutation_circuit_matches_the_full_completion(data):
    t = data.draw(st.integers(1, 6), label="t")
    pats = st.integers(0, 2 ** t - 1)
    sources = data.draw(st.lists(pats, unique=True, max_size=2 ** t), label="sources")
    if data.draw(st.booleans(), label="closed"):  # permutes its own pattern set
        targets = data.draw(st.permutations(sources), label="targets")
    else:
        targets = data.draw(st.lists(pats, unique=True, min_size=len(sources),
                                     max_size=len(sources)), label="targets")
    mapping = dict(zip(sources, targets))
    n = t + data.draw(st.integers(0, 2), label="spare qubits")
    got = pattern_permutation_circuit(mapping, range(t), n)
    assert got.gates == _routed_by_full_completion(mapping, range(t), n).gates


@pytest.mark.parametrize("mapping", [
    {64_000: 65_000, 65_000: 64_000},
    {60_001: 65_535, 65_535: 61_002, 61_002: 60_001},
], ids=["swap", "3-cycle"])
def test_pattern_permutation_of_high_patterns_routes_the_full_completion_gates(mapping):
    # closed on patterns near 2^16: every source is a target, so the
    # completion spans no pattern and ``mapping`` alone is routed
    got = pattern_permutation_circuit(mapping, range(16), 17)
    assert got.gates == _routed_by_full_completion(mapping, range(16), 17).gates


def test_pattern_swap_at_18_bits_routes_the_full_completion_gates():
    mapping = {5: 70_000, 70_000: 5}
    got = pattern_permutation_circuit(mapping, range(18), 20)
    assert len(got) == 2 * bin(5 ^ 70_000).count("1") - 1
    assert got.gates == _routed_by_full_completion(mapping, range(18), 20).gates


@pytest.mark.parametrize("mapping,pattern", [({-1: 0}, -1), ({0: 5}, 5), ({4: 0, 0: 4}, 4)])
def test_pattern_permutation_circuit_rejects_patterns_outside_the_register(mapping, pattern):
    with pytest.raises(SemanticError, match=f"^pattern {pattern} outside the index register$"):
        pattern_permutation_circuit(mapping, [0, 1], 3)


def test_permute_moves_content_not_patterns():
    db = prepare_general(4, 0, {1: "01", 2: "10"}, m_data=2)
    moved = permute(db, [0, 2, 1, 3])
    assert moved.descriptor.data == {1: "10", 2: "01"}
    moved.check()
    assert state_matches_oracle(moved) < 1e-12
    # patterns did not change, content did
    assert abs(moved.amplitude(2, 0b01)) == pytest.approx(0.5, abs=1e-12)


def test_permute_accepts_mapping_dict():
    db = prepare_general(3, 0, {1: "1"})
    moved = permute(db, {0: 0, 1: 2, 2: 1})
    assert moved.descriptor.data_value(2) == 1


def test_permute_composition_law(rng):
    db = prepare_general(5, 0, {1: "001", 2: "010", 3: "011", 4: "100"})
    sigma = [0, 2, 3, 4, 1]
    tau = [0, 1, 4, 2, 3]
    composed = [tau[sigma[j]] for j in range(5)]
    twice = permute(permute(db, sigma), tau)
    once = permute(db, composed)
    assert states_equal(twice.state, once.state, tol=1e-12)
    assert twice.descriptor.data == once.descriptor.data


def _routed_by_full_map(db, mapping):
    """The gates routing every label's pattern, moved or not."""
    full = {db.layout.pattern(j): db.layout.pattern(t) for j, t in mapping.items()}
    return pattern_permutation_circuit(full, db.layout.index_qubits, db.n_qubits).gates


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_permute_routes_the_same_gates_as_the_full_pattern_map(data):
    k = data.draw(st.integers(3, 12), label="k")
    db = prepare_general(k, 0, {1: 1}, m_data=1)
    hole = data.draw(st.none() | st.integers(2, k - 1), label="hole")
    if hole is not None:  # a freed pattern, and a weighted reservoir that stays put
        db = remove_reservoir(db, hole)
    movable = [j for j in db.layout.labels if j]
    mapping = {0: 0, **dict(zip(movable, data.draw(st.permutations(movable), label="perm")))}
    moved = permute(db, mapping)
    assert moved.circuit.gates[len(db.circuit.gates):] == _routed_by_full_map(db, mapping)


@functools.lru_cache(maxsize=None)
def _write_layouts():
    """A fresh database, the same grown by ``extend`` (index register
    (0, 1, 2, 5): the new index qubit sits above the data register) and the
    grown one with a pattern freed by a reservoir removal (l = 1)."""
    fresh = prepare_general(8, 0, {1: "10", 3: "01", 6: "11"}, m_data=2)
    grown = extend(fresh, 3)
    assert grown.layout.index_qubits == (0, 1, 2, 5)
    return {"fresh": fresh, "extended": grown, "removed": remove_reservoir(grown, 3)}


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_write_moves_the_bits_its_toggles_would(data):
    name = data.draw(st.sampled_from(["fresh", "extended", "removed"]), label="layout")
    db = _write_layouts()[name]
    layout = db.layout
    label = data.draw(st.sampled_from(layout.labels[1:]), label="label")
    word = data.draw(st.integers(0, 2 ** len(layout.data_qubits) - 1), label="word")
    before = db.state.amplitudes.tobytes()
    written = write(db, label, word)
    assert db.state.amplitudes.tobytes() == before
    # one x per set bit of the word, controlled on the entry's pattern
    toggles = Circuit(db.n_qubits, [GateSpec("x", (), (q,), layout.pattern_controls(label))
                                    for b, q in enumerate(layout.data_qubits)
                                    if (word >> b) & 1])
    want = simulate(toggles, db.state)
    assert written.state.amplitudes.tobytes() == want.amplitudes.tobytes()


def test_transpose_entries_at_k_1024_routes_the_full_map_gates():
    db = prepare_general(1024, 0, {5: 1}, m_data=1)
    swapped = transpose_entries(db, 5, 9)
    mapping = {j: j for j in db.layout.labels}
    mapping[5], mapping[9] = 9, 5
    assert swapped.circuit.gates[len(db.circuit.gates):] == _routed_by_full_map(db, mapping)
    assert swapped.descriptor.data == {9: "1"}


def test_permute_guards():
    db = prepare_general(3, 1, {1: "1"})
    with pytest.raises(SemanticError):
        permute(db, [1, 0, 2])  # weighted reservoir cannot move
    with pytest.raises(SemanticError):
        permute(db, [0, 0, 1])  # not a bijection
    with pytest.raises(SemanticError):
        # the entry landing on label 0 must hold the empty word
        permute(prepare_general(3, 0, {1: "1"}), [1, 0, 2])
    bal = prepare_general(3, 0, {2: "1"})
    moved = permute(bal, [1, 0, 2])  # entry 1 is empty: reservoir swap is fine
    assert moved.descriptor.data_value(0) == 0
    assert moved.descriptor.data_value(2) == 1
    moved.check()


@pytest.mark.parametrize("perm,branches", [({1: 2, 2: 1}, 2), ({1: 2, 2: 3, 3: 1}, 4)],
                         ids=["2-cycle", "3-cycle"])
def test_permute_trades_two_slots_per_transposition(monkeypatch, perm, branches):
    # two entry selections per transposition of the recorded plan and one
    # per folded write; neither applies a gate or moves a table
    sv = importlib.import_module("qdbsim.statevector")
    db = prepare_general(4, 0, {1: "01", 2: "10", 3: "11"}, m_data=2)
    selected, gates, moved = [], [], []
    select = sv._Axes.select
    monkeypatch.setattr(sv._Axes, "select",
                        lambda self, *args: selected.append(args) or select(self, *args))
    for name, mod in list(sys.modules.items()):
        if name.startswith("qdbsim") and hasattr(mod, "apply_gate"):
            monkeypatch.setattr(mod, "apply_gate", lambda *args, **kw: gates.append(args))
        if name.startswith("qdbsim") and hasattr(mod, "move_amplitudes"):
            monkeypatch.setattr(mod, "move_amplitudes", lambda *args: moved.append(args))
    permuted = permute(db, perm)
    assert (len(selected), gates, moved) == (branches, [], [])
    permuted.check()
    assert {j: permuted.descriptor.data_value(t) for j, t in perm.items()} == {
        j: db.descriptor.data_value(j) for j in perm}
    written = write(permuted, 1, "11")
    assert (len(selected), gates, moved) == (branches + 1, [], [])
    written.check()


def test_transpose_entries_is_two_cycle():
    db = prepare_general(4, 0, {1: "01", 3: "11"}, m_data=2)
    swapped = transpose_entries(db, 1, 3)
    assert swapped.descriptor.data == {1: "11", 3: "01"}
    back = transpose_entries(swapped, 1, 3)
    assert states_equal(back.state, db.state, tol=1e-12)


@pytest.mark.parametrize("op", [
    lambda db: read_copy(db, 1),
    read_copy_all,
    lambda db: write(db, 2, "10", keep_sensor=True),
    lambda db: write_swap_conditional(db, 1, "01"),
    lambda db: write(db, 1, "01"),
    lambda db: extend(db, 3),
    lambda db: extend_imbalanced(db, 6, 2),
    lambda db: permute(db, {1: 3, 3: 1}),
    lambda db: remove_reservoir(db, 1),
    relabel_contiguous,
    lambda db: read_projective(db, 1),
], ids=["read_copy", "read_copy_all", "write-keep-sensor", "write-swap", "write", "extend",
        "extend_imbalanced", "permute", "remove_reservoir", "relabel_contiguous",
        "read_projective"])
@pytest.mark.parametrize("u_d", [None, H_ENCODING.extended(2)], ids=["plain", "encoded"])
def test_ops_leave_the_input_amplitudes_alone(op, u_d):
    # simulate runs each op's circuit on its own copy, widened or not; the
    # input's amplitudes are never written
    db = prepare_general(4, 0, {1: "11", 3: "01"}, m_data=2, u_d=u_d)
    before = db.state.amplitudes.tobytes()
    op(db)
    assert db.state.amplitudes.tobytes() == before


def test_unfold_leaves_the_input_amplitudes_alone():
    db = prepare_general(4, 3, {1: "11"}, m_data=2)
    before = db.state.amplitudes.tobytes()
    unfold(db)
    assert db.state.amplitudes.tobytes() == before


def test_dict_permutations_are_checked_on_the_labels_they_move():
    labels = set(range(6))
    assert _moves({2: 2, 4: 5, 5: 4}, labels) == {4: 5, 5: 4}
    with pytest.raises(SemanticError, match="unknown labels \\[7\\]"):
        _moves({7: 1, 1: 7}, labels)
    for bad in ({4: 5}, {4: 5, 5: 5}, {1: 9, 9: 1, 2: 2}):
        with pytest.raises(SemanticError):
            _moves(bad, labels)
    with pytest.raises(SemanticError, match="bijection"):
        _moves({4: 5, 5: 1}, labels)


def test_permutation_forms_name_the_same_moves():
    meta = prepare_general(3, 0, {2: "1"}).meta
    seq, seq_moves = permute_meta(meta, [0, 2, 1])
    mapped, map_moves = permute_meta(meta, {1: 2, 2: 1})
    assert seq_moves == map_moves == {1: 2, 2: 1}
    assert seq.descriptor.data == mapped.descriptor.data == {1: "1"}
    with pytest.raises(SemanticError):
        permute_meta(meta, [0, 1])


@pytest.mark.parametrize("call,what", [
    (lambda db: permute(db, {1.7: 2.2, 2.2: 1.7}), "permutation label"),
    (lambda db: permute(db, [0, 2.9, 1.2, 3]), "permutation label"),
    (lambda db: permute(db, {"1": "2", "2": "1"}), "permutation label"),
    (lambda db: write(db, 1, 2.7), "data word"),
    (lambda db: prepare_general(4, 0, {1: 2.7}, m_data=2), "data word"),
    (lambda db: prepare_general(4, 0, {1.5: "1"}, m_data=2), "data label"),
    # a bool is an int in Python, but True for entry 1 is a slip
    (lambda db: prepare_general(4, 0, {True: 1}), "data label"),
    (lambda db: prepare_general(4, 0, {1: True}), "data word"),
    (lambda db: write(db, 1, True), "data word"),
    (lambda db: permute(db, {True: 2, 2: True}), "permutation label"),
], ids=["permute-dict-floats", "permute-list-floats", "permute-dict-strings",
        "write-float-word", "prepare-float-word", "prepare-float-label",
        "prepare-bool-label", "prepare-bool-word", "write-bool-word", "permute-dict-bools"])
def test_non_integral_labels_and_words_are_refused_not_truncated(call, what):
    db = prepare_general(4, 0, {1: "01", 2: "10"}, m_data=2)
    with pytest.raises(SemanticError, match=f"^{what} must be an integer"):
        call(db)


def test_integral_floats_and_numpy_integers_still_name_labels_and_words():
    db = prepare_general(4, 0, {np.int64(1): 1.0, 2: "10"}, m_data=2)
    assert db.descriptor.data == {1: "01", 2: "10"}
    assert permute(db, {1.0: np.int64(2), 2: 1}).descriptor.data == {2: "01", 1: "10"}
    assert write(db, 2, np.int64(3)).descriptor.data_value(2) == 0b01


_ENTRY_OPS = {
    "write": lambda db, j: write(db, j, 1).state,
    "write-swap": lambda db, j: write_swap_conditional(db, j, 1).state,
    "read-copy": lambda db, j: read_copy(db, j).state,
    "read-projective": lambda db, j: read_projective(db, j)[0],
    "remove-reservoir": lambda db, j: remove_reservoir(db, j).state,
    "remove-projective": lambda db, j: remove_projective(db, j).failure_state,
    "permute": lambda db, j: permute(db, {j: 2, 2: j}).state,
}


@pytest.mark.parametrize("op", list(_ENTRY_OPS))
def test_every_entry_op_takes_an_integer_label_and_refuses_a_bool(op):
    # True == 1 in Python, so a lookup by it would act on entry 1
    db = prepare_general(4, 0, {1: 1, 2: 2}, m_data=2)
    with pytest.raises(SemanticError, match=r"label must be an integer, got True$"):
        _ENTRY_OPS[op](db, True)
    want = _ENTRY_OPS[op](db, 1).amplitudes.tobytes()
    for label in (1.0, np.int64(1)):
        assert _ENTRY_OPS[op](db, label).amplitudes.tobytes() == want


def test_relabel_contiguous_after_removal():
    db = prepare_general(4, 0, {1: "01", 2: "10", 3: "11"}, m_data=2)
    out = remove_projective(db, 1)
    packed = relabel_contiguous(out.success_state)
    assert packed.occupied_labels() == (0, 1, 2)
    assert packed.descriptor.data == {1: "10", 2: "11"}
    assert states_equal(packed.state, out.success_state.state, tol=1e-12)


# --- operations on imbalanced databases ---------------------------------------


def imbalanced_db():
    from qdbsim.extend import extend_imbalanced

    return extend_imbalanced(prepare_general(4, 0, {1: "1"}, m_data=1), 6, 2)


def test_write_and_read_keep_amplitude_profile():
    db = imbalanced_db()
    profile = dict(db.amplitude_profile)
    db = write(db, 5, "1")
    assert db.amplitude_profile == profile
    db.check(tol=1e-8)
    copied = read_copy(db, 5)
    assert copied.amplitude_profile == profile


def test_permute_remaps_amplitude_profile():
    db = imbalanced_db()
    gamma = db.amplitude_profile[5]
    beta = db.amplitude_profile[2]
    db = permute(db, {2: 5, 5: 2})
    assert db.amplitude_profile[2] == gamma
    assert db.amplitude_profile[5] == beta
    db.check(tol=1e-8)


def test_remove_reservoir_merges_amplitude_profile():
    db = imbalanced_db()
    alpha, gamma = db.amplitude_profile[0], db.amplitude_profile[7]
    out = remove_reservoir(db, 7)
    assert out.amplitude_profile[0] == pytest.approx(math.hypot(alpha, gamma))
    assert 7 not in out.amplitude_profile
    out.check(tol=1e-8)


def test_remove_projective_rescales_amplitude_profile():
    db = imbalanced_db()
    gamma = db.amplitude_profile[4]
    outcome = remove_projective(db, 4)
    survivor = outcome.success_state
    scale = 1 / math.sqrt(outcome.success_probability)
    assert survivor.amplitude_profile[5] == pytest.approx(db.amplitude_profile[5] * scale)
    assert 4 not in survivor.amplitude_profile
    assert outcome.success_probability == pytest.approx(1 - gamma**2)
    survivor.check(tol=1e-8)


@settings(deadline=None, max_examples=40)
@given(k=st.integers(2, 24), m=st.integers(0, 3), shape=st.sampled_from(["plain", "encoded",
       "extended", "imbalanced"]), seed=st.integers(0, 2**32 - 1))
def test_remove_projective_matches_the_full_projections_bit_for_bit(k, m, shape, seed):
    """The removal weighs and writes the entry's branch alone; its weight,
    survivor and failure state are those of projecting the whole state
    onto the entry's pattern and away from it."""
    rng = np.random.default_rng(seed)
    data = {j: int(rng.integers(0, 2**m)) for j in range(1, k)} if m else {}
    db = prepare_general(k, 0, data, m_data=m,
                         u_d=_random_encoding(rng, m) if shape == "encoded" and m else None)
    if shape == "extended":
        db = extend(db, int(rng.integers(1, 5)))
    elif shape == "imbalanced":
        db = extend_imbalanced(db, 6, 2)  # leaves a profile
    label = int(rng.choice(db.layout.labels[1:]))
    hit = pattern_mask(db.state, db.layout.index_qubits, db.layout.pattern(label))
    p_fail = float(np.sum(np.abs(db.state.amplitudes[hit]) ** 2))
    out = remove_projective(db, label)
    assert out.success_probability == max(0.0, 1.0 - p_fail)
    assert out.failure_state.amplitudes.tobytes() == project(db.state, hit)[0].amplitudes.tobytes()
    survivor = project(db.state, ~hit)[0]
    assert out.success_state.state.amplitudes.tobytes() == survivor.amplitudes.tobytes()


# --- state bookkeeping -------------------------------------------------------


def test_check_detects_tampering():
    db = prepare_general(4, 0, {1: "1"})
    db.check()
    tampered = db.state.amplitudes.copy()
    tampered[db.layout.physical_index(1, 1)] *= np.exp(0.2j)
    db.state = StateVector(tampered, copy=False)
    with pytest.raises(VerificationError):
        db.check()


def _check_by_label(db, tol=STATE_TOL):
    """Per-label reference for ``QdbState.check`` on an unencoded database:
    the message of the first failing label in ``expected_moduli`` order (its
    modulus before its phase), then of stray support; None if all pass."""
    amps = db.state.amplitudes
    seen = np.zeros(amps.size, dtype=bool)
    ref = None
    for label, want in db.expected_moduli().items():
        idx = db.layout.physical_index(label, db.descriptor.data_value(label))
        seen[idx] = True
        a = complex(amps[idx])
        if abs(abs(a) - want) > tol:
            return f"entry {label}: |amplitude| {abs(a):.12g}, expected {want:.12g}"
        if ref is None:
            ref = a / abs(a)
        elif abs(a / abs(a) - ref) > math.sqrt(tol):
            return f"entry {label} phase differs from entry phase"
    stray = float(np.abs(amps[~seen]).max())
    return f"stray amplitude {stray:.3g} outside the database" if stray > tol else None


def _shift_weight(amps, i, j, eps=0.01):
    """Move weight from basis index j to i, keeping the norm."""
    total = abs(amps[i]) ** 2 + abs(amps[j]) ** 2
    amps[i] *= math.sqrt(abs(amps[i]) ** 2 + eps) / abs(amps[i])
    amps[j] *= math.sqrt(total - abs(amps[i]) ** 2) / abs(amps[j])


def _add_stray(amps, i, eps=1e-6):
    amps[i] += eps
    amps /= np.linalg.norm(amps)


# (mutation, expected start of the message) on prepare_general(6, 0, {1: 1, 5: 1}, m_data=1):
# entry j with data d sits at index j | d << 3; patterns 6 and 7 are unused
CHECK_MUTATIONS = {
    "scaled": (lambda a: _shift_weight(a, 3, 4), "entry 3: |amplitude|"),
    "flipped-phase": (lambda a: a.__setitem__(13, -a[13]), "entry 5 phase"),
    "stray": (lambda a: _add_stray(a, 6), "stray amplitude"),
    "earlier-label-first": (lambda a: (_shift_weight(a, 4, 0), a.__setitem__(2, -a[2])),
                            "entry 0: |amplitude|"),
    "modulus-before-phase": (lambda a: (a.__setitem__(9, -a[9]), _shift_weight(a, 9, 2),
                                        _add_stray(a, 7)), "entry 1: |amplitude|"),
    "phase-before-stray": (lambda a: (_add_stray(a, 15), a.__setitem__(4, 1j * a[4])),
                           "entry 4 phase"),
}


@pytest.mark.parametrize("name", sorted(CHECK_MUTATIONS))
def test_check_reports_the_first_failing_label(name):
    mutate, start = CHECK_MUTATIONS[name]
    db = prepare_general(6, 0, {1: 1, 5: 1}, m_data=1)
    assert _check_by_label(db) is None and db.check()
    amps = db.state.amplitudes.copy()
    mutate(amps)
    db.state = StateVector(amps, copy=False)
    assert abs(db.state.norm() - 1) < STATE_TOL
    with pytest.raises(VerificationError) as err:
        db.check()
    assert str(err.value) == _check_by_label(db)
    assert str(err.value).startswith(start)


def test_check_follows_the_amplitude_profile_order():
    db = imbalanced_db()
    db.check(tol=1e-8)
    labels = list(db.amplitude_profile)
    amps = db.state.amplitudes.copy()
    late, early = (db.layout.physical_index(j, db.descriptor.data_value(j))
                   for j in (labels[-1], labels[2]))
    amps[late] *= -1
    _shift_weight(amps, early, late)
    db.state = StateVector(amps, copy=False)
    with pytest.raises(VerificationError) as err:
        db.check(tol=1e-8)
    assert str(err.value) == _check_by_label(db, tol=1e-8)
    assert str(err.value).startswith(f"entry {labels[2]}: |amplitude|")


def test_emit_round_trips_through_text():
    db = prepare_general(5, 2, {1: "1", 3: "10"})
    db = write(db, 2, "11")
    # the emitted circuit keeps the (cleaned) sensor wires; the live state
    # occupies the low block and the extra wires stay in |0>
    rebuilt = simulate(parse_text(db.emit()))
    live = db.state.amplitudes
    assert np.max(np.abs(rebuilt.amplitudes[: live.size] - live)) < 1e-12
    assert np.max(np.abs(rebuilt.amplitudes[live.size:])) < 1e-12


def test_json_artifacts_are_plain_json():
    db = prepare_general(3, 1, {1: "1"})
    obj = json.loads(db.descriptor.to_json())
    assert obj["k"] == 3 and obj["l"] == 1


# --- build history -----------------------------------------------------------


def _assert_history_matches_its_flat_gates(db):
    """The history's parts emit and simulate as its flat gate list does."""
    history = db.circuit
    text = emit_text(history) if db.projective else db.emit()
    state = simulate(history)
    # a twin over the same parts, flattened so the history itself keeps them
    flat = Circuit(history.n_qubits, list(history.extended(history.n_qubits).gates),
                   dict(history.labels))
    assert len(flat) == len(history)
    assert emit_text(flat) == text
    assert simulate(flat).amplitudes.tobytes() == state.amplitudes.tobytes()


HISTORY_OPS = ("write", "write-keep-sensor", "write-swap", "extend", "transfer", "permute",
               "permute-list", "remove-reservoir", "remove-projective", "imbalanced-direct",
               "imbalanced-marker", "read-copy")


def _history_op(data, db, op):
    labels = [j for j in db.layout.labels if j]
    label = data.draw(st.sampled_from(labels or [0]), label="label")
    if op.startswith("write"):
        word = data.draw(st.integers(1, 2 ** db.descriptor.m_data - 1), label="word")
        if op == "write-swap":
            return write_swap_conditional(db, label, word)
        return write(db, label, word, keep_sensor=op == "write-keep-sensor")
    if op == "extend":  # k >= 16 with l = k takes a full step (m >= 1)
        return extend(db, data.draw(st.integers(1, db.k), label="l"))
    if op == "transfer":
        return transfer(db, data.draw(st.integers(1, 8 * db.k), label="l"))[0]
    if op == "permute":
        other = data.draw(st.sampled_from(db.layout.labels), label="other")
        return permute(db, {label: other, other: label})
    if op == "permute-list":  # refused unless the labels are 0..k-1
        return permute(db, [0] + data.draw(st.permutations(range(1, db.k)), label="perm"))
    if op == "remove-reservoir":
        return remove_reservoir(db, label)
    if op == "remove-projective":
        return remove_projective(db, label).success_state
    if op == "read-copy":
        return read_copy(db, label)
    l = data.draw(st.integers(1, 3 * db.k), label="l")
    return extend_imbalanced(db, l, 2, route=op.split("-")[1])


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_history_parts_emit_and_simulate_as_their_flat_gates(data):
    u_d = data.draw(st.sampled_from([None, H_ENCODING, RY_ENCODING]), label="u_d")
    k = data.draw(st.sampled_from([2, 3, 5, 6, 16, 17]), label="k")
    m = 1 if u_d is not None else data.draw(st.integers(1, 2), label="m")
    words = data.draw(st.dictionaries(st.integers(1, k - 1), st.integers(1, 2 ** m - 1),
                                      max_size=k - 1), label="words")
    db = prepare_general(k, 0, words, m_data=m, u_d=u_d)
    _assert_history_matches_its_flat_gates(db)
    for op in data.draw(st.lists(st.sampled_from(HISTORY_OPS), max_size=4), label="ops"):
        try:
            new = _history_op(data, db, op)
        except (SemanticError, CapacityError):
            continue
        if new is None:
            continue
        _assert_history_matches_its_flat_gates(new)
        if not (new.sensor_qubits or new.copy_qubits):
            db = new


@pytest.fixture
def built_gates(monkeypatch):
    """The kind of each gate built from here on, and whether its
    constructor checked it."""
    built = []
    real_built, real_check = GateSpec._built.__func__, GateSpec.__post_init__

    def counted_built(cls, *args, **kwargs):
        built.append((args[0], False))
        return real_built(cls, *args, **kwargs)

    def counted_check(self):
        built.append((self.kind, True))
        real_check(self)

    monkeypatch.setattr(GateSpec, "_built", classmethod(counted_built))
    monkeypatch.setattr(GateSpec, "__post_init__", counted_check)
    return built


def test_preparation_builds_gates_by_index_width_not_by_data_bit(built_gates):
    built = built_gates
    k = 2 ** 12
    db = prepare_general(k, 0, {j: 1 + j % 15 for j in range(1, k)}, m_data=4)
    data_bits = sum(bin(1 + j % 15).count("1") for j in range(1, k))
    assert len(db.circuit) > data_bits
    # the index spread's rotations only: at most three per index qubit
    assert len(built) <= 3 * index_width(k)
    db.check()


def test_writes_and_permutes_build_no_gates_until_asked(built_gates):
    db = prepare_general(16, 0, {j: 1 + j % 15 for j in range(1, 16, 2)}, m_data=4)
    before = len(db.circuit)
    built_gates.clear()
    rng = np.random.default_rng(19)
    for _ in range(40):
        a, b = (int(j) for j in rng.choice(np.arange(1, 16), size=2, replace=False))
        db = write(db, a, int(rng.integers(1, 16)))
        db = permute(db, {a: b, b: a})
    text = db.emit()
    assert built_gates == []
    assert len(db.circuit) > before + 40 * (4 + 1)
    # asked for, the gates are built and say what was emitted
    history = db.circuit
    flat = Circuit(history.n_qubits, list(history.extended(history.n_qubits).gates),
                   dict(history.labels))
    assert built_gates and emit_text(flat) == text


def test_unfold_builds_its_gates_unchecked(built_gates):
    loaded, _ = transfer(prepare_general(6, 0, {1: 1, 4: 3}, m_data=2), 5)
    built_gates.clear()
    grown = unfold(loaded)
    # the peel and the spread under the ancilla, from the checked layout's qubits
    assert built_gates[0] == ("ry", False)
    assert len(built_gates) == len(grown.circuit) - len(loaded.circuit) > 1
    assert not any(checked for _, checked in built_gates)
    grown.check(tol=1e-8)


def test_equality_and_metrics_read_a_shared_history_as_it_is(built_gates):
    db = prepare_general(4, 0, {1: 1, 3: 2}, m_data=2)
    db = permute(write(db, 1, 3), {1: 2, 2: 1})
    db = extend(db, 3)  # each transfer step refers to one u and one u^-1
    history = db.circuit
    n, parts = history.n_qubits, history._parts
    assert any(type(part) is GateRecord for part in history._leaves())
    built_gates.clear()
    twin = history.extended(n)  # the same parts, held by another circuit
    metrics = history.metrics()
    assert history == twin
    assert built_gates == []
    assert history._parts is parts and twin._parts is parts
    # against the flat gates, built only now
    flat = Circuit(n, list(twin.gates), dict(history.labels))
    assert history == flat and flat == history
    assert history != Circuit(n, flat.gates[:-1], dict(history.labels))
    assert metrics == flat.metrics()
    assert metrics.gate_count == len(flat.gates)
    assert history._parts is parts


def _records(circ):
    """The records of writes and permutes: data-write blocks offer a table."""
    return [part for part in circ._leaves()
            if type(part) is GateRecord and part.table() is None]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_records_hold_the_gates_their_ops_would_build(data):
    u_d = data.draw(st.sampled_from([None, H_ENCODING, RY_ENCODING]), label="u_d")
    t = data.draw(st.integers(1, 5), label="index qubits")
    k = data.draw(st.integers(2 ** (t - 1) + 1, 2 ** t), label="k")
    m = 1 if u_d is not None else data.draw(st.integers(1, 3), label="m")
    db = prepare_general(k, 0, {1: 1}, m_data=m, u_d=u_d)
    # the reservoir stays put; the rest may form several cycles
    perm = [0] + data.draw(st.permutations(range(1, k)), label="perm")
    moved = permute(db, perm)
    routing = {j: p for j, p in enumerate(perm) if j != p}  # fresh layout: labels are patterns
    if routing:
        (record,) = _records(moved.circuit)
        want = pattern_permutation_circuit(routing, db.layout.index_qubits, db.n_qubits)
        assert len(record) == len(record.gates) == len(want)
        assert record.gates == want.gates
    label = data.draw(st.integers(1, k - 1), label="label")
    word = data.draw(st.integers(0, 2 ** m - 1), label="word")
    mode = data.draw(st.sampled_from(["write", "keep", "swap"]), label="mode")
    if mode == "swap":
        written = write_swap_conditional(moved, label, word)
    else:
        written = write(moved, label, word, keep_sensor=mode == "keep")
    # the sensor's preparation, the core and, for a folded write, the
    # preparation undone, records of words and wires; an encoding's gates
    # sit between them, outside the records
    records = _records(written.circuit)[len(_records(moved.circuit)):]
    assert len(records) == (3 if mode == "write" else 2)
    assert all(len(rec) == len(rec.gates) for rec in records)
    bare = dataclasses.replace(moved, descriptor=moved.descriptor._derived(u_d=None))
    assert [g for rec in records for g in rec.gates] == _write_gates(bare, label, word, mode).gates
    assert written.circuit.gates[len(moved.circuit):] == _write_gates(moved, label, word, mode).gates
    # the history inverted keeps its records in reverse order, each one read
    # the other way, and stands for the inverse of its gates, which it emits
    history = written.circuit
    n = history.n_qubits
    inverse = history.inverse()
    assert [rec.key for rec in _records(inverse)] == [
        (fields_of, args, not reversed_) for fields_of, args, reversed_
        in reversed([rec.key for rec in _records(history)])]
    flat = [gate_inverse(g) for g in reversed(history.extended(n).gates)]
    assert emit_text(inverse) == emit_text(Circuit(n, flat, dict(history.labels)))
    assert inverse.gates == flat


# --- where a sensor or copy register lands ------------------------------------


def _free_qubit_database(width: int = 6, max_qubits: int = 26) -> QdbState:
    """k = 3 on index qubits (0, 1) and data qubits (5, 3, 4), qubit 2 in
    neither register, over a ``width``-qubit state."""
    layout = QdbLayout((0, 1), (5, 3, 4), {0: 0, 1: 1, 2: 2})
    desc = QdbDescriptor(3, 0, {1: "011", 2: "100"}, m_data=3)
    amps = np.zeros(1 << width, dtype=complex)
    amps[[layout.physical_index(j, desc.data_value(j)) for j in range(3)]] = 1 / math.sqrt(3)
    return QdbState(desc, layout, StateVector(amps), Circuit(width), max_qubits=max_qubits)


def test_registers_land_above_the_highest_register_qubit():
    db = _free_qubit_database()
    db.check()
    copied = read_copy(db, 1)
    assert copied.copy_qubits == (6, 7, 8) and copied.n_qubits == 9
    kept = write(db, 1, 1, keep_sensor=True)  # passes its purity check
    assert kept.sensor_qubits == (6, 7, 8)
    assert kept.descriptor.data_value(1) == 0b010
    folded = write(db, 1, 1)
    assert folded.circuit.n_qubits == 9 and folded.n_qubits == 6
    folded.check()
    # the budget counts the register's top qubit, 8, not the 5 register qubits plus 3
    tight = _free_qubit_database(max_qubits=8)
    for op in (lambda: write(tight, 1, 1), lambda: read_copy(tight, 1),
               lambda: write_swap_conditional(tight, 1, 1), lambda: remove_reservoir(tight, 1)):
        with pytest.raises(CapacityError, match="^9 qubits exceeds the budget of 8$"):
            op()


def test_an_effect_refuses_a_state_that_holds_the_registers_qubits():
    db = _free_qubit_database(width=7)  # qubit 6, where the register lands, is held
    for op in (lambda: read_copy(db, 1), lambda: read_copy_all(db),
               lambda: write(db, 1, 1), lambda: write(db, 1, 1, keep_sensor=True),
               lambda: write_swap_conditional(db, 1, 1), lambda: remove_reservoir(db, 1)):
        with pytest.raises(SemanticError, match="already holds qubit 6"):
            op()


@pytest.mark.parametrize("shape", ["fresh", "extended", "removed"])
def test_registers_of_gapless_layouts_land_where_they_always_did(shape):
    db = prepare_general(5, 0, {1: 2, 3: 1, 4: 3}, m_data=2)
    if shape == "extended":
        db = extend(db, 3)  # the new index qubit above the data register
    elif shape == "removed":
        db = remove_reservoir(db, 3)
    n = db.layout.n_qubits  # no free qubit: the registers fill 0..n-1
    assert sorted(db.layout.index_qubits + db.layout.data_qubits) == list(range(n))
    assert read_copy(db, 1).copy_qubits == (n, n + 1)
    assert read_copy_all(db).copy_qubits == (n, n + 1)
    assert write(db, 1, 1, keep_sensor=True).sensor_qubits == (n, n + 1)
    assert write_swap_conditional(db, 4, 2).sensor_qubits == (n, n + 1)
    assert write(db, 1, 1).circuit.n_qubits == n + 2


# Refusals that README or the code documents, each with its class and exit code.


def _refused(call, match: str):
    with pytest.raises(SemanticError, match=match) as caught:
        call()
    assert caught.value.exit_code == 3


def test_a_reservoir_removal_refuses_unaligned_phases():
    db = prepare_general(4, 0, {1: "1"}, m_data=1)
    amps = db.state.amplitudes.copy()
    amps[db.layout.physical_index(2, 0)] *= 1j  # entry 2 a quarter turn off entry 0
    turned = dataclasses.replace(db, state=StateVector(amps))
    _refused(lambda: remove_reservoir(turned, 2), "^entry phases are not aligned")
    remove_reservoir(db, 2).check()  # the same removal, phases aligned


def test_growth_refuses_a_state_wider_than_its_layout():
    db = prepare_general(4, 0, {1: "1"}, m_data=1)
    loaded, _ = transfer(db, 2)
    for call in (lambda: transfer(dataclasses.replace(db, state=add_ancillas(db.state, 1)), 2),
                 lambda: unfold(dataclasses.replace(loaded, state=add_ancillas(loaded.state, 1)))):
        _refused(call, "^state register does not match the database layout$")
    unfold(loaded).check()  # the same unfold on the layout's own width


def test_a_descriptor_refuses_no_entries_and_a_negative_reservoir():
    _refused(lambda: QdbDescriptor(0, 0), "^a database needs at least one entry")
    _refused(lambda: QdbDescriptor(2, -1), "^reservoir multiplicity cannot be negative$")
    assert QdbDescriptor(1, 0).k == 1


def test_physical_indices_refuse_words_wider_than_the_data_register():
    layout = prepare_general(4, 0, {1: "1"}, m_data=1).layout
    _refused(lambda: layout.physical_index(1, 2), "^data value 2 wider than the data register$")
    _refused(lambda: layout.physical_indices([1, 2], [1, 2]),
             "^data value 2 wider than the data register$")
    assert layout.physical_indices([1, 2], [1, 1]).tolist() == [
        layout.physical_index(1, 1), layout.physical_index(2, 1)]


def test_a_layout_refuses_shared_qubits_no_index_and_a_pattern_outside():
    _refused(lambda: QdbLayout((0, 1), (1,)), "^index and data registers overlap$")
    _refused(lambda: QdbLayout((), (0,)), "^a database needs an index register$")
    _refused(lambda: QdbLayout((0,), (1,), {0: 0, 1: 2}), "^index pattern 2 outside the register$")
    assert QdbLayout((0,), (1,), {0: 0, 1: 1}).n_qubits == 2
