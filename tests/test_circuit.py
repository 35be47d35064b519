"""Circuit container: composition, inversion, remapping, control wrapping."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdbsim.circuit as circuit_mod
from conftest import dense_column, random_state, signed_zero_state
from qdbsim import statevector
from qdbsim.circuit import Circuit, simulate
from qdbsim.errors import CapacityError, CircuitParseError, SemanticError
from qdbsim.extend import extend
from qdbsim.gates import GateSpec, gate_inverse, h, phase, rot2, ry, swap, x, y
from qdbsim.oracle import dense_operator
from qdbsim.qdb import (
    QdbDescriptor,
    QdbLayout,
    QdbState,
    _data_write_circuit,
    permute,
    prepare_circuit,
    prepare_meta,
    preparation_circuit,
    prepare_general,
    remove_reservoir,
)
from qdbsim.statevector import StateVector, add_ancillas, apply_gate, states_equal
from qdbsim.text_format import emit_text, parse_text


def small_circuit(n=3) -> Circuit:
    c = Circuit(n)
    c.append(h(0))
    c.append(x(1, ctrl=(0,)))
    c.append(ry(2, 0.77, nctrl=(1,)))
    c.append(phase(0, 1.1))
    c.append(swap(1, 2))
    return c


def test_append_validates_width():
    c = Circuit(2)
    with pytest.raises(SemanticError):
        c.append(x(2))
    with pytest.raises(SemanticError):
        c.append(x(0, ctrl=(5,)))


def test_add_requires_equal_widths_and_merges_labels():
    a = Circuit(2)
    a.label(0, "I")
    b = Circuit(2)
    b.label(1, "D")
    merged = a + b
    assert merged.labels == {0: "I", 1: "D"}
    with pytest.raises(SemanticError):
        a + Circuit(3)


@pytest.mark.parametrize("build", [
    lambda: Circuit(2, [x(2)]),
    lambda: Circuit(2, [x(0, ctrl=(5,))]),
    lambda: Circuit(1, [rot2(0, 2, 0.1)]),
    lambda: Circuit(3).extended(2),
], ids=["target", "control", "rot2-index", "shrink"])
def test_gates_are_checked_when_they_enter_a_circuit(build):
    with pytest.raises(SemanticError):
        build()


def test_derived_circuits_own_their_gate_lists():
    a = small_circuit()
    before = list(a.gates)
    for derived in (a.extended(5), a + a):
        derived.append(x(0))
        assert a.gates == before


def test_joined_circuits_share_parts_and_stay_apart():
    a = small_circuit()
    before = list(a.gates)
    b = a + a
    wide = b.extended(4)
    assert len(b) == len(wide) == 10  # summed over the parts, not flattened
    a.append(x(0))  # goes to a list only a holds
    assert len(a) == 6 and b.gates == before * 2 and wide.gates == before * 2
    b.gates.append(h(2))  # the flat list is b's own: changing it changes b
    b.gates += [h(1)]
    assert len(b) == 12 and b.gates[-2:] == [h(2), h(1)]
    assert a.gates == before + [x(0)] and len(wide) == 10


def _fresh_database():
    db = prepare_general(8, 0, {1: "11", 2: "01", 6: "10"}, m_data=2)
    return db, preparation_circuit(db.descriptor, db.layout)


def _grown_holey_database():
    # extend puts index qubit 4 above the data register (2, 3), the removal
    # leaves a hole among the labels, and the permute moves two words
    db = extend(prepare_general(4, 0, {1: "11", 2: "01", 3: "10"}, m_data=2), 3)
    db = permute(remove_reservoir(db, 2), {1: 5, 5: 1, 3: 4, 4: 3})
    assert max(db.layout.index_qubits) > max(db.layout.data_qubits)
    return db, preparation_circuit(db.descriptor, db.layout)


def _hand_built_database():
    # index bits on qubits 4 and 0, data bit 0 on qubit 5 and bits 1, 2 on
    # qubits 1, 2; qubit 3 in neither register, which ``preparation_circuit``
    # refuses, so u is its index spread and its data-write block
    layout = QdbLayout((4, 0), (5, 1, 2), {0: 0, 1: 1, 2: 2, 3: 3})
    desc = QdbDescriptor(4, 0, {1: "011", 2: "100", 3: "110"}, m_data=3)
    u = prepare_circuit(4, 0, layout.index_qubits, 6) + _data_write_circuit(desc, layout, 6)
    amps = np.zeros(2**6, dtype=complex)
    amps[[layout.physical_index(j, desc.data_value(j)) for j in range(4)]] = 0.5
    return QdbState(desc, layout, StateVector(amps), Circuit(6)), u


@pytest.mark.parametrize("build", [_fresh_database, _grown_holey_database, _hand_built_database],
                         ids=["fresh", "grown-holey", "hand-built"])
def test_inverse_of_a_data_write_block_reads_it_backwards(build):
    db, u = build()
    u_inv = u.inverse()
    (block,) = [p for p in u._leaves() if type(p) is not list]
    (rev,) = [p for p in u_inv._leaves() if type(p) is not list]
    assert block.table() is not None and rev.table() is block.table()
    assert rev.reversed and rev.forward is block and rev.inverse() is block
    data_bits = sum(word.count("1") for word in db.descriptor.data.values())
    assert len(rev) == len(block) == len(block.gates) == data_bits
    # the block moved by its table, forward or reversed, is its gates run
    # one list at a time, on |0...0> and on a state whose data register is
    # not |0>, its signed zeros kept; each circuit moves before ``gates``
    # flattens it into that one list
    noisy = signed_zero_state(np.random.default_rng(17), u.n_qubits)
    for circ in (u, u_inv):
        moved = [simulate(circ, start) for start in (None, noisy)]
        flat = Circuit(u.n_qubits, list(circ.gates), circ.labels)
        for start, got in zip((None, noisy), moved):
            assert got.amplitudes.tobytes() == simulate(flat, start).amplitudes.tobytes()
    assert u_inv.gates == [gate_inverse(g) for g in reversed(u.gates)]
    assert emit_text(u_inv) == emit_text(Circuit(u.n_qubits, list(u_inv.gates), u_inv.labels))
    built = simulate(u)
    assert states_equal(built, db.state)  # a transfer leaves a global phase
    back = simulate(u_inv, built)
    assert np.max(np.abs(back.amplitudes - StateVector.zero(u.n_qubits).amplitudes)) < 1e-12


def test_extended_widens_without_moving_gates(rng):
    c = small_circuit(3)
    wide = c.extended(5)
    assert wide.n_qubits == 5
    state = random_state(rng, 5)
    got = simulate(wide, state).amplitudes
    want = np.kron(np.eye(4), dense_operator(c)) @ state.amplitudes
    assert np.max(np.abs(got - want)) < 1e-12


def test_inverse_undoes_circuit(rng):
    c = small_circuit()
    state = random_state(rng, 3)
    back = simulate(c.inverse(), simulate(c, state))
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_inverse_reverses_gate_order():
    c = Circuit(1)
    c.append(h(0))
    c.append(phase(0, 0.5))
    inv = c.inverse()
    assert inv.gates[0].kind == "phase"
    assert inv.gates[1].kind == "h"


def test_remapped_moves_gates_to_new_wires(rng):
    c = Circuit(2)
    c.append(h(0))
    c.append(x(1, ctrl=(0,)))
    remapped = c.remapped({0: 2, 1: 0}, 3)
    state = random_state(rng, 3)
    got = simulate(remapped, state)
    direct = Circuit(3)
    direct.append(h(2))
    direct.append(x(0, ctrl=(2,)))
    want = simulate(direct, state)
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-13


def test_remapped_rejects_two_level_rotation():
    c = Circuit(3)
    c.append(rot2(1, 6, 0.4))
    with pytest.raises(SemanticError):
        c.remapped({0: 0, 1: 1, 2: 2}, 3)


@pytest.mark.parametrize("mapping, why", [({0: 2, 1: 2}, "two qubits to one"),
                                           ({0: 2}, "misses qubit 1"),
                                           ({1: 0}, "misses qubit 0")])
def test_remapped_refuses_a_merging_or_partial_mapping(mapping, why):
    c = Circuit(2, [h(0), x(1, ctrl=(0,))])
    with pytest.raises(SemanticError, match=why):
        c.remapped(mapping, 3)


def test_controlled_wraps_every_gate(rng):
    c = Circuit(2)
    c.append(h(0))
    c.append(y(1, 0.3))
    wrapped = c.extended(3).controlled(ctrl=(2,))
    state = random_state(rng, 3)
    got = simulate(wrapped, state).amplitudes
    u = dense_operator(c)
    blocked = np.block(
        [[np.eye(4), np.zeros((4, 4))], [np.zeros((4, 4)), u]]
    )  # control qubit 2 is the high bit
    want = blocked @ state.amplitudes
    assert np.max(np.abs(got - want)) < 1e-12


def test_controlled_merges_polarities():
    c = Circuit(3)
    c.append(x(0, ctrl=(1,)))
    wrapped = c.controlled(nctrl=(2,))
    assert wrapped.gates[0].controls == ((1, 1), (2, 0))


def test_controlled_rejects_control_on_touched_wire():
    c = Circuit(2)
    c.append(h(0))
    with pytest.raises(SemanticError):
        c.controlled(ctrl=(0,))


def test_metrics_counts():
    c = Circuit(4)
    c.append(h(0))
    c.append(h(1))
    c.append(x(2, ctrl=(0, 1), nctrl=(3,)))
    m = c.metrics()
    assert m.gate_count == 3
    assert m.depth == 2  # two parallel h, then the wide x
    assert m.mcx_count == 1
    assert m.max_controls == 3


def test_simulate_defaults_to_zero_state():
    c = Circuit(2)
    c.append(x(1))
    out = simulate(c)
    assert out.amplitudes[0b10] == 1


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_random_circuits_match_dense_oracle(seed, n):
    rng = np.random.default_rng(seed)
    c = Circuit(n)
    for _ in range(8):
        kind = rng.choice(["x", "h", "ry", "y", "phase", "swap"])
        free = list(rng.permutation(n))
        if kind == "swap":
            if n < 2:
                continue
            g = swap(free[0], free[1])
            free = free[2:]
        else:
            t = free.pop()
            g = {
                "x": lambda: x(t),
                "h": lambda: h(t),
                "ry": lambda: ry(t, float(rng.uniform(-3, 3))),
                "y": lambda: y(t, float(rng.uniform(0.05, 0.95))),
                "phase": lambda: phase(t, float(rng.uniform(0, 6))),
            }[kind]()
        if free and rng.random() < 0.5:
            ctrls = tuple((q, int(rng.integers(2))) for q in free[: rng.integers(1, len(free) + 1)])
            g = GateSpec(g.kind, g.params, g.targets, ctrls)
        c.append(g)
    got = simulate(c).amplitudes
    want = dense_column(c)
    assert np.max(np.abs(got - want)) < 1e-12


# --- amplitude moves: tables in place --------------------------------------


@st.composite
def moves(draw):
    """An in-place move of ``statevector.move_amplitudes`` on up to 10
    qubits: up to 8 patterns of a control set drawn from the whole register,
    so its qubits sit above and below the masked ones, each with a mask of
    the other qubits."""
    n = draw(st.integers(1, 10))
    order = draw(st.permutations(range(n)))
    wires = tuple(order[:draw(st.integers(0, n))])
    free = order[len(wires):]
    sources = draw(st.lists(st.integers(0, 2 ** len(wires) - 1), unique=True,
                            min_size=1, max_size=8))
    masks = [0] * len(sources)
    if free:
        masks = [sum(1 << q for q in draw(st.sets(st.sampled_from(free))))
                 for _ in sources]
    return n, wires, sources, masks


@settings(deadline=None, max_examples=150)
@given(move=moves(), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 8, 1 << 17]))
def test_move_amplitudes_matches_an_explicit_index_map(move, seed, chunk):
    n, wires, sources, masks = move
    state = signed_zero_state(np.random.default_rng(seed), n)
    index = np.arange(2**n)
    pattern = sum(((index >> q) & 1) << j for j, q in enumerate(wires))
    dest = index.copy()
    for src, mask in zip(sources, masks):
        on = pattern == src
        dest[on] = index[on] ^ mask
    got = state.copy()
    want = np.empty_like(state.amplitudes)
    want[dest] = state.amplitudes
    # each pattern's base: its bits placed on the wires, qubit by qubit
    bases = [sum(((src >> j) & 1) << q for j, q in enumerate(wires)) for src in sources]
    # a chunk of 1 trades one pair at a time, 8 a few pairs or patterns at
    # once, 2^17 every pattern
    with mock.patch.object(statevector, "_MOVE_CHUNK", chunk):
        statevector.move_amplitudes(got, wires, bases, masks)
    assert got.amplitudes.tobytes() == want.tobytes()


def two_pattern_run(length):
    """``length`` x gates on controls (0, 1), alternating pattern 00 (target
    2) and pattern 11 (target 3)."""
    return [x(3, ctrl=(0, 1)) if i % 2 else x(2, nctrl=(0, 1)) for i in range(length)]


def test_runs_of_wide_patterns_hold_half_a_pattern():
    # one control qubit leaves 19 qubits, 2^19 amplitudes, per pattern:
    # each gate trades the halves of its pattern's slice in place
    gates = [x(1 + i % 19, ctrl=(0,)) if i % 2 else x(19 - i % 19, nctrl=(0,))
             for i in range(16)]
    state = random_state(np.random.default_rng(5), 20)
    want = state
    for g in gates:
        want = apply_gate(want, g)
    got = state.copy()
    tracemalloc.start()
    try:
        circuit_mod._run_gates(got, gates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    half = 2 ** 18 * state.amplitudes.itemsize
    assert half <= peak < half * 5 // 4


def test_x_exchange_on_20_qubits_holds_half_a_slice():
    # controls fix 2 of 20 qubits: the slice holds 2^18 amplitudes (4 MiB)
    ctrls = ((19, 1), (7, 0))
    run = [GateSpec("x", (), (t,), ctrls) for t in (3, 12, 18, 0)]
    state = random_state(np.random.default_rng(3), 20)
    want = state
    for g in run:
        want = apply_gate(want, g)
    half = 2 ** 17 * state.amplitudes.itemsize

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    got = state.copy()
    one_x = peak(lambda: apply_gate(got, run[0], out=got))
    apply_gate(got, run[0], out=got)  # undone: x is its own inverse
    mask = sum(1 << g.targets[0] for g in run)
    # the pattern's base: bit 0 set on qubit 19, bit 1 clear on qubit 7
    exchange = peak(lambda: statevector.move_amplitudes(got, (19, 7), (1 << 19,), (mask,)))
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    # the x holds one half of the slice, plus numpy's copy buffer; the move
    # holds one chunk of pairs, no more than that
    assert half <= one_x < half * 5 // 4
    assert exchange <= one_x + 4096


def test_a_data_write_move_on_large_branches_holds_a_chunk():
    # 22 qubits: one index qubit and 21 data qubits, so each entry's branch
    # holds 2^21 amplitudes (32 MiB); entry 1's word sets 20 of them
    meta = prepare_meta(2, 0, {1: 2**20 - 1}, m_data=21)
    u = preparation_circuit(meta.descriptor, meta.layout)
    (block,) = [p for p in u._leaves() if type(p) is not list]
    table = block.table()
    state = signed_zero_state(np.random.default_rng(13), u.n_qubits)
    want = state.copy()
    circuit_mod._run_gates(want, block.gates)
    tracemalloc.start()
    try:
        statevector.move_amplitudes(state, *table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
    # a chunk of pairs, not half a branch (16 MiB)
    assert peak < 4 << 20


def test_simulate_widens_a_narrower_state_with_fresh_zero_qubits():
    # 3 qubits given, 5 simulated: single gates and x gates on two
    # patterns act on the two fresh high qubits as they do on the ones given
    gates = ([h(3), ry(4, 0.3, ctrl=(3,))] + two_pattern_run(16)
             + [swap(0, 4), phase(2, 0.9, ctrl=(4,))])
    state = random_state(np.random.default_rng(11), 3)
    before = state.amplitudes.tobytes()
    got = simulate(Circuit(5, gates), state)
    want = add_ancillas(state, 2)
    for g in gates:
        want = apply_gate(want, g)
    assert np.array_equal(got.amplitudes, want.amplitudes)
    assert state.amplitudes.tobytes() == before


def test_simulate_refuses_a_wider_state_and_a_widening_past_the_budget():
    with pytest.raises(SemanticError, match="^state has 4 qubits, circuit needs 3$"):
        simulate(Circuit(3, [x(0)]), StateVector.zero(4))
    with pytest.raises(CapacityError, match="^6 qubits exceeds the budget of 5$"):
        simulate(Circuit(6, [x(5)]), StateVector.zero(3), max_qubits=5)


BAD_GATES = [
    (("frob", (), (0,), ()), "unknown gate kind"),
    (("ry", (), (0,), ()), "takes 1 parameter"),
    (("y", (1.5,), (0,), ()), r"must lie in \[0, 1\]"),
    (("swap", (), (1, 1), ()), "two distinct targets"),
    (("x", (), (0, 1), ()), "exactly one target"),
    (("x", (), (0,), ((1, 2),)), "polarity"),
    (("x", (), (0,), ((0, 1),)), "appears twice"),
    (("x", (), (-1,), ()), "negative qubit"),
]


@pytest.mark.parametrize("parts,message", BAD_GATES, ids=[m for _, m in BAD_GATES])
def test_gatespec_refuses_invalid_gates(parts, message):
    with pytest.raises(SemanticError, match=message) as exc:
        GateSpec(*parts)
    assert exc.value.exit_code == 3


@pytest.mark.parametrize("gate", [x(2), x(0, ctrl=(2,)), swap(0, 5), rot2(0, 4, 0.1)],
                         ids=["target", "control", "swap", "rot2-index"])
def test_gates_outside_the_register_are_refused_on_every_public_path(gate):
    for enter in (lambda: Circuit(2, [gate]), lambda: Circuit(2).append(gate),
                  lambda: apply_gate(StateVector.zero(2), gate)):
        with pytest.raises(SemanticError) as exc:
            enter()
        assert exc.value.exit_code == 3
    text = emit_text(Circuit(6, [gate])).replace("qubits 6", "qubits 2")
    with pytest.raises(CircuitParseError) as exc:
        parse_text(text)
    assert exc.value.exit_code == 2 and exc.value.line == 2


@pytest.mark.parametrize("line", ["frob q[0]", "ry q[0]", "y(1.5) q[0]", "swap q[1] q[1]",
                                  "x q[0] q[1]", "x q[0] ctrl q[0]"])
def test_parse_text_refuses_invalid_gates(line):
    with pytest.raises(CircuitParseError) as exc:
        parse_text(f"qubits 2\n{line}\n")
    assert exc.value.exit_code == 2 and exc.value.line == 2
