"""Circuit container: composition, inversion, remapping, control wrapping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_column, random_state
from qdbsim.circuit import Circuit, simulate
from qdbsim.errors import SemanticError
from qdbsim.gates import GateSpec, h, phase, rot2, ry, swap, x, y
from qdbsim.oracle import dense_operator
from qdbsim.statevector import StateVector


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
