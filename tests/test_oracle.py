"""The dense-matrix oracle itself: unitarity, embeddings, closed forms."""

import math

import numpy as np
import pytest

from qdbsim.circuit import Circuit
from qdbsim.errors import CapacityError, SemanticError
from qdbsim.gates import GateSpec, h, phase, rot2, ry, swap, x, y, ytilde
from qdbsim.oracle import (
    dense_gate,
    dense_operator,
    expected_qdb_amplitudes,
    is_unitary,
    overlap_lemma_sides,
    permutation_matrix,
)
from qdbsim.qdb import QdbDescriptor, QdbLayout


@pytest.mark.parametrize(
    "gate",
    [x(0), h(1), ry(2, 0.9), y(0, 0.3), ytilde(1, 0.7), phase(2, 1.3),
     swap(0, 2), rot2(1, 6, 0.5), x(0, ctrl=(1,), nctrl=(2,))],
)
def test_dense_gates_are_unitary(gate):
    assert is_unitary(dense_gate(gate, 3))


def test_dense_hadamard_column():
    col = dense_gate(h(0), 1)[:, 0]
    assert np.allclose(col, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_controlled_gate_blocks():
    u = dense_gate(x(0, ctrl=(1,)), 2)
    # |00>,|01> untouched; |10> <-> |11>
    want = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.array_equal(u, want)


def _controlled_by_product(gate, n: int) -> np.ndarray:
    """A controlled gate's matrix as bare @ P + (I - P), with P the
    projector onto the basis states that satisfy the controls."""
    bare = dense_gate(GateSpec(gate.kind, gate.params, gate.targets), n)
    diag = [all((idx >> q) & 1 == bit for q, bit in gate.controls) for idx in range(2**n)]
    proj = np.diag(np.array(diag, dtype=complex))
    return bare @ proj + (np.eye(2**n, dtype=complex) - proj)


def test_controlled_gates_match_the_projector_product(rng):
    kinds = {"x": (), "h": (), "ry": (0.9,), "y": (0.3,), "ytilde": (0.7,),
             "phase": (1.3,), "swap": ()}
    for _ in range(40):
        n = int(rng.integers(2, 6))
        kind = str(rng.choice(sorted(kinds)))
        wires = [int(q) for q in rng.permutation(n)]
        width = 2 if kind == "swap" else 1
        if len(wires) <= width:
            continue
        targets, rest = tuple(wires[:width]), wires[width:]
        ctrls = tuple((q, int(rng.integers(2)))
                      for q in rest[:int(rng.integers(1, len(rest) + 1))])
        gate = GateSpec(kind, kinds[kind], targets, ctrls)
        assert np.array_equal(dense_gate(gate, n), _controlled_by_product(gate, n)), gate


def test_swap_matrix_exchanges_bits():
    u = dense_gate(swap(0, 1), 2)
    v = np.zeros(4, dtype=complex)
    v[0b01] = 1
    assert np.argmax(np.abs(u @ v)) == 0b10


def test_rot2_matrix_rotates_named_pair():
    theta = 0.6
    u = dense_gate(rot2(2, 5, theta), 3)
    sub = u[np.ix_([2, 5], [2, 5])]
    want = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert np.allclose(sub, want, atol=1e-15)
    rest = [i for i in range(8) if i not in (2, 5)]
    assert np.allclose(u[np.ix_(rest, rest)], np.eye(6), atol=1e-15)


def test_dense_operator_composes_in_order():
    c = Circuit(1)
    c.append(x(0))
    c.append(phase(0, 1.0))
    u = dense_operator(c)
    want = np.diag([1, np.exp(1j)]) @ np.array([[0, 1], [1, 0]])
    assert np.allclose(u, want, atol=1e-15)


def test_oracle_size_guard():
    with pytest.raises(CapacityError):
        dense_operator(Circuit(13))


@pytest.mark.parametrize("k,l", [(1, 0), (2, 0), (5, 0), (4, 3), (14, 18)])
def test_expected_amplitudes_normalize(k, l):
    mod = expected_qdb_amplitudes(QdbDescriptor(k=k, l=l, data={}))
    assert sum(v * v for v in mod.values()) == pytest.approx(1.0)
    assert mod[0] == pytest.approx(math.sqrt((l + 1) / (k + l)))


def test_expected_amplitudes_follow_layout_and_data():
    desc = QdbDescriptor(k=3, l=0, data={1: "1", 2: "10"}, m_data=2)
    layout = QdbLayout.fresh(3, 2)
    mod = expected_qdb_amplitudes(desc, layout)
    assert set(mod) == {
        layout.physical_index(0, 0),
        layout.physical_index(1, 1),
        layout.physical_index(2, 2),
    }
    assert all(v == pytest.approx(1 / math.sqrt(3)) for v in mod.values())


def test_permutation_matrix_shapes_and_action():
    m = permutation_matrix({0: 0, 1: 2, 2: 1, 3: 3}, 2)
    assert is_unitary(m)
    v = np.zeros(4, dtype=complex)
    v[1] = 1
    assert np.argmax(np.abs(m @ v)) == 2
    wide = permutation_matrix({0: 1, 1: 0}, 1, n_data_qubits=1)
    assert wide.shape == (4, 4)
    v = np.zeros(4, dtype=complex)
    v[0b10] = 1  # data bit high, index 0
    assert np.argmax(np.abs(wide @ v)) == 0b11


def test_permutation_matrix_rejects_non_bijection():
    with pytest.raises(SemanticError):
        permutation_matrix({0: 1, 1: 1}, 1)


def test_overlap_lemma_sides_closed_form():
    a = QdbDescriptor(k=3, l=0, data={1: 1}, m_data=1)
    b = QdbDescriptor(k=3, l=0, data={1: 1, 2: 1}, m_data=1)
    lhs, rhs = overlap_lemma_sides(a, b, 2)
    assert lhs == pytest.approx((1 + 1) / 3)
    assert rhs == pytest.approx((1 + 2 + 1) / 5)
