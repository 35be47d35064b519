"""The data encoding acts as a frame: under u_d every operation gives the
plain run's state with u_d applied to each register that holds a word."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdbsim.circuit import Circuit, simulate
from qdbsim.errors import CapacityError, SemanticError
from qdbsim.extend import extend, extend_imbalanced, transfer
from qdbsim.gates import phase, ry, x
from qdbsim.qdb import (
    permute,
    prepare_general,
    read_copy,
    remove_projective,
    remove_reservoir,
    write,
    write_swap_conditional,
)
from qdbsim.tolerances import STATE_TOL

MAX_QUBITS = 10
# ops after which the database still has no register attached
BARE_OPS = ("write", "extend", "transfer", "extend_imbalanced", "permute",
            "remove_reservoir", "remove_projective")
# ops that attach a sensor or copy register, so nothing may follow them
LAST_OPS = ("keep_sensor", "write_swap", "read_copy")


@st.composite
def encodings(draw):
    """1-3 qubit circuits of ry, CNOT and phase gates."""
    m = draw(st.integers(1, 3))
    angles = st.floats(-math.pi, math.pi, allow_nan=False)
    gates = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("ry", "cnot", "phase") if m > 1 else ("ry", "phase")))
        q = draw(st.integers(0, m - 1))
        if kind == "cnot":
            t = draw(st.integers(0, m - 2))
            gates.append(x(t + (t >= q), ctrl=(q,)))
        else:
            gates.append((ry if kind == "ry" else phase)(q, draw(angles)))
    return Circuit(m, gates)


def _op(data, name: str, db):
    """Draw the arguments of op ``name`` for ``db``; return the op as a
    function of a database, applied alike to the plain and encoded runs."""
    labels = db.layout.labels
    entry = data.draw(st.sampled_from([j for j in labels if j] or [1]), label="label")
    word = data.draw(st.integers(0, 2 ** len(db.layout.data_qubits) - 1), label="word")
    grow = data.draw(st.integers(1, 3), label="grow")
    if name == "write":
        return lambda d: write(d, entry, word)
    if name == "keep_sensor":
        return lambda d: write(d, entry, word, keep_sensor=True)
    if name == "write_swap":
        return lambda d: write_swap_conditional(d, entry, word)
    if name == "read_copy":
        return lambda d: read_copy(d, entry)
    if name == "extend":
        return lambda d: extend(d, grow)
    if name == "transfer":
        return lambda d: transfer(d, grow)[0]
    if name == "extend_imbalanced":
        z = data.draw(st.integers(1, 2), label="z")
        return lambda d: extend_imbalanced(d, grow * (2 ** z - 1), z)
    if name == "permute":
        perm = data.draw(st.permutations(labels), label="perm")
        return lambda d: permute(d, dict(zip(labels, perm)))
    if name == "remove_reservoir":
        return lambda d: remove_reservoir(d, entry)
    return lambda d: remove_projective(d, entry).success_state


def _encoded_view(db, u_d: Circuit) -> np.ndarray:
    """The plain run's state with u_d on its data register and on an
    attached sensor, not on a copy register."""
    n = db.n_qubits
    circ = Circuit(n)
    for qubits in (db.layout.data_qubits, db.sensor_qubits):
        if qubits:
            circ += u_d.remapped(dict(enumerate(qubits)), n)
    return simulate(circ, db.state).amplitudes


@settings(deadline=None, max_examples=150)
@given(u_d=encodings(), k=st.integers(2, 5), data=st.data())
def test_operations_act_inside_the_encoding(u_d, k, data):
    m = u_d.n_qubits
    words = {j: data.draw(st.integers(0, 2 ** m - 1), label=f"d{j}") for j in range(1, k)}
    plain = prepare_general(k, 0, words, m_data=m)
    encoded = prepare_general(k, 0, words, m_data=m, u_d=u_d)
    names = data.draw(st.lists(st.sampled_from(BARE_OPS), max_size=4), label="ops")
    names.append(data.draw(st.sampled_from((None,) + LAST_OPS), label="last"))
    for name in names:
        if name is None or plain.n_qubits > MAX_QUBITS:
            break
        op = _op(data, name, plain)
        try:
            after = op(plain)
        except (SemanticError, CapacityError) as exc:
            # both runs refuse it alike, and both go on from where they were
            with pytest.raises(type(exc)):
                op(encoded)
            continue
        encoded = op(encoded)
        if after is None:  # a projective removal that left nothing
            assert encoded is None
            return
        plain = after
        assert encoded.descriptor.data == plain.descriptor.data
        assert (encoded.sensor_qubits, encoded.copy_qubits) == (
            plain.sensor_qubits, plain.copy_qubits)
        err = np.max(np.abs(encoded.state.amplitudes - _encoded_view(plain, u_d)))
        assert err <= STATE_TOL, (name, err)
