"""Shared helpers: dense-oracle comparisons, phase canonicalization and brute-force selections."""

import numpy as np
import pytest

from qdbsim.circuit import Circuit
from qdbsim.gates import h, ry, x
from qdbsim.oracle import dense_gate
from qdbsim.statevector import StateVector, _register_scan

# Data encodings that move |0...0> off itself, so the reservoir's data is
# u_d|0>, not |0>.
H_ENCODING = Circuit(1, [h(0)])
RY_ENCODING = Circuit(1, [ry(0, 0.7)])  # unlike H, not its own inverse
RY_CNOT_ENCODING = Circuit(3, [ry(0, 0.7), x(1, ctrl=(0,)), ry(2, 1.3, ctrl=(1,))])


def dense_column(circuit) -> np.ndarray:
    """The oracle's replay of ``circuit`` on |0...0>: each gate's dense
    matrix applied to the column in turn."""
    vec = np.zeros(2 ** circuit.n_qubits, dtype=complex)
    vec[0] = 1.0
    for g in circuit.gates:
        vec = dense_gate(g, circuit.n_qubits) @ vec
    return vec


def canonical(vec) -> np.ndarray:
    """Divide out the global phase, keyed to the largest-magnitude entry."""
    v = np.asarray(vec, dtype=complex)
    i = int(np.argmax(np.abs(v)))
    ph = v[i] / abs(v[i])
    return v / ph


def state_matches_oracle(db, tol: float = 1e-12) -> float:
    """Max amplitude deviation between a database state and the dense-oracle
    replay of its cumulative circuit (detached wires padded with |0>)."""
    col = dense_column(db.circuit)
    vec = db.state.amplitudes
    padded = np.zeros(col.shape, dtype=complex)
    padded[: vec.size] = vec
    return float(np.max(np.abs(col - padded)))


def assert_vec_close(actual, expected, tol: float = 1e-12, *, up_to_phase=False):
    a = np.asarray(actual, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    if up_to_phase:
        a, e = canonical(a), canonical(e)
    assert a.shape == e.shape
    err = float(np.max(np.abs(a - e)))
    assert err <= tol, f"max deviation {err:.3e} > {tol:.1e}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, n_qubits: int) -> StateVector:
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(amps, copy=False)


def signed_zero_state(rng, n_qubits: int) -> StateVector:
    """Random amplitudes with a third of the real and imaginary parts set to
    +0.0 or -0.0, so any arithmetic on them would show in the bits. The real
    part of amplitude 0 is never zeroed, so the vector always has weight."""
    parts = rng.normal(size=(2, 2**n_qubits))
    zero = rng.random(parts.shape) < 1 / 3
    zero[0, 0] = False
    parts[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    return StateVector(parts[0] + 1j * parts[1], copy=False)


def pattern_mask(state, qubits, pattern: int) -> np.ndarray:
    """The boolean mask over the basis indices of ``state`` at which the
    register ``qubits`` (``qubits[i]`` holds bit i) reads ``pattern``: the
    register's reading of every index, bit by bit."""
    index = np.arange(state.dim)
    return sum(((index >> q) & 1) << b for b, q in enumerate(qubits)) == pattern


def qubit_slot(amps, wires, pattern, mask=0):
    """Reference selection: the slot of the ``(2,)*n`` view of the flat
    amplitudes ``amps`` on which ``wires`` read ``pattern`` (axis n-1-q is
    qubit q), reversed along the qubits of ``mask``."""
    n = amps.size.bit_length() - 1
    key = [slice(None)] * n
    for j, q in enumerate(wires):
        key[n - 1 - q] = pattern >> j & 1
    for q in range(n):
        if mask >> q & 1:
            key[n - 1 - q] = slice(None, None, -1)
    # the Ellipsis keeps a view when every axis is fixed
    return amps.reshape((2,) * n)[(*key, Ellipsis)]


def assert_register_scan_matches_brute_force(state, qubits) -> list[float]:
    """Compare the register scan with a loop over every basis index; return
    the brute-force probability of each pattern the register can read."""
    probs = np.abs(state.amplitudes) ** 2
    mass = [float(probs[pattern_mask(state, qubits, p)].sum()) for p in range(2 ** len(qubits))]
    assert np.max(np.abs(_register_scan(state, qubits) - mass)) < 1e-12
    return mass
