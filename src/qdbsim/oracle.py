"""Reference oracles: dense operators and closed-form expectations.

Everything here is an independent cross-check path. Gate matrices are built
from scratch with Kronecker products and explicit index arithmetic; none of
the statevector kernels are reused, so an error in the fast path cannot hide
behind an identical error here. Capped at 12 qubits (a 4096 x 4096 matrix).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, SemanticError

ORACLE_MAX_QUBITS = 12


def _mat_1q(kind: str, params) -> np.ndarray:
    """Local 2x2 matrix table, written independently of the gate module."""
    if kind == "x":
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if kind == "h":
        r = 1.0 / math.sqrt(2.0)
        return np.array([[r, r], [r, -r]], dtype=complex)
    if kind == "ry":
        half = params[0] / 2.0
        return np.array([[math.cos(half), -math.sin(half)],
                         [math.sin(half), math.cos(half)]], dtype=complex)
    if kind == "y":
        p = params[0]
        return np.array([[math.sqrt(p), -math.sqrt(1.0 - p)],
                         [math.sqrt(1.0 - p), math.sqrt(p)]], dtype=complex)
    if kind == "ytilde":
        y_half_inv = _mat_1q("y", (0.5,)).conj().T
        return _mat_1q("y", params) @ y_half_inv
    if kind == "phase":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * params[0])]], dtype=complex)
    raise SemanticError(f"oracle has no single-qubit matrix for {kind!r}")


def _embed_1q(mat: np.ndarray, target: int, n: int) -> np.ndarray:
    """Kronecker embedding; qubit 0 is the rightmost factor."""
    out = np.array([[1.0]], dtype=complex)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, mat if q == target else np.eye(2, dtype=complex))
    return out


def _swap_matrix(t1: int, t2: int, n: int) -> np.ndarray:
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        b1 = (col >> t1) & 1
        b2 = (col >> t2) & 1
        row = col & ~(1 << t1) & ~(1 << t2)
        row |= (b2 << t1) | (b1 << t2)
        out[row, col] = 1.0
    return out


def _rot2_matrix(a: int, b: int, theta: float, n: int) -> np.ndarray:
    dim = 2**n
    if max(a, b) >= dim:
        raise SemanticError("rot2 basis index out of range")
    out = np.eye(dim, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    out[a, a] = c
    out[a, b] = -s
    out[b, a] = s
    out[b, b] = c
    return out


def _control_mask(controls, n: int) -> np.ndarray:
    """Which basis indices satisfy every (qubit, bit) control."""
    idx = np.arange(2**n)
    mask = np.ones(2**n, dtype=bool)
    for q, bit in controls:
        mask &= (idx >> q) & 1 == bit
    return mask


def dense_gate(gate, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate."""
    if n > ORACLE_MAX_QUBITS:
        raise CapacityError(f"dense oracle is capped at {ORACLE_MAX_QUBITS} qubits")
    if gate.kind == "rot2":
        return _rot2_matrix(int(gate.params[0]), int(gate.params[1]), gate.params[2], n)
    if gate.kind == "swap":
        bare = _swap_matrix(gate.targets[0], gate.targets[1], n)
    else:
        bare = _embed_1q(_mat_1q(gate.kind, gate.params), gate.targets[0], n)
    if not gate.controls:
        return bare
    # the gate acts on the columns whose index satisfies the controls and
    # leaves every other basis state alone
    return np.where(_control_mask(gate.controls, n), bare, np.eye(2**n, dtype=complex))


def dense_operator(circuit) -> np.ndarray:
    """Full matrix of a circuit (product of its gate matrices)."""
    n = circuit.n_qubits
    if n > ORACLE_MAX_QUBITS:
        raise CapacityError(f"dense oracle is capped at {ORACLE_MAX_QUBITS} qubits")
    out = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        out = dense_gate(g, n) @ out
    return out


def is_unitary(mat: np.ndarray, tol: float = 1e-10) -> bool:
    eye = np.eye(mat.shape[0])
    return bool(np.max(np.abs(mat.conj().T @ mat - eye)) <= tol)


def schmidt_coefficients(amplitudes, qubits) -> np.ndarray:
    """Singular values, descending, of the whole 2^|A| x 2^|B| amplitude
    matrix of the bipartition (``qubits`` | rest), zero rows and columns
    included: the uncompacted reference for ``statevector.schmidt``. Each
    amplitude's row and column are read off its basis index bit by bit."""
    amps = np.asarray(amplitudes, dtype=complex)
    n = amps.size.bit_length() - 1
    if n > ORACLE_MAX_QUBITS:
        raise CapacityError(f"dense oracle is capped at {ORACLE_MAX_QUBITS} qubits")
    sub = sorted(set(qubits))
    rest = [q for q in range(n) if q not in sub]
    mat = np.zeros((2 ** len(sub), 2 ** len(rest)), dtype=complex)
    for idx, a in enumerate(amps):
        row = sum(((idx >> q) & 1) << i for i, q in enumerate(sub))
        col = sum(((idx >> q) & 1) << i for i, q in enumerate(rest))
        mat[row, col] = a
    return np.linalg.svd(mat, compute_uv=False)


def expected_qdb_amplitudes(descriptor, layout=None) -> dict[int, float]:
    """Closed-form amplitude map of a database state.

    Entry 0 (the reservoir) carries sqrt((l+1)/(k+l)); every other entry
    carries sqrt(1/(k+l)). Keys are physical basis indices. Without a layout,
    entries are assumed at index j with data at the next ceil(log2 k) bits.
    """
    k, l = descriptor.k, descriptor.l
    if k < 1 or l < 0:
        raise SemanticError("descriptor needs k >= 1 and l >= 0")
    out: dict[int, float] = {}
    for j in range(k):
        d_bits = descriptor.data.get(j, "")
        d_val = int(d_bits, 2) if d_bits else 0
        if layout is not None:
            idx = layout.physical_index(j, d_val)
        else:
            k_tilde = max(1, math.ceil(math.log2(k))) if k > 1 else 1
            idx = j | (d_val << k_tilde)
        amp = math.sqrt((l + 1) / (k + l)) if j == 0 else math.sqrt(1.0 / (k + l))
        out[idx] = amp
    return out


def permutation_matrix(mapping, n_index_qubits: int, n_data_qubits: int = 0) -> np.ndarray:
    """Matrix moving index pattern j to mapping[j], identity on the data bits.

    ``mapping`` covers patterns 0..len-1; patterns beyond it are fixed. The
    data register occupies the high-significance side.
    """
    dim_i = 2**n_index_qubits
    if len(mapping) > dim_i:
        raise SemanticError("permutation longer than the index space")
    if isinstance(mapping, dict):
        if sorted(mapping) != list(range(len(mapping))):
            raise SemanticError("mapping keys must cover 0..k-1")
        seq = [mapping[j] for j in range(len(mapping))]
    else:
        seq = [int(t) for t in mapping]
    if sorted(seq) != list(range(len(seq))):
        raise SemanticError("mapping must be a bijection on [0, k)")
    m = np.zeros((dim_i, dim_i), dtype=complex)
    for j, tgt in enumerate(seq):
        m[tgt, j] = 1.0
    for j in range(len(seq), dim_i):
        m[j, j] = 1.0
    if n_data_qubits == 0:
        return m
    return np.kron(np.eye(2**n_data_qubits, dtype=complex), m)


def overlap_lemma_sides(db1, db2, l: int) -> tuple[float, float]:
    """Both sides of the overlap-preservation identity for two databases.

    Left: overlap of the two balanced k-entry states, (1/k)(1 + sum_j <d'_j|d_j>).
    Right: overlap after both gain l empty entries,
    (1/(k+l))(1 + l + sum_j <d'_j|d_j>). Computational data, so each term of
    the sum is 1 when the bitstrings match and 0 otherwise.
    """
    if db1.k != db2.k:
        raise SemanticError("databases must have equal entry counts")
    k = db1.k
    total = 0.0
    for j in range(1, k):
        a = db1.data.get(j, "")
        b = db2.data.get(j, "")
        a_val = int(a, 2) if a else 0
        b_val = int(b, 2) if b else 0
        total += 1.0 if a_val == b_val else 0.0
    lhs = (1.0 + total) / k
    rhs = (1.0 + l + total) / (k + l)
    return lhs, rhs
