"""Statevector kernel: gate application, projection, register surgery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_register_scan_matches_brute_force,
    pattern_mask,
    qubit_slot,
    random_state,
    signed_zero_state,
)
from qdbsim.circuit import Circuit, simulate
from qdbsim.errors import CapacityError, SemanticError, ZeroProbabilityError
from qdbsim.gates import GateSpec, h, phase, rot2, ry, swap, x, y
from qdbsim.oracle import dense_gate, schmidt_coefficients as oracle_schmidt
from qdbsim.qdb import prepare_general, read_copy
from qdbsim.statevector import (
    EntanglementReport,
    StateVector,
    _axes,
    _exchange,
    add_ancillas,
    apply_gate,
    drop_qubits,
    overlap,
    project,
    sample_measure,
    schmidt,
    states_equal,
)
from qdbsim.tolerances import ORACLE_TOL, SCHMIDT_CUTOFF


def test_zero_and_basis_constructors():
    z = StateVector.zero(3)
    assert z.n_qubits == 3 and z.dim == 8
    assert z.amplitudes[0] == 1 and np.count_nonzero(z.amplitudes) == 1
    b = StateVector.basis(3, 5)
    assert b.amplitudes[5] == 1 and np.count_nonzero(b.amplitudes) == 1


def test_qubit_zero_is_least_significant():
    s = apply_gate(StateVector.zero(3), x(0))
    assert s.amplitudes[0b001] == 1
    s = apply_gate(StateVector.zero(3), x(2))
    assert s.amplitudes[0b100] == 1


def test_hadamard_splits_evenly():
    s = apply_gate(StateVector.zero(1), h(0))
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_controlled_x_positive_and_negative():
    # control satisfied: |01> -> |11>
    s = apply_gate(StateVector.basis(2, 0b01), x(1, ctrl=(0,)))
    assert s.amplitudes[0b11] == 1
    # control unsatisfied: |00> untouched
    s = apply_gate(StateVector.basis(2, 0b00), x(1, ctrl=(0,)))
    assert s.amplitudes[0b00] == 1
    # negative control fires on |0>
    s = apply_gate(StateVector.basis(2, 0b00), x(1, nctrl=(0,)))
    assert s.amplitudes[0b10] == 1


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_controlled_gate_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, 4)
    gate = ry(int(rng.integers(4)), float(rng.uniform(0, 3)))
    others = [q for q in range(4) if q != gate.targets[0]]
    rng.shuffle(others)
    gate = type(gate)(
        gate.kind, gate.params, gate.targets,
        ((others[0], 1), (others[1], 0)),
    )
    got = apply_gate(state, gate).amplitudes
    want = dense_gate(gate, 4) @ state.amplitudes
    assert np.max(np.abs(got - want)) < 1e-12


def test_swap_matches_dense_oracle(rng):
    state = random_state(rng, 3)
    got = apply_gate(state, swap(0, 2)).amplitudes
    want = dense_gate(swap(0, 2), 3) @ state.amplitudes
    assert np.max(np.abs(got - want)) < 1e-14


KERNEL_KINDS = ("x", "h", "ry", "y", "ytilde", "phase", "swap")


@st.composite
def gates_on_register(draw):
    """A gate of any kernel kind on up to 10 qubits, with 0 to n-1 controls
    of mixed polarity. Half the draws make every non-target qubit a control,
    so each selected slice is a single amplitude."""
    kind = draw(st.sampled_from(KERNEL_KINDS))
    n_targets = 2 if kind == "swap" else 1
    n = draw(st.integers(n_targets, 10))
    order = draw(st.permutations(range(n)))
    targets, rest = tuple(order[:n_targets]), order[n_targets:]
    if draw(st.booleans()):
        n_ctrl = len(rest)
    else:
        n_ctrl = draw(st.integers(0, len(rest)))
    controls = tuple((q, draw(st.integers(0, 1))) for q in rest[:n_ctrl])
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    params = {"x": (), "h": (), "swap": (), "ry": (6 * p - 3,), "y": (p,),
              "ytilde": (p,), "phase": (6 * p - 3,)}[kind]
    return n, GateSpec(kind, params, targets, controls)


@settings(deadline=None, max_examples=60)
@given(case=gates_on_register(), seed=st.integers(0, 2**32 - 1))
def test_apply_gate_matches_dense_oracle(case, seed):
    n, gate = case
    state = random_state(np.random.default_rng(seed), n)
    got = apply_gate(state, gate).amplitudes
    want = dense_gate(gate, n) @ state.amplitudes
    assert np.max(np.abs(got - want)) <= ORACLE_TOL


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_fully_controlled_gate_updates_its_single_amplitudes(kind, rng):
    n = 5
    targets = (0, 1) if kind == "swap" else (0,)
    controls = tuple((q, q % 2) for q in range(len(targets), n))
    params = {"ry": (1.1,), "y": (0.3,), "ytilde": (0.3,), "phase": (0.9,)}.get(kind, ())
    gate = GateSpec(kind, params, targets, controls)
    state = random_state(rng, n)
    got = apply_gate(state, gate).amplitudes
    want = dense_gate(gate, n) @ state.amplitudes
    assert np.max(np.abs(got - want)) <= ORACLE_TOL
    assert np.count_nonzero(got != state.amplitudes) >= 1


# GateSpec refuses a complex parameter, so the broken gate is built unchecked
NON_UNITARY = GateSpec._built("phase", (0.3 + 0.2j,), (0,))


def test_non_unitary_gate_raises_from_apply_gate():
    one = StateVector.basis(1, 1)
    with pytest.raises(SemanticError, match="normalization"):
        apply_gate(one, NON_UNITARY)
    with pytest.raises(SemanticError, match="normalization"):
        apply_gate(one, NON_UNITARY, out=one)
    # the check runs before the write, so an in-place failure leaves no trace
    assert one.amplitudes.tolist() == [0, 1]


def test_non_unitary_gate_raises_from_simulate():
    circ = Circuit(2, [x(1), NON_UNITARY])
    with pytest.raises(SemanticError, match="normalization"):
        simulate(circ, StateVector.basis(2, 1))


def test_default_calls_leave_the_callers_amplitudes_alone(rng):
    state = random_state(rng, 6)
    before = state.amplitudes.tobytes()
    apply_gate(state, x(2, ctrl=(0, 1), nctrl=(4,)))
    assert state.amplitudes.tobytes() == before
    circ = Circuit(6, [h(0), ry(3, 0.4, ctrl=(0,)), swap(1, 5), phase(2, 1.3, nctrl=(3,))])
    result = simulate(circ, state)
    assert state.amplitudes.tobytes() == before
    assert result is not state and result.amplitudes is not state.amplitudes


@pytest.mark.parametrize("gate", [x(2, ctrl=(0,), nctrl=(3,)), h(1), ry(0, 0.7, ctrl=(4,)),
                                  phase(3, 2.1, ctrl=(1, 2)), swap(0, 4, nctrl=(2,))])
def test_out_argument_gives_the_default_result(gate, rng):
    state = random_state(rng, 5)
    want = apply_gate(state, gate).amplitudes.tobytes()
    other = StateVector.zero(5)
    assert apply_gate(state, gate, out=other) is other
    assert other.amplitudes.tobytes() == want
    inplace = state.copy()
    assert apply_gate(inplace, gate, out=inplace) is inplace
    assert inplace.amplitudes.tobytes() == want
    with pytest.raises(SemanticError):
        apply_gate(state, gate, out=StateVector.zero(4))


def test_many_controlled_gate_allocates_no_whole_state_array():
    n = 20  # 16 MiB of amplitudes
    selected = (1 << 19) - 2  # qubits 1..18 set
    state = StateVector.basis(n, selected)
    gate = x(0, ctrl=range(1, 19))
    tracemalloc.start()
    try:
        apply_gate(state, gate, out=state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20 // 8, f"peak {peak} bytes"
    assert state.amplitudes[selected] == 0 and state.amplitudes[selected + 1] == 1


@settings(deadline=None, max_examples=60)
@given(case=gates_on_register().filter(lambda c: c[1].kind in ("x", "swap")),
       seed=st.integers(0, 2**32 - 1))
def test_x_and_swap_are_exact_index_permutations(case, seed):
    n, gate = case
    state = signed_zero_state(np.random.default_rng(seed), n)
    index = np.arange(2**n)
    selected = np.ones(2**n, dtype=bool)
    for q, bit in gate.controls:
        selected &= (index >> q & 1) == bit
    bits = [index >> t & 1 for t in gate.targets]
    flip = sum(1 << t for t in gate.targets)
    if gate.kind == "swap":
        selected &= bits[0] != bits[1]
    source = np.where(selected, index ^ flip, index)
    want = state.amplitudes[source]
    got = apply_gate(state, gate).amplitudes
    assert got.tobytes() == want.tobytes()
    assert apply_gate(state, gate, out=state).amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("target", [0, 9, 19])
def test_uncontrolled_x_peaks_at_half_the_state(target, rng):
    state = random_state(rng, 20)  # 16 MiB of amplitudes
    want = state.amplitudes.reshape(-1, 2, 2**target)[:, ::-1].reshape(-1).copy()
    tracemalloc.start()
    try:
        apply_gate(state, x(target), out=state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * state.amplitudes.nbytes, f"peak {peak} bytes"
    assert state.amplitudes.tobytes() == want.tobytes()


def test_uncontrolled_swap_holds_one_of_its_slices(rng):
    state = random_state(rng, 20)  # 16 MiB of amplitudes
    want = apply_gate(state, swap(3, 17)).amplitudes.tobytes()
    slice_bytes = state.amplitudes.nbytes // 4  # qubits 3 and 17 read 01 (or 10)
    tracemalloc.start()
    try:
        apply_gate(state, swap(3, 17), out=state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert slice_bytes <= peak < slice_bytes * 5 // 4, f"peak {peak} bytes"
    assert state.amplitudes.tobytes() == want


def test_norm_preserved_by_gates(rng):
    state = random_state(rng, 4)
    for gate in (h(0), ry(1, 1.234), y(2, 0.3), phase(3, 2.2), swap(0, 3)):
        state = apply_gate(state, gate)
    assert abs(state.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("gate", [
    GateSpec._built("ry", (math.nan,), (1,)),
    GateSpec._built("phase", (math.nan,), (1,)),
    GateSpec._built("rot2", (0.0, 3.0, math.nan), ()),
], ids=["ry", "phase", "rot2"])
def test_norm_check_fails_on_a_nan_drift(rng, gate):
    # built unchecked, as only qdbsim's own builders may; the constructor
    # refuses these parameters
    state = random_state(rng, 2)
    state.amplitudes[2:] = 0  # phase(nan) would turn these zeros into NaN
    before = state.amplitudes.tobytes()
    with pytest.raises(SemanticError, match="broke normalization"):
        apply_gate(state, gate, out=state)
    assert state.amplitudes.tobytes() == before


def test_two_level_rotation_moves_weight_between_strings(rng):
    state = StateVector.basis(3, 5)
    theta = 0.7
    rotated = apply_gate(state, rot2(5, 2, theta))
    assert abs(rotated.amplitudes[5] - math.cos(theta)) < 1e-14
    assert abs(abs(rotated.amplitudes[2]) - math.sin(theta)) < 1e-14
    assert abs(rotated.norm() - 1.0) < 1e-14
    # untouched strings stay put
    other = random_state(rng, 3)
    diff = apply_gate(other, rot2(5, 2, theta)).amplitudes - other.amplitudes
    mask = np.ones(8, dtype=bool)
    mask[[5, 2]] = False
    assert np.max(np.abs(diff[mask])) < 1e-14


def test_states_equal_global_phase_toggle():
    a = StateVector(np.array([1, 0], dtype=complex))
    b = StateVector(np.exp(1j * 0.8) * np.array([1, 0], dtype=complex))
    assert states_equal(a, b)
    assert not states_equal(a, b, up_to_global_phase=False)
    assert abs(abs(overlap(a, b)) - 1.0) < 1e-14


def test_project_with_predicate_mask_and_indices():
    s = apply_gate(StateVector.zero(2), h(0))
    kept, prob = project(s, lambda i: (i & 1) == 0)
    assert prob == pytest.approx(0.5)
    assert kept.amplitudes[0] == pytest.approx(1.0)
    mask = np.array([True, False, False, False])
    kept2, prob2 = project(s, mask)
    assert prob2 == pytest.approx(0.5)
    kept3, prob3 = project(s, [0])
    assert prob3 == pytest.approx(0.5)
    assert np.allclose(kept2.amplitudes, kept3.amplitudes)


@pytest.mark.parametrize("keep,message", [([-1], "out of range"), ([2.7], "must be integers"),
                                          ([99], "out of range")],
                         ids=["negative", "non-integral", "past-the-end"])
def test_project_refuses_an_index_list_entry_that_is_no_basis_index(keep, message):
    s = StateVector(np.full(8, 8**-0.5))
    with pytest.raises(SemanticError, match=message) as exc:
        project(s, keep)
    assert exc.value.exit_code == 3


def test_statevector_without_copy_shares_only_a_complex_array():
    assert StateVector([1, 0], copy=False).amplitudes.tolist() == [1, 0]
    real = np.array([0.0, 1.0])
    converted = StateVector(real, copy=False)
    assert converted.amplitudes.dtype == complex and converted.amplitudes.tolist() == [0, 1]
    amps = np.array([0.6, 0.8j])
    assert StateVector(amps, copy=False).amplitudes is amps
    assert StateVector(amps).amplitudes is not amps


def test_project_onto_nothing_raises():
    s = StateVector.basis(2, 3)
    with pytest.raises(ZeroProbabilityError):
        project(s, [0])


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), data=st.data())
def test_register_scan_takes_pattern_bits_in_register_order(seed, n, data):
    # pattern bit i lives on qubits[i], whatever order those qubits have
    order = data.draw(st.permutations(range(n)))
    qubits = tuple(order[:data.draw(st.integers(1, n))])
    state = random_state(np.random.default_rng(seed), n)
    assert_register_scan_matches_brute_force(state, qubits)


def test_sample_measure_deterministic_and_consistent():
    s = apply_gate(StateVector.zero(2), h(0))
    s = apply_gate(s, x(1, ctrl=(0,)))  # Bell pair
    bits1, collapsed1 = sample_measure(s, [0], seed=11)
    bits2, _ = sample_measure(s, [0], seed=11)
    assert bits1 == bits2
    # collapse is total: the other qubit is now correlated
    expect = 0b11 if bits1 == "1" else 0b00
    assert abs(collapsed1.amplitudes[expect]) == pytest.approx(1.0)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), data=st.data())
def test_sample_measure_collapses_as_project_does(seed, n, data):
    # the collapsed state is the projection onto the outcome, bit for bit
    qubits = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
    state = signed_zero_state(np.random.default_rng(seed), n)
    bits, collapsed = sample_measure(state, qubits, seed)
    outcome = sum(int(c) << i for i, c in enumerate(bits))
    kept, _ = project(state, pattern_mask(state, qubits, outcome))
    assert collapsed.amplitudes.tobytes() == kept.amplitudes.tobytes()


def test_sample_measure_refuses_a_weightless_vector():
    with pytest.raises(ZeroProbabilityError):
        sample_measure(StateVector(np.zeros(4)), [0], seed=1)


def test_sample_measure_rejects_duplicates():
    s = StateVector.zero(2)
    with pytest.raises(SemanticError):
        sample_measure(s, [0, 0], seed=1)


def test_add_then_drop_ancillas_round_trip(rng):
    state = random_state(rng, 3)
    grown = add_ancillas(state, 2)
    assert grown.n_qubits == 5
    back = drop_qubits(grown, [3, 4])
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-14)


def test_add_ancillas_with_value():
    grown = add_ancillas(StateVector.zero(1), 2, value=0b10)
    assert grown.amplitudes[0b100] == 1


def test_drop_refuses_entangled_qubit():
    s = apply_gate(StateVector.zero(2), h(1))
    with pytest.raises(SemanticError):
        drop_qubits(s, [1])


def test_drop_without_expecting_zero_refuses_a_state_it_would_empty():
    # |01>: qubit 0 reads 1 everywhere, so dropping it keeps no weight
    with pytest.raises(ZeroProbabilityError):
        drop_qubits(StateVector.basis(2, 0b01), [0], expect_zero=False)


@pytest.mark.parametrize("q", [0, 2, 4])
def test_drop_without_expecting_zero_keeps_the_bits_it_kept(rng, q):
    state = signed_zero_state(rng, 5)
    kept = state.amplitudes.reshape(-1, 2 ** (q + 1))[:, :2**q].reshape(-1)
    want = kept / np.linalg.norm(kept)
    assert drop_qubits(state, [q], expect_zero=False).amplitudes.tobytes() == want.tobytes()


def test_qubit_budget_enforced():
    s = StateVector.zero(3)
    with pytest.raises(CapacityError):
        add_ancillas(s, 1, max_qubits=3)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), data=st.data())
def test_schmidt_matches_full_matrix_svd(seed, n, data):
    # sparse supports, down to one amplitude, and non-contiguous bipartitions
    support = data.draw(st.integers(1, 2**n), label="support")
    part = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1),
                     label="part")
    rng = np.random.default_rng(seed)
    amps = np.zeros(2**n, dtype=complex)
    where = rng.choice(2**n, size=support, replace=False)
    amps[where] = rng.normal(size=support) + 1j * rng.normal(size=support)
    state = StateVector(amps / np.linalg.norm(amps))
    rep = schmidt(state, part)
    full = oracle_schmidt(state.amplitudes, part)
    assert len(rep.schmidt_coefficients) == len(full) == 2 ** min(len(part), n - len(part))
    assert np.max(np.abs(np.array(rep.schmidt_coefficients) - full)) <= ORACLE_TOL
    lam2 = full**2 / np.sum(full**2)
    nz = lam2[lam2 > 0]
    assert rep.schmidt_rank == int(np.sum(full > SCHMIDT_CUTOFF))
    assert rep.purity == pytest.approx(float(np.sum(lam2**2)), abs=ORACLE_TOL)
    assert rep.entropy_bits == pytest.approx(float(-np.sum(nz * np.log2(nz))), abs=1e-9)
    assert rep == reference_schmidt(state, part)


def reference_schmidt(state, qubits):
    """Schmidt's report from one boolean mask over the amplitude matrix,
    its nonzero rows and columns cut out with ``np.ix_``."""
    sub = sorted(set(qubits))
    n = state.n_qubits
    rest = [q for q in range(n) if q not in sub]
    order = [n - 1 - q for q in reversed(sub)] + [n - 1 - q for q in reversed(rest)]
    mat = state.amplitudes.reshape([2] * n).transpose(order).reshape(
        2 ** len(sub), 2 ** len(rest))
    nonzero = mat != 0
    rows, cols = nonzero.any(axis=1), nonzero.any(axis=0)
    core = mat if rows.all() and cols.all() else mat[np.ix_(rows, cols)]
    coeffs = np.zeros(min(mat.shape))
    coeffs[:min(core.shape)] = np.linalg.svd(core, compute_uv=False)
    lam2 = coeffs**2
    lam2 = lam2 / lam2.sum()
    nz = lam2[lam2 > 0]
    return EntanglementReport(tuple(float(c) for c in coeffs),
                              int(np.sum(coeffs > SCHMIDT_CUTOFF)),
                              float(-np.sum(nz * np.log2(nz))), float(np.sum(lam2**2)))


def _support_state(rng, rows, cols, n=16, top=6):
    """A state on ``n`` qubits whose amplitude matrix across its ``top``
    highest qubits is nonzero on the given rows and, within each, on a random
    half of the given columns (every column used at least once)."""
    mat = np.zeros((2**top, 2 ** (n - top)), dtype=complex)
    for i, r in enumerate(rows):
        hit = [c for c in cols if rng.random() < 0.5] + [cols[i % len(cols)]]
        mat[r, hit] = rng.normal(size=len(hit)) + 1j * rng.normal(size=len(hit))
    amps = mat.reshape(-1)
    return StateVector(amps / np.linalg.norm(amps), copy=False)


SUPPORTS = {
    # (nonzero rows, nonzero columns) of the 64 x 1024 matrix
    "every-row-sparse-columns": (range(64), [3, 17, 200, 513, 1000]),
    "one-row": ([37], list(range(0, 1024, 9))),
    "most-rows": (range(5, 60), [0, 1, 2, 700, 1023]),  # too many to copy
}


@pytest.mark.parametrize("support", SUPPORTS, ids=list(SUPPORTS))
def test_schmidt_finds_each_support_without_a_mask_over_the_state(support, rng):
    rows, cols = SUPPORTS[support]
    state = _support_state(rng, list(rows), cols)
    top = list(range(10, 16))
    tracemalloc.start()
    try:
        rep = schmidt(state, top)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep == reference_schmidt(state, top)
    # a boolean mask over the amplitudes would take 2**16 bytes
    assert peak < 2**16, f"peak {peak} bytes"
    assert schmidt(state, range(10)) == reference_schmidt(state, range(10))


def test_copy_read_schmidt_allocates_less_than_a_mask():
    # 64 x 16,384 amplitudes; a boolean mask over them takes 1 MiB
    db = read_copy(prepare_general(256, 0, {1: 0b101101, 200: 0b000111}, m_data=6), 1)
    tracemalloc.start()
    try:
        rep = schmidt(db.state, db.copy_qubits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak} bytes"
    assert rep == reference_schmidt(db.state, db.copy_qubits)


def test_schmidt_svd_spans_only_the_support(monkeypatch):
    # a 20-qubit copy read: 64 x 16,384 amplitudes, 256 of them nonzero
    db = read_copy(prepare_general(256, 0, {1: 0b101101, 200: 0b000111}, m_data=6), 1)
    assert db.n_qubits == 20
    nonzero = int(np.count_nonzero(db.state.amplitudes))
    seen = []
    svd = np.linalg.svd

    def spy(mat, *args, **kwargs):
        seen.append(mat.shape)
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rep = schmidt(db.state, db.copy_qubits)
    assert seen and all(max(shape) <= nonzero for shape in seen), seen
    assert len(rep.schmidt_coefficients) == 64
    assert rep.schmidt_coefficients[:2] == pytest.approx(
        (math.sqrt(255 / 256), math.sqrt(1 / 256)), abs=1e-12)
    assert not any(rep.schmidt_coefficients[2:])


def test_schmidt_product_vs_entangled():
    prod = apply_gate(StateVector.zero(2), h(0))
    rep = schmidt(prod, [1])
    assert rep.schmidt_rank == 1
    assert rep.purity == pytest.approx(1.0)
    assert not rep.entangled
    bell = apply_gate(prod, x(1, ctrl=(0,)))
    rep = schmidt(bell, [1])
    assert rep.schmidt_rank == 2
    assert rep.entropy_bits == pytest.approx(1.0, abs=1e-9)
    assert rep.entangled


@st.composite
def _splits(draw):
    """A width n, wires in any order (none to all of the qubits), a data
    register on some of the rest, in any order (split, or above the wires),
    and free qubits in neither."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    w = draw(st.integers(0, n))
    d = draw(st.integers(0, n - w))
    return n, tuple(order[:w]), tuple(order[w:w + d])


def _place(value, qubits) -> int:
    return sum((value >> b & 1) << q for b, q in enumerate(qubits))


@settings(deadline=None, max_examples=200)
@given(split=_splits(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_register_run_split_selects_the_qubit_views_slots(split, seed, data):
    n, wires, reg = split
    axes = _axes(wires, reg, n)
    state = signed_zero_state(np.random.default_rng(seed), n)
    amps = state.amplitudes
    pattern = data.draw(st.integers(0, (1 << len(wires)) - 1), label="pattern")
    got = axes.select(amps, pattern)
    assert np.shares_memory(got, amps)  # a view, also with every axis fixed
    assert got.tobytes() == qubit_slot(amps, wires, pattern).tobytes()
    word = data.draw(st.integers(0, (1 << len(reg)) - 1), label="word")
    at = _place(pattern, wires) | _place(word, reg)
    assert got[axes.position(word)].tobytes() == amps[at:at + 1].tobytes()
    if reg:  # what lies at data word w lands at w XOR word
        assert (axes.moved(got, word).tobytes()
                == qubit_slot(amps, wires, pattern, _place(word, reg)).tobytes())
    if wires:
        two = data.draw(st.integers(0, (1 << len(wires)) - 1), label="two")
        traded, want = state.copy().amplitudes, state.copy().amplitudes
        _exchange(traded, axes, pattern, two)
        first, second = qubit_slot(want, wires, pattern), qubit_slot(want, wires, two)
        held = first.copy()
        first[...] = second
        second[...] = held
        assert traded.tobytes() == want.tobytes()
