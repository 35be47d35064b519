"""Growth operations: amplitude transfer, unfold, chunked and imbalanced extend."""

import hashlib
import importlib
import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import H_ENCODING, RY_CNOT_ENCODING, RY_ENCODING, state_matches_oracle
import qdbsim.circuit as circuit_mod
from qdbsim.circuit import Circuit, simulate
from qdbsim.errors import CapacityError, SemanticError, VerificationError
from qdbsim.extend import (
    ROUTES,
    amplification_circuit,
    check_no_unitary_extend,
    extend,
    extend_imbalanced,
    extend_imbalanced_meta,
    extend_meta,
    plan_extend_imbalanced,
    plan_transfer,
    transfer,
    unfold,
    zero_phase_circuit,
)
from qdbsim.qdb import (
    _decoded,
    _encoding,
    permute,
    preparation_circuit,
    prepare_general,
    remove_reservoir,
    write,
)
from qdbsim.statevector import StateVector, states_equal
from qdbsim.text_format import emit_text
from qdbsim.tolerances import ORACLE_TOL, PLAN_RESIDUAL_TOL


# --- planning ----------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_plan_transfer_solves_within_residual(data):
    k = data.draw(st.integers(2, 64), label="k")
    l = data.draw(st.integers(1, k), label="l")
    plan = plan_transfer(k, l)
    assert plan.residual < PLAN_RESIDUAL_TOL
    assert plan.m == math.floor(plan.m_star)
    assert plan.m_star > 0
    assert plan.target_amplitude == pytest.approx(math.sqrt((l + 1) / (k + l)))


def test_plan_transfer_trivial_cases():
    plan = plan_transfer(5, 0)
    assert plan.m == 0 and plan.residual == 0.0
    with pytest.raises(SemanticError):
        plan_transfer(0, 1)


def test_plan_transfer_sweep_reaches_every_balanced_target():
    # every chunk extend can ask for up to k = 256, in well under 2 s
    start = time.perf_counter()
    worst = 0.0
    for k in range(2, 257):
        for l in range(1, k + 1):
            plan = plan_transfer(k, l)
            assert plan.m == math.floor(plan.m_star) and plan.m_star > 0, (k, l)
            worst = max(worst, plan.residual)
    assert worst < PLAN_RESIDUAL_TOL
    assert time.perf_counter() - start < 2.0


def test_plan_transfer_single_entry_needs_no_steps():
    # one entry: the reservoir already carries amplitude 1 = sqrt((l+1)/(1+l))
    plan = plan_transfer(1, 3)
    assert (plan.m_star, plan.m, plan.residual) == (0.0, 0, 0.0)
    assert plan.target_amplitude == 1.0
    grown = extend(prepare_general(1), 3)
    assert grown.k == 4
    grown.check()


def test_plan_transfer_reaches_imbalanced_targets():
    # extend_imbalanced asks for l up to (2^z - 1) k; l > k needs the last
    # step's two phases to differ for many pairs, e.g. (6, 60)
    start = time.perf_counter()
    for k in range(2, 17):
        for l in range(k + 1, 63 * k + 1):
            plan = plan_transfer(k, l)
            assert plan.residual < PLAN_RESIDUAL_TOL and plan.m == math.floor(plan.m_star)
    assert time.perf_counter() - start < 2.0


def test_plan_report_is_json_ready():
    rep = plan_transfer(4, 4).to_report()
    assert set(rep) == {"m_star", "n", "sign", "m", "phi", "rho",
                        "target_amplitude", "residual"}
    json.dumps(rep)


# --- transfer ----------------------------------------------------------------


@pytest.mark.parametrize("k,l", [(2, 2), (4, 4), (4, 2), (8, 8)])
def test_transfer_reaches_reservoir_target(k, l):
    db = prepare_general(k, 0, {1: "1"})
    loaded, plan = transfer(db, l)
    assert plan.residual < 1e-10
    want = math.sqrt((l + 1) / (k + l))
    assert abs(abs(loaded.reservoir_amplitude()) - want) < 1e-8
    for j in range(1, k):
        assert abs(abs(loaded.amplitude(j)) - math.sqrt(1 / (k + l))) < 1e-8
    loaded.check(tol=1e-8)


def test_transfer_is_phase_clean(rng):
    db = prepare_general(4, 0)
    loaded, _ = transfer(db, 2)
    amps = loaded.state.amplitudes
    support = amps[np.abs(amps) > 1e-9]
    phases = support / np.abs(support)
    assert np.max(np.abs(phases - phases[0])) < 1e-7


def test_transfer_noop_for_zero():
    db = prepare_general(3, 0)
    same, plan = transfer(db, 0)
    assert same is db and plan.m == 0


def test_transfer_single_entry_builds_no_step():
    # k = 1: the plan has no step (m* = 0), so the state and history stay put
    db = prepare_general(1)
    loaded, plan = transfer(db, 1)
    assert plan.m_star == 0 and loaded is not db and loaded.l == 1
    assert loaded.state is db.state and len(loaded.circuit) == len(db.circuit)
    grown = unfold(loaded)
    assert grown.k == 2
    grown.check()


def test_transfer_requires_balanced_start():
    db = prepare_general(3, 2)
    with pytest.raises(SemanticError):
        transfer(db, 1)


def test_transfer_preflight_catches_stale_circuit():
    db = prepare_general(4, 0, {1: "1"})
    tampered = db.state.amplitudes.copy()
    tampered[[1, 2]] = tampered[[2, 1]] * 1j  # not what the circuit builds
    db.state = StateVector(tampered / np.linalg.norm(tampered), copy=False)
    with pytest.raises(VerificationError):
        transfer(db, 2)


def test_transfer_matches_oracle_route():
    db = prepare_general(2, 0, {1: "1"})
    loaded, _ = transfer(db, 2)
    assert state_matches_oracle(loaded) < 1e-12


def _padded(amps, n_qubits):
    out = np.zeros(2 ** n_qubits, dtype=complex)
    out[: amps.size] = amps
    return out


def _replay_appended(db, grown):
    """Gate-level simulation, on ``db``'s state, of the gates ``grown``
    appended to ``db``'s history (both padded with |0> to the history's width)."""
    n = grown.circuit.n_qubits
    start = StateVector(_padded(db.state.amplitudes, n), copy=False)
    return simulate(Circuit(n, grown.circuit.gates[len(db.circuit):]), start).amplitudes


ENCODINGS = {"none": None, "h": H_ENCODING, "ry-cnot": RY_CNOT_ENCODING}


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_transfer_reflections_match_its_gates(data):
    u_d = ENCODINGS[data.draw(st.sampled_from(sorted(ENCODINGS)), label="u_d")]
    k = data.draw(st.integers(2, 64), label="k")
    m = u_d.n_qubits if u_d else data.draw(st.integers(1, 2), label="m")
    words = data.draw(st.dictionaries(st.integers(1, k - 1), st.integers(1, 2 ** m - 1),
                                      max_size=4), label="words")
    db = prepare_general(k, 0, words, m_data=m, u_d=u_d)
    if data.draw(st.booleans(), label="imbalanced"):
        # l up to (2^z - 1) k: the transfer inside extend_imbalanced
        z = data.draw(st.integers(2, 6), label="z")
        l = (2 ** z - 1) * data.draw(st.integers(1, k), label="l''")
        grown = extend_imbalanced(db, l, z, route=data.draw(st.sampled_from(["direct", "marker"])))
    else:
        grown, _ = transfer(db, data.draw(st.integers(1, k), label="l"))
    got = _padded(grown.state.amplitudes, grown.circuit.n_qubits)
    assert np.max(np.abs(got - _replay_appended(db, grown))) <= ORACLE_TOL


def test_transfer_simulates_only_the_preflight(monkeypatch):
    # the steps are reflections about the preflight state: the only circuit
    # simulated is the preparation circuit, once, and its data-write block
    # moves its amplitudes in one call, every entry at once
    db = prepare_general(128, 0, {j: j % 64 for j in range(1, 128, 3)}, m_data=6)
    u_qdb = preparation_circuit(db.descriptor, db.layout)
    simulated, moved = [], []  # circuits simulated; entries of each move
    real_simulate, real_move = simulate, circuit_mod.move_amplitudes

    def simulating(circuit, *args, **kwargs):
        simulated.append(circuit)
        return real_simulate(circuit, *args, **kwargs)

    def moving(state, wires, bases, masks):
        moved.append(len(bases))
        real_move(state, wires, bases, masks)

    for name in ("qdbsim.qdb", "qdbsim.extend"):
        monkeypatch.setattr(importlib.import_module(name), "simulate", simulating)
    monkeypatch.setattr(circuit_mod, "move_amplitudes", moving)
    loaded, plan = transfer(db, 128)
    assert plan.m == 3
    assert [c.gates for c in simulated] == [u_qdb.gates]
    assert [count for count in moved if count > 1] == [len(db.descriptor.data)]
    loaded.check()


# --- amplification circuit ---------------------------------------------------


def _amplification_by_steps(u_qdb, db_qubits, plan, encoding):
    """Reference: each step built as its own circuit (u^-1 rebuilt each
    time) and concatenated onto the transfer's circuit one by one."""
    n = u_qdb.n_qubits

    def step(phi, rho):
        circ = _decoded(zero_phase_circuit(rho, db_qubits, n), encoding)
        circ += u_qdb.inverse()
        circ += zero_phase_circuit(phi, db_qubits, n)
        return circ + u_qdb

    circ = Circuit(n)
    for _ in range(plan.m):
        circ += step(math.pi, math.pi)
    circ += step(plan.phi, plan.rho)
    return circ + _decoded(zero_phase_circuit(plan.phase_fix, db_qubits, n), encoding)


def _transfer_parts(db, l):
    """(u, database qubits, plan, encoding) of ``transfer(db, l)``."""
    return (preparation_circuit(db.descriptor, db.layout),
            db.layout.index_qubits + db.layout.data_qubits, plan_transfer(db.k, l),
            _encoding(db.descriptor.u_d, db.n_qubits, db.layout.data_qubits))


AMPLIFICATION_ENCODINGS = {"none": None, "h": H_ENCODING, "ry": RY_ENCODING}


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_amplification_circuit_matches_the_per_step_build(data):
    u_d = AMPLIFICATION_ENCODINGS[data.draw(st.sampled_from(sorted(AMPLIFICATION_ENCODINGS)),
                                            label="u_d")]
    k = data.draw(st.integers(2, 64), label="k")
    words = data.draw(st.dictionaries(st.integers(1, k - 1), st.just(1), max_size=3),
                      label="words")
    db = prepare_general(k, 0, words, m_data=1, u_d=u_d)
    parts = _transfer_parts(db, data.draw(st.integers(1, 3 * k), label="l"))
    got, want = amplification_circuit(*parts), _amplification_by_steps(*parts)
    assert emit_text(got) == emit_text(want)
    assert list(got.labels.items()) == list(want.labels.items())


def test_amplification_steps_share_one_inverse_of_u():
    db = prepare_general(16, 0, {1: 1, 5: 1}, m_data=1)
    u_qdb, db_qubits, plan, encoding = _transfer_parts(db, 16)
    assert plan.m == 1
    circ = amplification_circuit(u_qdb, db_qubits, plan, encoding)
    phase_gates = len(zero_phase_circuit(0.0, db_qubits, db.n_qubits))
    step = 2 * (phase_gates + len(u_qdb))
    first = circ.gates[phase_gates:phase_gates + len(u_qdb)]
    second = circ.gates[step + phase_gates:step + phase_gates + len(u_qdb)]
    assert first == u_qdb.inverse().gates
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_transfer_steps_share_one_u_and_one_u_inverse():
    db = prepare_general(64, 0, {1: 1, 5: 1, 40: 1}, m_data=1)
    u_qdb, db_qubits, plan, encoding = _transfer_parts(db, 64)
    assert plan.m >= 1
    leaves = list(amplification_circuit(u_qdb, db_qubits, plan, encoding)._leaves())
    # every step holds u's own parts, and one u^-1 whose block is u's reversed
    for part in u_qdb._leaves():
        assert sum(leaf is part for leaf in leaves) == plan.m + 1
    (block,) = [part for part in u_qdb._leaves() if type(part) is not list]
    reversed_blocks = [leaf for leaf in leaves if type(leaf) is not list and leaf.reversed]
    assert len(reversed_blocks) == plan.m + 1
    assert all(leaf is reversed_blocks[0] for leaf in reversed_blocks)
    assert reversed_blocks[0].forward is block


def test_history_text_and_amplitudes_are_pinned():
    # sha256 of emit() and of the amplitudes' bytes after a fixed sequence
    # with a two-round extend (16 -> 32 -> 36 entries; the first transfer
    # takes a full step), recorded while the history was one flat gate list
    pinned = {
        None: ("3c934c753bce9625b98f4f22ee5009e159bf5c78397991a973a1e14a33c3f728",
               "aad01e2e4872260e20b396cf836af965c61cbd733dbc5fba6f544e882afb9f1e"),
        "ry": ("e5a7d809fb4f0cc716b0745ba3acb40fd8fc3b47cf40b4e67025da37ee0109cc",
               "00a8772db04bd70d02c4418ed991f53c2215a94348ab58bf84ed1791489c3bab"),
    }
    for name, (text_sha, amps_sha) in pinned.items():
        if name is None:
            db = prepare_general(16, 0, {1: "10", 5: "01", 9: "11"}, m_data=2)
            db = write(db, 3, "11")
        else:
            db = prepare_general(16, 0, {1: "1", 5: "1", 9: "1"}, m_data=1, u_d=RY_ENCODING)
            db = write(db, 3, "1")
        db = permute(remove_reservoir(extend(db, 20), 5), {1: 9, 9: 1})
        assert hashlib.sha256(db.emit().encode()).hexdigest() == text_sha
        assert hashlib.sha256(db.state.amplitudes.tobytes()).hexdigest() == amps_sha


def _growth_with_routed_preflight(u_d):
    """6 -> 16 entries in two rounds (the second preflight routes, as labels
    no longer sit at contiguous patterns), then a transfer with m = 2 full
    steps whose preflight routes too."""
    db = prepare_general(6, 0, {1: 1, 3: 1}, m_data=1 if u_d else 2, u_d=u_d)
    db = extend(db, 10)
    assert any(db.layout.pattern(j) != j for j in db.layout.labels)
    db, plan = transfer(db, 150)
    assert plan.m == 2
    return db


@pytest.mark.parametrize("u_d,digest", [
    (None, "9673bb1ce6b7f62b9e2ce21afcb40930b43a0c3adaad3e7e2ce78720e64b5acb"),
    (RY_ENCODING, "250315dff733e5b77230e60fbb5c758620b152e4c8dd87ce2eb9b2ddffc1307a"),
], ids=["plain", "ry"])
def test_growth_history_text_is_pinned(u_d, digest):
    db = _growth_with_routed_preflight(u_d)
    assert hashlib.sha256(db.emit().encode()).hexdigest() == digest


# --- unfold ------------------------------------------------------------------


def test_unfold_creates_empty_entries():
    db = prepare_general(2, 0, {1: "1"})
    loaded, _ = transfer(db, 2)
    grown = unfold(loaded)
    assert (grown.k, grown.l) == (4, 0)
    assert len(grown.layout.index_qubits) == 2
    # new labels continue after the old ones, patterns get the new high bit
    assert grown.layout.pattern(2) == 0b10
    assert grown.layout.pattern(3) == 0b11
    assert grown.descriptor.data == {1: "1"}
    grown.check(tol=1e-8)


def test_unfold_requires_loaded_reservoir():
    db = prepare_general(3, 0)
    with pytest.raises(SemanticError):
        unfold(db)


def test_unfold_capacity_guard():
    db = prepare_general(2, 0)
    loaded, _ = transfer(db, 3)
    with pytest.raises(CapacityError):
        unfold(loaded)  # 3 new entries need 2 fresh patterns + 1, only 2 exist


# --- extend ------------------------------------------------------------------


def test_extend_chunks_to_uniform_database():
    db = prepare_general(2, 0, {1: "1"})
    plans = []
    grown = extend(db, 5, plan_sink=plans.append)
    assert grown.k == 7 and grown.l == 0
    assert [p.l for p in plans] == [2, 3]
    want = 1 / math.sqrt(7)
    for j in range(7):
        assert abs(abs(grown.amplitude(j)) - want) < 1e-8
    grown.check(tol=1e-8)


def test_extend_keeps_old_data_and_zeroes_new():
    db = prepare_general(3, 0, {1: "10", 2: "01"}, m_data=2)
    grown = extend(db, 4)
    assert grown.descriptor.data == {1: "10", 2: "01"}
    amps = grown.state.amplitudes
    for label in range(3, 7):
        pat_idx = grown.layout.physical_index(label, 0)
        assert abs(amps[pat_idx]) > 0.1
        # conditional probability of any set data bit on new entries
        for value in range(1, 4):
            assert abs(amps[grown.layout.physical_index(label, value)]) ** 2 < 1e-12


@pytest.mark.parametrize("k,l", [(15, 15), (20, 20)])
def test_extend_grows_mid_size_databases(k, l):
    db = prepare_general(k, 0, {1: "1", k - 1: "1"})
    grown = extend(db, l)
    assert (grown.k, grown.l) == (k + l, 0)
    assert grown.descriptor.data == {1: "1", k - 1: "1"}
    grown.check()
    assert state_matches_oracle(grown) < 1e-12


def test_extend_zero_is_identity():
    db = prepare_general(3, 0)
    assert extend(db, 0) is db


def test_extend_rejects_mismatched_preload():
    db = prepare_general(2, 1)
    with pytest.raises(SemanticError, match="already loaded for 1"):
        extend(db, 2)


def test_extend_accepts_matching_preload():
    # weight reserved at preparation time: no transfer rounds, one unfold
    pre = extend(prepare_general(3, 2, {2: "1"}), 2)
    ref = extend(prepare_general(3, 0, {2: "1"}), 2)
    assert pre.k == 5 and pre.l == 0
    pre.check()
    assert states_equal(pre.state, ref.state)


def _count_calls(monkeypatch, *names):
    """Count the calls of the ``qdbsim.extend`` functions ``names``."""
    extend_mod = importlib.import_module("qdbsim.extend")  # the package's `extend` is the op
    calls = Counter({name: 0 for name in names})
    for name in names:
        def counted(*args, _fn=getattr(extend_mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(extend_mod, name, counted)
    return calls


def test_extend_derives_and_plans_each_round_once(monkeypatch):
    db = prepare_general(4)
    calls = _count_calls(monkeypatch, "transfer_meta", "unfold_meta", "plan_transfer")
    assert extend(db, 12).k == 16  # rounds of 4 and 8
    assert calls == {"transfer_meta": 2, "unfold_meta": 2, "plan_transfer": 2}


def test_imbalanced_extend_works_out_its_shape_once(monkeypatch):
    # the shape is worked out only by plan_extend_imbalanced
    db = prepare_general(4)
    calls = _count_calls(monkeypatch, "plan_extend_imbalanced", "transfer_meta")
    assert extend_imbalanced(db, 6, 2).k == 10
    assert calls == {"plan_extend_imbalanced": 1, "transfer_meta": 1}


@pytest.mark.parametrize("db,grow,checks", [
    (prepare_general(4), lambda db: extend(db, 12), 2),  # rounds of 4 and 8
    (prepare_general(3, 0, {1: 1}, m_data=1), lambda db: extend_imbalanced(db, 6, 2), 1),
    (prepare_general(4), lambda db: extend_imbalanced(db, 3, 1), 1),
    (prepare_general(4), lambda db: transfer(db, 4), 1),
    (prepare_general(4), lambda db: transfer(db, 0), 0),
], ids=["extend", "imbalanced", "single-ancilla", "transfer", "transfer-none"])
def test_growth_checks_the_state_once_per_round(monkeypatch, db, grow, checks):
    # a round's transfer is checked by the unfold or spread that follows it;
    # the public transfer checks what its reflections loaded
    from qdbsim.qdb import QdbState

    calls = []
    check = QdbState.check

    def counted(self, *args, **kwargs):
        calls.append(self)
        return check(self, *args, **kwargs)

    monkeypatch.setattr(QdbState, "check", counted)
    grow(db)
    assert len(calls) == checks


def _extend_by_rounds(db, l):
    """Reference for ``extend``: public ``transfer`` and ``unfold`` rounds of
    at most k new entries each, or one unfold of a preloaded reservoir; the
    grown database and the rounds' plans."""
    if db.l:
        return unfold(db), []
    plans = []
    while l > 0:
        db, plan = transfer(db, min(db.k, l))
        plans.append(plan)
        db = unfold(db)
        l -= plan.l
    return db, plans


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_extend_is_its_chain_of_rounds(data):
    u_d = ENCODINGS[data.draw(st.sampled_from(sorted(ENCODINGS)), label="u_d")]
    k = data.draw(st.integers(1, 12), label="k")
    m = u_d.n_qubits if u_d else data.draw(st.integers(0, 2), label="m")
    words = data.draw(st.dictionaries(st.integers(1, k - 1), st.integers(1, 2 ** m - 1),
                                      max_size=3), label="words") if k > 1 and m else {}
    preload = data.draw(st.booleans(), label="preload")
    # a preloaded reservoir unfolds at once, so at most k entries
    l = data.draw(st.integers(1 if preload else 0, k if preload else 3 * k), label="l")
    db = prepare_general(k, l if preload else 0, words, m_data=m, u_d=u_d)
    plans = []
    grown = extend(db, l, plan_sink=plans.append)
    want, want_plans = _extend_by_rounds(db, l)
    assert grown.state.amplitudes.tobytes() == want.state.amplitudes.tobytes()
    assert grown.emit() == want.emit()
    assert grown.meta == want.meta
    assert plans == want_plans == [p for _, p in extend_meta(db.meta, l)[1] if p is not None]


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_imbalanced_extend_runs_what_its_transition_derived(data):
    u_d = ENCODINGS[data.draw(st.sampled_from(sorted(ENCODINGS)), label="u_d")]
    case = data.draw(st.sampled_from(["direct", "marker", "z=1", "preloaded"]), label="case")
    k = data.draw(st.integers(2, 8), label="k")
    z = 1 if case == "z=1" else data.draw(st.integers(2, 3), label="z")
    if z == 1:
        l = data.draw(st.integers(1, k), label="l")
    else:  # l'' entries on each of the 2^z - 1 ancilla patterns
        l = (2 ** z - 1) * data.draw(st.integers(1, k), label="l''")
    route = case if case in ROUTES else data.draw(st.sampled_from(ROUTES), label="route")
    m = u_d.n_qubits if u_d else 1
    db = prepare_general(k, l if case == "preloaded" else 0, {1: 1}, m_data=m, u_d=u_d)
    new, loading, plan = extend_imbalanced_meta(db.meta, l, z, route=route)
    assert (loading is None) == (case == "preloaded")
    plans = []
    grown = extend_imbalanced(db, l, z, route=route, plan_sink=plans.append)
    assert plans == [plan]
    assert grown.meta == new


def test_unfold_rejects_underfunded_reservoir():
    from qdbsim.qdb import QdbDescriptor, QdbState

    db = prepare_general(4, 2)
    claim = QdbDescriptor(k=4, l=3, data={}, m_data=db.descriptor.m_data)
    lying = QdbState(claim, db.layout, db.state, db.circuit)
    with pytest.raises(SemanticError, match="reservoir holds"):
        unfold(lying)


def _reservoir_off_pattern_zero(l):
    """k = 3 with reservoir multiplicity ``l`` on a hand-built layout whose
    reservoir, label 0, sits at index pattern 1 and label 1 at pattern 0."""
    from qdbsim.qdb import QdbDescriptor, QdbLayout, QdbState

    layout = QdbLayout((0, 1), (2,), {0: 1, 1: 0, 2: 2})
    desc = QdbDescriptor(3, l, {2: "1"}, m_data=1)
    amps = np.zeros(8, dtype=complex)
    for label in range(3):
        weight = (l + 1 if label == 0 else 1) / (3 + l)
        amps[layout.physical_index(label, desc.data_value(label))] = math.sqrt(weight)
    db = QdbState(desc, layout, StateVector(amps), Circuit(3))
    db.check()
    return db


@pytest.mark.parametrize("l,grow", [
    (0, lambda db: transfer(db, 2)),
    (2, unfold),
    (0, lambda db: extend(db, 2)),
    (2, lambda db: extend(db, 2)),
    (0, lambda db: extend_imbalanced(db, 2, 1)),
], ids=["transfer", "unfold", "extend", "extend-loaded", "extend_imbalanced"])
def test_growth_refuses_a_reservoir_off_index_pattern_zero(monkeypatch, l, grow):
    db = _reservoir_off_pattern_zero(l)
    before = db.state.amplitudes.tobytes()
    simulated = []
    for name in ("qdbsim.circuit", "qdbsim.qdb", "qdbsim.extend"):
        monkeypatch.setattr(importlib.import_module(name), "simulate",
                            lambda *args, **kwargs: simulated.append(args))
    with pytest.raises(SemanticError, match="reservoir at index pattern 0, not 1$") as exc:
        grow(db)
    assert exc.value.exit_code == 3
    assert db.state.amplitudes.tobytes() == before
    assert simulated == []


# --- data encodings ----------------------------------------------------------

ENCODED = [pytest.param(H_ENCODING, {1: "1"}, id="h"),
           pytest.param(RY_CNOT_ENCODING, {1: "101", 2: "011"}, id="ry-cnot")]
GROWTHS = {
    "extend": lambda db: extend(db, 2),
    "transfer": lambda db: transfer(db, 2)[0],
    "extend_imbalanced": lambda db: extend_imbalanced(db, 6, 2),
}


def _encoded(k, l, u_d, data):
    return prepare_general(k, l, data, m_data=u_d.n_qubits, u_d=u_d)


@pytest.mark.parametrize("u_d,data", ENCODED)
@pytest.mark.parametrize("op", sorted(GROWTHS))
def test_growth_under_data_encoding(op, u_d, data):
    k = 3 if op == "extend_imbalanced" else 4
    grown = GROWTHS[op](_encoded(k, 0, u_d, data))
    grown.check()
    assert grown.descriptor.data == _encoded(k, 0, u_d, data).descriptor.data
    assert state_matches_oracle(grown) < 1e-12


@pytest.mark.parametrize("u_d,data", ENCODED)
def test_unfold_under_data_encoding(u_d, data):
    grown = unfold(_encoded(3, 2, u_d, data))
    assert (grown.k, grown.l) == (5, 0)
    grown.check()
    assert grown.descriptor.data == _encoded(3, 2, u_d, data).descriptor.data
    assert state_matches_oracle(grown) < 1e-12


# --- imbalanced extend -------------------------------------------------------


def test_plan_imbalanced_shapes():
    plan = plan_extend_imbalanced(3, 6, 2)
    assert (plan.l_prime, plan.l_double_prime) == (3, 2)
    assert not plan.balanced
    assert plan.alpha == pytest.approx(math.sqrt(7 / (4 * 9)))
    assert plan.beta == pytest.approx(1 / 3)
    assert plan.gamma == pytest.approx(math.sqrt(7 / (2 * 4 * 9)))
    one = plan_extend_imbalanced(4, 3, 1)
    assert one.balanced and one.alpha == one.beta == one.gamma


def test_plan_imbalanced_balance_rule():
    for k, l, z in [(4, 3, 1), (4, 3, 2), (3, 6, 2), (2, 6, 2), (5, 5, 3), (2, 2, 3)]:
        plan = plan_extend_imbalanced(k, l, z)
        ratio = (l + 1) / ((plan.l_prime + 1) * plan.l_double_prime)
        assert plan.balanced == (abs(ratio - 1.0) < 1e-12)


def test_plan_imbalanced_guards():
    with pytest.raises(CapacityError):
        plan_extend_imbalanced(3, 10, 2)  # max (2^2-1)*3 = 9
    with pytest.raises(SemanticError):
        plan_extend_imbalanced(4, 5, 2)  # 5 does not split over 3 patterns
    with pytest.raises(SemanticError):
        plan_extend_imbalanced(4, 2, 0)
    with pytest.raises(SemanticError):
        plan_extend_imbalanced(4, 2, 2, route="scenic")


def test_imbalanced_extend_plans_its_transfer_once(monkeypatch):
    extend_mod = importlib.import_module("qdbsim.extend")  # the package's `extend` is the op
    calls = []

    def spy(k, l, plan=extend_mod.plan_transfer):
        calls.append((k, l))
        return plan(k, l)

    monkeypatch.setattr(extend_mod, "plan_transfer", spy)
    plans = []
    grown = extend_imbalanced(prepare_general(8), 6, 2, plan_sink=plans.append)
    assert calls == [(8, 6)]
    grown.check(tol=1e-8)
    monkeypatch.undo()
    assert plans[0].to_report() == plan_extend_imbalanced(8, 6, 2).to_report()


def test_imbalanced_single_ancilla_is_balanced():
    db = prepare_general(4, 0, {1: "1"})
    grown = extend_imbalanced(db, 3, 1)
    assert grown.k == 7
    want = 1 / math.sqrt(7)
    for j in range(7):
        assert abs(abs(grown.amplitude(j)) - want) < 1e-8
    grown.check(tol=1e-8)


def test_imbalanced_multi_stage_closed_forms():
    db = prepare_general(3, 0, {1: "1", 2: "1"})
    plans = []
    grown = extend_imbalanced(db, 6, 2, plan_sink=plans.append)
    plan = plans[0]
    assert grown.k == 9 and not plan.balanced
    assert abs(abs(grown.reservoir_amplitude()) - plan.alpha) < 1e-8
    for j in (1, 2):
        assert abs(abs(grown.amplitude(j)) - plan.beta) < 1e-8
    for j in range(3, 9):
        assert abs(abs(grown.amplitude(j)) - plan.gamma) < 1e-8
    grown.check(tol=1e-8)


def test_imbalanced_marker_route_matches_direct():
    direct = extend_imbalanced(prepare_general(3, 0, {1: "1"}), 6, 2)
    marker = extend_imbalanced(prepare_general(3, 0, {1: "1"}), 6, 2, route="marker")
    assert states_equal(direct.state, marker.state, tol=1e-9)
    assert direct.layout.logical_index_map == marker.layout.logical_index_map


def test_imbalanced_matches_oracle_route():
    db = prepare_general(2, 0, {1: "1"})
    grown = extend_imbalanced(db, 3, 2)
    assert state_matches_oracle(grown) < 1e-11


def test_imbalanced_check_uses_amplitude_profile():
    db = prepare_general(3, 0)
    grown = extend_imbalanced(db, 6, 2)
    grown.check(tol=1e-8)  # moduli follow alpha/beta/gamma, not the closed form
    amps = grown.state.amplitudes.copy()
    amps[grown.layout.physical_index(4, 0)] = 0.0
    grown.state = StateVector(amps / np.linalg.norm(amps), copy=False)
    with pytest.raises(VerificationError):
        grown.check(tol=1e-8)


@pytest.mark.parametrize("l,z", [(4, 1), (6, 2)])
def test_imbalanced_accepts_matching_preload(l, z):
    pre = extend_imbalanced(prepare_general(4, l, {1: "1"}), l, z)
    ref = extend_imbalanced(prepare_general(4, 0, {1: "1"}), l, z)
    assert states_equal(pre.state, ref.state, tol=1e-9)
    assert pre.amplitude_profile == ref.amplitude_profile
    pre.check(tol=1e-8)


def test_imbalanced_rejects_mismatched_preload():
    db = prepare_general(4, 2)
    with pytest.raises(SemanticError, match="already loaded for 2"):
        extend_imbalanced(db, 4, 1)


@pytest.mark.parametrize("k,l,z", [(6, 60, 4), (5, 315, 6)])
def test_imbalanced_far_beyond_k(k, l, z):
    grown = extend_imbalanced(prepare_general(k, 0, {1: "1"}), l, z)
    assert grown.k == k + l
    grown.check(tol=1e-8)
    assert state_matches_oracle(grown) < 1e-12


def test_grown_imbalanced_database_cannot_extend_again():
    grown = extend_imbalanced(prepare_general(3, 0), 6, 2)
    for op in (lambda: extend(grown, 1),
               lambda: extend_imbalanced(grown, 3, 2),
               lambda: transfer(grown, 1),
               lambda: unfold(grown)):
        with pytest.raises(SemanticError, match="uniformly weighted"):
            op()


# --- growth is not one fixed unitary ----------------------------------------


def test_overlap_change_demonstration():
    rep = check_no_unitary_extend(2, 2)
    assert rep.overlap_before == pytest.approx(rep.closed_before, abs=1e-9)
    assert rep.overlap_after == pytest.approx(rep.closed_after, abs=1e-8)
    assert not rep.preserved
    same = check_no_unitary_extend(3, 2, data_a={1: 1}, data_b={1: 1})
    assert same.preserved
