"""Built-in verification suite.

``run_verify`` executes a battery of self-checks — closed forms, oracle
cross-checks, round-trips, and end-to-end operation invariants — and returns
a report that serializes to JSON and back. The fast level covers the cheap
always-on checks; the full level adds the expensive end-to-end suites.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .circuit import Circuit, DecompositionConfig, decompose_mcx, simulate
from .errors import SemanticError, VerificationError
from .extend import (
    amplification_circuit,
    extend,
    extend_imbalanced,
    extend_imbalanced_meta,
    extend_meta,
    plan_extend_imbalanced,
    plan_transfer,
    transfer,
)
from .gates import GateSpec, h, phase, rot2, ry, swap, x, y, ytilde
from .qdb import (
    QdbDescriptor,
    QdbLayout,
    _decoded,
    _encoding,
    _grow,
    pattern_permutation_circuit,
    permute,
    permute_meta,
    preparation_circuit,
    prepare_general,
    prepare_meta,
    read_copy,
    read_copy_all,
    remove_projective,
    remove_projective_meta,
    remove_reservoir,
    remove_reservoir_meta,
    write,
    write_meta,
    write_swap_meta,
)
from .statevector import (
    StateVector,
    add_ancillas,
    apply_gate,
    drop_qubits,
    schmidt,
    states_equal,
)
from .text_format import emit_text, parse_text
from .tolerances import ORACLE_TOL, STATE_TOL


# A data encoding that is not its own inverse, so the checks tell E from E^-1.
_RY_ENCODING = Circuit(1, [ry(0, 0.7)])


def _check_gate_matrices() -> str:
    samples = [
        x(0), h(1), ry(0, 0.7), y(1, 0.3), ytilde(2, 0.2), phase(0, 1.1),
        swap(0, 2), rot2(1, 6, 0.4), x(2, ctrl=(0,), nctrl=(1,)),
    ]
    for g in samples:
        mat = oracle.dense_gate(g, 3)
        if not oracle.is_unitary(mat):
            raise SemanticError(f"dense matrix of {g.kind} is not unitary")
    return f"{len(samples)} gate matrices unitary"


def _check_prepare_closed_form() -> str:
    cases = [(2, 0), (3, 0), (5, 0), (8, 0), (2, 2), (5, 3), (7, 2)]
    for k, l in cases:
        db = prepare_general(k, l)
        db.check()
        want0 = math.sqrt((l + 1) / (k + l))
        if abs(abs(db.reservoir_amplitude()) - want0) > STATE_TOL:
            raise SemanticError(f"reservoir amplitude wrong for k={k}, l={l}")
    return f"{len(cases)} (k, l) preparations match the closed form"


def _check_oracle_agreement() -> str:
    db = prepare_general(5, 1, {1: 1, 3: "10"})
    mat = oracle.dense_operator(db.circuit)
    via_oracle = mat[:, 0]
    diff = float(np.max(np.abs(via_oracle - db.state.amplitudes)))
    if diff > ORACLE_TOL:
        raise SemanticError(f"oracle and simulator disagree by {diff:.3g}")
    expected = oracle.expected_qdb_amplitudes(db.descriptor, db.layout)
    for idx, want in expected.items():
        if abs(abs(db.state.amplitudes[idx]) - want) > ORACLE_TOL:
            raise SemanticError(f"closed-form amplitude mismatch at index {idx}")
    return f"simulator vs dense oracle within {diff:.2e}"


def _check_text_round_trip() -> str:
    circ = Circuit(4)
    circ.label(0, "I").label(1, "I").label(2, "D").label(3, "A")
    circ.extend_gates([
        h(0), x(1, ctrl=(0,)), ry(2, -0.25), y(0, 0.125), ytilde(1, 0.8125),
        phase(3, 2.5, nctrl=(0, 1)), swap(0, 3, ctrl=(2,)), rot2(3, 12, 1.0 / 3.0),
    ])
    text = emit_text(circ)
    again = emit_text(parse_text(text))
    if text != again:
        raise SemanticError("circuit text did not survive a round trip")
    return f"round-tripped {len(circ)} gates byte-identically"


def _check_transfer_small() -> str:
    db = prepare_general(2, 0, {1: 1})
    moved, plan = transfer(db, 2)
    moved.check()
    if plan.residual > 1e-10:
        raise SemanticError(f"plan residual {plan.residual:.3g} too large")
    return f"transfer (k=2, l=2): m={plan.m}, residual {plan.residual:.2e}"


def _transfer_by_gates(db, l: int) -> tuple[StateVector, Circuit]:
    """The paper's transfer with every amplification step simulated gate by
    gate on the input state. Returns the state and build circuit that
    ``transfer``, which applies the steps as reflections, must reproduce."""
    u_qdb = preparation_circuit(db.descriptor, db.layout)
    db_qubits = db.layout.index_qubits + db.layout.data_qubits
    circ = amplification_circuit(u_qdb, db_qubits, plan_transfer(db.k, l),
                                 _encoding(db.descriptor.u_d, db.n_qubits, db.layout.data_qubits))
    return simulate(circ, db.state), _grow(db.circuit, circ)


def _check_transfer_suite() -> str:
    details = []
    for k, l in [(4, 4), (4, 2), (8, 8)]:
        moved, plan = transfer(prepare_general(k, 0), l)
        moved.check()
        details.append(f"({k},{l}):m={plan.m}")
    for db, l in [(prepare_general(16, 0, {1: "10", 3: "01", 9: "11"}), 16),
                  (prepare_general(16, 0, {1: "1"}, m_data=1, u_d=_RY_ENCODING), 13)]:
        state, circuit = _transfer_by_gates(db, l)
        moved, plan = transfer(db, l)
        if not states_equal(moved.state, state, tol=STATE_TOL, up_to_global_phase=False):
            raise VerificationError("transfer's reflections disagree with its gates")
        if moved.emit() != emit_text(circuit):
            raise VerificationError("transfer built a different circuit")
        details.append(f"({db.k},{l}{',u_d' if db.descriptor.u_d else ''}):m={plan.m}")
    return "transfers " + " ".join(details) + "; reflections match the gates"


def _check_extend_chain() -> str:
    db = prepare_general(2, 0, {1: 1})
    grown = extend(db, 5)
    grown.check()
    if grown.k != 7:
        raise SemanticError(f"extension produced {grown.k} entries, wanted 7")
    amp = abs(grown.amplitude(1))
    if abs(amp - math.sqrt(1 / 7)) > 1e-8:
        raise SemanticError("extended entries are not uniform")
    return "extend 2 -> 7 entries uniform at 1/sqrt(7)"


def _check_imbalanced() -> str:
    plan = plan_extend_imbalanced(3, 6, 2)
    db = prepare_general(3, 0, {1: 1}, m_data=1)
    grown = extend_imbalanced(db, 6, 2)
    grown.check()
    if abs(plan.alpha - abs(grown.reservoir_amplitude())) > 1e-8:
        raise SemanticError("reservoir amplitude misses the closed form")
    preloaded = extend_imbalanced(prepare_general(3, 6, {1: 1}, m_data=1), 6, 2)
    preloaded.check()
    if not states_equal(preloaded.state, grown.state, tol=1e-8):
        raise SemanticError("preloaded reservoir route diverges from transfer route")
    balanced = extend_imbalanced(prepare_general(4, 0), 3, 1)
    balanced.check()
    if abs(abs(balanced.amplitude(4)) - math.sqrt(1 / 7)) > 1e-8:
        raise SemanticError("single-ancilla extension is not balanced")
    return (f"imbalanced (3,6,z=2): alpha={plan.alpha:.6f} "
            f"gamma={plan.gamma:.6f}; preloaded route agrees; z=1 balanced")


def _write_through_sensor(db, label: int, word) -> tuple[StateVector, Circuit]:
    """The paper's write with its sensor register simulated: ``write`` with
    the sensor kept, then the sensor uncomputed and dropped. Returns the state
    and build circuit that the folded ``write`` must reproduce."""
    kept = write(db, label, word, keep_sensor=True)
    sensor = kept.sensor_qubits
    value = db.descriptor.data_value(label) ^ kept.descriptor.data_value(label)
    n = sensor[-1] + 1
    prep = Circuit(n, [x(q) for b, q in enumerate(sensor) if (value >> b) & 1])
    enc = _encoding(db.descriptor.u_d, n, sensor)
    unprep = (prep if enc is None else prep + enc).inverse()
    return drop_qubits(simulate(unprep, kept.state), sensor), _grow(kept.circuit, unprep)


def _permute_by_gates(db, perm: dict[int, int]) -> tuple[StateVector, Circuit]:
    """The permutation with its routing circuit simulated gate by gate on
    the input state. Returns the state and build circuit that ``permute``,
    which moves whole pattern slices, must reproduce."""
    lmap = db.layout.logical_index_map
    routing = pattern_permutation_circuit({lmap[j]: lmap[t] for j, t in perm.items()},
                                          db.layout.index_qubits, db.n_qubits)
    state = db.state.copy()
    for g in routing.gates:
        apply_gate(state, g, out=state)
    return state, _grow(db.circuit, routing)


def _copy_circuit(db, label: int | None) -> Circuit:
    """The circuit a copy-read appends: one CNOT per data bit onto a copy
    register above ``db``'s qubits, on entry ``label``'s index pattern (on
    every entry when ``label`` is None), inside the data encoding, if any."""
    data = db.layout.data_qubits
    n = db.n_qubits + len(data)
    out = range(db.n_qubits, n)
    ctrls = () if label is None else db.layout.pattern_controls(label)
    fanout = Circuit(n, [GateSpec("x", (), (out[b],), ctrls + ((dq, 1),))
                         for b, dq in enumerate(data)], {q: "A" for q in out})
    return _decoded(fanout, _encoding(db.descriptor.u_d, n, data))


def _copy_by_gates(db, label: int | None) -> tuple[StateVector, Circuit]:
    """The copy-read with ``_copy_circuit`` simulated gate by gate on the
    input state widened by the copy register. Returns the state and build
    circuit that ``read_copy`` or ``read_copy_all``, which scatter only the
    copied amplitudes, must reproduce."""
    circ = _copy_circuit(db, label)
    state = add_ancillas(db.state, circ.n_qubits - db.n_qubits)
    for g in circ.gates:
        apply_gate(state, g, out=state)
    return state, _grow(db.circuit, circ)


def _check_copy_reads(db, label: int):
    """``read_copy(db, label)`` and ``read_copy_all(db)`` against
    ``_copy_by_gates``: bit for bit without an encoding, within
    ``STATE_TOL`` under one, and with the same ``emit()`` text."""
    for copied, at in ((read_copy(db, label), label), (read_copy_all(db), None)):
        state, circuit = _copy_by_gates(db, at)
        if db.descriptor.u_d is None:
            same = copied.state.amplitudes.tobytes() == state.amplitudes.tobytes()
        else:
            same = states_equal(copied.state, state, up_to_global_phase=False)
        if not same:
            raise VerificationError("folded copy-read disagrees with its CNOTs")
        if copied.emit() != emit_text(circuit):
            raise VerificationError("folded copy-read built a different circuit")


def _check_permute_routing() -> list[tuple[int, ...]]:
    """``permute`` against its routing gates on databases whose index
    register is not contiguous (grown by ``extend``) and has a pattern freed
    by a removal, plain and under ``_RY_ENCODING``. Returns the index
    registers checked."""
    registers = []
    for data, m_data, u_d in (({1: "10", 6: "01"}, 2, None),
                              ({1: "1", 6: "1"}, 1, _RY_ENCODING)):
        db = remove_reservoir(extend(prepare_general(8, 0, data, m_data=m_data, u_d=u_d), 1), 3)
        perm = {1: 8, 8: 5, 5: 1, 2: 7, 7: 2}
        state, circuit = _permute_by_gates(db, perm)
        db = permute(db, perm)
        if db.state.amplitudes.tobytes() != state.amplitudes.tobytes():
            raise VerificationError("permute disagrees with its routing gates")
        if db.emit() != emit_text(circuit):
            raise VerificationError("permute built a different circuit")
        db.check()
        registers.append(db.layout.index_qubits)
    return registers


def _check_db_ops() -> str:
    encoded = prepare_general(4, 0, {1: "1"}, m_data=1, u_d=_RY_ENCODING)
    # the plain database goes last: the checks below go on from its write
    for db, label, word in ((encoded, 2, "1"),
                            (prepare_general(4, 0, {1: "10", 2: "01"}), 3, "11")):
        state, circuit = _write_through_sensor(db, label, word)
        db = write(db, label, word)
        if not states_equal(db.state, state, up_to_global_phase=False):
            raise VerificationError("folded write disagrees with the sensor-register write")
        if db.emit() != emit_text(circuit):
            raise VerificationError("folded write built a different circuit")
        _check_copy_reads(db, label)
    registers = _check_permute_routing()
    if db.descriptor.data_value(3) != 3:
        raise SemanticError("write did not record the data word")
    copied = read_copy(db, 3)
    rep = schmidt(copied.state, copied.copy_qubits)
    if not rep.entangled:
        raise SemanticError("copying a nonzero word must entangle the copy")
    full = oracle.schmidt_coefficients(copied.state.amplitudes, copied.copy_qubits)
    if (len(rep.schmidt_coefficients) != len(full)
            or np.max(np.abs(np.array(rep.schmidt_coefficients) - full)) > ORACLE_TOL):
        raise VerificationError("Schmidt report disagrees with the full-matrix SVD")
    removed = remove_reservoir(db, 3)
    removed.check()
    if removed.k != 3 or removed.l != 1:
        raise SemanticError("unitary removal did not grow the reservoir")
    outcome = remove_projective(db, 2)
    if outcome.success_state is None or abs(outcome.success_probability - 0.75) > 1e-9:
        raise SemanticError("projective removal probability is off")
    outcome.success_state.check()
    swapped = permute(db, [0, 2, 1, 3])
    swapped.check()
    if swapped.descriptor.data_value(2) != 2:
        raise SemanticError("permutation did not move entry data")
    return ("folded write matches the sensor register and folded copy-reads their "
            "CNOTs, plain and under u_d = ry(0.7); "
            f"permute matches its routing gates on index registers {registers[0]} "
            f"and {registers[1]} (u_d = ry(0.7)); "
            "Schmidt report matches the full-matrix SVD; "
            "write/read/remove/permute invariants hold")


def _check_history() -> str:
    """A build history of shared parts against its flat gates. A database
    under u_d = ry(0.7) is prepared with data, written twice (two write
    records), extended by a transfer with a full step (m = 1), whose u and
    u^-1 parts every step shares, and permuted by a 3-cycle whose route
    (a permute record) runs through the index qubit the growth added. Its
    flat gates, simulated one by one from |0...0>, must give the live state
    within ``STATE_TOL``, and ``emit()``, which renders each shared part
    once, a reversed data-write block backwards and each record from its
    fields, must equal the text of the flat gates."""
    db = prepare_general(16, 0, {1: "1", 5: "1", 9: "1"}, m_data=1, u_d=_RY_ENCODING)
    db = permute(extend(write(write(db, 3, "1"), 5, "1"), 16), {3: 9, 9: 20, 20: 3})
    text = db.emit()
    history = db.circuit
    state = StateVector.zero(history.n_qubits)
    for g in history.gates:  # from here on the history is one flat list
        apply_gate(state, g, out=state)
    state = drop_qubits(state, range(db.n_qubits, history.n_qubits))
    if not states_equal(state, db.state, STATE_TOL, up_to_global_phase=False):
        raise VerificationError("the flat history does not rebuild the live state")
    if text != emit_text(history):
        raise VerificationError("emit() differs from the text of the flat history")
    return (f"{len(history)} history gates under u_d = ry(0.7), with write and "
            "permute records, simulated one by one, rebuild the live state; "
            "emit() matches the flat text")


def _check_derived_records() -> str:
    """The transitions derive their records without the constructors' full
    checks. Along a fixed op sequence, rebuild every record through the
    ``QdbDescriptor`` and ``QdbLayout`` constructors: each must be accepted,
    come out equal, and track exactly its k labels."""
    ops = ("write permute remove-reservoir extend(unfold) extend extend-imbalanced "
           "remove-projective remove-reservoir write write-swap").split()
    for u_d, m_data in ((None, 2), (_RY_ENCODING, 1)):
        m = prepare_meta(6, 0, {3: 1, 5: 1}, m_data=m_data, u_d=u_d)
        records = [m := write_meta(m, 1, 1), m := permute_meta(m, {1: 3, 3: 1})[0],
                   m := remove_reservoir_meta(m, 2), m := extend_meta(m, 1)[0],
                   m := extend_meta(m, 3)[0], m := extend_imbalanced_meta(m, 6, 2)[0],
                   m := remove_projective_meta(m, 3)[1], m := remove_reservoir_meta(m, 1),
                   m := write_meta(m, 4, 1), write_swap_meta(m, 5, 1)]
        for op, meta in zip(ops, records):
            d, lay = meta.descriptor, meta.layout
            try:
                same = (QdbDescriptor(d.k, d.l, dict(d.data), d.u_d, d.m_data) == d
                        and QdbLayout(lay.index_qubits, lay.data_qubits,
                                      dict(lay.logical_index_map)) == lay)
            except SemanticError as exc:
                raise VerificationError(f"{op} built a record the constructors "
                                        f"reject: {exc}") from exc
            if not same or len(lay.logical_index_map) != d.k or not set(d.data) <= set(lay.labels):
                raise VerificationError(f"{op} built a record the constructors rewrite "
                                        "or whose labels miss its k")
    return (f"{len(ops)} transitions, with and without u_d = ry(0.7), derive records "
            "the full constructors accept unchanged")


def _check_mcx() -> str:
    rng = np.random.default_rng(7)
    for tau in (3, 4, 5):
        n = tau + 1
        circ = Circuit(n, [GateSpec("x", (), (tau,), tuple((c, 1) for c in range(tau)))])
        low = decompose_mcx(circ, DecompositionConfig("clean-allocated"))
        want = 2 * tau - 3
        got = sum(1 for g in low.gates if g.kind == "x" and len(g.controls) == 2)
        if got != want:
            raise SemanticError(f"tau={tau}: {got} Toffolis, expected {want}")
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        amps /= np.linalg.norm(amps)
        target = simulate(circ, StateVector(amps))
        padded = np.zeros(2 ** low.n_qubits, dtype=complex)
        padded[:2 ** n] = amps
        lowered = simulate(low, StateVector(padded))
        marg = lowered.amplitudes[:2 ** n]
        if float(np.max(np.abs(marg - target.amplitudes))) > 1e-9:
            raise SemanticError(f"tau={tau}: decomposition changed the action")
    return "multi-controlled X decompositions agree (tau = 3, 4, 5)"


FAST_CHECKS = [
    ("gate-matrices", _check_gate_matrices),
    ("prepare-closed-form", _check_prepare_closed_form),
    ("oracle-agreement", _check_oracle_agreement),
    ("text-round-trip", _check_text_round_trip),
    ("transfer-small", _check_transfer_small),
]

FULL_CHECKS = FAST_CHECKS + [
    ("transfer-suite", _check_transfer_suite),
    ("extend-chain", _check_extend_chain),
    ("imbalanced-extend", _check_imbalanced),
    ("database-ops", _check_db_ops),
    ("history", _check_history),
    ("derived-records", _check_derived_records),
    ("mcx-decomposition", _check_mcx),
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    level: str
    passed: bool
    checks: tuple[CheckResult, ...]

    def to_json(self) -> str:
        obj = {
            "level": self.level,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "VerifyReport":
        obj = json.loads(text)
        checks = tuple(
            CheckResult(c["name"], bool(c["passed"]), c["detail"])
            for c in obj["checks"])
        return cls(level=obj["level"], passed=bool(obj["passed"]), checks=checks)


def run_verify(level: str = "fast") -> VerifyReport:
    """Run the named check battery; never raises, failures land in the report."""
    if level not in ("fast", "full"):
        raise SemanticError(f"verify level must be 'fast' or 'full', got {level!r}")
    battery = FAST_CHECKS if level == "fast" else FULL_CHECKS
    results = []
    for name, fn in battery:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return VerifyReport(level=level, passed=all(r.passed for r in results),
                        checks=tuple(results))
