"""Built-in verification suite.

``run_verify`` executes a battery of self-checks — closed forms, oracle
cross-checks, round-trips, and end-to-end operation invariants — and returns
a report that serializes to JSON and back. The fast level covers the cheap
always-on checks; the full level adds the expensive end-to-end suites.

The database ops run faster equivalents of the paper's circuits. ``DB_OPS``
pairs each op with its circuit, built from public gates on the layout's
registers: the folded ``write`` (a sensor prepared, toggling the data, and
undone), ``read_copy`` and ``read_copy_all`` (CNOTs onto a copy register),
``permute`` (its routing), ``transfer`` (every amplification step) and
``remove_reservoir`` (the clearing write, then a rot2 merge). ``_check_op``
applies the circuit's flat gates one by one to the op's input and keeps the
block where the registers the op detaches read 0 (``_by_gates``). The op's
state must equal it byte for byte on an unencoded database, transfer's and
every encoded one's within ``STATE_TOL``, and ``emit()`` its text. At the
full level, every op runs on a fresh database, the same grown by ``extend``
+1 and that with an empty entry removed, plain and under u_d = ry(0.7).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

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
from .statevector import StateVector, add_ancillas, apply_gate, schmidt, states_equal
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


def _check_transfer_suite() -> str:
    details = []
    for k, l in [(4, 4), (4, 2), (8, 8)]:
        moved, plan = transfer(prepare_general(k, 0), l)
        moved.check()
        details.append(f"({k},{l}):m={plan.m}")
    _check_table(["transfer"])
    return ("transfers " + " ".join(details) + "; transfers for k entries match their "
            "gates on fresh (k = 16) and grown databases, plain and under u_d = ry(0.7)")


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


def _write_gates(db, label: int, value: int, mode: str = "write") -> Circuit:
    """A write of ``value`` into entry ``label``: a sensor above ``db``'s
    qubits prepared in |value> (and encoded by u_d, if any); under the
    entry's pattern, each data bit swapped with its sensor bit for ``mode``
    "swap", else toggled on it inside E; for "write", the preparation
    undone ("keep" leaves the sensor set)."""
    data, u_d, ctrls = db.layout.data_qubits, db.descriptor.u_d, db.layout.pattern_controls(label)
    n = db.n_qubits + len(data)
    sensor = range(db.n_qubits, n)
    prep = Circuit(n, [x(q) for b, q in enumerate(sensor) if value >> b & 1],
                   {q: "S" for q in sensor})
    prep = prep if u_d is None else prep + _encoding(u_d, n, sensor)
    core = Circuit(n, [GateSpec("swap", (), (dq, s), ctrls) if mode == "swap"
                       else GateSpec("x", (), (dq,), ctrls + ((s, 1),))
                       for s, dq in zip(sensor, data)])
    core = core if mode == "swap" else _decoded(core, _encoding(u_d, n, sensor, data))
    return prep + core + prep.inverse() if mode == "write" else prep + core


def _copy_gates(db, label: int | None = None) -> Circuit:
    """A CNOT from each data bit onto a copy register above ``db``'s qubits
    under entry ``label``'s pattern (every entry's when None), inside E."""
    data = db.layout.data_qubits
    n = db.n_qubits + len(data)
    copy, ctrls = range(db.n_qubits, n), () if label is None else db.layout.pattern_controls(label)
    fanout = Circuit(n, [GateSpec("x", (), (c,), ctrls + ((dq, 1),)) for c, dq in zip(copy, data)],
                     {q: "A" for q in copy})
    return _decoded(fanout, _encoding(db.descriptor.u_d, n, data))


def _permute_gates(db, perm) -> Circuit:
    """The routing of the index patterns of the labels ``perm`` moves."""
    lmap = db.layout.logical_index_map
    pairs = perm.items() if isinstance(perm, dict) else enumerate(perm)
    return pattern_permutation_circuit({lmap[j]: lmap[t] for j, t in pairs if j != t},
                                       db.layout.index_qubits, db.n_qubits)


def _transfer_gates(db, l: int) -> Circuit:
    """Every amplification step of a transfer for l entries."""
    layout = db.layout
    return amplification_circuit(preparation_circuit(db.descriptor, layout),
                                 layout.index_qubits + layout.data_qubits, plan_transfer(db.k, l),
                                 _encoding(db.descriptor.u_d, db.n_qubits, layout.data_qubits))


def _remove_gates(db, label: int) -> Circuit:
    """The write clearing entry ``label``'s word, if any, then the rot2 merge
    of its amplitude into the reservoir's inside E, at the angle the op
    reads: from the decoded state that ``write`` leaves."""
    layout, value = db.layout, db.descriptor.data_value(label)
    enc = _encoding(db.descriptor.u_d, db.n_qubits, layout.data_qubits)
    cleared = write(db, label, value).state if value else db.state
    amps = (cleared if enc is None else simulate(enc.inverse(), cleared)).amplitudes
    a, b = layout.physical_index(0, 0), layout.physical_index(label, 0)
    merge = _decoded(Circuit(db.n_qubits, [rot2(a, b, -math.atan2(abs(amps[b]), abs(amps[a])))]),
                     enc)
    clear = _write_gates(db, label, value) if value else Circuit(db.n_qubits)
    return clear + merge.extended(clear.n_qubits)


# Each database op, and the builder of the paper's circuit for it; both
# take the database and the op's arguments.
DB_OPS = {
    "write": (write, _write_gates),
    "read_copy": (read_copy, _copy_gates),
    "read_copy_all": (read_copy_all, _copy_gates),
    "permute": (permute, _permute_gates),
    "transfer": (lambda db, l: transfer(db, l)[0], _transfer_gates),
    "remove_reservoir": (remove_reservoir, _remove_gates),
}


def _by_gates(state: StateVector, circ: Circuit, n: int) -> StateVector:
    """``circ``'s flat gates applied one by one to ``state`` widened to it;
    then, once the rest is found zero (VerificationError), the block where the
    qubits from n up read 0, not renormalized, so it keeps its bits."""
    state = add_ancillas(state, circ.n_qubits - state.n_qubits)
    for g in circ.gates:
        apply_gate(state, g, out=state)
    kept, rest = np.split(state.amplitudes, [2 ** n])
    if np.any(np.abs(rest) > STATE_TOL):
        raise VerificationError("a register the gates detach does not end in |0>")
    return StateVector(kept, copy=False)


def _check_op(name: str, db, *args) -> tuple:
    """``DB_OPS[name]`` on ``db`` against its circuit, as the module docstring
    says (VerificationError); returns the op's result and the gates' state."""
    op, gates = DB_OPS[name]
    circ, out = gates(db, *args), op(db, *args)
    want = _by_gates(db.state, circ, out.n_qubits)
    if db.descriptor.u_d is None and name != "transfer":
        same = out.state.amplitudes.tobytes() == want.amplitudes.tobytes()
    else:
        same = states_equal(out.state, want, STATE_TOL, up_to_global_phase=False)
    if not same:
        raise VerificationError(f"{name} disagrees with its gates")
    if out.emit() != emit_text(_grow(db.circuit, circ)):
        raise VerificationError(f"{name} built a different circuit")
    if not out.copy_qubits:  # a bare result holds the words its record says
        out.check()
    return out, want


def _check_table(names) -> None:
    """``_check_op`` for the ops ``names`` on the module docstring's
    databases (k = 16), their arguments fixed; a transfer needs l = 0."""
    for data, m_data, u_d in (({1: "10", 3: "01", 9: "11"}, 2, None),
                              ({1: "1", 9: "1"}, 1, _RY_ENCODING)):
        fresh = prepare_general(16, 0, data, m_data=m_data, u_d=u_d)
        grown = extend(fresh, 1)
        for db in (fresh, grown, remove_reservoir(grown, 2)):
            movable = db.layout.labels[1:]
            cycle = dict(zip(movable, movable[1:] + movable[:1]))
            args = {"write": (db.layout.labels[-1], 2 ** m_data - 1), "read_copy": (1,),
                    "read_copy_all": (), "permute": (cycle,), "transfer": (db.k,),
                    "remove_reservoir": (1,)}
            for name in names:
                if name != "transfer" or db.l == 0:
                    _check_op(name, db, *args[name])


def _check_db_ops() -> str:
    _check_table([name for name in DB_OPS if name != "transfer"])
    db = write(prepare_general(4, 0, {1: "10", 2: "01"}), 3, "11")
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
    return ("write, read_copy, read_copy_all, permute and remove_reservoir match their "
            "gates on fresh, grown and reservoir-removed databases, plain and under "
            "u_d = ry(0.7); Schmidt report matches the full-matrix SVD; "
            "write/read/remove/permute invariants hold")


def _check_history() -> str:
    """A build history of shared parts against its flat gates. A database
    under u_d = ry(0.7) is prepared with data, written twice (two write
    records), extended by a transfer with a full step (m = 1), whose u and
    u^-1 parts every step shares, and permuted by a 3-cycle whose route
    (a permute record) runs through the index qubit the growth added. Its
    flat gates, simulated one by one from |0...0> (``_by_gates``), must
    give the live state within ``STATE_TOL``, and ``emit()``, which renders
    each shared part once, a reversed data-write block backwards and each
    record from its fields, must equal the text of the flat gates."""
    db = prepare_general(16, 0, {1: "1", 5: "1", 9: "1"}, m_data=1, u_d=_RY_ENCODING)
    db = permute(extend(write(write(db, 3, "1"), 5, "1"), 16), {3: 9, 9: 20, 20: 3})
    text = db.emit()
    history = db.circuit
    # from here on the history is one flat list
    state = _by_gates(StateVector.zero(db.n_qubits), history, db.n_qubits)
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
        state = StateVector(amps / np.linalg.norm(amps))
        lowered = simulate(low, add_ancillas(state, low.n_qubits - n)).amplitudes[:2 ** n]
        if float(np.max(np.abs(lowered - simulate(circ, state).amplitudes))) > 1e-9:
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
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "VerifyReport":
        obj = json.loads(text)
        return cls(obj["level"], bool(obj["passed"]), tuple(
            CheckResult(c["name"], bool(c["passed"]), c["detail"]) for c in obj["checks"]))


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
