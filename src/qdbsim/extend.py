"""Database growth without re-preparation.

Growing a database is not a fixed unitary (it changes pairwise overlaps), so
it is done in two unitary moves applied to the concrete state at hand:

* transfer — amplitude amplification steps built from the database's own
  preparation circuit move weight into the reservoir entry until it carries
  sqrt((l+1)/(k+l)). The build history records each step as the paper's
  gates; the amplitudes get each step as its two exact reflections, about
  the reservoir ket and about the preflight state the preparation circuit
  produces, so only that preparation is simulated gate by gate;
* unfold — an ancilla qubit splits the enlarged reservoir into l new equal
  entries plus one remaining empty entry.

Under a data encoding the reservoir's data is u_d|0>, so every phase on the
reservoir branch runs inside the encoding (``qdb._decoded``); the index
spreads act on the index register alone.

``extend`` chains the two in chunks of at most k new entries per round.
``extend_imbalanced`` instead spends z ancilla qubits at once, reaching up to
(2^z - 1) * k new entries in a single round at the price of unequal
amplitudes whenever more than one new entry shares an ancilla pattern.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .circuit import Circuit, simulate
from .errors import CapacityError, SemanticError, VerificationError
from .gates import GateSpec, phase, x
from .qdb import (
    QdbMeta,
    QdbState,
    _advance,
    _decoded,
    _encoding,
    _entry,
    _spread_steps,
    prepare_circuit,
    prepare_general,
    preparation_circuit,
)
from .statevector import (
    StateVector,
    _check_budget,
    drop_qubits,
    overlap,
    states_equal,
)
from .tolerances import PLAN_RESIDUAL_TOL, TRANSFER_AMP_TOL


@dataclass(frozen=True)
class AmplificationPlan:
    """Schedule of amplification steps that loads the reservoir entry.

    ``m`` full steps with both phases at pi are followed by one step with the
    solved (phi, rho) pair, landing the reservoir amplitude on
    ``target_amplitude`` up to ``residual``; ``phase_fix`` is the trailing
    phase applied to the all-zero string so every entry ends up in phase.
    """

    k: int
    l: int
    m_star: float
    m: int
    phi: float
    rho: float
    target_amplitude: float
    residual: float
    phase_fix: float

    def to_report(self) -> dict:
        return {
            "m_star": self.m_star,
            "n": 0,
            "sign": 1,
            "m": self.m,
            "phi": self.phi,
            "rho": self.rho,
            "target_amplitude": self.target_amplitude,
            "residual": self.residual,
        }


def _step_matrix(phi: float, rho: float, theta: float) -> np.ndarray:
    """One amplification step in the (reservoir, rest) plane.

    The overall -1 of the operator is dropped; it is a global phase and no
    circuit gate is spent on it.
    """
    s, c = math.sin(theta), math.cos(theta)
    w, r = cmath.exp(1j * phi) - 1, cmath.exp(1j * rho)
    # (I + w |psi><psi|) diag(r, 1) with psi = (s, c)
    return np.array([[(1 + w * s * s) * r, w * s * c],
                     [w * s * c * r, 1 + w * c * c]])


def plan_transfer(k: int, l: int) -> AmplificationPlan:
    """Solve the amplification schedule moving a balanced k-entry database
    to reservoir weight (l+1)/(k+l), in closed form.

    In the (reservoir, rest) plane the prepared state sits at angle
    theta = asin(1/sqrt(k)) and each full step turns it by 2 theta. The
    target t = sqrt((l+1)/(k+l)) sits at asin t, so the fractional step
    count is m* = (asin t - theta) / (2 theta) and m = floor(m*) full steps
    reach alpha = (2m+1) theta. The last step must turn by the remainder
    beta = 2 theta (m* - m) < 2 theta. With phases (phi, rho) it leaves
    a e^{i rho} u + b w sin(theta) cos(theta) on the reservoir, where
    (a, b) = (sin alpha, cos alpha), u = cos^2 + sin^2 e^{i phi} and
    w = e^{i phi} - 1. Taking sin(phi/2) = sin(beta) / sin(2 theta) makes
    |u| = cos(beta) and |w| sin cos = sin(beta); taking rho = arg w - arg u
    puts both terms in phase, so the modulus is sin(alpha + beta) = t. This
    reaches every target, l > k included. ``_step_matrix`` replays the
    schedule independently: it gives ``residual`` and the leftover phase
    mismatch between reservoir and entries, ``phase_fix``.
    """
    if k < 1 or l < 0:
        raise SemanticError("need k >= 1 and l >= 0")
    target = math.sqrt((l + 1) / (k + l))
    if l == 0 or k == 1:
        # the reservoir already holds the target amplitude
        return AmplificationPlan(k=k, l=l, m_star=0.0, m=0, phi=0.0, rho=0.0,
                                 target_amplitude=target, residual=0.0, phase_fix=0.0)
    theta = math.asin(1.0 / math.sqrt(k))
    m_star = (math.asin(target) - theta) / (2 * theta)
    m = int(math.floor(m_star))
    s, c = math.sin(theta), math.cos(theta)
    phi = 2 * math.asin(math.sin(2 * theta * (m_star - m)) / math.sin(2 * theta))
    rho = math.pi / 2 + phi / 2 - math.atan2(s * s * math.sin(phi),
                                             c * c + s * s * math.cos(phi))
    full = np.linalg.matrix_power(_step_matrix(math.pi, math.pi, theta), m)
    v = _step_matrix(phi, rho, theta) @ full @ np.array([s, c], dtype=complex)
    residual = float(abs(abs(v[0]) - target))
    if not residual < PLAN_RESIDUAL_TOL:
        raise VerificationError(f"amplification schedule misses the target for k={k}, l={l}")
    return AmplificationPlan(k=k, l=l, m_star=m_star, m=m, phi=phi, rho=rho,
                             target_amplitude=target, residual=residual,
                             phase_fix=cmath.phase(v[1]) - cmath.phase(v[0]))


def zero_phase_circuit(phi: float, qubits, n_qubits: int) -> Circuit:
    """Multiply the all-zero string over ``qubits`` by e^{i phi}.

    Realized as a phase gate sandwiched in X on one qubit, negatively
    controlled on the rest.
    """
    qubits = list(qubits)
    if not qubits:
        raise SemanticError("phase needs at least one qubit")
    head, rest = qubits[0], tuple(qubits[1:])
    circ = Circuit(n_qubits)
    circ.append(x(head))
    circ.append(phase(head, phi, nctrl=rest))
    circ.append(x(head))
    return circ


def _steps(plan: AmplificationPlan) -> list[tuple[float, float]]:
    """The (phi, rho) pair of each amplification step: ``plan.m`` full steps
    at pi, then the planned one."""
    return [(math.pi, math.pi)] * plan.m + [(plan.phi, plan.rho)]


def amplification_circuit(u_qdb: Circuit, db_qubits, plan: AmplificationPlan,
                          encoding: Circuit | None) -> Circuit:
    """The gates of a transfer: for each step of ``_steps``, the reservoir
    phase rho, u^-1, the zero-string phase phi and u, then the closing
    reservoir phase ``phase_fix``. ``encoding`` is the data encoding on the
    data register (``qdb._encoding``); the reservoir phases act on the
    reservoir branch |0>|u_d 0>, so they are conjugated by it
    (``qdb._decoded``).

    u^-1 is built once, its data-write record only marked reversed
    (``circuit.GateRecord``), and every step refers to the same parts of u and
    u^-1, as the ``plan.m`` full steps do to one set of phase circuits: the
    circuit joins parts by reference (``Circuit``), so it is built in work
    that follows the number of steps, not of gates, and ``emit_text``
    renders each shared part once.
    """
    n = u_qdb.n_qubits
    u_inv = u_qdb.inverse()

    def step(phi: float, rho: float) -> list[Circuit]:
        return [_decoded(zero_phase_circuit(rho, db_qubits, n), encoding), u_inv,
                zero_phase_circuit(phi, db_qubits, n), u_qdb]

    circuits = step(math.pi, math.pi) * plan.m if plan.m else []
    circuits += step(plan.phi, plan.rho)
    circuits.append(_decoded(zero_phase_circuit(plan.phase_fix, db_qubits, n), encoding))
    return Circuit._joined(n, tuple(c._shared() for c in circuits),
                           {q: lab for c in circuits for q, lab in c.labels.items()},
                           sum(map(len, circuits)))


def _nonzeros(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices where ``amps`` is exactly nonzero, and its values there."""
    idx = np.flatnonzero(amps)
    return idx, amps[idx]


def _reservoir_ket(db: QdbState) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros (see ``_nonzeros``) of the reservoir branch |0>|u_d 0>
    that the reservoir phases act on. Only u_d runs, on the m data qubits;
    the layout places its nonzeros under index pattern 0, in ascending
    order, so no state-sized array is made."""
    u_d = db.descriptor.u_d
    if u_d is None:
        return np.zeros(1, dtype=np.intp), np.ones(1, dtype=complex)
    idx, amps = _nonzeros(simulate(u_d, StateVector.zero(u_d.n_qubits)).amplitudes)
    return db.layout._place(0, idx), amps


def _reflect(v: np.ndarray, about: tuple[np.ndarray, np.ndarray], theta: float) -> None:
    """Apply I + (e^{i theta} - 1)|a><a| to the amplitudes ``v`` in place,
    with ``about`` the nonzeros of a (see ``_nonzeros``): the update moves v
    only where a is nonzero, so it reads and writes those entries alone."""
    idx, a = about
    v[idx] += (cmath.exp(1j * theta) - 1) * np.vdot(a, v[idx]) * a


def _check_growable(meta: QdbMeta, op: str):
    """Growth starts from a bare database whose entries are uniformly
    weighted and whose reservoir, label 0, sits at index pattern 0: the
    transfer reflects about it there (``_reservoir_ket``)."""
    meta.require_bare(op)
    if meta.amplitude_profile is not None:
        raise SemanticError(f"{op} requires uniformly weighted entries")
    pattern = meta.layout.pattern(0)
    if pattern != 0:
        raise SemanticError(f"{op} needs the reservoir at index pattern 0, not {pattern}")


def transfer_meta(meta: QdbMeta, l: int) -> QdbMeta:
    """Transition of ``transfer``: the reservoir is loaded for l entries."""
    _check_growable(meta, "transfer")
    if meta.l != 0:
        raise SemanticError("transfer starts from a balanced database (l = 0)")
    if l < 0:
        raise SemanticError("cannot transfer weight for a negative entry count")
    return meta._derived(descriptor=meta.descriptor._derived(l=l))


def transfer(db: QdbState, l: int) -> tuple[QdbState, AmplificationPlan]:
    """Load the reservoir entry of a balanced database with weight for l
    future entries, unitarily.

    Before running, the database's own preparation circuit u is re-simulated
    and must reproduce the live state (up to a global phase) — the
    amplification steps reflect about that prepared state psi = u|0>, so a
    stale circuit would silently corrupt the transfer.

    The build history gets the paper's gates for every step: reservoir phase
    rho, u^-1, zero-string phase phi, u. The amplitudes get the same
    operators as exact reflections: a zero-string phase over the whole
    register is I + (e^{i theta} - 1)|0><0| (conjugated by the data encoding
    E on the reservoir, ``qdb._decoded``, so about r = E|0>), and u Z(phi) u^-1 is
    I + (e^{i phi} - 1)|psi><psi| with psi the preflight's own vector. Only
    the preflight (and E, a few gates) is simulated, and each reflection
    touches only the amplitudes where its axis is nonzero; ``verify`` holds
    the gate-level reference.
    """
    new, plan = transfer_meta(db.meta, l), plan_transfer(db.k, l)
    moved = _transfer(db, new, plan)
    if plan.m_star:  # the reflections ran
        moved.check(tol=TRANSFER_AMP_TOL)
    return moved, plan


def _transfer(db: QdbState, new: QdbMeta, plan: AmplificationPlan) -> QdbState:
    """``transfer`` of ``db`` to the record ``new`` by the schedule ``plan``,
    unchecked: ``transfer`` checks the loaded state, and growth checks it
    after the unfold that follows (its reservoir weight, then ``check``)."""
    l = new.l
    if plan.m_star == 0:  # l == 0, or k == 1: the reservoir already holds its target
        return db if l == 0 else _advance(db, new, None, db.state)
    if db.n_qubits != db.layout.n_qubits:
        raise SemanticError("state register does not match the database layout")
    u_qdb = preparation_circuit(db.descriptor, db.layout)
    psi = simulate(u_qdb, max_qubits=db.max_qubits)
    if not states_equal(psi, db.state, tol=TRANSFER_AMP_TOL):
        raise VerificationError(
            "preparation-circuit preflight failed: the rebuilt circuit does not "
            "reproduce the live state")
    db_qubits = tuple(db.layout.index_qubits) + tuple(db.layout.data_qubits)
    n = db.n_qubits
    encoding = _encoding(db.descriptor.u_d, n, db.layout.data_qubits)
    circ = amplification_circuit(u_qdb, db_qubits, plan, encoding)
    prepared = _nonzeros(psi.amplitudes)
    del psi  # frees the dense state: only its nonzeros are needed from here on
    # db_qubits span the whole register (n == layout.n_qubits, checked above),
    # so each zero-string phase is the reflection about |0...0>
    r = _reservoir_ket(db)
    v = db.state.amplitudes.copy()
    for phi, rho in _steps(plan):
        _reflect(v, r, rho)
        _reflect(v, prepared, phi)
    _reflect(v, r, plan.phase_fix)
    return _advance(db, new, circ, StateVector(v, copy=False))


def _with_index_qubits(meta: QdbMeta, qubits, new_patterns, profile=None) -> QdbMeta:
    """The record after growth: ``qubits`` join the index register as its
    new high bits and the new labels, numbered on from the largest, take
    ``new_patterns``. Only these are checked: the widened database against
    the budget (CapacityError), and the patterns, which must be distinct and
    each set a new bit, which keeps it apart from every old pattern."""
    layout, qubits = meta.layout, tuple(qubits)
    _check_budget(layout.n_qubits + len(qubits), meta.max_qubits)
    kt = len(layout.index_qubits)
    if len(set(new_patterns)) != len(new_patterns):
        raise SemanticError("two labels share one index pattern")
    for pat in new_patterns:
        if not 0 < pat >> kt < 1 << len(qubits):
            raise SemanticError(f"index pattern {pat} sets no new index bit")
    start = max(layout.logical_index_map) + 1
    mapping = dict(layout.logical_index_map)
    mapping.update((start + i, pat) for i, pat in enumerate(new_patterns))
    return meta._derived(
        amplitude_profile=profile,
        descriptor=meta.descriptor._derived(k=meta.k + len(new_patterns), l=0),
        layout=layout._derived(index_qubits=layout.index_qubits + qubits,
                               logical_index_map=mapping))


def unfold_meta(meta: QdbMeta) -> QdbMeta:
    """Transition of ``unfold``: the l reserved entries become real ones,
    addressed through one new index qubit."""
    _check_growable(meta, "unfold")
    l = meta.l
    if l < 1:
        raise SemanticError("nothing to unfold: reservoir multiplicity is 0")
    kt = len(meta.layout.index_qubits)
    if l > 2 ** kt:
        raise CapacityError(
            f"{l} new entries do not fit the {kt}-bit index register")
    return _with_index_qubits(meta, (meta.layout.n_qubits,),
                              [(1 << kt) + i for i in range(l)])


def unfold(db: QdbState) -> QdbState:
    """Split the loaded reservoir into l new empty entries plus one reserve.

    One fresh ancilla becomes the next index bit: a rotation on it (negatively
    controlled on every database qubit, inside the data encoding if there is
    one, ``qdb._decoded``) peels the reservoir branch, and the
    index-register preparation for l entries, applied under that ancilla,
    spreads the branch over l fresh patterns. The result is a balanced
    database of k + l entries. First the reservoir's branch (``qdb._entry``)
    is weighed, as the occupancy check weighs an entry: it must hold what
    the l entries need (SemanticError otherwise).
    """
    return _unfold(db, unfold_meta(db.meta))


def _unfold(db: QdbState, new: QdbMeta) -> QdbState:
    """``unfold`` of ``db`` to the record ``new``."""
    l = db.l
    if db.n_qubits != db.layout.n_qubits:
        raise SemanticError("state register does not match the database layout")
    target = math.sqrt((l + 1) / (db.k + l))
    # the reservoir's whole branch: its data is u_d|0> under an encoding
    branch = _entry(db.state, db.layout, db.layout.pattern(0))
    held = math.sqrt(np.vdot(branch, branch).real)
    if held < target - TRANSFER_AMP_TOL:
        raise SemanticError(
            f"reservoir holds {held:.6g}, needs {target:.6g} to fund {l} entries")
    anc = new.layout.index_qubits[-1]
    n = anc + 1
    db_qubits = tuple(db.layout.index_qubits) + tuple(db.layout.data_qubits)
    theta = 2 * math.acos(1.0 / math.sqrt(l + 1))
    # built from the checked layout's qubits (``GateSpec._built``)
    peel = [GateSpec._built("ry", (theta,), (anc,), tuple((q, 0) for q in db_qubits))]
    circ = _decoded(Circuit._joined(n, (peel,), {anc: "I"}, 1),
                    _encoding(db.descriptor.u_d, n, db.layout.data_qubits))
    if l > 1:  # the index spread for l entries, under the ancilla
        index = db.layout.index_qubits
        spread = [GateSpec._built(kind, params, targets, controls + ((anc, 1),))
                  for kind, params, targets, controls in _spread_steps(l, 0, index)]
        circ += Circuit._joined(n, (spread,), {q: "I" for q in index}, len(spread))
    new_db = _advance(db, new, circ)
    new_db.check(tol=TRANSFER_AMP_TOL)
    return new_db


def extend_meta(meta: QdbMeta, l: int) -> tuple[QdbMeta, list]:
    """Transition of ``extend``: the record it leaves and its steps. A round,
    at most k new entries, is the transfer's record with its AmplificationPlan
    and the unfold's with None; a reservoir loaded for l is one unfold step."""
    _check_growable(meta, "extend")
    if l < 0:
        raise SemanticError("cannot extend by a negative entry count")
    if meta.l != 0:
        if meta.l != l:
            raise SemanticError(
                f"reservoir already loaded for {meta.l} entries, not the requested {l}")
        meta = unfold_meta(meta)
        return meta, [(meta, None)]
    steps = []
    while l > 0:
        loaded = transfer_meta(meta, min(meta.k, l))
        meta = unfold_meta(loaded)
        steps += [(loaded, plan_transfer(loaded.k, loaded.l)), (meta, None)]
        l -= loaded.l
    return meta, steps


def extend(db: QdbState, l: int, *, plan_sink=None) -> QdbState:
    """Grow a database by l empty entries (transfer + unfold rounds).

    A balanced database is loaded round by round, each round creating at most
    k new entries (k the current count); a database whose reservoir already
    holds weight for exactly l entries skips the transfer and unfolds
    directly. ``plan_sink``, if given, receives each round's
    AmplificationPlan, all of them planned before the first round runs.
    """
    _, steps = extend_meta(db.meta, l)
    for _, plan in steps:
        if plan is not None and plan_sink is not None:
            plan_sink(plan)
    return _extend(db, steps)


def _extend(db: QdbState, steps) -> QdbState:
    """``extend`` by ``extend_meta``'s steps: a transfer where one has a plan."""
    for new, plan in steps:
        db = _unfold(db, new) if plan is None else _transfer(db, new, plan)
    return db


@dataclass(frozen=True)
class ExtendPlan:
    """Shape of an ancilla-bounded (possibly imbalanced) extension.

    z ancillas provide l_prime nonzero ancilla patterns; each is spread over
    l_double_prime index patterns. alpha/beta/gamma are the amplitude moduli
    of the reservoir, the old entries, and the new entries. The result is
    balanced exactly when every ancilla pattern hosts one new entry.
    """

    k: int
    l: int
    z: int
    l_prime: int
    l_double_prime: int
    alpha: float
    beta: float
    gamma: float
    balanced: bool
    route: str
    amplification: AmplificationPlan

    def to_report(self) -> dict:
        report = {f.name: getattr(self, f.name) for f in fields(self)}
        report["amplification"] = self.amplification.to_report()
        return report


ROUTES = ("direct", "marker")


def plan_extend_imbalanced(k: int, l: int, z: int, *, route: str = "direct") -> ExtendPlan:
    """Work out the staging of an ancilla-bounded extension.

    Capacity: z ancillas can create at most (2^z - 1) * k new entries. When
    l exceeds the 2^z - 1 ancilla patterns, it must split evenly across them.
    """
    if route not in ROUTES:
        raise SemanticError(f"route must be one of {ROUTES}, got {route!r}")
    if z < 1:
        raise SemanticError("need at least one ancilla qubit")
    if l < 1:
        raise SemanticError("need at least one new entry")
    if l > (2 ** z - 1) * k:
        raise CapacityError(
            f"{z} ancilla qubits create at most {(2 ** z - 1) * k} new entries "
            f"for {k} existing ones, requested {l}")
    beta = math.sqrt(1.0 / (l + k))
    if z == 1:
        # single-ancilla route reuses the reservoir unfolding, which is balanced
        l_prime, l_double, alpha, gamma = l, 1, beta, beta
    else:
        l_prime = min(l, 2 ** z - 1)
        if l % l_prime:
            raise SemanticError(
                f"{l} new entries do not split evenly over {l_prime} ancilla patterns")
        l_double = l // l_prime
        alpha = math.sqrt((l + 1) / ((l_prime + 1) * (l + k)))
        gamma = math.sqrt((l + 1) / (l_double * (l_prime + 1) * (l + k)))
    return ExtendPlan(k=k, l=l, z=z, l_prime=l_prime, l_double_prime=l_double,
                      alpha=alpha, beta=beta, gamma=gamma, balanced=l_double == 1,
                      route=route, amplification=plan_transfer(k, l))


def extend_imbalanced_meta(meta: QdbMeta, l: int, z: int, *, route: str = "direct"
                           ) -> tuple[QdbMeta, QdbMeta | None, ExtendPlan]:
    """Transition of ``extend_imbalanced``: the record it leaves, where l
    entries sit behind z new index qubits, the transfer's record (None when the
    reservoir is loaded for l) and the ExtendPlan, which gives the profile."""
    _check_growable(meta, "extend")
    plan = plan_extend_imbalanced(meta.k, l, z, route=route)
    loading = None
    if meta.l == 0:
        meta = loading = transfer_meta(meta, l)
    elif meta.l != l:
        raise SemanticError(
            f"reservoir already loaded for {meta.l} entries, not the requested {l}")
    if z == 1:
        return unfold_meta(meta), loading, plan
    kt, n0 = len(meta.layout.index_qubits), meta.layout.n_qubits
    profile = None
    if plan.l_double_prime > 1:
        labels = meta.layout.labels
        profile = {j: plan.beta for j in labels}
        profile[0] = plan.alpha
        profile.update((labels[-1] + 1 + i, plan.gamma) for i in range(l))
        if route == "marker":  # its flag qubit joins the z ancillas while it runs
            _check_budget(n0 + z + 1, meta.max_qubits)
    patterns = [(i << kt) | h for i in range(1, plan.l_prime + 1)
                for h in range(plan.l_double_prime)]
    return _with_index_qubits(meta, range(n0, n0 + z), patterns, profile), loading, plan


def _marker_flag_circuit(marker: int, anc_qubits, n: int) -> Circuit:
    """Compute (ancilla register != 0) into a fresh marker qubit."""
    circ = Circuit(n)
    circ.label(marker, "A")
    circ.append(x(marker))
    circ.append(GateSpec("x", (), (marker,), tuple((q, 0) for q in anc_qubits)))
    return circ


def extend_imbalanced(db: QdbState, l: int, z: int, *, route: str = "direct",
                      plan_sink=None) -> QdbState:
    """Grow a balanced database by l entries using z ancilla qubits at once.

    After the usual transfer, the ancilla register is spread over l_prime + 1
    patterns under a negative control on the whole index register (only the
    reservoir branch has index pattern zero). If several new entries share an
    ancilla pattern, the index register is additionally spread wherever the
    ancillas are nonzero — either directly (inverse spread under a zero
    control, then an unconditional spread) or via an explicit computed
    marker qubit.

    With one entry per ancilla pattern the result is balanced; otherwise new
    entries carry gamma < beta and the reservoir alpha > beta, as recorded in
    the plan. A database whose reservoir already holds weight for exactly l
    entries (a ``prepare_general(k, l)`` result) skips the transfer.
    ``plan_sink``, if given, receives the ExtendPlan before the transfer runs.
    """
    new, loading, plan = extend_imbalanced_meta(db.meta, l, z, route=route)
    if plan_sink is not None:
        plan_sink(plan)
    return _extend_imbalanced(db, new, loading, plan)


def _extend_imbalanced(db: QdbState, new: QdbMeta, loading: QdbMeta | None,
                       plan: ExtendPlan) -> QdbState:
    """``extend_imbalanced`` of ``db`` to ``new``; no transfer if ``loading`` is None."""
    loaded = db if loading is None else _transfer(db, loading, plan.amplification)
    if plan.z == 1:
        return _unfold(loaded, new)
    anc = new.layout.index_qubits[-plan.z:]
    n = anc[-1] + 1
    # the spread labels the ancillas "I": they join the index register
    circ = prepare_circuit(plan.l_prime + 1, 0, anc, n).controlled(
        nctrl=loaded.layout.index_qubits)
    if plan.l_double_prime > 1:
        spread_idx = prepare_circuit(plan.l_double_prime, 0,
                                     loaded.layout.index_qubits, n)
        if plan.route == "direct":
            circ += spread_idx.inverse().controlled(nctrl=anc)
            circ += spread_idx
        else:
            marker = n
            circ = circ.extended(n + 1)
            flag = _marker_flag_circuit(marker, anc, n + 1)
            circ += flag
            circ += spread_idx.extended(n + 1).controlled(ctrl=(marker,))
            circ += flag.inverse()
    # the widened state holds the z ancillas, and the marker on that route
    state = simulate(circ, loaded.state, max_qubits=loaded.max_qubits)
    if plan.route == "marker" and plan.l_double_prime > 1:
        state = drop_qubits(state, [n])
    new_db = _advance(loaded, new, circ, state)
    new_db.check(tol=TRANSFER_AMP_TOL)
    return new_db


@dataclass(frozen=True)
class OverlapReport:
    """Pairwise overlap of two equal-size databases, before and after growth.

    A fixed unitary preserves overlaps; extension provably changes them
    whenever the databases differ, which is why growth must be built from
    each database's own preparation circuit instead.
    """

    k: int
    l: int
    overlap_before: float
    overlap_after: float
    closed_before: float
    closed_after: float
    preserved: bool


def check_no_unitary_extend(k: int, l: int, data_a: dict[int, int] | None = None,
                            data_b: dict[int, int] | None = None,
                            *, m_data: int = 1, tol: float = 1e-9) -> OverlapReport:
    """Demonstrate that growing by l entries cannot be one fixed unitary.

    Builds two databases (by default differing in entry 1's data bit),
    extends both, and compares overlaps: (1 + matches)/k before versus
    (1 + l + matches)/(k + l) after.
    """
    if data_a is None and data_b is None:
        data_a, data_b = {}, {1: 1}
    data_a, data_b = data_a or {}, data_b or {}
    db_a = prepare_general(k, 0, data_a, m_data=m_data)
    db_b = prepare_general(k, 0, data_b, m_data=m_data)
    before = abs(overlap(db_a.state, db_b.state))
    ext_a = extend(db_a, l)
    ext_b = extend(db_b, l)
    after = abs(overlap(ext_a.state, ext_b.state))
    matches = sum(
        1 for j in range(1, k)
        if db_a.descriptor.data_value(j) == db_b.descriptor.data_value(j))
    closed_before = (1 + matches) / k
    closed_after = (1 + l + matches) / (k + l)
    return OverlapReport(k=k, l=l, overlap_before=before, overlap_after=after,
                         closed_before=closed_before, closed_after=closed_after,
                         preserved=abs(before - after) <= tol)
