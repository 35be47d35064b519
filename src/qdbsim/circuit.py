"""Circuits: construction, simulation, metrics, and the linear-cost
decomposition of multi-controlled X gates.

A circuit is an ordered gate sequence over a fixed-width register, held as
a tuple of parts that are shared by reference (see ``Circuit``): gate lists
and records (``GateRecord``), which keep an op's arguments and make their
gates only when they are asked for. Qubits may
carry register labels (``I`` index, ``D`` data, ``A`` ancilla, ``S``
sensor) which are purely annotations: simulation ignores them, but layout
bookkeeping and the text format carry them through.

Simulation has one entry, ``simulate``, the only function that runs a
circuit's gates. It widens a narrower start state with fresh |0> qubits at
the high end, makes that one copy, and runs the parts on it in place; the
result has the same bits as applying the gates one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SemanticError
from .gates import GateSpec, gate_inverse, inverse_params, x
from .statevector import (
    DEFAULT_MAX_QUBITS,
    StateVector,
    _check_gate,
    add_ancillas,
    apply_gate,
    move_amplitudes,
)

VALID_LABELS = ("I", "D", "A", "S")


class Circuit:
    """Gates over an ``n_qubits`` register, with register ``labels``.

    The gates are held as a tuple of parts. A part is a list of checked
    gates, a tuple of parts, or a record (``GateRecord``), which keeps an
    op's arguments and the generator that yields the fields of its gates,
    and builds the gates only when they are asked for. ``qdb.write`` and
    ``qdb.write_swap_conditional`` add records of the sensor's preparation
    and of their core (a folded write also the preparation undone),
    ``qdb.permute`` a record of its transpositions, and a preparation a
    record of its data-write block, which also offers a move table
    (``GateRecord.table``) that ``simulate`` moves by in one call.

    Parts are shared, not copied: ``+``, ``extended`` and the history's
    ``qdb._grow`` join part tuples, so a join costs the same at any length,
    and every step of a transfer refers to one u and one u^-1. ``gates`` is
    the flat list, made on first use: a circuit of several parts then
    becomes one part, that list, which it alone holds, so changing
    ``gates`` in place changes the circuit. ``append`` adds to a list only
    this circuit holds, and never to a shared part. ``len`` sums the parts
    without flattening them, and ``==``, ``metrics``, ``remapped`` and
    ``controlled`` read the gates' fields off the parts (``_fields``).

    Gates and labels are checked when they enter a circuit: the
    constructor's, each ``append`` and each ``label``. ``+``, ``extended``
    and ``inverse`` reuse checked parts and labels on the same or a wider
    register, since widening cannot invalidate either, and qdbsim's builders
    place gates, records and labels they made from a checked layout
    (``GateSpec._built``) through ``_joined`` too."""

    def __init__(self, n_qubits: int, gates: list[GateSpec] | None = None,
                 labels: dict[int, str] | None = None):
        self.n_qubits = n_qubits
        self.gates = [] if gates is None else gates
        self.labels = {} if labels is None else labels
        self.__post_init__()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise SemanticError("a circuit needs at least one qubit")
        for q, lab in self.labels.items():
            self._check_label(q, lab)
        for g in self.gates:
            _check_gate(g, self.n_qubits)

    @classmethod
    def _joined(cls, n_qubits: int, parts: tuple, labels: dict[int, str],
                size: int) -> "Circuit":
        """A circuit over ``parts`` holding ``size`` gates, none of them its
        own to append to. The parts and ``labels`` were checked, or built
        valid, on a register no wider than ``n_qubits``, so nothing is
        checked again."""
        out = object.__new__(cls)
        out.n_qubits = n_qubits
        out.labels = labels
        out._parts, out._own, out._size = parts, None, size
        return out

    @property
    def gates(self) -> list[GateSpec]:
        if self._own is None or len(self._parts) > 1:
            flat: list[GateSpec] = []
            for part in self._leaves():
                flat += part
            self.gates = flat
        return self._own

    @gates.setter
    def gates(self, gates: list[GateSpec]):
        # ``_own`` is the last part when this circuit alone holds it, and
        # ``_size`` counts the gates of every other part
        self._parts, self._own, self._size = (gates,), gates, 0

    def _leaves(self):
        """The gate lists and records of the parts, in order."""
        parts = self._parts
        if len(parts) == 1 and type(parts[0]) is not tuple:
            return parts  # most circuits an op builds: one list
        return _walk(parts)

    def _shared(self) -> tuple:
        """The parts, for another circuit to hold: none of them is this
        circuit's own to append to any more."""
        if self._own is not None:
            self._size += len(self._own)
            self._own = None
        return self._parts

    def _check_label(self, q: int, lab: str):
        if not 0 <= q < self.n_qubits:
            raise SemanticError(f"label on qubit {q} outside register of {self.n_qubits}")
        if lab not in VALID_LABELS:
            raise SemanticError(f"register label must be one of {VALID_LABELS}, got {lab!r}")

    def append(self, gate: GateSpec) -> "Circuit":
        _check_gate(gate, self.n_qubits)
        if self._own is None:
            self._own = []
            self._parts += (self._own,)
        self._own.append(gate)
        return self

    def extend_gates(self, gates) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def label(self, q: int, lab: str) -> "Circuit":
        self._check_label(q, lab)
        self.labels[q] = lab
        return self

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise SemanticError("cannot concatenate circuits of different widths")
        parts = (self._shared(), other._shared())  # both sizes now in _size
        return Circuit._joined(self.n_qubits, parts, {**self.labels, **other.labels},
                               self._size + other._size)

    def __len__(self):
        return self._size if self._own is None else self._size + len(self._own)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n_qubits, self.labels) == (other.n_qubits, other.labels)
                and list(self._fields()) == list(other._fields()))

    __hash__ = None

    def __repr__(self):
        return (f"Circuit(n_qubits={self.n_qubits!r}, gates={self.gates!r}, "
                f"labels={self.labels!r})")

    def extended(self, n_qubits: int) -> "Circuit":
        """Same gates on a wider register (new qubits at the high end)."""
        if n_qubits < self.n_qubits:
            raise SemanticError("cannot shrink a circuit")
        return Circuit._joined(n_qubits, self._shared(), dict(self.labels), len(self))

    def inverse(self) -> "Circuit":
        """The parts in reverse order, each inverted: a gate list gate by
        gate, a record by its own ``inverse``."""
        parts = tuple([gate_inverse(g) for g in reversed(part)] if type(part) is list
                      else part.inverse() for part in reversed(self._leaves()))
        return Circuit._joined(self.n_qubits, parts, dict(self.labels), len(self))

    def remapped(self, mapping: dict[int, int], n_qubits: int) -> "Circuit":
        """Embed into a wider register, sending qubit q to mapping[q].

        The mapping must send distinct qubits to distinct qubits and name
        every qubit a gate uses. rot2 gates are tied to whole-register basis
        indices and cannot be embedded this way.
        """
        if len(set(mapping.values())) != len(mapping):
            raise SemanticError("a remapping cannot send two qubits to one")
        out = Circuit(n_qubits)
        for q, lab in self.labels.items():
            if q in mapping:
                out.label(mapping[q], lab)
        for kind, params, targets, controls in self._fields():
            if kind == "rot2":
                raise SemanticError("rot2 gates cannot be remapped to a sub-register")
            try:
                wired = (tuple(mapping[t] for t in targets),
                         tuple((mapping[q], b) for q, b in controls))
            except KeyError as exc:
                raise SemanticError(f"the remapping misses qubit {exc.args[0]}") from None
            out.append(GateSpec(kind, params, *wired))
        return out

    def controlled(self, ctrl=(), nctrl=()) -> "Circuit":
        """Add the given controls to every gate."""
        extra = tuple((q, 1) for q in ctrl) + tuple((q, 0) for q in nctrl)
        out = Circuit(self.n_qubits, labels=dict(self.labels))
        for kind, params, targets, controls in self._fields():
            if kind == "rot2":
                raise SemanticError("rot2 gates cannot take controls")
            out.append(GateSpec(kind, params, targets, controls + extra))
        return out

    def metrics(self) -> "CircuitMetrics":
        depth_at = [0] * self.n_qubits
        mcx = 0
        max_ctrl = 0
        for kind, _, targets, controls in self._fields():
            qubits = (range(self.n_qubits) if kind == "rot2"
                      else [*targets, *(q for q, _ in controls)])
            level = 1 + max((depth_at[q] for q in qubits), default=0)
            for q in qubits:
                depth_at[q] = level
            if kind == "x" and len(controls) >= 2:
                mcx += 1
            max_ctrl = max(max_ctrl, len(controls))
        return CircuitMetrics(
            gate_count=len(self),
            depth=max(depth_at, default=0),
            mcx_count=mcx,
            max_controls=max_ctrl,
        )

    def _fields(self):
        """The fields of the gates, in order, as a ``GateRecord`` yields
        them, read off the parts without building a gate or flattening
        the circuit."""
        for part in self._leaves():
            if type(part) is list:
                for g in part:
                    yield g.kind, g.params, g.targets, g.controls
            else:
                yield from part.fields()


def _walk(parts: tuple) -> list:
    """The lists and records under nested part tuples, depth first, in
    order: a list, which a loop walks faster than a generator."""
    stack, out = [parts], []
    while stack:
        part = stack.pop()
        if type(part) is tuple:
            stack.extend(reversed(part))
        else:
            out.append(part)
    return out


class GateRecord:
    """A ``Circuit`` part that keeps an op's arguments ``args`` instead of
    its ``size`` gates: ``fields_of(*args)`` yields each gate's fields
    ``(kind, params, targets, controls)``, the arguments of
    ``GateSpec._built``, from parts already checked.

    ``gates`` builds them on first use and keeps them; ``emit_text``
    renders the fields without building them, and equal records once per
    call (``key``). The inverse is the record read backwards, each gate
    inverted, marked ``reversed``; ``forward`` is the record it reverses
    (itself unless reversed). A reversed record builds its gates from its
    forward's (``gate_inverse``), and yields its fields from its forward's
    fields (``_inverted_fields``).

    A record of ``x`` gates that share one control set and target none of
    it (they commute, and each is its own inverse) may offer a move table,
    ``table_of(*args)``: the control set, each entry's base (its pattern
    placed on the control set as a basis index) and the mask its gates
    flip there, for ``statevector.move_amplitudes``. ``table()``
    computes it once, on the forward record, and a reversed record moves by
    its forward's table. Such a record may also offer its own renderer,
    ``text_of(*args, names, memo)``: the lines of its circuit text, with
    ``names`` the qubits' names and ``memo`` a dict that lives for one
    ``emit_text`` call.
    """

    __slots__ = ("fields_of", "args", "forward", "key", "_size", "_gates",
                 "_table_of", "_table", "_text_of")

    def __init__(self, fields_of, args: tuple, size: int,
                 forward: "GateRecord | None" = None, *, table_of=None, text_of=None):
        self.fields_of, self.args, self._size = fields_of, args, size
        self.forward = self if forward is None else forward
        # what fixes the gates: records with equal keys hold equal gates
        self.key = (fields_of, args, forward is not None)
        self._gates = self._table = None
        self._table_of, self._text_of = table_of, text_of

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self.gates)

    @property
    def reversed(self) -> bool:
        return self.forward is not self

    def inverse(self) -> "GateRecord":
        if self.forward is not self:
            return self.forward
        return GateRecord(self.fields_of, self.args, self._size, self,
                          table_of=self._table_of, text_of=self._text_of)

    def fields(self):
        """The fields of the gates, in order."""
        if not self.reversed:
            return self.fields_of(*self.args)
        return _inverted_fields(list(self.forward.fields()))

    def table(self):
        """The move table (see above), or None if the record offers none."""
        fwd = self.forward
        if fwd._table is None and fwd._table_of is not None:
            fwd._table = fwd._table_of(*fwd.args)
        return fwd._table

    @property
    def gates(self) -> list[GateSpec]:
        if self._gates is None:
            fwd = self.forward
            self._gates = ([GateSpec._built(*f) for f in self.fields_of(*self.args)]
                           if fwd is self else [gate_inverse(g) for g in reversed(fwd.gates)])
        return self._gates


def _inverted_fields(fields: list[tuple]) -> list[tuple]:
    """The fields of the inverse of the gates with ``fields``: read
    backwards, each gate inverted on its own wires."""
    return [(*inverse_params(kind, params), targets, controls)
            for kind, params, targets, controls in reversed(fields)]


@dataclass(frozen=True)
class CircuitMetrics:
    gate_count: int
    depth: int
    mcx_count: int
    max_controls: int


def simulate(circuit: Circuit, state: StateVector | None = None,
             *, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """Run the circuit on ``state`` (default |0...0>) and return a new state.

    A ``state`` narrower than the circuit is widened with fresh |0> qubits at
    the high end, up to the circuit's width, and the widened width counts
    against ``max_qubits`` (CapacityError); a wider one is refused. The
    widened array, or a copy of a same-width state, is the one copy made:
    the parts run on it in place, so the caller's amplitudes are never
    written.

    A record with a move table (a preparation's data-write block, forward
    or reversed) moves by it in one ``move_amplitudes`` call, in place,
    with no gate built; an empty table moves nothing. Every other part, a
    gate list or a record without a table, runs gate by gate through
    ``apply_gate``.
    """
    n = circuit.n_qubits
    if state is None:
        state = StateVector.zero(n, max_qubits=max_qubits)
    elif state.n_qubits == n:
        state = state.copy()
    elif state.n_qubits < n:
        state = add_ancillas(state, n - state.n_qubits, max_qubits=max_qubits)
    else:
        raise SemanticError(f"state has {state.n_qubits} qubits, circuit needs {n}")
    for part in circuit._leaves():
        table = None if type(part) is list else part.table()
        if table is None:
            _run_gates(state, part)
        else:
            move_amplitudes(state, *table)
    return state


def _run_gates(state: StateVector, gates):
    """Apply ``gates``, a list or a record, to ``state`` in place."""
    for g in gates:
        apply_gate(state, g, out=state)


@dataclass(frozen=True)
class DecompositionConfig:
    """How decompose_mcx obtains its helper qubits.

    ``clean-borrowed`` uses existing ancilla-labeled qubits assumed to be in
    |0> and returns them there; ``clean-allocated`` widens the circuit with
    fresh ancillas.
    """

    ancilla_policy: str = "clean-allocated"

    def __post_init__(self):
        if self.ancilla_policy not in ("clean-allocated", "clean-borrowed"):
            raise SemanticError(f"unknown ancilla policy {self.ancilla_policy!r}")


def _toffoli(c1: int, c2: int, t: int) -> GateSpec:
    return x(t, ctrl=(c1, c2))


def _vchain(controls: list[int], target: int, helpers: list[int]) -> list[GateSpec]:
    """And-chain of Toffolis computing the conjunction of all controls.

    Needs len(controls) - 2 helper qubits in |0>; they are returned to |0>.
    Emits 2*tau - 3 Toffolis for tau controls.
    """
    tau = len(controls)
    compute = [_toffoli(controls[0], controls[1], helpers[0])]
    for i in range(tau - 3):
        compute.append(_toffoli(controls[i + 2], helpers[i], helpers[i + 1]))
    middle = _toffoli(controls[tau - 1], helpers[tau - 3], target)
    return compute + [middle] + list(reversed(compute))


def decompose_mcx(circuit: Circuit, config: DecompositionConfig | None = None) -> Circuit:
    """Replace every X gate with three or more controls by a Toffoli chain.

    Negative controls are wrapped in X conjugation; other gate kinds pass
    through untouched. Toffoli count per gate is linear in the control count.
    """
    config = config or DecompositionConfig()
    need = max((len(g.controls) - 2 for g in circuit.gates
                if g.kind == "x" and len(g.controls) >= 3), default=0)

    n = circuit.n_qubits
    labels = dict(circuit.labels)
    if need == 0:
        return circuit.extended(n)

    if config.ancilla_policy == "clean-allocated":
        helpers_pool = list(range(n, n + need))
        n += need
        for q in helpers_pool:
            labels[q] = "A"
    else:
        helpers_pool = None  # chosen per gate from free ancilla-labeled qubits

    out = Circuit(n, labels=labels)
    for g in circuit.gates:
        if g.kind != "x" or len(g.controls) < 3:
            out.append(g)
            continue
        busy = set(g.qubits)
        if helpers_pool is None:
            free = [q for q, lab in sorted(circuit.labels.items())
                    if lab == "A" and q not in busy]
            if len(free) < len(g.controls) - 2:
                raise SemanticError(
                    f"insufficient ancillas under clean-borrowed policy: need "
                    f"{len(g.controls) - 2}, have {len(free)}")
            helpers = free[:len(g.controls) - 2]
        else:
            helpers = helpers_pool[:len(g.controls) - 2]
        neg = [q for q, bit in g.controls if bit == 0]
        ctrl_qubits = [q for q, _ in g.controls]
        for q in neg:
            out.append(x(q))
        out.extend_gates(_vchain(ctrl_qubits, g.targets[0], helpers))
        for q in neg:
            out.append(x(q))
    return out
