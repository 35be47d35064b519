"""Quantum-database state: descriptor, register layout, and operations.

A database with k occupied entries and reservoir multiplicity l is the pure
state whose entry 0 (the reservoir, always empty) carries amplitude
sqrt((l+1)/(k+l)) and whose entries 1..k-1 each carry sqrt(1/(k+l)), with
entry j's data register holding |d_j> (or u_d|d_j> under a data encoding).

Operations are functional: each returns a new QdbState and leaves its input
untouched. Every unitary step is also appended to a cumulative circuit, so a
database can always be re-created from |0...0> by the circuit it carries.
Every op but preparation ends in ``_advance``, where its record, its circuit
and its new amplitudes meet.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import Circuit, GateRecord, _inverted_fields, _run_gates, simulate
from .errors import SemanticError, VerificationError
from .gates import GateSpec, rot2
from .statevector import (
    DEFAULT_MAX_QUBITS,
    StateVector,
    _axes,
    _check_budget,
    _collapsed,
    _exchange,
    _register_scan,
    _renormalized,
    _spread,
    apply_gate,
    schmidt,
    states_equal,
)
from .text_format import emit_text, parse_text
from .tolerances import EMPTY_ENTRY_WEIGHT, PROJECTION_ZERO_TOL, STATE_TOL, WRITE_PURITY_TOL


def index_width(k: int) -> int:
    """Qubits needed for k index patterns (at least one)."""
    if k < 1:
        raise SemanticError("entry count must be at least 1")
    return max(1, math.ceil(math.log2(k)))


def _integer(value, what: str) -> int:
    """``value`` as an int: an integer (numpy's too) or a float equal to
    one. Anything else, a bool, a fraction or a string among them, is
    refused rather than truncated or parsed."""
    if type(value) is int:  # the common case; a bool is not of this type
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise SemanticError(f"{what} must be an integer, got {value!r}")


def _bits_to_int(bits: str) -> int:
    if bits == "":
        return 0
    if bits.strip("01"):  # anything but 0 and 1 is left
        raise SemanticError(f"data bitstring must be binary, got {bits!r}")
    return int(bits, 2)


def _int_to_bits(value: int, width: int) -> str:
    if value < 0 or (width == 0 and value) or value >> width:
        raise SemanticError(f"data value {value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width else ""


class _Derivable:
    """A frozen record that others are derived from."""

    def _derived(self, **changes):
        """This record with ``changes`` that keep it valid, built without
        running the constructor or its checks."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **changes)
        return out


@dataclass(frozen=True)
class QdbDescriptor(_Derivable):
    """What a database holds: entry count, reservoir multiplicity, data map.

    ``data`` maps entry labels to MSB-first bitstrings; absent labels hold the
    all-zero word. Label 0 is the reservoir and must stay empty. ``u_d`` is an
    optional basis-change circuit on the data register: entry j then stores
    u_d|d_j> instead of |d_j>.

    A record is checked once, when it is built from raw parts: the
    constructor checks every word. As with ``Circuit``, a record derived from
    a checked one is not checked again: ``with_data_value`` checks only the
    word it sets, and the transitions that remap, drop or keep words build
    their records through ``_derived``.
    """

    k: int
    l: int
    data: dict[int, str] = field(default_factory=dict)
    u_d: Circuit | None = None
    m_data: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise SemanticError("a database needs at least one entry (the reservoir)")
        if self.l < 0:
            raise SemanticError("reservoir multiplicity cannot be negative")
        if self.m_data < 0:
            raise SemanticError("data register width cannot be negative")
        cleaned: dict[int, str] = {}
        for label, bits in self.data.items():
            label = _integer(label, "data label")
            if isinstance(bits, str):
                value, width = _bits_to_int(bits), len(bits)
            else:
                value = _integer(bits, "data word")
                width = value.bit_length()
            if label == 0 and value:
                raise SemanticError("entry 0 is the reservoir and must stay empty")
            if value == 0:
                continue
            if width > self.m_data:
                raise SemanticError(
                    f"data word {bits!r} wider than the {self.m_data}-bit data register")
            cleaned[label] = _int_to_bits(value, self.m_data)
        object.__setattr__(self, "data", cleaned)
        if self.u_d is not None and self.u_d.n_qubits != self.m_data:
            raise SemanticError(
                f"data encoding circuit spans {self.u_d.n_qubits} qubits, "
                f"register has {self.m_data}")

    def data_value(self, label: int) -> int:
        # stored words were checked on the way in, so they are only parsed
        word = self.data.get(label)
        return int(word, 2) if word else 0

    def with_data_value(self, label: int, value: int) -> "QdbDescriptor":
        """This record with entry ``label`` holding ``value``; only that word
        is checked."""
        new = dict(self.data)
        if value:
            new[int(label)] = _int_to_bits(value, self.m_data)
            if label == 0:
                raise SemanticError("entry 0 is the reservoir and must stay empty")
        else:
            new.pop(label, None)
        return self._derived(data=new)

    def to_json(self) -> str:
        obj = {
            "k": self.k,
            "l": self.l,
            "data": {str(j): self.data[j] for j in sorted(self.data)},
            "u_d": emit_text(self.u_d) if self.u_d is not None else None,
            "m_data": self.m_data,
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "QdbDescriptor":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SemanticError(f"descriptor is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise SemanticError("descriptor JSON must be an object")
        unknown = set(obj) - {"k", "l", "data", "u_d", "m_data"}
        if unknown:
            raise SemanticError(f"descriptor has unknown keys {sorted(unknown)}")
        k, l = obj.get("k"), obj.get("l")
        if type(k) is not int or type(l) is not int:  # not a float, a bool or a string
            raise SemanticError(f"descriptor needs integer k and l, got {k!r} and {l!r}")
        raw = obj.get("data") or {}
        if not isinstance(raw, dict):
            raise SemanticError("descriptor data must be an object")
        data: dict[int, str] = {}
        for key, bits in raw.items():
            try:
                label = int(key)
            except ValueError:
                label = None
            if label is None or str(label) != key:  # int() also takes "1_0" and " 2"
                raise SemanticError(f"data label {key!r} is not an integer")
            if not isinstance(bits, str):
                raise SemanticError(f"data word for label {key} must be a string")
            data[label] = bits
        u_d_text = obj.get("u_d")
        u_d = parse_text(u_d_text) if u_d_text else None
        if "m_data" in obj:  # the constructor checks that the words fit it
            m_data = obj["m_data"]
            if type(m_data) is not int:
                raise SemanticError(f"descriptor m_data must be an integer, got {m_data!r}")
        else:  # older text: as wide as the widest word or the encoding
            m_data = max([len(b) for b in data.values()] or [0])
            if u_d is not None:
                m_data = max(m_data, u_d.n_qubits)
        return cls(k=k, l=l, data=data, u_d=u_d, m_data=m_data)


@dataclass(frozen=True)
class QdbLayout(_Derivable):
    """Where the database lives inside the simulated register.

    ``index_qubits[i]`` holds bit i of the index pattern; ``data_qubits[b]``
    holds data bit b. ``logical_index_map`` sends entry labels to index
    patterns; removals drop their label here, and the freed pattern stays
    unused until a relabeling re-keys the survivors.

    Like ``QdbDescriptor``, a layout is checked whole only by its
    constructor; removal and growth derive theirs.
    """

    index_qubits: tuple[int, ...]
    data_qubits: tuple[int, ...] = ()
    logical_index_map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        # tuples, which ``_place`` memoizes its runs by
        object.__setattr__(self, "index_qubits", tuple(self.index_qubits))
        object.__setattr__(self, "data_qubits", tuple(self.data_qubits))
        qubits = self.index_qubits + self.data_qubits
        if any(q < 0 for q in qubits):
            raise SemanticError("negative qubit index")
        if len(set(qubits)) != len(qubits):
            raise SemanticError("index and data registers overlap")
        if not self.index_qubits:
            raise SemanticError("a database needs an index register")
        pats = list(self.logical_index_map.values())
        if len(set(pats)) != len(pats):
            raise SemanticError("two labels share one index pattern")
        bound = 2 ** len(self.index_qubits)
        for pat in pats:
            if not 0 <= pat < bound:
                raise SemanticError(f"index pattern {pat} outside the register")

    @property
    def n_qubits(self) -> int:
        return len(self.index_qubits) + len(self.data_qubits)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(self.logical_index_map))

    def pattern(self, label: int) -> int:
        try:
            return self.logical_index_map[label]
        except KeyError:
            raise SemanticError(f"no entry with label {label}") from None

    def physical_index(self, label: int, data_value: int = 0) -> int:
        pat = self.pattern(label)
        if data_value >> len(self.data_qubits):
            raise SemanticError(f"data value {data_value} wider than the data register")
        return self._place(pat, data_value)

    def physical_indices(self, labels, data_values) -> np.ndarray:
        """``physical_index`` of each (label, data value) pair, in one numpy
        pass per register bit."""
        pats = np.fromiter(map(self.pattern, labels), dtype=np.int64, count=len(labels))
        vals = np.asarray(data_values, dtype=np.int64)
        wide = np.flatnonzero(vals >> len(self.data_qubits))
        if wide.size:
            raise SemanticError(f"data value {vals[wide[0]]} wider than the data register")
        return self._place(pats, vals)

    def _place(self, pat, data_value):
        """Basis index of an index pattern with a data value; ints or numpy
        int arrays alike. Each register is spread by its runs
        (``statevector._spread``): one mask and one shift per run of bits
        that lands on consecutive qubits, so a fresh layout places each
        register in one step. ``physical_index``, ``physical_indices`` (and
        so ``check``) and the data-write table place their indices this way,
        and ``move_amplitudes`` its offsets; an entry op selects its entry's
        branch by the same runs (``_entry``) instead."""
        return _spread(pat, self.index_qubits) | _spread(data_value, self.data_qubits)

    def pattern_controls(self, label: int) -> tuple[tuple[int, int], ...]:
        """(qubit, bit) controls selecting one entry's index pattern."""
        pat = self.pattern(label)
        return tuple((q, (pat >> i) & 1) for i, q in enumerate(self.index_qubits))

    @classmethod
    def fresh(cls, k: int, m_data: int) -> "QdbLayout":
        kt = index_width(k)
        return cls(
            index_qubits=tuple(range(kt)),
            data_qubits=tuple(range(kt, kt + m_data)),
            logical_index_map={j: j for j in range(k)},
        )


class _Record:
    """Accessors shared by the metadata record and the live database."""

    @property
    def k(self) -> int:
        return self.descriptor.k

    @property
    def l(self) -> int:
        return self.descriptor.l

    def require_bare(self, op: str):
        if self.sensor_qubits or self.copy_qubits:
            raise SemanticError(f"{op} requires sensor/copy registers to be detached")


@dataclass(frozen=True)
class QdbMeta(_Record, _Derivable):
    """What an operation's preconditions and effects consult: a QdbState
    without its amplitudes and build circuit (its qubit budget included).

    Each operation has a transition ``<op>_meta`` in the module that owns the
    op: a pure function of the op's arguments and this record that raises the
    op's errors and returns the record after the op, or a tuple that starts
    with it (growth adds its plans). The op hands that to its private effect
    (``_write(db, write_meta(...), j)``); a CLI script runs each line's
    transition once, in its dry run.

    A transition derives its records from the checked ones it is given and
    checks only what it changes: the words it sets, the labels and patterns
    it adds, and the width it widens to against the budget (CapacityError,
    which no effect checks). Nothing else is checked again, so its checks
    cost the same at every k. The full checks run where raw parts come in:
    ``prepare_meta`` and the ``QdbDescriptor`` and ``QdbLayout`` constructors.
    """

    descriptor: QdbDescriptor
    layout: QdbLayout
    sensor_qubits: tuple[int, ...] = ()
    copy_qubits: tuple[int, ...] = ()
    amplitude_profile: dict[int, float] | None = None
    projective: bool = False
    max_qubits: int = DEFAULT_MAX_QUBITS


@dataclass
class QdbState(_Record):
    """A live database: descriptor + layout + statevector + build circuit.

    ``sensor_qubits`` / ``copy_qubits`` list registers left attached by a
    write or read; most operations require them to be detached first.
    ``amplitude_profile`` overrides the standard closed-form moduli when the
    state was built by a deliberately imbalanced extension. ``projective``
    marks states that passed through a projection, after which the cumulative
    circuit no longer reproduces them and cannot be emitted.
    """

    descriptor: QdbDescriptor
    layout: QdbLayout
    state: StateVector
    circuit: Circuit
    sensor_qubits: tuple[int, ...] = ()
    copy_qubits: tuple[int, ...] = ()
    amplitude_profile: dict[int, float] | None = None
    projective: bool = False
    max_qubits: int = DEFAULT_MAX_QUBITS

    @property
    def n_qubits(self) -> int:
        return self.state.n_qubits

    @property
    def meta(self) -> QdbMeta:
        # built as ``_derived`` builds records: these parts make a valid one
        meta = object.__new__(QdbMeta)
        meta.__dict__.update(descriptor=self.descriptor, layout=self.layout,
                             sensor_qubits=self.sensor_qubits, copy_qubits=self.copy_qubits,
                             amplitude_profile=self.amplitude_profile,
                             projective=self.projective, max_qubits=self.max_qubits)
        return meta

    def occupied_labels(self, tol: float = EMPTY_ENTRY_WEIGHT) -> tuple[int, ...]:
        """Labels whose index pattern carries any amplitude: a weight
        (squared moduli summed over the pattern) above ``tol``."""
        table = _register_scan(self.state, self.layout.index_qubits)
        lmap = self.layout.logical_index_map
        labels = np.fromiter(lmap, dtype=np.int64, count=len(lmap))
        pats = np.fromiter(lmap.values(), dtype=np.int64, count=len(lmap))
        return tuple(sorted(labels[table[pats] > tol].tolist()))

    def amplitude(self, label: int, data_value: int | None = None) -> complex:
        """Amplitude at one entry; defaults to the entry's recorded data word."""
        if data_value is None:
            data_value = self.descriptor.data_value(label)
        return complex(self.state.amplitudes[self.layout.physical_index(label, data_value)])

    def reservoir_amplitude(self) -> complex:
        return self.amplitude(0, 0)

    def expected_moduli(self) -> dict[int, float]:
        """|amplitude| each occupied label should carry."""
        if self.amplitude_profile is not None:
            return dict(self.amplitude_profile)
        k, l = self.descriptor.k, self.descriptor.l
        entry = math.sqrt(1.0 / (k + l))
        out = {0: math.sqrt((l + 1) / (k + l))}
        out.update((label, entry) for label in self.occupied_labels() if label != 0)
        return out

    def check(self, tol: float = STATE_TOL) -> bool:
        """Verify the state against its descriptor; raises on mismatch.

        Checks the norm, the per-entry amplitude moduli, phase uniformity
        across entries, and the absence of stray support. A data encoding is
        undone before checking, so data words are compared computationally.
        """
        self.require_bare("check")
        if abs(self.state.norm() - 1.0) > tol:
            raise VerificationError(f"state norm {self.state.norm()} is off unit")
        st = self.state
        enc = _encoding(self.descriptor.u_d, st.n_qubits, self.layout.data_qubits)
        if enc is not None:
            st = simulate(enc.inverse(), st)
        expected = self.expected_moduli()
        labels = list(expected)
        data = self.descriptor.data
        idx = self.layout.physical_indices(
            labels, [int(data[j], 2) if j in data else 0 for j in labels])
        want = np.fromiter(expected.values(), dtype=float, count=len(labels))
        amps = st.amplitudes[idx]
        mods = np.abs(amps)
        off = np.abs(mods - want) > tol
        with np.errstate(divide="ignore", invalid="ignore"):
            phases = amps / mods
        turned = np.abs(phases - phases[0]) > math.sqrt(tol)
        # the first failing label, its modulus before its phase
        bad = np.flatnonzero(off | turned)
        if bad.size:
            i = bad[0]
            if off[i]:
                raise VerificationError(f"entry {labels[i]}: |amplitude| "
                                        f"{mods[i]:.12g}, expected {want[i]:.12g}")
            raise VerificationError(f"entry {labels[i]} phase differs from entry phase")
        rest = np.abs(st.amplitudes)
        rest[idx] = 0.0
        stray = float(rest.max())
        if stray > tol:
            raise VerificationError(f"stray amplitude {stray:.3g} outside the database")
        return True

    def emit(self) -> str:
        """Circuit text re-creating this state from |0...0>."""
        emit_meta(self.meta)
        return emit_text(self.circuit)


def _advance(db: QdbState, meta: QdbMeta, circ: Circuit | None,
             state: StateVector | None = None) -> QdbState:
    """The database an operation on ``db`` leaves: its transition's record
    ``meta``, qubit budget included, with ``circ`` appended to the build
    circuit (left as it is when ``circ`` is None).

    The new amplitudes are ``state`` when the op has made them its own way,
    and otherwise ``circ`` simulated on ``db``'s state, widened to the
    circuit's fresh high qubits as ``simulate`` does. ``_grow`` joins
    ``circ``'s parts to the history by reference, so ``circ`` is not to be
    changed afterwards.
    """
    if state is None:
        state = simulate(circ, db.state, max_qubits=meta.max_qubits)
    history = db.circuit if circ is None else _grow(db.circuit, circ)
    return QdbState(meta.descriptor, meta.layout, state, history, meta.sensor_qubits,
                    meta.copy_qubits, meta.amplitude_profile, meta.projective,
                    meta.max_qubits)


def emit_meta(meta: QdbMeta) -> QdbMeta:
    """Transition of ``QdbState.emit``: only unprojected states have a circuit."""
    if meta.projective:
        raise SemanticError(
            "state passed through a projection; no circuit re-creates it")
    return meta


# ---------------------------------------------------------------------------
# preparation


def _grow(cumulative: Circuit, piece: Circuit) -> Circuit:
    """Append an operation circuit to the build circuit.

    The build circuit can be wider than the live state: detached sensor/copy
    wires stay in it (uncomputed to |0>), and later operations reuse those
    clean wires. Both sides' checked parts go onto the larger register,
    joined by reference (``Circuit``): no gate is copied, so an append costs
    the same at any history length.
    """
    width = max(cumulative.n_qubits, piece.n_qubits)
    parts = (cumulative._shared(), piece._shared())  # both sizes now in _size
    return Circuit._joined(width, parts, {**cumulative.labels, **piece.labels},
                           cumulative._size + piece._size)


def prepare_circuit(k: int, l: int, qubits, n_qubits: int | None = None) -> Circuit:
    """Index-register preparation: k patterns with an l-fold weighted entry 0.

    Produces sqrt((l+1)/(k+l)) on pattern 0 and sqrt(1/(k+l)) on patterns
    1..k-1, over the listed qubits (qubits[i] holds pattern bit i). Gates that
    reduce to the identity (even-split corrections) are omitted.
    """
    qubits = list(qubits)
    if k < 1 or l < 0:
        raise SemanticError("need k >= 1 and l >= 0")
    if k > 2 ** len(qubits):
        raise SemanticError(f"{len(qubits)} qubits cannot index {k} entries")
    width = (max(qubits) + 1) if n_qubits is None else n_qubits
    circ = Circuit(width)
    for q in qubits:
        circ.label(q, "I")
    for fields in _spread_steps(k, l, qubits):
        circ.append(GateSpec(*fields))
    return circ


def _spread_steps(k: int, l: int, qubits):
    """The fields (``GateRecord``) of ``prepare_circuit``'s gates."""
    if k == 1:
        return
    t = index_width(k)
    s = k - 1
    yield "y", (float((2 ** (t - 1) + l) / (k + l)),), (qubits[t - 1],), ()
    for j in range(t - 2, -1, -1):
        yield "y", (0.5,), (qubits[j],), ()
        prefix = tuple((qubits[i], (s >> i) & 1) for i in range(t - 1, j, -1))
        if (s >> j) & 1 == 0:
            yield "ry", (-math.pi / 2,), (qubits[j],), prefix
        else:
            p = 2 ** j / ((s & ((1 << (j + 1)) - 1)) + 1)
            if p != 0.5:
                yield "ytilde", (p,), (qubits[j],), prefix
        zero_prefix = tuple((qubits[i], 0) for i in range(t - 1, j, -1))
        p = (2 ** j + l) / (2 ** (j + 1) + l)
        if p != 0.5:
            yield "ytilde", (p,), (qubits[j],), zero_prefix


def balanced_circuit(k: int, qubits=None, n_qubits: int | None = None) -> Circuit:
    """Uniform preparation over a power-of-two entry count: one H per qubit."""
    if k < 2 or k & (k - 1):
        raise SemanticError(f"balanced preparation needs a power-of-two count, got {k}")
    t = index_width(k)
    qubits = list(range(t)) if qubits is None else list(qubits)
    if len(qubits) != t:
        raise SemanticError(f"{k} entries need exactly {t} qubits")
    width = (max(qubits) + 1) if n_qubits is None else n_qubits
    circ = Circuit(width)
    for q in qubits:
        circ.label(q, "I")
        circ.append(GateSpec("h", (), (q,)))
    return circ


def _cycles(perm: dict[int, int]) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for start in sorted(perm):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = perm[cur]
        out.append(cyc)
    return out


def _check_patterns(patterns, index_qubits):
    for pat in patterns:
        if not 0 <= pat < 2 ** len(index_qubits):
            raise SemanticError(f"pattern {pat} outside the index register")


def _check_register(index_qubits, n_qubits: int):
    """Distinct qubits of an ``n_qubits`` register: the gates
    ``transposition_circuit`` builds on them need no check of their own."""
    if len(set(index_qubits)) != len(index_qubits):
        raise SemanticError("index register names a qubit twice")
    for q in index_qubits:
        if not 0 <= q < n_qubits:
            raise SemanticError(f"index qubit {q} outside the {n_qubits}-qubit register")


def _gray_steps(pairs, index_qubits):
    """The fields (``GateRecord``) of the gates that exchange each pair of
    index patterns in turn: per pair, the Gray path of
    ``transposition_circuit``. Step j flips the j-th differing bit under
    controls that read the pattern reached so far on the other index
    qubits; the steps before the last are then undone in reverse."""
    for pat_a, pat_b in pairs:
        reads = [(q, (pat_a >> i) & 1) for i, q in enumerate(index_qubits)]
        steps = []
        for j, q in enumerate(index_qubits):
            if ((pat_a ^ pat_b) >> j) & 1:
                steps.append(("x", (), (q,), tuple(reads[:j] + reads[j + 1:])))
                reads[j] = (q, 1 - reads[j][1])
        yield from steps
        yield from steps[-2::-1]


def transposition_circuit(pat_a: int, pat_b: int, index_qubits, n_qubits: int) -> Circuit:
    """Exchange two index patterns, acting as identity elsewhere.

    Walks a Gray path between the patterns: with p differing bits it emits
    2p-1 multi-controlled X gates (V_1..V_{p-1}, W, V_{p-1}..V_1), each
    targeting one differing bit under register-minus-one polarity-matched
    controls on the remaining index qubits.
    """
    index_qubits = tuple(index_qubits)
    if pat_a == pat_b:
        raise SemanticError("transposition needs two distinct patterns")
    _check_patterns((pat_a, pat_b), index_qubits)
    _check_register(index_qubits, n_qubits)
    gates = [GateSpec._built(*f) for f in _gray_steps(((pat_a, pat_b),), index_qubits)]
    return Circuit._joined(n_qubits, (gates,), {}, len(gates))


def _transpositions(mapping: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The plan of ``pattern_permutation_circuit`` for an injective
    ``mapping`` of patterns: the transpositions, in order, that route
    pattern p to mapping[p] (see there). A mapping that permutes its own
    keys, as every ``permute`` routing does, is its own completion."""
    full, used = mapping, set(mapping.values())
    if used != mapping.keys():
        size = max(used.symmetric_difference(mapping)) + 1
        free = iter(sorted(set(range(size)) - used))
        full = {p: mapping[p] if p in mapping else next(free) for p in range(size)}
        full.update(mapping)
    return tuple((cyc[t], cyc[t + 1]) for cyc in _cycles(full)
                 for t in range(len(cyc) - 2, -1, -1))


def pattern_permutation_circuit(mapping: dict[int, int], index_qubits,
                                n_qubits: int) -> Circuit:
    """Route index patterns: pattern p moves to mapping[p].

    The partial mapping is completed to a bijection, decomposed into cycles,
    and each cycle into transpositions (``_transpositions``, the plan),
    whose gates (``transposition_circuit``) go into one list. The
    completion pairs the unmapped patterns with the unused ones in sorted
    order. Above the largest pattern that is a source or a target but not
    both, a pattern is unmapped exactly when it is unused, so the pairing
    fixes each such pattern. The completion therefore stops below that
    bound, ``mapping`` is merged over it, and the gates are those of the
    completion over all 2^t patterns, in work that follows the patterns
    moved. ``permute`` records the plan (``GateRecord``) instead of
    building these gates.
    """
    index_qubits = tuple(index_qubits)
    _check_patterns([*mapping, *mapping.values()], index_qubits)
    if len(set(mapping.values())) != len(mapping):
        raise SemanticError("pattern mapping is not injective")
    pairs = _transpositions(mapping)
    if pairs:
        _check_register(index_qubits, n_qubits)
    gates = [GateSpec._built(*f) for f in _gray_steps(pairs, index_qubits)]
    return Circuit._joined(n_qubits, (gates,), {}, len(gates))


def _encoding(u_d: Circuit | None, n: int, *registers) -> Circuit | None:
    """The data encoding E on an n-qubit register: u_d on each of
    ``registers`` in turn (the data register, and any register such as the
    sensor that holds a word the way the data register does). None when the
    database has no encoding."""
    if u_d is None:
        return None
    circ = Circuit(n)
    for qubits in registers:
        circ += u_d.remapped(dict(enumerate(qubits)), n)
    return circ


def _decoded(circ: Circuit, encoding: Circuit | None) -> Circuit:
    """``circ``, written for computational words, made to act inside the
    data encoding: E^-1 + circ + E, or ``circ`` itself with no encoding.

    The paper stores entry j's word as u_d|d_j> and defines its operations on
    computational words, so every operation that reads or changes a word
    (write, copy-read, removal's merge, growth's reservoir phases) runs in
    this frame.
    """
    return circ if encoding is None else encoding.inverse() + circ + encoding


def _data_write_steps(descriptor: QdbDescriptor, layout: QdbLayout):
    """The fields (``GateRecord``) of a preparation's data-write block: one
    ``x`` per set data bit of ``descriptor``, label by label in ascending
    order, data bits ascending within an entry. Each is controlled on its
    entry's index pattern of ``layout``; an entry's gates share one control
    tuple."""
    pairs = [((q, 0), (q, 1)) for q in layout.index_qubits]
    lmap = layout.logical_index_map
    targets: dict[str, list[tuple[int]]] = {}  # word -> the data qubits it sets
    for label, word in sorted(descriptor.data.items()):
        qubits = targets.get(word)
        if qubits is None:
            value = int(word, 2)
            qubits = targets[word] = [(q,) for b, q in enumerate(layout.data_qubits)
                                      if (value >> b) & 1]
        pat = lmap[label]
        ctrls = tuple([pair[(pat >> i) & 1] for i, pair in enumerate(pairs)])
        for t in qubits:
            yield "x", (), t, ctrls


def _data_write_table(descriptor: QdbDescriptor, layout: QdbLayout):
    """The data-write block as one move (``GateRecord.table``): the index
    register, each entry's base, its index pattern placed with data word 0,
    and its mask, the entry's word placed on the data qubits. Each entry's
    data bits flip by its mask."""
    data, lmap = descriptor.data, layout.logical_index_map
    count = len(data)
    words = np.fromiter((int(word, 2) for word in data.values()), dtype=np.int64, count=count)
    patterns = np.fromiter(map(lmap.__getitem__, data), dtype=np.int64, count=count)
    return (layout.index_qubits, layout._place(patterns, 0),
            layout._place(0, words) if count else words)


def _data_write_text(descriptor: QdbDescriptor, layout: QdbLayout, names: list[str],
                     memo: dict) -> list[str]:
    """The lines of the data-write block (``GateRecord``'s renderer), in
    ``_data_write_steps``' order, entry by entry (``_entry_lines``).
    ``memo``, one ``emit_text`` call's, keeps per register pair each
    entry's lines by its pattern and word, the index register's names four
    bits at a time (``_quads``) and each word's targets: the u and u^-1 of
    every transfer repeat most of the preparation's entries, and each
    unchanged one costs a lookup."""
    index, data = layout.index_qubits, layout.data_qubits
    known = memo.get((index, data))
    if known is None:
        known = memo[index, data] = ({}, _quads(index, names), {})
    entries, quads, heads = known
    lmap = layout.logical_index_map
    lines: list[str] = []
    for label, word in sorted(descriptor.data.items()):
        key = (lmap[label], word)
        text = entries.get(key)
        if text is None:
            head = heads.get(word)
            if head is None:
                value = int(word, 2)
                head = heads[word] = ["x" + names[q] for b, q in enumerate(data)
                                      if value >> b & 1]
            text = entries[key] = _entry_lines(key[0], quads, head)
        lines += text
    return lines


def _quads(index: tuple[int, ...], names: list[str]) -> list:
    """The names of the index register's qubits four bits at a time: per run
    of up to four bits from bit ``low``, for each value of the run, the names
    of its qubits whose bit is set and of those whose bit is clear."""
    out = []
    for low in range(0, len(index), 4):
        qubits = index[low:low + 4]
        out.append((low, [("".join([names[q] for i, q in enumerate(qubits) if v >> i & 1]),
                           "".join([names[q] for i, q in enumerate(qubits) if not v >> i & 1]))
                          for v in range(1 << len(qubits))]))
    return out


def _entry_lines(pattern: int, quads: list, heads: list[str]) -> list[str]:
    """One entry's lines of the data-write block: ``heads``, an ``x`` on
    each data qubit its word sets, under the control text of its index
    ``pattern``, built from the pattern's bits by ``_quads``."""
    pos = neg = ""
    for low, texts in quads:
        set_, clear = texts[pattern >> low & 15]
        pos += set_
        neg += clear
    tail = (" ctrl" + pos if pos else "") + (" nctrl" + neg if neg else "")
    return [head + tail for head in heads]


def _data_write_circuit(descriptor: QdbDescriptor, layout: QdbLayout,
                        n: int) -> Circuit:
    """The data-write block, one multi-controlled X per set data bit, kept
    as a record of ``(descriptor, layout)`` that moves by its table and is
    rendered entry by entry, then the data encoding."""
    size = sum(word.count("1") for word in descriptor.data.values())
    block = GateRecord(_data_write_steps, (descriptor, layout), size,
                       table_of=_data_write_table, text_of=_data_write_text)
    circ = Circuit._joined(n, (block,), {q: "D" for q in layout.data_qubits}, size)
    enc = _encoding(descriptor.u_d, n, layout.data_qubits)
    return circ if enc is None else circ + enc


def preparation_circuit(descriptor: QdbDescriptor, layout: QdbLayout) -> Circuit:
    """Full build circuit |0...0> -> database state for this descriptor/layout.

    Index spread over the label count, pattern routing when labels do not sit
    at contiguous patterns, the data-write block (one multi-controlled X per
    set data bit, a record of ``(descriptor, layout)`` that moves by its
    table and is built into gates only when flattened), and the data
    encoding last.
    """
    labels = layout.labels
    if len(labels) != descriptor.k:
        raise SemanticError(
            f"layout tracks {len(labels)} labels, descriptor says {descriptor.k}")
    n = layout.n_qubits
    width = max(max(layout.index_qubits), max(layout.data_qubits, default=-1)) + 1
    if width != n:
        raise SemanticError("layout qubits must fill a contiguous register")
    circ = prepare_circuit(descriptor.k, descriptor.l, layout.index_qubits, n)
    routing = {t: layout.pattern(label) for t, label in enumerate(labels)}
    if any(src != dst for src, dst in routing.items()):
        circ += pattern_permutation_circuit(routing, layout.index_qubits, n)
    return circ + _data_write_circuit(descriptor, layout, n)


def prepare_meta(k: int, l: int = 0, data: dict[int, int | str] | None = None,
                 *, m_data: int | None = None, u_d: Circuit | None = None,
                 max_qubits: int = DEFAULT_MAX_QUBITS) -> QdbMeta:
    """Transition of ``prepare_general``: the fresh database's record.

    Pure argument checking — no state is built — so callers can vet a
    preparation before paying for the simulation. The width is checked
    against ``max_qubits``, the record's budget, before the k labels are built.
    """
    if m_data is not None and m_data < 0:
        raise SemanticError("data register width cannot be negative")
    words: dict[int, int | str] = {}
    widest = 0
    for label, word in (data or {}).items():
        label = _integer(label, "data label")
        if not 0 <= label < k:
            raise SemanticError(f"data label {label} outside [0, {k})")
        if isinstance(word, str):
            width = len(word)
        else:
            word = _integer(word, "data word")  # numpy integers too
            width = word.bit_length()
        if width > widest:
            widest = width
        words[label] = word
    m = max(widest, m_data or 0, u_d.n_qubits if u_d is not None else 0)
    desc = QdbDescriptor(k=k, l=l, data=words, u_d=u_d, m_data=m)
    _check_budget(index_width(k) + m, max_qubits)
    return QdbMeta(desc, QdbLayout.fresh(k, m), max_qubits=max_qubits)


def prepare_general(k: int, l: int = 0, data: dict[int, int | str] | None = None,
                    *, m_data: int | None = None, u_d: Circuit | None = None,
                    max_qubits: int | None = None) -> QdbState:
    """Create a database of k entries with reservoir multiplicity l.

    ``data`` maps labels in [1, k) to bitstrings or ints; ``m_data`` widens
    the data register beyond what the widest word needs (useful when later
    writes need room).
    """
    budget = DEFAULT_MAX_QUBITS if max_qubits is None else max_qubits
    return _prepare(prepare_meta(k, l, data, m_data=m_data, u_d=u_d, max_qubits=budget))


def _prepare(meta: QdbMeta) -> QdbState:
    """Effect of ``prepare_general``: the database ``meta`` records."""
    circ = preparation_circuit(meta.descriptor, meta.layout)
    return QdbState(state=simulate(circ, max_qubits=meta.max_qubits), circuit=circ, **vars(meta))


def prepare_balanced(k: int, data: dict[int, int | str] | None = None,
                     *, m_data: int | None = None, u_d: Circuit | None = None,
                     max_qubits: int | None = None) -> QdbState:
    """Uniform database over a power-of-two entry count, built from H gates.

    The result is checked against the general preparation route and must
    agree exactly (not just up to a global phase); both routes place the same
    real amplitude on every basis state.
    """
    general = prepare_general(k, 0, data, m_data=m_data, u_d=u_d,
                              max_qubits=max_qubits)
    layout = general.layout
    circ = balanced_circuit(k, layout.index_qubits, layout.n_qubits)
    circ += _data_write_circuit(general.descriptor, layout, layout.n_qubits)
    state = simulate(circ, max_qubits=general.max_qubits)
    if not states_equal(state, general.state, up_to_global_phase=False):
        raise VerificationError("balanced preparation disagrees with the general route")
    return replace(general, state=state, circuit=circ)


# ---------------------------------------------------------------------------
# write


def _fresh_register(layout: QdbLayout) -> tuple[int, ...]:
    """Where a sensor or copy register as wide as the data register lands:
    just above the highest qubit of either register."""
    return _above(layout.index_qubits, layout.data_qubits)


@functools.lru_cache(maxsize=256)
def _above(index_qubits: tuple[int, ...], data_qubits: tuple[int, ...]) -> tuple[int, ...]:
    """``_fresh_register``, memoized by the registers as
    ``statevector._runs`` is: every write and copy-read asks for it."""
    n = max(index_qubits + data_qubits) + 1
    return tuple(range(n, n + len(data_qubits)))


def _attached(db: QdbState) -> tuple[int, ...]:
    """``_fresh_register`` for an effect: refused (SemanticError) when the
    state already holds a qubit where the register lands."""
    register = _fresh_register(db.layout)
    if db.n_qubits > register[0]:
        raise SemanticError(f"the state already holds qubit {register[0]}, "
                            "where a fresh register lands")
    return register


def _widen(meta: QdbMeta) -> tuple[int, ...]:
    """``_fresh_register``, for a transition: refused (CapacityError) when
    the database with the register exceeds its budget."""
    register = _fresh_register(meta.layout)
    _check_budget(register[-1] + 1, meta.max_qubits)
    return register


def _known(meta: QdbMeta, label: int) -> int:
    """The index pattern of entry ``label``, which must be an integer
    (``_integer``: a bool is refused) that the layout knows. Every
    transition that takes one entry's label looks it up here."""
    return meta.layout.pattern(_integer(label, "entry label"))


def _check_entry(meta: QdbMeta, label: int, op: str, refusal: str = "cannot hold data"):
    """A bare database with a data-holding entry ``label``; entry 0, the
    reservoir, is refused with ``refusal``."""
    meta.require_bare(op)
    _known(meta, label)
    if label == 0:
        raise SemanticError(f"entry 0 is the reservoir and {refusal}")


def _check_data_register(meta: QdbMeta):
    if not meta.layout.data_qubits:
        raise SemanticError("database has no data register")


def _word_value(meta: QdbMeta, label: int, word: int | str) -> int:
    """Check a write of ``word`` into entry ``label``, sensor included; return the word."""
    _check_entry(meta, label, "write")
    _check_data_register(meta)
    value = _bits_to_int(word) if isinstance(word, str) else _integer(word, "data word")
    m = len(meta.layout.data_qubits)
    if value < 0 or value >> m:
        raise SemanticError(f"data word {word!r} does not fit the {m}-bit data register")
    _widen(meta)  # with the sensor
    return value


def _entry(state: StateVector, layout: QdbLayout, pattern: int) -> np.ndarray:
    """The branch of ``state`` on which the index register reads ``pattern``,
    a view through the layout's split (``statevector._axes``). Every entry
    op selects its entry here."""
    axes = _axes(layout.index_qubits, layout.data_qubits, state.n_qubits)
    return axes.select(state.amplitudes, pattern)


def _check_occupied(state: StateVector, layout: QdbLayout, label: int) -> np.ndarray:
    """Raise unless entry ``label`` (already known to ``layout``) carries
    amplitude in ``state``, a weight above ``EMPTY_ENTRY_WEIGHT``; reads
    only the entry's branch (``_entry``) and returns it, so the folded write
    and a projective removal's odds select the entry once."""
    entry = _entry(state, layout, layout.pattern(label))
    if not np.vdot(entry, entry).real > EMPTY_ENTRY_WEIGHT:
        raise SemanticError(f"entry {label} carries no amplitude")
    return entry


def write_meta(meta: QdbMeta, label: int, word: int | str, *,
               keep_sensor: bool = False) -> QdbMeta:
    """Transition of ``write``: the entry's recorded word is XORed with
    ``word``; with ``keep_sensor`` the sensor register stays attached."""
    value = _word_value(meta, label, word)
    desc = meta.descriptor
    return meta._derived(descriptor=desc.with_data_value(label, desc.data_value(label) ^ value),
                         sensor_qubits=_fresh_register(meta.layout) if keep_sensor else ())


def _sensor_prep_steps(value: int, sensor, enc_s: Circuit | None):
    """The fields (``GateRecord``) of the sensor's preparation in |value>:
    one ``x`` per set bit, then ``enc_s`` (u_d on the sensor), if any."""
    for b, q in enumerate(sensor):
        if (value >> b) & 1:
            yield "x", (), (q,), ()
    if enc_s is not None:
        yield from enc_s._fields()


def _write_core_steps(swap: bool, pattern: int, wires, sensor, data, enc: Circuit | None):
    """The fields (``GateRecord``) of a write's core, between the sensor's
    preparation and, for a folded write, its undoing. Its controls read the
    entry's index ``pattern`` on ``wires``, the index register. With
    ``swap`` (``write_swap_conditional``) each data bit swaps with its
    sensor bit under them. Otherwise each data bit toggles under them and
    its sensor bit, inside ``enc`` (u_d on the sensor, then on the data
    register), if any."""
    ctrls = tuple([(q, (pattern >> i) & 1) for i, q in enumerate(wires)])
    if swap:
        for b, dq in enumerate(data):
            yield "swap", (), (dq, sensor[b]), ctrls
        return
    toggles = [("x", (), (dq,), ctrls + ((sensor[b], 1),)) for b, dq in enumerate(data)]
    if enc is None:
        yield from toggles
        return
    encode = list(enc._fields())
    yield from _inverted_fields(encode)
    yield from toggles
    yield from encode


def _write_circuit(db: QdbState, mode: str, label: int, value: int) -> Circuit:
    """The build circuit of a write of ``value`` into entry ``label``, with
    the sensor where the transition placed it (``_attached``), as
    records whose gates are made only when asked for: the sensor's
    preparation (``_sensor_prep_steps``), the core (``_write_core_steps``:
    swaps for ``mode`` "swap", toggles for "keep" and "write") and, for
    "write", the preparation's inverse, so the sensor ends in |0>. The
    preparation and the core are records of their own because a long script
    repeats each far more often than their pairs, and ``emit_text`` renders
    each distinct record once. The labels mark the sensor, then take the
    encodings' labels."""
    sensor = _attached(db)
    n = sensor[-1] + 1
    u_d, data = db.descriptor.u_d, db.layout.data_qubits
    enc_s = enc = None
    labels = {q: "S" for q in sensor}
    prep_size, core_size = value.bit_count(), len(data)
    if u_d is not None:
        enc_s = _encoding(u_d, n, sensor)
        enc = None if mode == "swap" else _encoding(u_d, n, sensor, data)
        labels.update(enc_s.labels)
        prep_size += len(enc_s)
        if enc is not None:
            labels.update(enc.labels)
            core_size += 2 * len(enc)
    prep = GateRecord(_sensor_prep_steps, (value, sensor, enc_s), prep_size)
    core = GateRecord(_write_core_steps, (mode == "swap", db.layout.pattern(label),
                                          db.layout.index_qubits, sensor, data, enc),
                      core_size)
    if mode == "write":
        return Circuit._joined(n, (prep, core, prep.inverse()), labels,
                               2 * prep_size + core_size)
    return Circuit._joined(n, (prep, core), labels, prep_size + core_size)


def _write_folded(db: QdbState, label: int, value: int, old: int) -> StateVector:
    """The write core on the unwidened state: each sensor bit is a classical
    bit of ``value``, so data bit b toggles on the entry's pattern exactly
    when bit b of ``value`` is set, inside the data encoding, if any.

    The fold reads the entry from its source, the input state (its decoded
    copy under an encoding), and checks in order:

    * that the entry is occupied (SemanticError), from its branch;
    * after the move, that the amplitude at the entry's ``old`` word in the
      source's branch has reached its new word in the copy's
      (VerificationError).

    The occupancy check selects the entry's branch of the source once
    (``_entry``); the toggles write it, moved by ``value`` along the data
    axes (``statevector._Axes.moved``), into the branch of the source's copy.
    """
    layout, u_d = db.layout, db.descriptor.u_d
    enc = None if u_d is None else _encoding(u_d, db.n_qubits, layout.data_qubits)
    source = db.state if enc is None else simulate(enc.inverse(), db.state)
    entry = _check_occupied(source, layout, label)
    axes = _axes(layout.index_qubits, layout.data_qubits, source.n_qubits)
    state = source.copy()
    branch = axes.select(state.amplitudes, layout.pattern(label))
    branch[...] = axes.moved(entry, value)
    if abs(branch[axes.position(old ^ value)] - entry[axes.position(old)]) > STATE_TOL:
        raise VerificationError(f"write left entry {label}'s amplitude behind")
    return state if enc is None else simulate(enc, state)


def write(db: QdbState, label: int, word: int | str, *,
          keep_sensor: bool = False) -> QdbState:
    """Toggle entry ``label``'s data by ``word`` (bitwise XOR semantics).

    In the paper's write, a sensor register prepared in |word> (or
    u_d|word>) drives one controlled toggle per data bit and is then
    uncomputed. The build circuit records exactly that, as records
    (``GateRecord``) of the write's arguments whose gates are made only when
    asked for (``_write_circuit``), so ``emit()`` gives the paper's circuit.

    The sensor is never entangled, so its controls are classical bits of
    ``word``, and by default the simulation folds them away
    (``_write_folded``) and checks, instead of the sensor's purity, that the
    entry's amplitude has moved to its new word (VerificationError).

    The checks run in one order on either path: the transition
    (``write_meta``; CapacityError when the database plus sensor exceeds
    ``max_qubits``), a state that already holds a qubit where the sensor
    lands (``_attached``, SemanticError), the entry's amplitude
    (SemanticError), then the move and its own check.

    ``keep_sensor`` leaves the sensor attached for inspection: the whole
    sensor register is simulated, the returned state carries
    ``sensor_qubits``, and the sensor must come out unentangled (purity
    within ``WRITE_PURITY_TOL`` of 1, VerificationError otherwise).

    Under a data encoding the toggles run inside it on the data and sensor
    registers, as ``_decoded`` would place them.
    """
    return _write(db, write_meta(db.meta, label, word, keep_sensor=keep_sensor), label)


def _write(db: QdbState, new: QdbMeta, label: int) -> QdbState:
    """Effect of ``write``, given ``write_meta``'s record ``new``: the change in
    entry ``label``'s word, keeping the sensor (``keep_sensor``) if ``new`` does."""
    old = db.descriptor.data_value(label)
    value = old ^ new.descriptor.data_value(label)
    if not new.sensor_qubits:
        circ = _write_circuit(db, "write", label, value)
        return _advance(db, new, circ, _write_folded(db, label, value, old))
    circ = _write_circuit(db, "keep", label, value)
    _check_occupied(db.state, db.layout, label)
    state = simulate(circ, db.state, max_qubits=new.max_qubits)
    purity = schmidt(state, new.sensor_qubits).purity
    if abs(purity - 1.0) > WRITE_PURITY_TOL:
        raise VerificationError(
            f"sensor register entangled after write (purity {purity:.12g})")
    return _advance(db, new, circ, state)


def write_swap_meta(meta: QdbMeta, label: int, word: int | str) -> QdbMeta:
    """Transition of ``write_swap_conditional``: the entry records ``word``
    and the sensor register stays attached."""
    value = _word_value(meta, label, word)
    return meta._derived(descriptor=meta.descriptor.with_data_value(label, value),
                         sensor_qubits=_fresh_register(meta.layout))


def write_swap_conditional(db: QdbState, label: int, word: int | str) -> QdbState:
    """Swap entry ``label``'s data with a sensor holding ``word``.

    The swap happens only on the branch addressing that entry, so the sensor
    stays attached and, whenever the incoming and outgoing words differ, ends
    up entangled with the database. The returned state keeps the sensor.
    """
    return _write_swap(db, write_swap_meta(db.meta, label, word), label)


def _write_swap(db: QdbState, new: QdbMeta, label: int) -> QdbState:
    """Effect of ``write_swap_conditional``, given ``write_swap_meta``'s record."""
    circ = _write_circuit(db, "swap", label, new.descriptor.data_value(label))
    _check_occupied(db.state, db.layout, label)
    return _advance(db, new, circ)


# ---------------------------------------------------------------------------
# read


def read_copy_meta(meta: QdbMeta, label: int) -> QdbMeta:
    """Transition of ``read_copy``: a copy register is attached."""
    _check_entry(meta, label, "read")
    _check_data_register(meta)
    return meta._derived(copy_qubits=_widen(meta))


def read_copy_all_meta(meta: QdbMeta) -> QdbMeta:
    """Transition of ``read_copy_all``: a copy register is attached."""
    meta.require_bare("read")
    _check_data_register(meta)
    return meta._derived(copy_qubits=_widen(meta))


def _copy_data(db: QdbState, new: QdbMeta, label: int | None = None) -> QdbState:
    """Effect of ``read_copy`` (``read_copy_all`` when ``label`` is None): one
    recorded CNOT per data bit onto ``new``'s copy register, under entry
    ``label``'s pattern (``_attached`` places it, as the transition did),
    once the entry is found occupied (``_copy_folded``)."""
    out, ctrls = _attached(db), ()
    if label is not None:
        _check_occupied(db.state, db.layout, label)
        ctrls = db.layout.pattern_controls(label)
    n = out[-1] + 1
    data = db.layout.data_qubits
    gates = [GateSpec._built("x", (), (out[b],), ctrls + ((dq, 1),))
             for b, dq in enumerate(data)]
    circ = Circuit._joined(n, (gates,), {q: "A" for q in out}, len(gates))
    return _advance(db, new, _decoded(circ, _encoding(db.descriptor.u_d, n, data)),
                    _copy_folded(db, n, out, ctrls))


def _copy_folded(db: QdbState, n: int, out, ctrls) -> StateVector:
    """The copy's CNOT fan-out on the state widened to ``n`` qubits, written
    directly rather than simulated over the whole widened array.

    The copy register ``out`` starts in |0>, so the CNOTs send the amplitude
    at index i of the source (the input state, decoded under an encoding)
    to i with each data bit b copied onto ``out[b]``, on the indices that
    match ``ctrls``, and leave +0.0 behind. An index whose word is 0 does
    not move, and one whose amplitude's bits are all zero would only move
    +0.0 onto +0.0, so neither is touched; unencoded, the result equals the
    CNOTs' bits exactly. Only the low block, the source's copy, and the
    pages the moved amplitudes land on are written. Under an encoding, the
    encoding is then run on the widened state in place, which keeps the
    peak at one widened array.
    """
    if db.n_qubits > n:
        raise SemanticError(f"state has {db.n_qubits} qubits, circuit needs {n}")
    u_d, data = db.descriptor.u_d, db.layout.data_qubits
    src = db.state
    if u_d is not None:
        src = simulate(_encoding(u_d, db.n_qubits, data).inverse(), src)
    amps = src.amplitudes
    bits = amps.view(np.uint64)  # an amplitude's real then imaginary part
    idx = np.flatnonzero(bits[0::2] | bits[1::2])
    if ctrls:
        cmask = sum(1 << q for q, _ in ctrls)
        idx = idx[idx & cmask == sum(bit << q for q, bit in ctrls)]
    mask = np.zeros_like(idx)
    for b, dq in enumerate(data):
        mask |= (idx >> dq & 1) << out[b]
    moved = mask != 0
    idx, mask = idx[moved], mask[moved]
    wide = np.zeros(2**n, dtype=complex)
    wide[:amps.size] = amps
    wide[idx | mask] = amps[idx]
    wide[idx] = 0
    state = StateVector(wide, copy=False)
    if u_d is not None:
        _run_gates(state, _encoding(u_d, n, data).gates)
    return state


def read_copy(db: QdbState, label: int) -> QdbState:
    """Copy entry ``label``'s data word onto a fresh register.

    The copy register stays attached; it holds the entry's computational word
    on the branch addressing the entry and |0> elsewhere, so it is entangled
    with the database whenever the copied word is nonzero. Under a data
    encoding the copy runs inside it on the data register (``_decoded``), so
    the copy register holds the word unencoded.

    The build circuit records the CNOTs; the entry's amplitudes are scattered
    to their copy blocks without simulating them (``_copy_folded``). The
    checks run in order: the transition (``read_copy_meta``, the copy
    register's budget included), then the entry's amplitude (SemanticError).
    """
    return _copy_data(db, read_copy_meta(db.meta, label), label)


def read_copy_all(db: QdbState) -> QdbState:
    """Copy every entry's data word at once (plain bitwise fan-out).

    One CNOT per data bit, no index controls: the copy register ends up
    holding each entry's word on that entry's branch, entangled with the
    database whenever two occupied entries store different words. As in
    ``read_copy``, the CNOTs are recorded and every amplitude with a
    nonzero word is scattered to its copy block (``_copy_folded``).
    """
    return _copy_data(db, read_copy_all_meta(db.meta))


def read_projective_meta(meta: QdbMeta, label: int) -> None:
    """Transition of ``read_projective``: the read consumes the database, so
    no record follows it."""
    meta.require_bare("read")
    _known(meta, label)
    _check_data_register(meta)


def read_projective(db: QdbState, label: int) -> tuple[StateVector, float]:
    """Project the index register onto one entry and return its data state.

    Returns the entry's data-register state and the outcome probability
    (1/(k+l) for an occupied entry of a standard database). The database is
    consumed: the branch where the index points elsewhere is discarded.
    The data state is the entry's branch (``_entry``) of the collapsed
    state, flattened, highest remaining qubit first, and divided by its
    norm. The collapsed state (``statevector._collapsed``) is the array
    ``project`` builds, so its probability keeps the bits it always had.
    """
    read_projective_meta(db.meta, label)
    return _read_projective(db, label)


def _read_projective(db: QdbState, label: int) -> tuple[StateVector, float]:
    """Effect of ``read_projective``: the state collapsed onto the entry's
    pattern, then the entry's branch of it selected once."""
    layout = db.layout
    pattern = layout.pattern(label)
    collapsed, prob = _collapsed(db.state, layout.index_qubits, pattern)
    data = _entry(collapsed, layout, pattern).reshape(-1)
    return StateVector(data / np.linalg.norm(data), copy=False), prob


# ---------------------------------------------------------------------------
# removal


@dataclass(frozen=True)
class RemovalOutcome:
    """Both branches of a projective removal."""

    success_probability: float
    success_state: QdbState | None
    failure_state: StateVector


def _without_entry(meta: QdbMeta, label: int, l: int, profile, **changes) -> QdbMeta:
    """The record minus entry ``label``: its word, its label and its index
    pattern, which stays unused until a relabeling re-keys the survivors."""
    desc, layout = meta.descriptor, meta.layout
    return meta._derived(
        descriptor=desc._derived(k=desc.k - 1, l=l,
                                 data={j: w for j, w in desc.data.items() if j != label}),
        layout=layout._derived(logical_index_map={
            j: p for j, p in layout.logical_index_map.items() if j != label}),
        amplitude_profile=profile, **changes)


def remove_reservoir_meta(meta: QdbMeta, label: int) -> QdbMeta:
    """Transition of ``remove_reservoir``: the entry's weight folds into the
    reservoir (k - 1 entries, l + 1). A word is first cleared by a write."""
    _check_entry(meta, label, "remove", "cannot be removed")
    if meta.descriptor.data_value(label):
        _widen(meta)
    profile = meta.amplitude_profile
    if profile is not None:
        profile = {j: wgt for j, wgt in profile.items() if j != label}
        profile[0] = math.hypot(meta.amplitude_profile[0], meta.amplitude_profile[label])
    return _without_entry(meta, label, meta.l + 1, profile)


def remove_reservoir(db: QdbState, label: int) -> QdbState:
    """Fold entry ``label`` back into the reservoir, unitarily.

    The entry's data word is toggled off first (by ``write``), then a
    two-basis-state rotation merges the entry's amplitude into the all-zero
    string. Under a data encoding both branches hold u_d|0>, so the rotation
    runs inside the encoding (``_decoded``) and reads the two amplitudes in
    the decoded basis. Entry count drops by one, reservoir multiplicity
    grows by one; the label and its index pattern leave the layout.
    """
    return _remove_reservoir(db, remove_reservoir_meta(db.meta, label), label)


def _remove_reservoir(db: QdbState, new: QdbMeta, label: int) -> QdbState:
    """Effect of ``remove_reservoir``; ``write``'s effect clears the word.
    The merge, then the encoding, run in place on the one decoded copy."""
    value = db.descriptor.data_value(label)
    if value:  # refuses an entry that carries no amplitude
        db = _write(db, db.meta._derived(descriptor=db.descriptor.with_data_value(label, 0)),
                    label)
    else:
        _check_occupied(db.state, db.layout, label)
    n = db.n_qubits
    enc = _encoding(db.descriptor.u_d, n, db.layout.data_qubits)
    state = db.state.copy() if enc is None else simulate(enc.inverse(), db.state)
    a_idx = db.layout.physical_index(0, 0)
    b_idx = db.layout.physical_index(label, 0)
    a = complex(state.amplitudes[a_idx])
    b = complex(state.amplitudes[b_idx])
    if abs(b) > PROJECTION_ZERO_TOL and abs(a) > PROJECTION_ZERO_TOL:
        rel = b / a
        if abs(rel.imag) > math.sqrt(STATE_TOL) * abs(rel):
            raise SemanticError("entry phases are not aligned; cannot merge unitarily")
    merge = rot2(a_idx, b_idx, -math.atan2(abs(b), abs(a)))
    apply_gate(state, merge, out=state)
    if enc is not None:
        _run_gates(state, enc.gates)
    return _advance(db, new, _decoded(Circuit(n, [merge]), enc), state)


def remove_projective_meta(meta: QdbMeta, label: int) -> tuple[float, QdbMeta | None]:
    """Transition of ``remove_projective``: the success probability from the
    closed-form (or profiled) weights, and the record on success — None when
    nothing else carries amplitude."""
    meta.require_bare("remove")
    _known(meta, label)
    profile = meta.amplitude_profile
    if profile is not None:
        weight_sq = profile[label] ** 2
    elif label == 0:
        weight_sq = (meta.l + 1) / (meta.k + meta.l)
    else:
        weight_sq = 1.0 / (meta.k + meta.l)
    p_success = max(0.0, 1.0 - weight_sq)
    if p_success <= PROJECTION_ZERO_TOL:
        return 0.0, None
    if label == 0:
        raise SemanticError("removing the reservoir would leave no empty entry")
    if profile is not None:
        scale = 1.0 / math.sqrt(p_success)
        profile = {j: wgt * scale for j, wgt in profile.items() if j != label}
    return p_success, _without_entry(meta, label, meta.l, profile, projective=True)


def remove_projective(db: QdbState, label: int) -> RemovalOutcome:
    """Remove entry ``label`` by post-selecting the index away from it.

    Success leaves the remaining entries renormalized — a database with one
    entry fewer and the same reservoir multiplicity. Failure collapses onto
    the removed entry. Success probability is (k-1+l)/(k+l) for a standard
    database; it is 0 when nothing else carries amplitude, in which case
    ``success_state`` is None.
    """
    return _remove_projective(db, remove_projective_meta(db.meta, label)[1], label)


def _remove_projective(db: QdbState, new: QdbMeta | None, label: int) -> RemovalOutcome:
    """Effect of ``remove_projective``, given its transition's record: the
    failure state is the state collapsed onto the entry (``_collapsed``)."""
    p_success = _removal_odds(db, new, label)
    failure, _ = _collapsed(db.state, db.layout.index_qubits, db.layout.pattern(label))
    return RemovalOutcome(p_success, _survivor(db, new, label) if p_success else None,
                          failure)


def _removal_odds(db: QdbState, new: QdbMeta | None, label: int) -> float:
    """The state's own success probability of removing entry ``label``,
    weighed from its branch (``_check_occupied``): 0.0 when ``new`` is None
    or nothing else carries amplitude."""
    entry = _check_occupied(db.state, db.layout, label)
    p_success = max(0.0, 1.0 - float(np.sum(np.abs(entry) ** 2)))
    return 0.0 if new is None or p_success <= PROJECTION_ZERO_TOL else p_success


def _survivor(db: QdbState, new: QdbMeta, label: int) -> QdbState:
    """The success branch: the state with entry ``label``'s branch zeroed,
    renormalized as ``project`` does."""
    state = db.state.copy()
    _entry(state, db.layout, db.layout.pattern(label))[...] = 0
    return _advance(db, new, None, _renormalized(state.amplitudes)[0])


# ---------------------------------------------------------------------------
# permutation


def _moves(perm, labels) -> dict[int, int]:
    """The labels a valid permutation moves, each with its target.

    ``labels`` is the label set (any container with fast ``in``). A dict is
    checked on the labels it moves alone: they must be known and their
    targets must be the same set, since a bijection fixing the other labels
    permutes the moved ones among themselves. A sequence names every label,
    so it is checked whole. Labels and targets must be integers
    (``_integer``): a fraction or a string is refused, not truncated or
    parsed.
    """
    if isinstance(perm, dict):
        mapping = {_integer(j, "permutation label"): _integer(t, "permutation label")
                   for j, t in perm.items()}
        unknown = [j for j in mapping if j not in labels]
        if unknown:
            raise SemanticError(f"permutation names unknown labels {sorted(unknown)}")
    else:
        mapping = {j: _integer(t, "permutation label") for j, t in enumerate(perm)}
        if len(mapping) != len(labels) or any(j not in labels for j in mapping):
            raise SemanticError(
                f"permutation keys {sorted(mapping)} must cover labels {sorted(labels)}")
    moves = {j: t for j, t in mapping.items() if j != t}
    if set(moves.values()) != moves.keys():
        raise SemanticError("permutation must be a bijection on the label set")
    return moves


def permute_meta(meta: QdbMeta, perm) -> tuple[QdbMeta, dict[int, int]]:
    """Transition of ``permute``: words and profile follow their entries.
    Also returns the labels the op moves, each with its target; a dict
    ``perm`` costs only the labels it moves."""
    meta.require_bare("permute")
    moves = _moves(perm, meta.layout.logical_index_map)
    if not moves:
        return meta, moves
    desc = meta.descriptor
    incoming = {t: j for j, t in moves.items()}.get(0, 0)
    if desc.data_value(incoming):
        raise SemanticError(
            f"entry {incoming} holds data and cannot become the reservoir")
    if 0 in moves and desc.l > 0:
        raise SemanticError("cannot relocate a weighted reservoir (l > 0)")
    profile = meta.amplitude_profile
    if profile is not None:
        profile = {moves.get(j, j): wgt for j, wgt in profile.items()}
    data = dict(desc.data)
    for j in moves:
        data.pop(j, None)
    data.update((t, desc.data[j]) for j, t in moves.items() if j in desc.data)
    return meta._derived(amplitude_profile=profile,
                         descriptor=desc._derived(data=data)), moves


def permute(db: QdbState, perm) -> QdbState:
    """Send entry j to label perm[j], physically routing index patterns.

    ``perm`` is a sequence (entry j goes to perm[j]) or an equivalent dict;
    it must be a bijection on the current label set. The entry landing on
    label 0 becomes the reservoir and must hold the empty word; relocating a
    weighted reservoir (l > 0) is rejected.

    The build circuit records the routing: one record (``GateRecord``) of
    the plan of ``pattern_permutation_circuit``, its transpositions, whose
    gates are made only when asked for. The amplitudes move by that plan
    without them: the state is copied once, and for each transposition, in
    order, the two patterns' entry branches trade places in the copy
    through one branch-sized temporary (``statevector._exchange``), as the
    transposition's gates would move them.
    """
    return _permute(db, *permute_meta(db.meta, perm))


def _permute(db: QdbState, new: QdbMeta, moves: dict[int, int]) -> QdbState:
    """Effect of ``permute``, given ``permute_meta``'s record and moves: two
    entry selections per transposition of the plan (``_exchange``)."""
    if not moves:
        return db
    lmap = db.layout.logical_index_map
    index_qubits = db.layout.index_qubits
    pairs = _transpositions({lmap[j]: lmap[t] for j, t in moves.items()})
    size = sum(2 * (a ^ b).bit_count() - 1 for a, b in pairs)  # gates _gray_steps yields
    circ = Circuit._joined(db.n_qubits, (GateRecord(_gray_steps, (pairs, index_qubits), size),),
                           {}, size)
    state = db.state.copy()
    axes = _axes(index_qubits, db.layout.data_qubits, state.n_qubits)
    for a, b in pairs:
        _exchange(state.amplitudes, axes, a, b)
    return _advance(db, new, circ, state)


def transpose_entries(db: QdbState, j1: int, j2: int) -> QdbState:
    """Exchange two entries (a permutation touching nothing else)."""
    return permute(db, {j1: j2, j2: j1})


def relabel_contiguous(db: QdbState) -> QdbState:
    """Re-key surviving labels to 0..k-1 after removals (metadata only)."""
    db.require_bare("relabel")
    meta = db.meta
    desc, layout, profile = meta.descriptor, meta.layout, meta.amplitude_profile
    new_labels = {j: t for t, j in enumerate(layout.labels)}
    if profile is not None:
        profile = {new_labels[j]: v for j, v in profile.items() if j in new_labels}
    new = meta._derived(
        descriptor=desc._derived(data={new_labels[j]: w for j, w in desc.data.items()}),
        layout=layout._derived(logical_index_map={
            t: layout.logical_index_map[j] for j, t in new_labels.items()}),
        amplitude_profile=profile)
    return _advance(db, new, None, db.state)
