"""Line-oriented circuit text format.

One gate per line::

    qubits 4
    label q[0] I
    label q[2] D
    y(0.5) q[0]
    ry(-1.5707963267948966) q[1] ctrl q[3] nctrl q[2]
    swap q[0] q[1]
    rot2(0,5,0.7853981633974483)
    # comments run to end of line

Floats are emitted with ``repr`` so emit -> parse -> emit is byte-identical.

A history repeats few wire sets over many gates, and shares its parts
(``Circuit``): a transfer refers to one u and one u^-1 at every step. So
``emit_text`` walks the parts and renders each distinct part once per call,
a reversed block as its forward block's lines read backwards. A record
(``GateRecord``) is rendered straight from the fields its generator yields,
with no gate built, and records with equal keys (an op's arguments) once
per call: a long script prepares the sensor in the same word, toggles the
same entry and swaps the same two entries many times. It renders the wires
of each distinct (targets, controls) pair once, and the controls of each
distinct control tuple once, shared by every target it meets; qubit names
come from a table built once per call. The memos live only as long as the
call, so no two callers share them. They are keyed on values, not on tuple
identity: each write builds its toggles' control tuple anew, equal to the
tuple of earlier gates but a different object, and an identity key would
render it again on every write. They are keyed on the wires, not on the
gate: ``GateSpec`` equality compares floats, so ``phase(0.0)`` equals
``phase(-0.0)``, and a gate-keyed memo would print the second as ``0.0``.
Each gate's parameters are formatted on their own. A record's key is its
generator and its arguments, ints and tuples of ints, except that a write
under a data encoding also holds its encoding circuits, which do not hash:
such a record is rendered on its own.
"""

from __future__ import annotations

import re

from .circuit import VALID_LABELS, Circuit, GateRecord
from .errors import CircuitParseError
from .gates import GateSpec

_HEAD_RE = re.compile(r"^([a-z0-9]+)\((.*)\)$")
_QUBIT_RE = re.compile(r"^q\[(\d+)\]$")

_PARAM_KINDS_INT = {"rot2": (True, True, False)}  # which params print as ints


def _fmt_params(kind: str, params: tuple[float, ...]) -> str:
    if not params:
        return ""
    ints = _PARAM_KINDS_INT.get(kind)
    parts = []
    for i, p in enumerate(params):
        if ints and ints[i]:
            parts.append(str(int(p)))
        else:
            parts.append(repr(float(p)))
    return "(" + ",".join(parts) + ")"


def _fmt_controls(controls, names: list[str]) -> str:
    pos = "".join([names[q] for q, b in controls if b == 1])
    neg = "".join([names[q] for q, b in controls if b == 0])
    return (" ctrl" + pos if pos else "") + (" nctrl" + neg if neg else "")


def emit_text(circuit: Circuit) -> str:
    names = [f" q[{q}]" for q in range(circuit.n_qubits)]
    lines = [f"qubits {circuit.n_qubits}"]
    for q in sorted(circuit.labels):
        lines.append(f"label q[{q}] {circuit.labels[q]}")
    wires: dict[tuple, str] = {}
    ctrls: dict[tuple, str] = {}
    rendered: dict[int, list[str]] = {}  # id of a part -> its lines
    by_key: dict[tuple, list[str]] = {}  # key of a record -> its lines

    def wire(targets, controls) -> str:
        key = (targets, controls)
        text = wires.get(key)
        if text is None:
            tail = ctrls.get(controls)
            if tail is None:
                tail = ctrls[controls] = _fmt_controls(controls, names)
            text = wires[key] = "".join([names[t] for t in targets]) + tail
        return text

    def record_lines(record) -> list[str]:
        return [kind + _fmt_params(kind, params) + wire(targets, controls)
                for kind, params, targets, controls, _ in record.fields()]

    def part_lines(part) -> list[str]:
        if type(part) is GateRecord:
            key = part.key
            try:
                text = by_key.get(key)
            except TypeError:  # a key holding circuits
                return record_lines(part)
            if text is None:
                text = by_key[key] = record_lines(part)
            return text
        text = rendered.get(id(part))
        if text is not None:
            return text
        if type(part) is list:
            text = [g.kind + _fmt_params(g.kind, g.params) + wire(g.targets, g.controls)
                    for g in part]
        elif part.reversed:
            text = part_lines(part.forward)[::-1]
        else:  # a block of x gates, rendered without building them
            on = part.wires
            text = []
            for pat, targets in part.x_entries():
                key = (on, pat)  # the controls that read pat on those wires
                tail = ctrls.get(key)
                if tail is None:
                    tail = ctrls[key] = _fmt_controls(
                        [(q, (pat >> i) & 1) for i, q in enumerate(on)], names)
                text += ["x" + names[t] + tail for t in targets]
        rendered[id(part)] = text
        return text

    for part in circuit._leaves():
        lines += part_lines(part)
    return "\n".join(lines) + "\n"


def _parse_qubit(tok: str, ln: int) -> int:
    m = _QUBIT_RE.match(tok)
    if not m:
        raise CircuitParseError(ln, f"expected a qubit like q[3], got {tok!r}")
    return int(m.group(1))


def _parse_params(kind: str, text: str, ln: int) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        raise CircuitParseError(ln, f"{kind} needs parameters")
    out = []
    for part in text.split(","):
        try:
            out.append(float(part))
        except ValueError:
            raise CircuitParseError(ln, f"bad numeric parameter {part!r}") from None
    return tuple(out)


def parse_text(text: str) -> Circuit:
    """Parse circuit text; raises CircuitParseError with a line number."""
    circ: Circuit | None = None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "qubits":
            if circ is not None:
                raise CircuitParseError(ln, "duplicate qubits header")
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise CircuitParseError(ln, "qubits header needs one integer")
            circ = Circuit(int(tokens[1]))
            continue
        if circ is None:
            raise CircuitParseError(ln, "first directive must be 'qubits N'")
        if head == "label":
            if len(tokens) != 3:
                raise CircuitParseError(ln, "label needs a qubit and a register letter")
            q = _parse_qubit(tokens[1], ln)
            if tokens[2] not in VALID_LABELS:
                raise CircuitParseError(ln, f"register letter must be one of {VALID_LABELS}")
            try:
                circ.label(q, tokens[2])
            except Exception as exc:
                raise CircuitParseError(ln, str(exc)) from None
            continue

        m = _HEAD_RE.match(head)
        if m:
            kind, params = m.group(1), _parse_params(m.group(1), m.group(2), ln)
        else:
            kind, params = head, ()

        targets: list[int] = []
        ctrl: list[int] = []
        nctrl: list[int] = []
        bucket = targets
        for tok in tokens[1:]:
            if tok == "ctrl":
                bucket = ctrl
            elif tok == "nctrl":
                bucket = nctrl
            else:
                bucket.append(_parse_qubit(tok, ln))
        controls = tuple((q, 1) for q in ctrl) + tuple((q, 0) for q in nctrl)
        try:
            circ.append(GateSpec(kind, params, tuple(targets), controls))
        except Exception as exc:
            raise CircuitParseError(ln, str(exc)) from None

    if circ is None:
        raise CircuitParseError(1, "missing 'qubits N' header")
    return circ
