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
``emit_text`` walks the parts and renders each distinct part once per call.
Gate lists and records (``GateRecord``) go through one path, from their
gates' fields; a record builds no gate. A record is memoized by its key (an
op's arguments), so equal records are rendered once: a long script prepares
the sensor in the same word, toggles the same entry and swaps the same two
entries many times. A gate list, and a record whose key does not hash (a
data-write block's descriptor holds a dict; a write under a data encoding
holds its encoding circuits), is memoized by identity. A record that offers
its own renderer (``GateRecord``), the data-write block, is rendered by it,
entry by entry: an entry's lines are kept for the call by its registers,
pattern and word, so a transfer's u and u^-1 look up each entry the
preparation rendered. A reversed record whose forward renders only ``x``,
``h`` and ``swap`` gates, each its own inverse, is rendered as its
forward's lines, reversed.

Qubit names come from a table built once per call. The text of a control
tuple is reused while consecutive gates share it (an entry's gates do) and
memoized by value, as are each target tuple's names: each write builds its
toggles' control tuple anew, equal to the tuple of earlier gates but a
different object. Each gate's parameters are formatted on their own:
``0.0 == -0.0``, so a memo keyed on them would print ``phase(-0.0)`` as
``phase(0.0)``. The memos live only as long as the call, so no two callers
share them.

The text comes as chunks (``_chunks``), runs of whole lines: ``emit_text``
joins one chunk of the whole text, and the CLI ``emit`` writes runs of at
least ``_RUN`` lines as they come, so it never holds the whole text.
"""

from __future__ import annotations

import re
import sys

from .circuit import VALID_LABELS, Circuit
from .errors import CircuitParseError, SemanticError
from .gates import GateSpec

_HEAD_RE = re.compile(r"^([a-z0-9]+)\((.*)\)$")
_QUBIT_RE = re.compile(r"^q\[(\d+)\]$")


def _fmt_params(kind: str, params: tuple[float, ...]) -> str:
    if kind == "rot2":  # two basis indices, then an angle
        return f"({int(params[0])},{int(params[1])},{float(params[2])!r})"
    return "(" + ",".join([repr(float(p)) for p in params]) + ")"


def _fmt_controls(controls, names: list[str]) -> str:
    pos = "".join([names[q] for q, b in controls if b])
    neg = "".join([names[q] for q, b in controls if not b])
    return (" ctrl" + pos if pos else "") + (" nctrl" + neg if neg else "")


def emit_text(circuit: Circuit) -> str:
    return "".join(_chunks(circuit, sys.maxsize))  # one chunk


_RUN = 4096  # lines a chunk of ``_chunks`` gathers at least, but the last


def _chunks(circuit: Circuit, run: int = _RUN):
    """The text of ``circuit`` as chunks, each a run of whole lines: at
    least ``run`` of them (the last chunk excepted) and at most one part's
    more, so a writer never holds the whole text."""
    names = [f" q[{q}]" for q in range(circuit.n_qubits)]
    lines = [f"qubits {circuit.n_qubits}"]
    lines += [f"label q[{q}] {circuit.labels[q]}" for q in sorted(circuit.labels)]
    heads: dict[tuple, str] = {}  # targets -> their names
    tails: dict[tuple, str] = {}  # controls -> their text
    memo: dict = {}  # a record renderer's, for this call
    # a part's lines, by the key of a record (an op's arguments) or, for a
    # gate list or a record whose key does not hash, by the part's identity
    rendered: dict = {}
    plain: set[int] = set()  # ids of those line lists whose gates are x, h or swap

    def lines_of(fields) -> list[str]:
        text = []
        simple = True  # no gate with parameters: x, h and swap, each its own inverse
        controls = tail = None
        for kind, params, targets, ctrl in fields:
            if ctrl is not controls:  # an entry's gates often share one tuple
                controls = ctrl
                tail = tails.get(ctrl)
                if tail is None:
                    tail = tails[ctrl] = _fmt_controls(ctrl, names)
            head = heads.get(targets)
            if head is None:
                head = heads[targets] = "".join([names[t] for t in targets])
            if params:
                kind += _fmt_params(kind, params)
                simple = False
            text.append(kind + head + tail)
        if simple:
            plain.add(id(text))
        return text

    def part_lines(part) -> list[str]:
        key = id(part) if type(part) is list else part.key
        try:
            text = rendered.get(key)
        except TypeError:  # a key holding a dict or circuits
            key = id(part)
            text = rendered.get(key)
        if text is not None:
            return text
        if type(part) is list:
            text = lines_of([(g.kind, g.params, g.targets, g.controls) for g in part])
        elif part.reversed:
            forward = part_lines(part.forward)
            # read backwards when each gate is its own inverse
            text = forward[::-1] if id(forward) in plain else lines_of(part.fields())
        elif part._text_of is not None:  # its gates are x gates
            text = part._text_of(*part.args, names, memo)
            plain.add(id(text))
        else:
            text = lines_of(part.fields())
        rendered[key] = text
        return text

    for part in circuit._leaves():
        lines += part_lines(part)
        if len(lines) >= run:
            yield "\n".join(lines) + "\n"
            lines = []
    if lines:
        yield "\n".join(lines) + "\n"


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
            try:
                circ = Circuit(int(tokens[1]))
            except SemanticError as exc:  # an empty register
                raise CircuitParseError(ln, str(exc)) from None
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
        bare = None  # a ctrl or nctrl no qubit has followed yet
        for tok in tokens[1:]:
            if tok == "ctrl" or tok == "nctrl":
                if bare:
                    raise CircuitParseError(ln, f"{bare} names no qubit")
                bucket, bare = (ctrl if tok == "ctrl" else nctrl), tok
            else:
                bucket.append(_parse_qubit(tok, ln))
                bare = None
        if bare:
            raise CircuitParseError(ln, f"{bare} names no qubit")
        controls = tuple((q, 1) for q in ctrl) + tuple((q, 0) for q in nctrl)
        try:
            circ.append(GateSpec(kind, params, tuple(targets), controls))
        except Exception as exc:
            raise CircuitParseError(ln, str(exc)) from None

    if circ is None:
        raise CircuitParseError(1, "missing 'qubits N' header")
    return circ
