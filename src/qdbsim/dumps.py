"""Amplitude dumps: deterministic JSON/CSV listings of a state's support.

Each record holds the basis index, a register-annotated bit pattern (most
significant register first, bits MSB-first within a register), and the real
and imaginary amplitude parts. Entries below the dump threshold are omitted.
Output is byte-deterministic: floats are rendered with repr (shortest
round-trip form) and records are sorted by basis index.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .statevector import StateVector
from .tolerances import DUMP_THRESHOLD


def _register_segments(db) -> list[tuple[str, tuple[int, ...]]]:
    segments = [
        ("A", tuple(db.copy_qubits)),
        ("S", tuple(db.sensor_qubits)),
        ("D", tuple(db.layout.data_qubits)),
        ("I", tuple(db.layout.index_qubits)),
    ]
    return [(name, qs) for name, qs in segments if qs]


def annotate_bits(index: int, segments) -> str:
    """Render one basis index as labeled register fields, e.g. 'D=10 I=011'."""
    parts = []
    for name, qubits in segments:
        bits = "".join(str((index >> q) & 1) for q in reversed(list(qubits)))
        parts.append(f"{name}={bits}")
    return " ".join(parts)


def _annotations(keep: np.ndarray, segments) -> list[str]:
    """``annotate_bits`` of every index in ``keep``: one row of characters
    per index, built from a template with one numpy pass per register bit."""
    template = " ".join(f"{name}={'0' * len(qubits)}" for name, qubits in segments).encode()
    if not template:
        return [""] * keep.size
    rows = np.empty((keep.size, len(template)), dtype=np.uint8)
    rows[:] = np.frombuffer(template, dtype=np.uint8)
    col = 0
    for name, qubits in segments:
        col += len(f"{name}=".encode())
        for b, q in enumerate(reversed(qubits)):  # most significant bit first
            rows[:, col + b] += ((keep >> q) & 1).astype(np.uint8)
        col += len(qubits) + 1
    return [row.decode() for row in rows.view(f"S{len(template)}").ravel().tolist()]


def amplitude_records(state: StateVector, segments,
                      threshold: float = DUMP_THRESHOLD) -> list[dict]:
    """Support of a state as a list of {index, bits, re, im} dicts."""
    amps = state.amplitudes
    keep = np.nonzero(np.abs(amps) > threshold)[0]
    kept = amps[keep]
    return [{"index": idx, "bits": bits, "re": re, "im": im}
            for idx, bits, re, im in zip(keep.tolist(), _annotations(keep, segments),
                                         kept.real.tolist(), kept.imag.tolist())]


def dump_records(db, threshold: float = DUMP_THRESHOLD) -> list[dict]:
    """Amplitude records of a database state with its register annotation."""
    return amplitude_records(db.state, _register_segments(db), threshold)


def records_to_json(records: list[dict]) -> str:
    return json.dumps(records, indent=2) + "\n"


def records_to_csv(records: list[dict]) -> str:
    """CSV form: index,bits,re,im per line, no header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for rec in records:
        writer.writerow([rec["index"], rec["bits"], repr(rec["re"]), repr(rec["im"])])
    return buf.getvalue()
