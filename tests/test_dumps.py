"""Amplitude dump records and their JSON/CSV serializations."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdbsim.dumps import (
    _register_segments,
    amplitude_records,
    annotate_bits,
    dump_records,
    records_to_csv,
    records_to_json,
)
from qdbsim.qdb import prepare_general, read_copy, write
from qdbsim.statevector import StateVector
from qdbsim.tolerances import DUMP_THRESHOLD


def test_annotate_bits_orders_registers_msb_first():
    segments = [("D", (2, 3)), ("I", (0, 1))]
    # index 0b0110: qubit 1 and 2 set -> I = "10", D = "01"
    assert annotate_bits(0b0110, segments) == "D=01 I=10"


def test_records_for_balanced_prepare():
    db = prepare_general(4)
    records = dump_records(db)
    assert len(records) == 4
    assert [r["index"] for r in records] == [0, 1, 2, 3]
    assert records[1]["bits"] == "I=01"
    assert records[2]["bits"] == "I=10"
    for r in records:
        assert r["re"] == pytest.approx(0.5, abs=1e-12)
        assert r["im"] == 0.0


def test_records_include_all_registers_present():
    db = prepare_general(2, 0, {1: "1"})
    copied = read_copy(db, 1)
    records = dump_records(copied)
    assert all(r["bits"].startswith("A=") for r in records)
    assert all(" D=" in r["bits"] and " I=" in r["bits"] for r in records)


def test_threshold_filters_small_amplitudes():
    state = StateVector([(1 - 1e-18) ** 0.5, 1e-9], n_qubits=1)
    records = amplitude_records(state, [("I", (0,))], threshold=1e-6)
    assert len(records) == 1


def test_json_dump_shape():
    db = prepare_general(2)
    text = records_to_json(dump_records(db))
    assert text.endswith("\n")
    data = json.loads(text)
    assert data[0] == {"index": 0, "bits": "I=0", "re": pytest.approx(2**-0.5), "im": 0.0}
    assert text == json.dumps(data, indent=2) + "\n"


def test_csv_dump_has_no_header_and_round_trips():
    db = prepare_general(4, 0, {3: "1"})
    text = records_to_csv(dump_records(db))
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 4  # one line per amplitude, no header
    for row in rows:
        assert len(row) == 4
        int(row[0])
        float(row[2]), float(row[3])
    # repr floats parse back exactly
    records = dump_records(db)
    assert float(rows[0][2]) == records[0]["re"]


def test_dump_deterministic():
    db = prepare_general(5, 2, {1: "1", 3: "10"})
    db = write(db, 2, "11")
    assert records_to_json(dump_records(db)) == records_to_json(dump_records(db))
    assert records_to_csv(dump_records(db)) == records_to_csv(dump_records(db))


def per_record_dump(db, threshold: float = DUMP_THRESHOLD) -> list[dict]:
    """Dump records built one amplitude at a time through annotate_bits."""
    segments = _register_segments(db)
    amps = db.state.amplitudes
    return [{"index": int(i), "bits": annotate_bits(int(i), segments),
             "re": float(amps[i].real), "im": float(amps[i].imag)}
            for i in np.nonzero(np.abs(amps) > threshold)[0]]


@settings(deadline=None, max_examples=40)
@given(k=st.integers(1, 20), m=st.integers(0, 3), sensor=st.booleans(),
       copy=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dump_matches_the_per_record_path(k, m, sensor, copy, seed):
    db = prepare_general(k, 0, m_data=m)
    n, extra = db.n_qubits, m * (sensor + copy)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** (n + extra)) + 1j * rng.normal(size=2 ** (n + extra))
    amps[rng.random(amps.size) < 0.3] = 0.0  # holes the threshold drops
    amps[0] = 1.0
    amps /= np.linalg.norm(amps)
    registers = [tuple(range(n, n + m)), tuple(range(n + m, n + 2 * m))]
    db = dataclasses.replace(
        db, state=StateVector(amps, copy=False),
        sensor_qubits=registers.pop(0) if sensor else (),
        copy_qubits=registers.pop(0) if copy else ())
    records = dump_records(db)
    want = per_record_dump(db)
    assert records == want
    assert records_to_json(records) == records_to_json(want)
    assert records_to_csv(records) == records_to_csv(want)


def test_records_for_no_registers_and_no_support():
    state = StateVector([0.6, 0.8j], n_qubits=1)
    assert amplitude_records(state, []) == [
        {"index": 0, "bits": "", "re": 0.6, "im": 0.0},
        {"index": 1, "bits": "", "re": 0.0, "im": 0.8}]
    assert amplitude_records(state, [("D", ())])[0]["bits"] == "D="
    assert amplitude_records(state, [("I", (0,))], threshold=1.0) == []
