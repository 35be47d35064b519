"""The built-in check battery and its report serialization."""

import json

import numpy as np
import pytest

from qdbsim.errors import SemanticError, VerificationError
from qdbsim.verify import FAST_CHECKS, FULL_CHECKS, VerifyReport, run_verify


def test_fast_battery_passes():
    report = run_verify("fast")
    assert report.passed
    assert report.level == "fast"
    assert len(report.checks) == len(FAST_CHECKS)
    assert all(c.passed for c in report.checks)


def test_full_battery_passes():
    report = run_verify("full")
    assert report.passed
    assert len(report.checks) == len(FULL_CHECKS)
    assert len(FULL_CHECKS) > len(FAST_CHECKS)


def test_unknown_level_rejected():
    with pytest.raises(SemanticError):
        run_verify("extreme")


def test_report_round_trips_through_json():
    report = run_verify("fast")
    text = report.to_json()
    again = VerifyReport.from_json(text)
    assert again.level == report.level
    assert again.passed == report.passed
    assert [c.name for c in again.checks] == [c.name for c in report.checks]
    obj = json.loads(text)
    assert set(obj) == {"level", "passed", "checks"}


def test_failures_are_captured_not_raised(monkeypatch):
    import qdbsim.verify as verify_mod

    def boom():
        raise RuntimeError("simulated defect")

    patched = [(name, boom if name == "gate-matrices" else fn)
               for name, fn in verify_mod.FAST_CHECKS]
    monkeypatch.setattr(verify_mod, "FAST_CHECKS", patched)
    report = verify_mod.run_verify("fast")
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert len(failed) == 1
    assert "simulated defect" in failed[0].detail


def test_derived_records_check_catches_a_record_the_constructors_rewrite(monkeypatch):
    import qdbsim.verify as verify_mod

    def unpadded_write(meta, label, word, write_meta=verify_mod.write_meta):
        new = write_meta(meta, label, word)
        data = {j: w.lstrip("0") for j, w in new.descriptor.data.items()}
        return new._derived(descriptor=new.descriptor._derived(data=data))

    assert "accept unchanged" in verify_mod._check_derived_records()
    monkeypatch.setattr(verify_mod, "write_meta", unpadded_write)
    with pytest.raises(VerificationError, match="^write built a record the constructors rewrite"):
        verify_mod._check_derived_records()


def test_database_ops_check_catches_a_folded_write_outside_the_encoding(monkeypatch):
    import dataclasses

    import qdbsim.qdb as qdb_mod
    import qdbsim.verify as verify_mod

    fold = qdb_mod._write_folded

    def unencoded(db, *args):
        bare = dataclasses.replace(db, descriptor=db.descriptor._derived(u_d=None))
        return fold(bare, *args)

    assert "under u_d = ry(0.7)" in verify_mod._check_db_ops()
    monkeypatch.setattr(qdb_mod, "_write_folded", unencoded)
    with pytest.raises(VerificationError, match="folded write disagrees"):
        verify_mod._check_db_ops()


def test_database_ops_check_catches_a_permute_that_moves_other_bits(monkeypatch):
    import qdbsim.qdb as qdb_mod
    import qdbsim.verify as verify_mod

    exchange = qdb_mod._exchange
    trades = []

    def negated(amps, *args):
        # the route's right trades, one amplitude's sign flipped after the
        # first: before permute's second trade selects its two branches
        trades.append(args)
        if len(trades) == 2:
            amps[np.flatnonzero(amps)[0]] *= -1
        exchange(amps, *args)

    assert "permute matches its routing gates" in verify_mod._check_db_ops()
    monkeypatch.setattr(qdb_mod, "_exchange", negated)
    with pytest.raises(VerificationError, match="^permute disagrees with its routing gates$"):
        verify_mod._check_db_ops()


def test_full_battery_tells_the_encoding_from_its_inverse(monkeypatch):
    import importlib

    import qdbsim.qdb as qdb_mod

    def swapped(circ, encoding):  # E + circ + E^-1 instead of E^-1 + circ + E
        return circ if encoding is None else encoding + circ + encoding.inverse()

    # the package's `extend` is the op, so the module is imported by name
    for mod in (qdb_mod, importlib.import_module("qdbsim.extend")):
        monkeypatch.setattr(mod, "_decoded", swapped)
    report = run_verify("full")
    assert not report.passed
    assert {"transfer-suite", "database-ops"} <= {c.name for c in report.checks if not c.passed}


def test_history_check_fails_when_a_reversed_block_renders_forward(monkeypatch):
    # u^-1's data-write block and the undone sensor preparations rendered
    # forwards: the flat gates, built from each record's forward, keep the
    # state, but the text differs
    from qdbsim import verify
    from qdbsim.circuit import GateRecord

    assert verify._check_history()
    monkeypatch.setattr(GateRecord, "reversed", property(lambda self: False))
    with pytest.raises(VerificationError, match="emit"):
        verify._check_history()
