"""Check-once records: transitions derive QdbDescriptor and QdbLayout records
from checked ones and check only what they change."""

from collections import Counter

import numpy as np
import pytest

from qdbsim.errors import SemanticError
from qdbsim.extend import _with_index_qubits, transfer_meta, unfold_meta
from qdbsim.qdb import (
    QdbDescriptor,
    QdbLayout,
    QdbMeta,
    permute_meta,
    prepare_general,
    prepare_meta,
    remove_projective_meta,
    remove_reservoir_meta,
    write_meta,
)

TRANSITIONS = {
    "write": (0, lambda m: write_meta(m, 1, "11")),
    "permute": (0, lambda m: permute_meta(m, {1: 2, 2: 1})),
    "remove_reservoir": (0, lambda m: remove_reservoir_meta(m, 1)),
    "remove_projective": (0, lambda m: remove_projective_meta(m, 1)),
    "transfer": (0, lambda m: transfer_meta(m, 5)),
    "unfold": (5, unfold_meta),
}


def constructor_runs(monkeypatch, k: int, l: int, transition) -> Counter:
    """Full-check constructor runs of QdbDescriptor and QdbLayout while one
    transition runs on a k-entry record."""
    meta = prepare_meta(k, l, {1: "01", 2: "10"}, m_data=2)
    runs = Counter()
    for cls in (QdbDescriptor, QdbLayout):
        def spy(self, check=cls.__post_init__, name=cls.__name__):
            runs[name] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", spy)
    transition(meta)
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("name", sorted(TRANSITIONS))
def test_transitions_run_no_full_check_at_any_k(monkeypatch, name):
    l, transition = TRANSITIONS[name]
    small = constructor_runs(monkeypatch, 16, l, transition)
    large = constructor_runs(monkeypatch, 1024, l, transition)
    assert small == large == Counter()


def test_derived_records_equal_their_full_check_rebuilds():
    meta = prepare_meta(16, 0, {1: "01", 2: "10"}, m_data=2)
    meta, _ = permute_meta(write_meta(meta, 3, 2), {2: 3, 3: 2})
    meta = unfold_meta(transfer_meta(unfold_meta(remove_reservoir_meta(meta, 4)), 6))
    d, lay = meta.descriptor, meta.layout
    assert d == QdbDescriptor(d.k, d.l, dict(d.data), d.u_d, d.m_data)
    assert lay == QdbLayout(lay.index_qubits, lay.data_qubits, dict(lay.logical_index_map))
    assert d.data == {1: "01", 2: "10", 3: "10"}
    assert (d.k, d.l, len(lay.index_qubits)) == (22, 0, 6)


def test_a_states_meta_is_the_record_its_constructor_builds():
    db = prepare_general(4, 0, {1: "01"}, m_data=2)
    db.sensor_qubits, db.amplitude_profile = (4, 5), {0: 0.5, 1: 0.5}
    meta = db.meta
    assert type(meta) is QdbMeta
    assert meta == QdbMeta(db.descriptor, db.layout, (4, 5), (), {0: 0.5, 1: 0.5}, False)


def test_with_data_value_checks_the_word_it_sets():
    desc = prepare_meta(4, 0, m_data=2).descriptor
    with pytest.raises(SemanticError, match="^entry 0 is the reservoir and must stay empty$"):
        desc.with_data_value(0, 1)
    with pytest.raises(SemanticError, match="^data value 4 does not fit in 2 bits$"):
        desc.with_data_value(1, 4)
    with pytest.raises(SemanticError, match="^data value -1 does not fit in 2 bits$"):
        desc.with_data_value(1, -1)
    assert desc.with_data_value(1, 1).data == {1: "01"}
    assert desc.with_data_value(1, 1).with_data_value(1, 0).data == {}


def test_non_binary_word_keeps_its_message():
    meta = prepare_meta(4, 0, m_data=2)
    with pytest.raises(SemanticError, match="^data bitstring must be binary, got '12'$"):
        write_meta(meta, 1, "12")
    with pytest.raises(SemanticError, match="^data bitstring must be binary, got '12'$"):
        QdbDescriptor(4, 0, {1: "12"}, m_data=2)


def test_growth_checks_only_the_new_patterns():
    meta = prepare_meta(4, 0, m_data=1)  # index qubits 0, 1; data qubit 2
    grown = _with_index_qubits(meta, (3,), [4, 5])
    assert grown.layout.index_qubits == (0, 1, 3)
    assert grown.layout.logical_index_map == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
    assert grown.k == 6
    with pytest.raises(SemanticError, match="^index pattern 2 sets no new index bit$"):
        _with_index_qubits(meta, (3,), [4, 2])  # an old pattern
    with pytest.raises(SemanticError, match="^index pattern 8 sets no new index bit$"):
        _with_index_qubits(meta, (3,), [8])  # beyond the new bit
    with pytest.raises(SemanticError, match="share one index pattern"):
        _with_index_qubits(meta, (3,), [4, 4])


def test_prepare_meta_takes_words_as_str_int_or_numpy_int():
    # a string's width is its length, leading zeros included; an int's is
    # its bit length
    meta = prepare_meta(4, 0, {1: "001", 2: np.int64(2), 3: 0})
    assert meta.descriptor.m_data == 3
    assert meta.descriptor.data == {1: "001", 2: "010"}
    assert prepare_meta(4, 0, {1: np.uint8(3)}).descriptor.data == {1: "11"}
