"""Gate vocabulary: matrices, probability parameterization, inverses."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdbsim.errors import SemanticError
from qdbsim.gates import (
    GateSpec,
    gate_inverse,
    h,
    matrix_1q,
    phase,
    rot2,
    ry,
    swap,
    x,
    y,
    y_angle,
    ytilde,
)

probabilities = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
angles = st.floats(min_value=-10.0, max_value=10.0)


def test_x_h_matrices_exact():
    assert np.array_equal(matrix_1q("x", ()), np.array([[0, 1], [1, 0]], dtype=complex))
    r = 1 / math.sqrt(2)
    assert np.allclose(matrix_1q("h", ()), np.array([[r, r], [r, -r]]), atol=1e-15)


def test_y_matrix_is_probability_split():
    p = 0.3
    m = matrix_1q("y", (p,))
    expected = np.array(
        [[math.sqrt(p), -math.sqrt(1 - p)], [math.sqrt(1 - p), math.sqrt(p)]],
        dtype=complex,
    )
    assert np.allclose(m, expected, atol=1e-15)


def test_y_on_zero_column_carries_sqrt_p():
    # column 0 = action on |0>: amplitude sqrt(p) stays, sqrt(1-p) moves on
    for p in (0.1, 0.5, 0.9):
        col = matrix_1q("y", (p,))[:, 0]
        assert abs(col[0] - math.sqrt(p)) < 1e-15
        assert abs(col[1] - math.sqrt(1 - p)) < 1e-15


def test_ytilde_is_y_with_half_split_removed():
    for p in (0.2, 0.5, 0.77):
        yt = matrix_1q("ytilde", (p,))
        comp = matrix_1q("y", (p,)) @ np.linalg.inv(matrix_1q("y", (0.5,)))
        assert np.allclose(yt, comp, atol=1e-14)


def test_y_angle_matches_ry():
    p = 0.42
    assert np.allclose(
        matrix_1q("y", (p,)), matrix_1q("ry", (y_angle(p),)), atol=1e-14
    )


@given(p=probabilities)
def test_y_unitary(p):
    m = matrix_1q("y", (p,))
    assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


@given(theta=angles)
def test_ry_unitary(theta):
    m = matrix_1q("ry", (theta,))
    assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


@given(phi=angles)
def test_phase_unitary(phi):
    m = matrix_1q("phase", (phi,))
    assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


@given(p=probabilities)
def test_y_inverse_stays_in_vocabulary(p):
    g = y(0, p)
    inv = gate_inverse(g)
    assert inv.kind in ("x", "h", "ry", "y", "ytilde", "phase", "swap", "rot2")
    m = matrix_1q(g.kind, g.params) @ matrix_1q(inv.kind, inv.params)
    assert np.allclose(m, np.eye(2), atol=1e-12)


@given(p=probabilities)
def test_ytilde_inverse_stays_in_vocabulary(p):
    g = ytilde(0, p)
    inv = gate_inverse(g)
    m = matrix_1q(g.kind, g.params) @ matrix_1q(inv.kind, inv.params)
    assert np.allclose(m, np.eye(2), atol=1e-12)


@pytest.mark.parametrize(
    "gate",
    [x(2), h(1), ry(0, 0.7), y(3, 0.25), ytilde(1, 0.8), phase(0, 1.1), swap(0, 2)],
)
def test_self_consistent_inverses_1q_and_swap(gate):
    inv = gate_inverse(gate)
    assert inv.targets == gate.targets
    assert inv.controls == gate.controls
    if gate.kind in ("x", "h", "swap"):
        assert inv == gate  # self-inverse


def test_rot2_inverse_negates_angle():
    g = rot2(1, 6, 0.9)
    inv = gate_inverse(g)
    assert inv.kind == "rot2"
    assert inv.params[:2] == (1.0, 6.0)
    assert inv.params[2] == pytest.approx(-0.9)


def test_controls_carry_polarity():
    g = x(0, ctrl=(2,), nctrl=(3, 4))
    assert g.controls == ((2, 1), (3, 0), (4, 0))
    assert g.qubits == (0, 2, 3, 4)


def test_gatespec_is_hashable_and_frozen():
    g = x(0, ctrl=(1,))
    assert hash(g) == hash(x(0, ctrl=(1,)))
    with pytest.raises(Exception):
        g.kind = "h"


def test_gatespec_qubits_stay_off_the_fields():
    g = swap(3, 1, nctrl=(0,))
    assert g.qubits == (3, 1, 0)
    assert [f.name for f in dataclasses.fields(g)] == ["kind", "params", "targets", "controls"]
    assert repr(g) == "GateSpec(kind='swap', params=(), targets=(3, 1), controls=((0, 0),))"
    assert dataclasses.replace(g, targets=(2, 1)).qubits == (2, 1, 0)
    with pytest.raises(Exception):
        g.qubits = ()


def test_overlapping_target_and_control_rejected():
    with pytest.raises(SemanticError):
        GateSpec("x", (), (0,), ((0, 1),))


def test_swap_needs_two_distinct_targets():
    with pytest.raises(SemanticError):
        swap(1, 1)


@pytest.mark.parametrize("make", [
    lambda: ry(0, math.nan),
    lambda: ry(0, math.inf),
    lambda: phase(0, math.nan),
    lambda: phase(0, -math.inf),
    lambda: y(0, math.nan),
    lambda: rot2(0, 1, math.nan),
    lambda: rot2(math.nan, 1, 0.5),
    lambda: rot2(math.inf, 1, 0.5),
    lambda: rot2(0, 1.5, 0.5),
    lambda: GateSpec("ry", ("1",), (0,)),
    # complex parameters, which would fail inside the kernel or break the norm
    lambda: GateSpec("ry", (1j,), (0,)),
    lambda: GateSpec("phase", (0.3 + 0.2j,), (0,)),
    lambda: GateSpec("phase", (np.complex128(0.3),), (0,)),
    lambda: ry(0, 1j),
    lambda: phase(0, 0.3 + 0.2j),
    lambda: rot2(0, 1, 0.5j),
    lambda: rot2(1j, 1, 0.5),
], ids=["ry-nan", "ry-inf", "phase-nan", "phase-minus-inf", "y-nan", "rot2-angle-nan",
        "rot2-index-nan", "rot2-index-inf", "rot2-index-fraction", "ry-string",
        "ry-complex", "phase-complex", "phase-numpy-complex", "ry-helper-complex",
        "phase-helper-complex", "rot2-angle-complex", "rot2-index-complex"])
def test_gate_parameters_must_be_finite_and_rot2_indices_integral(make):
    with pytest.raises(SemanticError) as exc:
        make()
    assert exc.value.exit_code == 3
    assert "must be finite" in str(exc.value) or "must be integers" in str(exc.value)
