"""Gate vocabulary for the simulator.

A gate is a small frozen record: a kind tag, numeric parameters, target
qubits, and polarity-aware controls (a control is a ``(qubit, wanted_bit)``
pair, so "fire when this qubit is 0" needs no surrounding X gates).

A gate is checked once, when it is built from raw parts: ``GateSpec(...)``
and the constructors below run every check. Every parameter must be a
finite real number (a complex one is refused), and rot2's two basis
indices must be integers. Gates that qdbsim builds from parts already known
valid (a checked layout's registers, or the parts of a checked gate, as in
``gate_inverse``) come from ``GateSpec._built``, which skips them, as
``Circuit._joined`` skips re-checking checked gates.

Kinds
-----
``x``, ``h``                    single-qubit, no parameters
``ry(theta)``                   rotation about the y axis
``y(p)``                        probability-split rotation: column 0 is
                                ``(sqrt(p), sqrt(1-p))``, i.e. ``ry(2*acos(sqrt(p)))``
``ytilde(p)``                   ``y(p)`` composed with the inverse of ``y(1/2)``
``phase(phi)``                  ``diag(1, e^{i phi})``
``swap``                        two targets
``rot2(a, b, theta)``           Givens rotation in the plane of two basis
                                states of the full register; targets/controls
                                are not used (``a`` and ``b`` fix everything)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import SemanticError

SINGLE_QUBIT_KINDS = ("x", "h", "ry", "y", "ytilde", "phase")
ALL_KINDS = SINGLE_QUBIT_KINDS + ("swap", "rot2")

_PARAM_COUNT = {
    "x": 0,
    "h": 0,
    "ry": 1,
    "y": 1,
    "ytilde": 1,
    "phase": 1,
    "swap": 0,
    "rot2": 3,
}


@dataclass(frozen=True)
class GateSpec:
    kind: str
    params: tuple[float, ...] = ()
    targets: tuple[int, ...] = ()
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise SemanticError(f"unknown gate kind {self.kind!r}")
        if len(self.params) != _PARAM_COUNT[self.kind]:
            raise SemanticError(
                f"{self.kind} takes {_PARAM_COUNT[self.kind]} parameter(s), "
                f"got {len(self.params)}"
            )
        if not all(isinstance(p, Real) and math.isfinite(p) for p in self.params):
            raise SemanticError(f"{self.kind} parameters must be finite real numbers, "
                                f"got {self.params}")
        if self.kind in ("y", "ytilde"):
            p = self.params[0]
            if not 0.0 <= p <= 1.0:
                raise SemanticError(f"{self.kind} parameter must lie in [0, 1], got {p}")
        if self.kind == "rot2":
            a, b = self.params[0], self.params[1]
            if not (float(a).is_integer() and float(b).is_integer()):
                raise SemanticError(f"rot2 basis indices must be integers, got {a} and {b}")
            a, b = int(a), int(b)
            if a == b or a < 0 or b < 0:
                raise SemanticError("rot2 needs two distinct non-negative basis indices")
            if self.targets or self.controls:
                raise SemanticError("rot2 acts on basis indices; targets/controls not allowed")
        elif self.kind == "swap":
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise SemanticError("swap needs two distinct targets")
        else:
            if len(self.targets) != 1:
                raise SemanticError(f"{self.kind} needs exactly one target")
        seen = set(self.targets)
        for q, bit in self.controls:
            if bit not in (0, 1):
                raise SemanticError("control polarity must be 0 or 1")
            if q in seen:
                raise SemanticError(f"qubit {q} appears twice in gate {self.kind}")
            seen.add(q)
        if any(q < 0 for q in seen):
            raise SemanticError("negative qubit index")
        # the targets then the control qubits, set once per gate and off the
        # fields (equality, hashing and repr are unchanged): every gate
        # checked or applied reads them
        _set(self, "qubits", self.targets + tuple([q for q, _ in self.controls]))

    @classmethod
    def _built(cls, kind: str, params: tuple[float, ...], targets: tuple[int, ...],
               controls: tuple[tuple[int, int], ...] = ()) -> "GateSpec":
        """A gate from parts that already make a valid gate, the four fields
        a ``circuit.GateRecord`` yields: none of the constructor's checks
        run."""
        gate = object.__new__(cls)
        _set(gate, "kind", kind)
        _set(gate, "params", params)
        _set(gate, "targets", targets)
        _set(gate, "controls", controls)
        _set(gate, "qubits", targets + tuple([q for q, _ in controls]))
        return gate


# attribute stores that keep instance attributes inline (writing through
# ``__dict__`` would give every gate a dictionary of its own)
_set = object.__setattr__


def _real(value):
    """``value`` as a float when it is a real number; anything else is left
    as it is, for ``GateSpec`` to refuse."""
    return float(value) if isinstance(value, Real) else value


def _ctrls(ctrl, nctrl) -> tuple[tuple[int, int], ...]:
    ctrl = (ctrl,) if isinstance(ctrl, int) else tuple(ctrl or ())
    nctrl = (nctrl,) if isinstance(nctrl, int) else tuple(nctrl or ())
    return tuple((q, 1) for q in ctrl) + tuple((q, 0) for q in nctrl)


def x(target: int, ctrl=(), nctrl=()) -> GateSpec:
    return GateSpec("x", (), (target,), _ctrls(ctrl, nctrl))


def h(target: int, ctrl=(), nctrl=()) -> GateSpec:
    return GateSpec("h", (), (target,), _ctrls(ctrl, nctrl))


def ry(target: int, theta: float, ctrl=(), nctrl=()) -> GateSpec:
    return GateSpec("ry", (_real(theta),), (target,), _ctrls(ctrl, nctrl))


def y(target: int, p: float, ctrl=(), nctrl=()) -> GateSpec:
    return GateSpec("y", (_real(p),), (target,), _ctrls(ctrl, nctrl))


def ytilde(target: int, p: float, ctrl=(), nctrl=()) -> GateSpec:
    return GateSpec("ytilde", (_real(p),), (target,), _ctrls(ctrl, nctrl))


def phase(target: int, phi: float, ctrl=(), nctrl=()) -> GateSpec:
    return GateSpec("phase", (_real(phi),), (target,), _ctrls(ctrl, nctrl))


def swap(t1: int, t2: int, ctrl=(), nctrl=()) -> GateSpec:
    return GateSpec("swap", (), (t1, t2), _ctrls(ctrl, nctrl))


def rot2(a: int, b: int, theta: float) -> GateSpec:
    return GateSpec("rot2", (_real(a), _real(b), _real(theta)), (), ())


def y_angle(p: float) -> float:
    """The ry angle reproducing y(p): 2*acos(sqrt(p))."""
    return 2.0 * math.acos(math.sqrt(p))


def matrix_1q(kind: str, params: tuple[float, ...]) -> np.ndarray:
    """2x2 matrix of a single-qubit kind."""
    if kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "h":
        s = math.sqrt(0.5)
        return np.array([[s, s], [s, -s]], dtype=complex)
    if kind == "ry":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "y":
        p = params[0]
        a, b = math.sqrt(p), math.sqrt(1.0 - p)
        return np.array([[a, -b], [b, a]], dtype=complex)
    if kind == "ytilde":
        # y(p) composed with the transpose (= inverse) of y(1/2)
        return matrix_1q("y", params) @ matrix_1q("y", (0.5,)).T
    if kind == "phase":
        return np.array([[1, 0], [0, np.exp(1j * params[0])]], dtype=complex)
    raise SemanticError(f"no single-qubit matrix for kind {kind!r}")


def inverse_params(kind: str, params: tuple[float, ...]) -> tuple[str, tuple[float, ...]]:
    """The kind and parameters of the inverse of a gate of ``kind`` with
    ``params``, on the same wires.

    y and ytilde are rotations about the y axis, so their inverses are plain
    ry gates with the opposite accumulated angle.
    """
    if kind in ("x", "h", "swap"):
        return kind, params
    if kind == "ry":
        return "ry", (-params[0],)
    if kind == "y":
        return "ry", (-y_angle(params[0]),)
    if kind == "ytilde":
        return "ry", (math.pi / 2 - y_angle(params[0]),)
    if kind == "phase":
        return "phase", (-params[0],)
    if kind == "rot2":
        a, b, theta = params
        return "rot2", (a, b, -theta)
    raise SemanticError(f"cannot invert gate kind {kind!r}")


def gate_inverse(g: GateSpec) -> GateSpec:
    """Inverse gate, expressed within the same vocabulary (``inverse_params``);
    the inverse of a checked gate is built unchecked (``GateSpec._built``),
    and a self-inverse gate is its own."""
    if g.kind in ("x", "h", "swap"):
        return g
    return GateSpec._built(*inverse_params(g.kind, g.params), g.targets, g.controls)
