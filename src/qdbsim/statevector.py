"""Dense complex statevector simulation.

Conventions
-----------
* Qubit 0 is the least significant bit of the basis index: basis state
  ``|x>`` assigns qubit ``q`` the bit ``(x >> q) & 1``.
* New qubits are appended at the high-significance end and start in ``|0>``.
* States are treated as immutable: every operation returns a new
  ``StateVector`` and never mutates its input. The exceptions are asked for
  by name: ``apply_gate(state, gate, out=target)`` writes its result into
  ``target``, which may be ``state`` itself, and ``move_amplitudes``
  writes the state it is given. ``circuit.simulate`` makes one copy of its
  input, widened by ``add_ancillas`` when the circuit is wider, and updates
  that copy in place through them; an op that only moves amplitudes copies
  its input once and moves entry branches within the copy (``qdb.permute``)
  or into it from the input (``qdb.write``'s fold, one branch), and a
  copy-read (``qdb.read_copy``, ``read_copy_all``) copies its
  input once into the low block of a zeroed wider array and scatters the
  copied amplitudes from there.
* Every slice is a view taken by one selector, ``_Axes.select``: the
  amplitudes split by register runs (``_axes``), some wires fixed to one
  pattern. A gate (every kind but rot2, which names two basis indices)
  reads its controls then its targets as one pattern, so it reads and
  writes only the slices its controls select, and takes its norm check
  there too. An entry's branch (``qdb._entry``) is the slice on which the
  index register reads its pattern; a projection onto one pattern writes
  that slice into zeros (``_collapsed``).
* Amplitudes move without arithmetic, and every amplitude (signed zeros
  included) keeps its bits, so a move skips the norm check, which a
  permutation cannot fail. Two slices trade places (``_exchange``) for an
  ``x`` or a ``swap`` in ``apply_gate`` and for each transposition of
  ``qdb.permute``. ``move_amplitudes`` moves a table in place: on the
  branch at flat base ``bases[i]``, free bits f go to f XOR ``masks[i]``,
  by pairs that trade places a chunk at a time; it serves ``simulate``'s
  data-write records. ``qdb.write``'s fold moves one branch by one word
  along its data axes (``_Axes.moved``).
* State equality is judged up to global phase by default.

The default qubit budget is 26; anything above that is rejected rather than
silently thrashing memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, SemanticError, ZeroProbabilityError
from .gates import GateSpec, matrix_1q
from .tolerances import NORM_TOL, PROJECTION_ZERO_TOL, SCHMIDT_CUTOFF, STATE_TOL

DEFAULT_MAX_QUBITS = 26


def _check_budget(n_qubits: int, max_qubits: int):
    if n_qubits > max_qubits:
        raise CapacityError(f"{n_qubits} qubits exceeds the budget of {max_qubits}")


class StateVector:
    """A normalized pure state on ``n_qubits`` qubits.

    The amplitudes are copied by default. With ``copy=False`` they are
    copied only when needed, as ``np.asarray`` does: a contiguous complex
    array is shared, anything else is converted."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, amplitudes, n_qubits: int | None = None, *, copy: bool = True):
        amps = (np.array(amplitudes, dtype=complex) if copy
                else np.asarray(amplitudes, dtype=complex))
        if not amps.flags.c_contiguous:
            amps = np.ascontiguousarray(amps)
        if amps.ndim != 1:
            raise SemanticError("amplitudes must be a 1-d array")
        n = int(amps.size).bit_length() - 1
        if 2**n != amps.size:
            raise SemanticError(f"amplitude count {amps.size} is not a power of two")
        if n_qubits is not None and n_qubits != n:
            raise SemanticError(f"expected {2**n_qubits} amplitudes, got {amps.size}")
        self.n_qubits = n
        self.amplitudes = amps

    @classmethod
    def zero(cls, n_qubits: int, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> "StateVector":
        return cls.basis(n_qubits, 0, max_qubits=max_qubits)

    @classmethod
    def basis(cls, n_qubits: int, index: int, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> "StateVector":
        if n_qubits < 1:
            raise SemanticError("need at least one qubit")
        _check_budget(n_qubits, max_qubits)
        if not 0 <= index < 2**n_qubits:
            raise SemanticError(f"basis index {index} out of range for {n_qubits} qubits")
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps, copy=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "StateVector":
        # the amplitudes were checked when this state was made
        out = object.__new__(StateVector)
        out.n_qubits, out.amplitudes = self.n_qubits, self.amplitudes.copy()
        return out

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits})"


def _register_scan(state: StateVector, qubits) -> np.ndarray:
    """The probability table of a register ``qubits`` (``qubits[i]`` holds
    bit i of a pattern), in one pass over the ``(2,)*n`` view of a state:
    entry p is the probability that the register reads p, the other axes
    summed out."""
    n = state.n_qubits
    axes = [n - 1 - q for q in qubits]  # axes[i] holds pattern bit i
    kept = sorted(axes)
    table = state.probabilities().reshape((2,) * n).sum(
        axis=tuple(ax for ax in range(n) if ax not in axes))
    # most significant pattern bit first, so the flat position is the pattern
    return table.transpose([kept.index(ax) for ax in reversed(axes)]).reshape(-1)


def _check_gate(gate: GateSpec, n: int):
    """Raise unless every qubit (or rot2 basis index) of ``gate`` lies in ``n`` qubits."""
    for q in gate.qubits:
        if q >= n:
            raise SemanticError(f"gate {gate.kind} touches qubit {q}, register has {n}")
    if gate.kind == "rot2" and max(int(gate.params[0]), int(gate.params[1])) >= 2**n:
        raise SemanticError(f"rot2 basis index out of range for {n} qubits")


def _updated(gate: GateSpec, old: list[np.ndarray]) -> list[np.ndarray]:
    """New contents of the slices a gate reads (rot2's two indices, phase's
    slice with its target set, else the target's slices clear then set), given
    contiguous copies of their old contents. May reuse those copies. ``x``
    and ``swap`` never get here: ``apply_gate`` moves them."""
    if gate.kind == "rot2":
        theta = gate.params[2]
        c, s = math.cos(theta), math.sin(theta)
        va, vb = old
        return [c * va - s * vb, s * va + c * vb]
    if gate.kind == "phase":
        # in place: numpy's in-place and out-of-place complex multiplies can
        # round differently, and the golden artifacts use the in-place one
        (a1,) = old
        a1 *= np.exp(1j * gate.params[0])
        return [a1]
    u = matrix_1q(gate.kind, gate.params)
    a0, a1 = old
    return [u[0, 0] * a0 + u[0, 1] * a1, u[1, 0] * a0 + u[1, 1] * a1]


def _sqnorm(parts) -> float:
    return sum(np.vdot(a, a).real for a in parts)


def apply_gate(state: StateVector, gate: GateSpec, *,
               out: StateVector | None = None) -> StateVector:
    """Apply one gate and return the result.

    By default the result is a new state and ``state`` is left untouched.
    With ``out`` the result is written into ``out`` (which may be ``state``
    itself) and ``out`` is returned. Only the amplitudes the gate's controls
    select are read or written.

    ``x`` and ``swap`` are exact moves with no arithmetic: two slices
    trade places through one temporary the size of one (``_exchange``). A
    permutation keeps the norm exactly, so only the kinds that do
    arithmetic are checked: they raise if they change the norm of the
    amplitudes they touch by more than ``NORM_TOL`` (which would indicate a
    broken gate matrix). The check runs before anything is written, so a
    failed gate leaves ``out=state`` unchanged. Every kind raises if the gate
    does not fit the register.
    """
    n = state.n_qubits
    _check_gate(gate, n)
    if out is not None and out.n_qubits != n:
        raise SemanticError(f"out has {out.n_qubits} qubits, state has {n}")

    if out is None:
        out = state.copy()
    elif out is not state:
        np.copyto(out.amplitudes, state.amplitudes)
    kind = gate.kind
    amps = out.amplitudes
    if kind == "rot2":
        views = [amps[int(i):int(i) + 1] for i in gate.params[:2]]
    else:
        # the controls, then the targets, read as one pattern: slice ``one``
        # sets the first target, slice ``pattern`` clears it
        axes = _axes(gate.qubits[len(gate.targets):] + gate.targets, (), n)
        pattern = sum(bit << j for j, (_, bit) in enumerate(gate.controls))
        one = pattern | 1 << len(gate.controls)
        if kind == "x" or kind == "swap":
            # an x trades slice ``one`` with slice ``pattern``, a swap with
            # the second target set instead
            _exchange(amps, axes, one,
                      pattern if kind == "x" else pattern | 2 << len(gate.controls))
            return out
        views = ([axes.select(amps, one)] if kind == "phase"
                 else [axes.select(amps, pattern), axes.select(amps, one)])
    # Contiguous copies: numpy can round strided operands differently, and
    # copying keeps the results bitwise independent of the slices' strides.
    old = [v.copy() for v in views]
    before = _sqnorm(old)
    new = _updated(gate, old)
    # Untouched amplitudes keep their share of the norm, so the drift of the
    # touched slices bounds the drift of the whole state; a NaN drift fails.
    if not abs(math.sqrt(_sqnorm(new)) - math.sqrt(before)) <= NORM_TOL:
        raise SemanticError(f"gate {gate.kind} broke normalization")
    for v, a in zip(views, new):
        v[...] = a
    return out


_MOVE_CHUNK = 1 << 15  # pairs of amplitudes traded at once by move_amplitudes


def move_amplitudes(state: StateVector, wires, bases, masks) -> None:
    """Move amplitudes of ``state`` in place, with no arithmetic: on entry
    i's branch, the basis indices ``bases[i] | f`` (``bases[i]`` sets wire
    qubits only, f the other qubits), the amplitude at f goes to f XOR
    ``masks[i]`` (bit q flips qubit q, not a wire). Branches not named stay
    put, and every amplitude keeps its bits.

    A mask is its own inverse, so a branch moves by trading the pairs
    ``(b | f, b | f ^ mask)``, f with the mask's highest qubit clear.
    Entries are grouped by that qubit, and each trade takes at most
    ``_MOVE_CHUNK`` pairs, their offsets f spread onto the free qubits by
    their runs (``_spread``): no temporary outgrows a chunk. The tables are
    sequences of ints or numpy int arrays; ``circuit.simulate`` moves a
    data-write record's table this way."""
    n, amps = state.n_qubits, state.amplitudes
    bases, masks = (np.asarray(table, dtype=np.int64) for table in (bases, masks))
    tops = np.frexp(masks)[1] - 1  # each mask's highest qubit, -1 for none
    for top in np.flatnonzero(np.bincount(tops[masks != 0])).tolist():
        at = np.flatnonzero(tops == top)
        free = tuple(q for q in range(n) if q != top and q not in wires)
        size = 1 << len(free)
        width = min(size, _MOVE_CHUNK)  # offsets per trade
        rows = _MOVE_CHUNK // width  # entries per trade
        for lo in range(0, size, width):
            offsets = _spread(np.arange(lo, lo + width, dtype=np.int64), free)
            for first in range(0, at.size, rows):
                entries = at[first:first + rows, None]
                one = bases[entries] | offsets
                two = one ^ masks[entries]
                held = amps[one]
                amps[one] = amps[two]
                amps[two] = held
                del one, two, held  # freed before the next trade makes its own


@functools.lru_cache(maxsize=256)
def _runs(qubits: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """A register ``qubits`` (bit i on ``qubits[i]``) as its runs of
    consecutive bits on consecutive qubits: per run, the mask of its bits
    and the shift that moves them onto their qubits, negative when they
    move down. Memoized by the qubit tuple, so a layout derived with other
    qubits gets its own runs."""
    runs, start = [], 0
    for i in range(1, len(qubits) + 1):
        if i == len(qubits) or qubits[i] != qubits[i - 1] + 1:
            runs.append((((1 << (i - start)) - 1) << start, qubits[start] - start))
            start = i
    return tuple(runs)


def _spread(value, qubits: tuple[int, ...]):
    """The bits of ``value`` (an int or a numpy int array) that a register
    ``qubits`` holds, each moved onto its qubit, run by run (``_runs``)."""
    out = 0
    for mask, shift in _runs(qubits):
        out |= (value & mask) << shift if shift >= 0 else (value & mask) >> -shift
    return out


class _Axes:
    """A state on ``n`` qubits split into axes, highest qubit first: each
    run of consecutive bits of ``wires``, of a data register ``data`` or of
    the qubits in neither (free) on consecutive qubits is one axis, so
    ``shape`` reshapes the amplitudes without a copy.

    A pattern is one integer per wire axis (``wire``: axis, lowest bit,
    mask), so its slice is one reshape and a short key. The slice keeps the
    data and free axes, in order; a data word is one position per data axis
    (``data``: slice axis, lowest bit, mask, mesh shape). Gates and
    projections pass ``data=()``: no mesh for a free run of up to 25 qubits."""

    __slots__ = ("shape", "key", "wire", "data", "grids")

    def __init__(self, wires: tuple[int, ...], data: tuple[int, ...], n: int):
        held = {q: ("wire", i) for i, q in enumerate(wires)}
        held.update((q, ("data", b)) for b, q in enumerate(data))
        runs = []  # (register, lowest bit, width)
        for q in reversed(range(n)):
            reg, bit = held.get(q, (None, None))
            if runs and runs[-1][0] == reg and (reg is None or runs[-1][1] == bit + 1):
                runs[-1] = (reg, bit, runs[-1][2] + 1)
            else:
                runs.append((reg, bit, 1))
        self.shape = tuple(1 << width for _, _, width in runs)
        # the Ellipsis keeps a view when every axis is fixed: an all-integer
        # key would give a scalar copy, and writes to it would be lost
        self.key = [slice(None)] * len(runs) + [Ellipsis]
        self.wire = tuple((axis, bit, (1 << width) - 1)
                          for axis, (reg, bit, width) in enumerate(runs) if reg == "wire")
        kept = [(reg, bit, width) for reg, bit, width in runs if reg != "wire"]
        meshes = [tuple(1 << w if a == axis else 1 for a, (_, _, w) in enumerate(kept))
                  for axis in range(len(kept))] if data else []
        self.grids = tuple(_mesh(shape, 0) for shape in meshes)
        self.data = tuple((axis, bit, (1 << width) - 1, meshes[axis])
                          for axis, (reg, bit, width) in enumerate(kept) if reg == "data")

    def select(self, amps: np.ndarray, pattern: int) -> np.ndarray:
        """The view of the flat amplitudes ``amps`` on which the wires read
        ``pattern``."""
        key = self.key.copy()
        for axis, low, mask in self.wire:
            key[axis] = pattern >> low & mask
        return amps.reshape(self.shape)[tuple(key)]

    def position(self, word: int) -> tuple[int, ...]:
        """Where data word ``word`` lies in a slice."""
        at = [0] * (len(self.shape) - len(self.wire))
        for axis, low, mask, _ in self.data:
            at[axis] = word >> low & mask
        return tuple(at)

    def moved(self, piece: np.ndarray, word: int) -> np.ndarray:
        """A copy of the slice ``piece`` moved by ``word`` along its data
        axes, an XOR index on each: what lies at data word w lands at
        w XOR ``word``."""
        index = list(self.grids)
        for axis, low, mask, shape in self.data:
            index[axis] = _mesh(shape, word >> low & mask)
        return piece[tuple(index)]


@functools.lru_cache(maxsize=256)
def _mesh(shape: tuple[int, ...], bits: int) -> np.ndarray:
    """The open-mesh index along the one axis of ``shape`` longer than 1,
    position p reading p XOR ``bits``; a script writes few distinct words."""
    return np.arange(max(shape)).reshape(shape) ^ bits


@functools.lru_cache(maxsize=256)
def _axes(wires: tuple[int, ...], data: tuple[int, ...], n: int) -> _Axes:
    """``_Axes``, memoized by the registers and the width as ``_runs`` is."""
    return _Axes(wires, data, n)


def _exchange(amps: np.ndarray, axes: _Axes, one: int, two: int) -> None:
    """Trade the slices of ``amps`` on which the wires of ``axes`` read
    ``one`` and ``two``, through one slice-sized temporary: ``apply_gate``'s
    ``x`` and ``swap`` and ``qdb.permute``'s transpositions move this way."""
    first, second = axes.select(amps, one), axes.select(amps, two)
    held = first.copy()
    # a ufunc's out= copies in place where a plain assignment between
    # interleaved slices would first copy its source whole
    np.positive(second, out=first)
    second[...] = held


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.n_qubits != b.n_qubits:
        raise SemanticError("overlap needs states on the same register")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def states_equal(a: StateVector, b: StateVector, tol: float = STATE_TOL,
                 *, up_to_global_phase: bool = True) -> bool:
    """Whether two states agree within ``tol``, by default up to global phase."""
    if a.n_qubits != b.n_qubits:
        return False
    if not up_to_global_phase:
        return bool(np.max(np.abs(a.amplitudes - b.amplitudes)) <= tol)
    ov = np.vdot(a.amplitudes, b.amplitudes)
    if abs(ov) < 1e-300:
        return False
    ph = ov / abs(ov)
    return bool(np.max(np.abs(a.amplitudes * ph - b.amplitudes)) <= tol)


def _keep_mask(state: StateVector, keep) -> np.ndarray:
    if callable(keep):
        return np.fromiter((bool(keep(i)) for i in range(state.dim)), dtype=bool,
                           count=state.dim)
    arr = np.asarray(keep)
    if arr.dtype == bool:
        if arr.size != state.dim:
            raise SemanticError("boolean mask length must equal the state dimension")
        return arr
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr) & (np.floor(arr) == arr)):
        raise SemanticError("basis indices must be integers")
    index = arr.astype(np.int64)
    if index.size and not (index.min() >= 0 and index.max() < state.dim):
        raise SemanticError(f"basis index out of range for {state.n_qubits} qubits")
    mask = np.zeros(state.dim, dtype=bool)
    mask[index] = True
    return mask


def project(state: StateVector, keep) -> tuple[StateVector, float]:
    """Project onto the span of the basis states selected by ``keep``.

    ``keep`` may be a predicate over basis indices, a boolean mask, or an
    index list, whose entries must be integral basis indices of the state.
    Returns the renormalized state and the outcome probability. Projections
    with probability below 1e-14 are rejected.
    """
    return _renormalized(np.where(_keep_mask(state, keep), state.amplitudes, 0.0))


def _collapsed(state: StateVector, wires, pattern: int) -> tuple[StateVector, float]:
    """``project`` onto the basis states on which ``wires`` read
    ``pattern``: that slice of ``state`` written into zeros, renormalized."""
    axes = _axes(tuple(wires), (), state.n_qubits)
    # filled, not np.zeros_like, whose lazily zeroed pages read slower
    amps = np.empty_like(state.amplitudes)
    amps[...] = 0
    axes.select(amps, pattern)[...] = axes.select(state.amplitudes, pattern)
    return _renormalized(amps)


def _renormalized(amps: np.ndarray) -> tuple[StateVector, float]:
    """A projection's amplitudes ``amps`` (zero where it discards) divided
    by their norm, and the probability they carry, as ``project`` gives them."""
    prob = float(np.sum(np.abs(amps) ** 2))
    if prob < PROJECTION_ZERO_TOL:
        raise ZeroProbabilityError(f"projection probability {prob:.3e} is numerically zero")
    return StateVector(amps / math.sqrt(prob), copy=False), prob


def sample_measure(state: StateVector, qubits, seed) -> tuple[str, StateVector]:
    """Measure the listed qubits in the computational basis.

    ``seed`` is an integer or a ``numpy.random.Generator``; the same seed and
    state always give the same outcome. Returns the outcome as a bitstring
    (character ``i`` is the result for ``qubits[i]``) and the collapsed state.
    """
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise SemanticError("duplicate qubit in measurement list")
    for q in qubits:
        if not 0 <= q < state.n_qubits:
            raise SemanticError(f"qubit {q} out of range")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    marginal = _register_scan(state, qubits)
    total = marginal.sum()
    if total < PROJECTION_ZERO_TOL:
        raise ZeroProbabilityError(f"state weight {total:.3e} is numerically zero")
    marginal = marginal / total
    outcome = int(rng.choice(len(marginal), p=marginal))
    collapsed, _ = _collapsed(state, qubits, outcome)
    bits = "".join(str((outcome >> i) & 1) for i in range(len(qubits)))
    return bits, collapsed


def add_ancillas(state: StateVector, count: int, value: int = 0,
                 *, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """Append ``count`` fresh qubits at the high end, prepared in ``|value>``."""
    if count < 0:
        raise SemanticError("ancilla count must be non-negative")
    if count == 0:
        return state.copy()
    n = state.n_qubits + count
    _check_budget(n, max_qubits)
    if not 0 <= value < 2**count:
        raise SemanticError(f"ancilla value {value} out of range for {count} qubits")
    amps = np.zeros(2**n, dtype=complex)
    base = value << state.n_qubits
    amps[base:base + state.dim] = state.amplitudes
    return StateVector(amps, copy=False)


def drop_qubits(state: StateVector, qubits, *, expect_zero: bool = True) -> StateVector:
    """Remove qubits that are in |0> across the entire support.

    This is how detached registers leave the simulation; it refuses to drop a
    qubit that still carries amplitude on |1>. With ``expect_zero=False`` the
    rest is renormalized, or ZeroProbabilityError raised if it is numerically zero.
    """
    qubits = sorted(set(qubits), reverse=True)
    amps = state.amplitudes
    n = state.n_qubits
    for q in qubits:
        if not 0 <= q < n:
            raise SemanticError(f"qubit {q} out of range")
        arr = amps.reshape(-1, 2 ** (q + 1))
        hi = arr[:, 2**q:]
        if expect_zero and np.max(np.abs(hi)) > STATE_TOL:
            raise SemanticError(f"qubit {q} is not in |0>; refusing to drop it")
        amps = arr[:, :2**q].reshape(-1)
        n -= 1
    nrm = np.linalg.norm(amps)
    if nrm * nrm < PROJECTION_ZERO_TOL:
        raise ZeroProbabilityError(f"kept qubits carry probability {nrm * nrm:.3e}")
    return StateVector(amps / nrm, copy=False)


@dataclass(frozen=True)
class EntanglementReport:
    """Schmidt data for a bipartition of a pure state."""

    schmidt_coefficients: tuple[float, ...]
    schmidt_rank: int
    entropy_bits: float
    purity: float

    @property
    def entangled(self) -> bool:
        return self.schmidt_rank > 1


def schmidt(state: StateVector, qubits) -> EntanglementReport:
    """Schmidt decomposition across the bipartition (``qubits`` | rest).

    Coefficients are returned in descending order, min(2^|A|, 2^|B|) of
    them; the rank counts coefficients above 1e-9; entropy is in bits;
    purity is that of the reduced state on either side.

    One pass over the amplitude matrix finds its nonzero rows. Their columns
    come from a copy of those rows when that copy is no larger than a
    boolean mask over the matrix would be, and from a scan of the whole
    matrix otherwise, so no temporary outgrows such a mask. The SVD runs on
    the nonzero rows and columns only, so its cost follows the state's
    support rather than 2^n. Deleting all-zero rows and columns leaves every
    nonzero singular value unchanged; the coefficients it drops are exact
    zeros and are padded back.
    """
    sub = sorted(set(qubits))
    n = state.n_qubits
    if not sub or len(sub) == n:
        raise SemanticError("bipartition needs a proper non-empty qubit subset")
    for q in sub:
        if not 0 <= q < n:
            raise SemanticError(f"qubit {q} out of range")
    rest = [q for q in range(n) if q not in sub]
    tensor = state.amplitudes.reshape([2] * n)
    # axis n-1-q corresponds to qubit q
    order = [n - 1 - q for q in reversed(sub)] + [n - 1 - q for q in reversed(rest)]
    mat = tensor.transpose(order).reshape(2 ** len(sub), 2 ** len(rest))
    rows = mat.any(axis=1)
    if np.count_nonzero(rows) * mat.itemsize <= rows.size:
        # few rows: copying them takes no more bytes than a mask over mat
        core = mat[rows]
        cols = core.any(axis=0)
        if not cols.all():
            core = core[:, cols]
    else:
        cols = mat.any(axis=0)
        core = mat if rows.all() and cols.all() else mat[np.ix_(rows, cols)]
    coeffs = np.zeros(min(mat.shape))
    coeffs[:min(core.shape)] = np.linalg.svd(core, compute_uv=False)
    lam2 = coeffs**2
    lam2 = lam2 / lam2.sum()
    rank = int(np.sum(coeffs > SCHMIDT_CUTOFF))
    nz = lam2[lam2 > 0]
    entropy = float(-np.sum(nz * np.log2(nz)))
    purity = float(np.sum(lam2**2))
    return EntanglementReport(tuple(float(c) for c in coeffs), rank, entropy, purity)
