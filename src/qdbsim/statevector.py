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
* A gate's slices are taken from the ``(2,)*n`` view of the amplitudes, in
  which axis ``n-1-q`` is qubit ``q``, by one selector, ``_slot``: the
  slice on which some wires read one pattern. A gate (every kind but rot2,
  which names two basis indices) reads its controls then its targets as
  one pattern, so it reads and writes only the slots its controls select;
  the norm check is taken over those slots too. An entry's branch is not a
  slot: ``qdb._entry`` selects it from the amplitudes reshaped by the
  runs of the database's registers, one axis per run.
* Amplitudes move without arithmetic, and every amplitude (signed zeros
  included) keeps its bits, so a move skips the norm check, which a
  permutation cannot fail. Two slots trade places (``_exchange``) for an
  ``x`` or a ``swap`` in ``apply_gate`` and for the halves of a large
  pattern (``_trade_halves``). ``move_amplitudes`` moves a table in place:
  on a control set C, pattern p with free bits f goes to free bits
  f XOR T[p], every pattern staying put; it serves ``simulate``'s
  data-write records. ``qdb.permute`` trades entry branches and
  ``qdb.write``'s fold moves one branch by one word, the same way.
* State equality is judged up to global phase by default.

The default qubit budget is 26; anything above that is rejected rather than
silently thrashing memory.
"""

from __future__ import annotations

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


def _control_pattern(controls) -> int:
    """The pattern a gate's ``(qubit, bit)`` controls read, bit j from
    ``controls[j]``."""
    return sum(bit << j for j, (_, bit) in enumerate(controls))


def _register_scan(state: StateVector, qubits, pattern: int | None = None) -> np.ndarray:
    """One pass over the ``(2,)*n`` view of a state, keyed by the pattern a
    register reads (``qubits[i]`` holds bit i of a pattern).

    Without ``pattern``, returns the register's probability table: entry p is
    the probability that the register reads p (the other axes summed out).
    With ``pattern``, returns the boolean mask over basis indices at which
    the register reads it.
    """
    n = state.n_qubits
    if pattern is not None:
        mask = np.zeros((2,) * n, dtype=bool)
        _slot(mask, qubits, pattern)[...] = True
        return mask.reshape(-1)
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
    slot with its target set, else the target's slots clear then set), given
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
    if kind == "rot2":
        amps = out.amplitudes
        views = [amps[int(i):int(i) + 1] for i in gate.params[:2]]
    else:
        # the controls, then the targets, read as one pattern: slot ``one``
        # sets the first target, slot ``pattern`` clears it
        tensor = out.amplitudes.reshape((2,) * n)
        wires = gate.qubits[len(gate.targets):] + gate.targets
        pattern = _control_pattern(gate.controls)
        one = pattern | 1 << len(gate.controls)
        if kind == "x" or kind == "swap":
            # an x trades slot ``one`` with slot ``pattern``, a swap with the
            # second target set instead
            _exchange(tensor, wires, one,
                      pattern if kind == "x" else pattern | 2 << len(gate.controls))
            return out
        views = ([_slot(tensor, wires, one)] if kind == "phase"
                 else [_slot(tensor, wires, pattern), _slot(tensor, wires, one)])
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


_MOVE_CHUNK = 1 << 17  # amplitudes gathered at once by move_amplitudes


def move_amplitudes(state: StateVector, wires, sources, targets, masks) -> None:
    """Move amplitudes of ``state`` in place, with no arithmetic: every
    amplitude on pattern ``sources[i]`` of the qubits ``wires`` (bit j on
    ``wires[j]``), with free bits f, goes to free bits f XOR ``masks[i]``
    (bit q flips qubit q, which is not a wire). Each pattern stays in place
    (``targets`` equal to ``sources``; anything else is a SemanticError),
    and patterns not named stay put. Every amplitude keeps its bits, and no
    index array spans the state.

    ``circuit.simulate`` moves a data-write record's table this way: the
    patterns are gathered, reordered by their masks and put back in chunks
    of at most ``_MOVE_CHUNK`` amplitudes. A pattern larger than a chunk
    instead trades the halves of its slice, split on the mask's highest
    qubit, one read reversed along the mask's other qubits, through one
    half-slice temporary (``_trade_halves``).

    The three tables are sequences of one type: tuples or lists of Python
    ints, or numpy arrays, one array passed as both ``sources`` and
    ``targets``.
    """
    n = state.n_qubits
    # one array passed as both is not compared with itself
    if sources is not targets and sources != targets:
        raise SemanticError("an in-place move keeps every pattern in place")
    masks = np.asarray(masks, dtype=np.int64)
    moving = masks != 0
    patterns, masks = np.asarray(sources, dtype=np.int64)[moving], masks[moving]
    step = _MOVE_CHUNK >> (n - len(wires))  # patterns moved per gather
    if not step:
        tensor = state.amplitudes.reshape((2,) * n)
        for pattern, mask in zip(patterns.tolist(), masks.tolist()):
            _trade_halves(tensor, wires, pattern, mask)
        return
    # Axes of the (2,)*n view, highest qubit first: each block of consecutive
    # qubits in ``wires`` becomes one axis, indexed by the pattern bits it
    # holds (``bits[i]`` on its i-th lowest qubit); every other qubit keeps
    # its own axis. The blocks then go first, so a pattern's amplitudes are
    # the free axes, flattened highest qubit first.
    bit_of = {q: j for j, q in enumerate(wires)}
    shape, blocks, free = [], [], []
    q = n - 1
    while q >= 0:
        top = q
        while q in bit_of and q - 1 in bit_of:
            q -= 1
        if top in bit_of:
            blocks.append((len(shape), [bit_of[p] for p in range(q, top + 1)]))
            shape.append(1 << (top - q + 1))
        else:
            free.append((len(shape), q))
            shape.append(2)
        q -= 1
    # each mask on the flattened free axes
    flat = np.zeros_like(masks)
    for i, (_, q) in enumerate(free):
        flat |= ((masks >> q) & 1) << (len(free) - 1 - i)
    view = state.amplitudes.reshape(shape).transpose(
        [axis for axis, _ in blocks] + [axis for axis, _ in free])
    size = 1 << len(free)
    for lo in range(0, patterns.size, step):
        chunk = patterns[lo:lo + step]
        index = tuple(_block_index(chunk, bits) for _, bits in blocks)
        held = view[index]
        source = np.arange(size) ^ flat[lo:lo + step, None]
        view[index] = np.take_along_axis(
            held.reshape(chunk.size, size), source, axis=1).reshape(held.shape)


_WHOLE, _REVERSED = slice(None), slice(None, None, -1)


def _slot(tensor: np.ndarray, wires, pattern: int, mask: int = 0) -> np.ndarray:
    """The slice of the ``(2,)*n`` view ``tensor`` on which ``wires`` read
    ``pattern``, reversed along each qubit of ``mask``: what is written at
    free bits f of it lands at f XOR mask."""
    n = tensor.ndim
    idx = [_WHOLE] * n
    for j, q in enumerate(wires):
        idx[n - 1 - q] = (pattern >> j) & 1
    while mask:
        low = mask & -mask
        idx[n - low.bit_length()] = _REVERSED
        mask ^= low
    # the Ellipsis keeps a view when every axis is fixed: a plain all-integer
    # index would return a scalar copy, and writes to it would be lost
    idx.append(Ellipsis)
    return tensor[tuple(idx)]


def _exchange(tensor: np.ndarray, wires, one: int, two: int, mask: int = 0) -> None:
    """Trade the slices of the ``(2,)*n`` view ``tensor`` on which
    ``wires`` read patterns ``one`` and ``two``, the second reversed along
    each qubit of ``mask``, through one temporary the size of a slice: two
    slot selections (``_slot``) per trade. ``apply_gate``'s ``x`` and
    ``swap`` and ``_trade_halves`` move this way."""
    first = _slot(tensor, wires, one)
    second = _slot(tensor, wires, two, mask)
    held = first.copy()
    # a ufunc's out= copies in place where a plain assignment between
    # interleaved slices would first copy its source whole
    np.positive(second, out=first)
    second[...] = held


def _trade_halves(tensor: np.ndarray, wires, pattern: int, mask: int) -> None:
    """One pattern that stays in place, moved by ``mask``: the halves of its
    slice, split on the mask's highest qubit, trade places, the lower one
    reversed along the other qubits."""
    if not mask:
        return
    top = mask.bit_length() - 1
    # the highest mask qubit read as one more wire
    _exchange(tensor, (*wires, top), pattern | 1 << len(wires), pattern, mask ^ 1 << top)


def _block_index(patterns: np.ndarray, bits: list[int]) -> np.ndarray:
    """Each pattern's index on a merged axis whose i-th lowest qubit holds
    pattern bit ``bits[i]``."""
    if bits == list(range(bits[0], bits[0] + len(bits))):
        return (patterns >> bits[0]) & ((1 << len(bits)) - 1)
    return sum(((patterns >> j) & 1) << i for i, j in enumerate(bits))


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
    marginal = marginal / marginal.sum()
    outcome = int(rng.choice(len(marginal), p=marginal))
    collapsed, _ = project(state, _register_scan(state, qubits, outcome))
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
    qubit that still carries amplitude on |1>.
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
