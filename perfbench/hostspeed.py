"""Fixed reference kernels that gauge how fast the host runs right now.

The benchmark's host shares its cores, caches and memory bandwidth with
other machines, and its speed drifts by a quarter and more over minutes (see
NOTES.md). A run times its workload's kernel between sessions and scales its
op times by ``nominal_s / median kernel pass``, so they read as times on a
host where the kernel's median pass takes ``nominal_s``. The kernels use no
qdbsim code: a change to the library never changes them.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

BITS = 19  # as write_heavy's writes: an 8 MiB state


def _interpreter_work():
    """Tuples, strings, list copies and dict updates, as in the circuit
    history code."""
    history: list = []
    for i in range(40_000):
        history.append((i, i * i % 7, str(i)))
        if len(history) > 500:
            history = list(history[250:])
    counts: dict[int, int] = {}
    for i in range(40_000):
        counts[i % 997] = counts.get(i % 997, 0) + 1


def _numpy_work():
    """Index gathers and scatters on a 19-qubit state, the pattern of
    ``statevector.apply_gate``."""
    for t in range(3, 9):
        amps = np.full(1 << BITS, 2 ** (-BITS / 2), dtype=complex)
        idx = np.arange(amps.size)
        i0 = idx[((idx >> t) & 1) == 0]
        i1 = i0 | (1 << t)
        a0, a1 = amps[i0], amps[i1]
        amps[i0] = 0.6 * a0 + 0.8 * a1
        amps[i1] = 0.8 * a0 - 0.6 * a1


def _timed(*parts: Callable[[], None]) -> Callable[[], float]:
    def one_pass() -> float:
        t0 = time.perf_counter()
        for part in parts:
            part()
        return time.perf_counter() - t0
    return one_pass


class Kernel(NamedTuple):
    one_pass: Callable[[], float]  # runs the work once, returns its seconds
    nominal_s: float  # its median pass on the measuring host, rounded


INTERPRETER = Kernel(_timed(_interpreter_work), 0.015)
# about a sixth interpreter work, the rest numpy
MIXED = Kernel(_timed(_interpreter_work, _numpy_work), 0.1)
