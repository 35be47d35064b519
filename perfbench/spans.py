"""Span tracing of qdbsim's layers from outside the library.

The tracer wraps the public functions of each layer module (plus the few
private or method entry points named in ``EXTRA_TARGETS``) and records one
span per call: name, start, end, parent span and the benchmark's op id.
Functions are looked up by identity in every loaded ``qdbsim`` module, so a
name a module imported from another (``qdbsim.circuit.apply_gate``,
``qdbsim.extend._grow``) is patched as well. ``uninstall`` restores every
original object. No library source is touched.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# Layer modules on the timed path. ``gates`` only supplies matrices inside
# the kernel; ``oracle``, ``verify``, ``errors`` and ``tolerances`` are off it.
LAYERS = ("statevector", "circuit", "qdb", "extend", "text_format", "cli", "dumps")

# (module, class or None, attribute, span name) beyond the public functions.
EXTRA_TARGETS = (
    ("qdb", None, "_grow", "qdb.history"),
    ("qdb", "QdbState", "check", "qdb.check"),
    ("qdb", "QdbState", "occupied_labels", "qdb.occupied_labels"),
    ("qdb", "QdbState", "emit", "qdb.emit"),
    ("circuit", "Circuit", "__post_init__", "circuit.validate"),
    ("circuit", "Circuit", "__add__", "circuit.build"),
    ("circuit", "Circuit", "extended", "circuit.build"),
    ("circuit", "Circuit", "inverse", "circuit.build"),
    ("circuit", "Circuit", "remapped", "circuit.build"),
    ("circuit", "Circuit", "controlled", "circuit.build"),
)

GATE_KINDS = ("x", "ry", "y", "ytilde", "h", "phase", "swap", "rot2")
WIDTH_BUCKETS = ((0, 12, "q00-12"), (13, 16, "q13-16"), (17, 20, "q17-20"), (21, 26, "q21-26"))
CONTROL_BUCKETS = ((0, 0, "c0"), (1, 3, "c1-3"), (4, 8, "c4-8"), (9, 10**6, "c9p"))

QDB_OPS = ("prepare_general", "write", "read_copy", "read_projective",
           "remove_reservoir", "remove_projective", "permute")


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    op: int
    attrs: tuple | None  # apply_gate: (kind, n_qubits, n_controls)


def _bucket(value: int, buckets) -> str:
    for lo, hi, label in buckets:
        if lo <= value <= hi:
            return label
    raise ValueError(f"{value} falls in no bucket")


class Tracer:
    """Records spans and counters while installed and enabled."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.peak_qubits = 0
        self.overhead_s = 0.0  # time spent in the wrappers' own bookkeeping
        self.enabled = True
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def close(self, sid: int, name: str, start: float, end: float, attrs):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = Span(sid, name, start, end, parent, self.op, attrs)

    def _wrap(self, fn, name: str, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            sid = tracer.open()
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                attrs = hook(tracer, args, result, error) if hook is not None else None
                tracer.close(sid, name, start, end, attrs)
                tracer.overhead_s += (start - entered) + (time.perf_counter() - end)

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr: str, new):
        old = owner.__dict__[attr]
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, wrapper):
        """Replace every module-level reference to ``original`` in qdbsim."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qdbsim" or mod_name.startswith("qdbsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            mod = importlib.import_module(f"qdbsim.{layer}")
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fname.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fname}"
                self._patch_everywhere(fn, self._wrap(fn, name, HOOKS.get(name)))
        for layer, cls_name, attr, span_name in EXTRA_TARGETS:
            mod = importlib.import_module(f"qdbsim.{layer}")
            hook = HOOKS.get(span_name)
            if cls_name is None:
                fn = getattr(mod, attr)
                self._patch_everywhere(fn, self._wrap(fn, span_name, hook))
            else:
                cls = getattr(mod, cls_name)
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], span_name, hook))
        self._install_preflight()

    def _install_preflight(self):
        """The transfer preflight re-simulates the preparation circuit from
        |0...0> and compares it with the live state. In ``qdbsim.extend`` it
        is the only call of ``simulate`` without a start state and the only
        call of ``states_equal``."""
        ext = sys.modules["qdbsim.extend"]
        sim, eq = ext.simulate, ext.states_equal
        preflight = self._wrap(sim, "extend.preflight")

        def preflight_simulate(circuit, state=None, **kwargs):
            return (preflight if state is None else sim)(circuit, state, **kwargs)

        self._patch(ext, "simulate", preflight_simulate)
        self._patch(ext, "states_equal", self._wrap(eq, "extend.preflight"))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def records(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)


# -- hooks: counters taken where the work happens -------------------------

def _apply_gate_hook(tracer, args, result, exc):
    state, gate = args[0], args[1]
    n = state.n_qubits
    tracer.peak_qubits = max(tracer.peak_qubits, n)
    tracer.counts["statevector.apply_gate.bytes_computed"] += 16 * 2**n
    return (gate.kind, n, len(gate.controls))


def _add_ancillas_hook(tracer, args, result, exc):
    if result is not None:
        tracer.peak_qubits = max(tracer.peak_qubits, result.n_qubits)


def _simulate_hook(tracer, args, result, exc):
    tracer.counts["circuit.gates_simulated"] += len(args[0].gates)


def _validate_hook(tracer, args, result, exc):
    tracer.counts["circuit.gates_validated"] += len(args[0].gates)


def _grow_hook(tracer, args, result, exc):
    if result is not None:
        tracer.counts["qdb.history_gates"] += len(result.gates)


def _plan_hook(tracer, args, result, exc):
    if result is not None:
        tracer.counts["extend.plan_steps"] += result.m + 1


def _emit_hook(tracer, args, result, exc):
    if result is not None:
        tracer.counts["text_format.emit_bytes"] += len(result.encode())


HOOKS = {
    "statevector.apply_gate": _apply_gate_hook,
    "statevector.add_ancillas": _add_ancillas_hook,
    "circuit.simulate": _simulate_hook,
    "circuit.validate": _validate_hook,
    "qdb.history": _grow_hook,
    "extend.plan_transfer": _plan_hook,
    "text_format.emit_text": _emit_hook,
}


# -- arithmetic over a finished span set ----------------------------------

def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - covered[s.sid] for s in spans}


def inclusive_times(spans) -> dict[str, float]:
    """Per name, total duration of spans with no same-named ancestor, so a
    recursive or re-entered layer is not counted twice."""
    by_id = {s.sid: s for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        p = s.parent
        while p >= 0 and by_id[p].name != s.name:
            p = by_id[p].parent
        if p < 0:
            out[s.name] += s.end - s.start
    return out


def layer_metrics(spans, counts, peak_qubits: int) -> dict[str, float]:
    """Per-layer metric values (without the ``trace.*`` entries)."""
    counts = Counter(counts)
    selfs = self_times(spans)
    incl = inclusive_times(spans)
    calls: Counter = Counter(s.name for s in spans)
    self_by_name: dict[str, float] = defaultdict(float)
    gate_split: dict[str, float] = defaultdict(float)
    for s in spans:
        self_by_name[s.name] += selfs[s.sid]
        if s.name == "statevector.apply_gate" and s.attrs:
            kind, n, nctrl = s.attrs
            t = selfs[s.sid]
            gate_split[kind] += t
            gate_split[_bucket(n, WIDTH_BUCKETS)] += t
            gate_split[_bucket(nctrl, CONTROL_BUCKETS)] += t

    m: dict[str, float] = {}
    ag = "statevector.apply_gate"
    m[f"{ag}.calls"] = calls[ag]
    m[f"{ag}.self_s"] = self_by_name[ag]
    for label in GATE_KINDS + tuple(b[2] for b in WIDTH_BUCKETS + CONTROL_BUCKETS):
        m[f"{ag}.{label}.s"] = gate_split[label]
    m[f"{ag}.bytes_computed"] = counts["statevector.apply_gate.bytes_computed"]

    m["circuit.simulate.calls"] = calls["circuit.simulate"]
    m["circuit.simulate.self_s"] = self_by_name["circuit.simulate"]
    m["circuit.gates_simulated"] = counts["circuit.gates_simulated"]
    m["circuit.build.self_s"] = self_by_name["circuit.build"]
    m["circuit.validate.s"] = incl["circuit.validate"]
    m["circuit.gates_validated"] = counts["circuit.gates_validated"]
    simulated = counts["circuit.gates_simulated"]
    m["circuit.validated_per_simulated"] = (
        counts["circuit.gates_validated"] / simulated if simulated else 0.0)

    m["qdb.history.s"] = incl["qdb.history"]
    m["qdb.history_gates"] = counts["qdb.history_gates"]
    for op in QDB_OPS:
        m[f"qdb.{op}.calls"] = calls[f"qdb.{op}"]
        m[f"qdb.{op}.self_s"] = self_by_name[f"qdb.{op}"]
    m["qdb.occupied_labels.s"] = incl["qdb.occupied_labels"]
    m["qdb.check.s"] = incl["qdb.check"]

    m["extend.plan_transfer.calls"] = calls["extend.plan_transfer"]
    m["extend.plan_transfer.s"] = incl["extend.plan_transfer"]
    m["extend.plan_steps"] = counts["extend.plan_steps"]
    m["extend.preflight.s"] = incl["extend.preflight"]
    m["extend.transfer.self_s"] = self_by_name["extend.transfer"]
    m["extend.unfold.self_s"] = self_by_name["extend.unfold"]

    for fn in ("schmidt", "project", "add_ancillas", "drop_qubits"):
        m[f"statevector.{fn}.s"] = incl[f"statevector.{fn}"]
    m["statevector.peak_qubits"] = peak_qubits

    m["cli.parse_script.s"] = incl["cli.parse_script"]
    m["cli.dry_run.s"] = incl["cli.dry_run"]
    m["cli.run_script.self_s"] = self_by_name["cli.run_script"]
    m["text_format.emit_text.s"] = incl["text_format.emit_text"]
    m["text_format.emit_bytes"] = counts["text_format.emit_bytes"]
    m["dumps.dump_records.s"] = incl["dumps.dump_records"]
    return m


def covered_time(spans) -> float:
    """Wall time inside any traced span (the sum of all self times)."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
