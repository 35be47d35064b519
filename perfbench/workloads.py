"""The two benchmark workloads: seeded inputs, sessions and their checks.

Every input comes from ``random.Random`` keyed on the workload name and the
seed; qdbsim only ever sees the generated values. A session runs one
workload's inputs once and returns its op latencies and counts. Correctness
checks run with the session clock and the tracer paused, so they are never
timed as ops; a failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import qdbsim as q
from qdbsim import cli, dumps

import hostspeed

CLOSED_FORM_TOL = 1e-9


class CheckFailed(Exception):
    """An output of qdbsim disagreed with its closed form."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class SessionResult:
    session_s: float
    latencies: list[float]
    gates_appended: int  # by the session's ops
    fingerprint: str  # deterministic content: equal across sessions of one seed
    artifact_bytes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


@dataclass
class Recorder:
    """Session clock plus per-op timer; both stop while checks run."""

    tracer: object = None
    latencies: list[float] = field(default_factory=list)
    gates: int = 0
    artifact_bytes: int = 0
    _start: float = 0.0
    _paused: float = 0.0

    def begin(self):
        self._start = time.perf_counter()
        self._paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused

    @contextlib.contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
            self._paused += time.perf_counter() - t0

    def op(self, fn, *args):
        """Run one library op and time it. No op of these workloads is
        expected to fail: an exception propagates and fails the run."""
        if self.tracer is not None:
            self.tracer.op = len(self.latencies)
        t0 = time.perf_counter()
        result = fn(*args)
        self.latencies.append(time.perf_counter() - t0)
        return result

    def db_op(self, fn, db, *args):
        """An op returning a new database; counts the gates it appended."""
        new = self.op(fn, db, *args)
        self.gates += len(new.circuit) - len(db.circuit)
        return new

    def result(self, fingerprint: str) -> SessionResult:
        return SessionResult(self.elapsed(), self.latencies, self.gates,
                             fingerprint, self.artifact_bytes)


def balanced_word(rng: random.Random, m: int) -> int:
    """A data word with m // 2 of its m bits set. Writes and preparations
    simulate one gate per set bit, so fixing the weight keeps a seed from
    changing the amount of work, only which bits and entries are touched."""
    return sum(1 << b for b in rng.sample(range(m), max(1, m // 2)))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# closed forms shared by the checks


@dataclass
class Model:
    """What a standard database should hold: k, l and each label's word."""

    k: int
    l: int
    words: dict[int, int]  # label -> data word, every live label present

    def weight(self, label: int) -> float:
        return (self.l + 1 if label == 0 else 1) / (self.k + self.l)

    def schmidt_data(self) -> tuple[int, float]:
        """Schmidt rank and purity across (data register | rest): entries
        sharing a word collapse onto one Schmidt vector."""
        by_word: dict[int, float] = {}
        for label, word in self.words.items():
            by_word[word] = by_word.get(word, 0.0) + self.weight(label)
        return len(by_word), sum(w * w for w in by_word.values())

    def check_db(self, db, what: str):
        expect(db.k == self.k and db.l == self.l,
               f"{what}: (k, l) = ({db.k}, {db.l}), expected ({self.k}, {self.l})")
        expect(set(db.layout.labels) == set(self.words), f"{what}: label set differs")
        for label, word in self.words.items():
            expect(db.descriptor.data_value(label) == word,
                   f"{what}: entry {label} holds {db.descriptor.data_value(label)}, "
                   f"expected {word}")
        try:
            db.check()
        except q.VerificationError as exc:
            raise CheckFailed(f"{what}: QdbState.check failed: {exc}") from None


# ---------------------------------------------------------------------------
# write_heavy: library session on k=128, m=6 (13 qubits, writes on 19)

WRITE_HEAVY = {"full": dict(k=128, m=6, writes=8, grow=8),
               "tiny": dict(k=8, m=2, writes=4, grow=2)}


def write_heavy_inputs(seed: int, size: str = "full") -> dict:
    p = WRITE_HEAVY[size]
    k, m = p["k"], p["m"]
    rng = random.Random(f"write_heavy:{seed}")
    data = {j: balanced_word(rng, m) for j in range(1, k)}
    writes = [(rng.randrange(1, k), balanced_word(rng, m)) for _ in range(p["writes"])]
    words = dict(data)
    for j, word in writes:
        words[j] ^= word
    grown = k + p["grow"]
    swap_a, swap_b = rng.sample(range(1, grown), 2)
    # The removed and the copied entry hold data, so every seed's removal runs
    # its internal write and every copy-read is entangled: same work per seed.
    removed, read_label = rng.sample(
        [j for j in range(1, k) if words[j] and j not in (swap_a, swap_b)], 2)
    proj_label = rng.choice([j for j in range(1, grown) if j not in (removed, read_label)])
    return dict(k=k, m=m, data=data, writes=writes, grow=p["grow"],
                swap=(swap_a, swap_b), removed=removed, read_label=read_label,
                proj_label=proj_label)


def prepare_setup(inp: dict):
    return q.prepare_general(inp["k"], 0, inp["data"], m_data=inp["m"])


def write_heavy_session(inp: dict, db, work_dir: Path, rec: Recorder) -> SessionResult:
    """XOR writes with a read after every second one (alternately an
    amplitude dump and a Schmidt report on the data register), then extend,
    permute, remove, emit, a copy-read with its Schmidt report and a
    projective removal. Writes stay the majority of ops, so the median op is
    a write."""
    model = Model(inp["k"], 0, {j: inp["data"].get(j, 0) for j in range(inp["k"])})
    checks = []
    rec.begin()
    for i, (label, word) in enumerate(inp["writes"]):
        db = rec.db_op(q.write, db, label, word)
        with rec.untimed():
            model.words[label] ^= word
        if i % 4 == 1:
            records = rec.op(dumps.dump_records, db)
            with rec.untimed():
                _check_dump(records, model)
        elif i % 4 == 3:
            report = rec.op(q.schmidt, db.state, db.layout.data_qubits)
            with rec.untimed():
                rank, purity = model.schmidt_data()
                expect(report.schmidt_rank == rank,
                       f"data Schmidt rank {report.schmidt_rank}, expected {rank}")
                expect(abs(report.purity - purity) < CLOSED_FORM_TOL,
                       f"data purity {report.purity}, expected {purity}")
                checks.append(report.schmidt_rank)

    db = rec.db_op(q.extend, db, inp["grow"])
    with rec.untimed():
        start = max(model.words) + 1
        model.words.update({j: 0 for j in range(start, start + inp["grow"])})
        model.k += inp["grow"]
        model.check_db(db, "after extend")

    a, b = inp["swap"]
    db = rec.db_op(q.permute, db, {a: b, b: a})
    with rec.untimed():
        model.words[a], model.words[b] = model.words[b], model.words[a]

    db = rec.db_op(q.remove_reservoir, db, inp["removed"])
    with rec.untimed():
        del model.words[inp["removed"]]
        model.k, model.l = model.k - 1, model.l + 1

    text = rec.op(db.emit)
    with rec.untimed():
        gate_lines = sum(1 for line in text.splitlines()
                         if not line.startswith(("qubits", "label")))
        expect(gate_lines == len(db.circuit), "emitted text drops gates")
        model.check_db(db, "final bare state")

    label = inp["read_label"]
    copied = rec.db_op(q.read_copy, db, label)
    report = rec.op(q.schmidt, copied.state, copied.copy_qubits)
    with rec.untimed():
        p = model.weight(label)  # the copied word is nonzero: rank 2
        expect(report.schmidt_rank == 2, f"copy-read Schmidt rank {report.schmidt_rank}")
        want = p * p + (1 - p) ** 2
        expect(abs(report.purity - want) < CLOSED_FORM_TOL,
               f"copy-read purity {report.purity}, expected {want}")

    outcome = rec.op(q.remove_projective, db, inp["proj_label"])
    with rec.untimed():
        want = 1.0 - model.weight(inp["proj_label"])
        expect(abs(outcome.success_probability - want) < CLOSED_FORM_TOL,
               f"projective success probability {outcome.success_probability}, "
               f"expected {want}")
        checks.append(round(outcome.success_probability, 12))
        fingerprint = _digest([rec.gates, checks, sorted(model.words.items())])
    return rec.result(fingerprint)


def _check_dump(records, model: Model):
    expect(len(records) == len(model.words),
           f"dump lists {len(records)} amplitudes, expected {len(model.words)}")
    want = sorted(math.sqrt(model.weight(j)) for j in model.words)
    got = sorted(math.hypot(r["re"], r["im"]) for r in records)
    expect(all(abs(g - w) < CLOSED_FORM_TOL for g, w in zip(got, want)),
           "dump amplitudes differ from the closed form")


# ---------------------------------------------------------------------------
# script_long: an op script through the CLI, in-process

SCRIPT_LONG = {"full": dict(k=16, m=4, commands=400, removes=3),
               "tiny": dict(k=8, m=2, commands=60, removes=2)}
WRITE_SHARE = 0.72  # of the filler commands; the rest are permutes


def script_long_inputs(seed: int, size: str = "full") -> dict:
    """A script of writes and permutes with a dump every 100 commands; a few
    reservoir removals in the first half are refunded by one extend, so the
    register grows by exactly one index qubit. It ends with emit, one
    projective removal and a final dump."""
    p = SCRIPT_LONG[size]
    k, m, n = p["k"], p["m"], p["commands"]
    rng = random.Random(f"script_long:{seed}")
    data = {j: balanced_word(rng, m) for j in sorted(rng.sample(range(1, k), k // 2))}
    words = {j: data.get(j, 0) for j in range(k)}
    patterns = {j: j for j in range(k)}
    kt = max(1, math.ceil(math.log2(k)))
    half = n // 2
    remove_at = sorted(rng.sample(range(10, half - 10), p["removes"]))
    extend_at = half

    def bits(word: int) -> str:
        return format(word, f"0{m}b")

    lines = ["prepare k=%d m=%d data=%s" % (
        k, m, ",".join(f"{j}:{bits(w)}" for j, w in data.items()))]
    removed = 0
    for i in range(1, n - 3):
        live = sorted(j for j in words if j)
        if i == extend_at:
            start = max(words) + 1
            for t in range(removed):
                words[start + t] = 0
                patterns[start + t] = (1 << kt) + t
            kt += 1
            lines.append(f"extend l={removed}")
        elif i in remove_at:
            j = rng.choice(live)
            del words[j], patterns[j]
            removed += 1
            lines.append(f"remove j={j} mode=reservoir")
        elif i % 100 == 0:
            lines.append("dump")
        elif rng.random() < WRITE_SHARE:
            j, word = rng.choice(live), balanced_word(rng, m)
            words[j] ^= word
            lines.append(f"write j={j} d={bits(word)}")
        else:
            a, b = rng.sample(live, 2)
            words[a], words[b] = words[b], words[a]
            lines.append(f"permute map={a}:{b},{b}:{a}")
    gone = rng.choice(sorted(j for j in words if j))
    del words[gone], patterns[gone]
    lines += ["emit", f"remove j={gone} mode=projective", "dump"]
    expected = sorted((format(patterns[j], f"0{kt}b"), bits(words[j])) for j in words)
    return dict(k=k, m=m, seed=seed, data=data, text="\n".join(lines) + "\n",
                commands=len(lines), final_entries=expected)


def cli_seed(seed: int, text: str) -> int:
    """The first CLI seed at or after ``seed`` whose projective removal takes
    the success branch (the dry run draws the same outcome as the run), so the
    final dump has a database to list."""
    steps = cli.parse_script(text)
    for cli_seed in range(seed, seed + 1000):
        try:
            cli.dry_run(steps, seed=cli_seed, script_dir=Path("."))
        except q.SemanticError:
            continue
        return cli_seed
    raise CheckFailed("no CLI seed keeps the database after the projective removal")


class _StampedWriter(io.TextIOBase):
    """Captured stdout that notes when each line ends: the CLI prints one
    line per finished command, so the gaps are per-command latencies. Each
    line also advances the tracer's op id to the next command."""

    def __init__(self, tracer=None):
        self.stamps: list[float] = []
        self.tracer = tracer

    def write(self, text: str) -> int:
        for _ in range(text.count("\n")):
            self.stamps.append(time.perf_counter())
            if self.tracer is not None:
                self.tracer.op += 1
        return len(text)


def script_long_session(inp: dict, db, work_dir: Path, rec: Recorder) -> SessionResult:
    with rec.untimed():
        work_dir.mkdir(parents=True, exist_ok=True)
        script = work_dir / "long.qdb"
        script.write_text(inp["text"])
        out = Path(tempfile.mkdtemp(prefix="out-", dir=work_dir))
        seed = cli_seed(inp["seed"], inp["text"])
    out_sub = out / "artifacts"
    argv = ["run", str(script), "--seed", str(seed), "--out", str(out_sub)]
    writer = _StampedWriter(rec.tracer)
    if rec.tracer is not None:
        rec.tracer.op = 0
    rec.begin()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(writer):
        code = cli.main(argv)
    with rec.untimed():
        try:
            expect(code == 0, f"qdbsim run exited with {code}")
            expect(len(writer.stamps) == inp["commands"] + 1,
                   f"{len(writer.stamps)} output lines for {inp['commands']} commands")
            ends = [t0] + writer.stamps[:-1]
            rec.latencies.extend(b - a for a, b in zip(ends, ends[1:]))
            artifacts = sorted(out_sub.iterdir())
            circuit = next(p for p in artifacts if p.name.endswith("-circuit.txt"))
            rec.gates = sum(1 for line in circuit.read_text().splitlines()
                            if not line.startswith(("qubits", "label")))
            _check_final_dump(json.loads(artifacts[-1].read_text()), inp["final_entries"])
            fingerprint = _digest([(p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                                   for p in artifacts])
            rec.artifact_bytes = sum(p.stat().st_size for p in artifacts)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return rec.result(fingerprint)


def _check_final_dump(records, expected):
    got = []
    for r in records:
        fields = dict(part.split("=") for part in r["bits"].split())
        got.append((fields["I"], fields["D"]))
    expect(sorted(got) == expected, "final dump entries differ from the script's model")
    want = 1.0 / math.sqrt(len(expected))
    amps = [complex(r["re"], r["im"]) for r in records]
    expect(all(abs(abs(a) - want) < CLOSED_FORM_TOL for a in amps),
           "final dump moduli differ from 1/sqrt(k)")
    ref = amps[0] / abs(amps[0])
    expect(all(abs(a / abs(a) - ref) < 1e-6 for a in amps), "final dump phases differ")


# ---------------------------------------------------------------------------

@dataclass
class Workload:
    inputs: object  # (seed, size) -> inputs
    setup: object  # inputs -> the initial prepared database
    session: object  # (inputs, prepared, work_dir, recorder) -> SessionResult
    # How a run turns an op's repeats into one time, and the kernel that
    # gauges the host's speed for it (NOTES.md, "Scaled times").
    op_time: object  # list of an op's times -> seconds
    reference: hostspeed.Kernel


WORKLOADS = {
    # 5-7 repeats of ops from 1 ms to 3.5 s, numpy and interpreter work
    "write_heavy": Workload(write_heavy_inputs, prepare_setup, write_heavy_session,
                            min, hostspeed.MIXED),
    # 15-22 repeats of interpreter-bound commands of about 3 ms
    "script_long": Workload(script_long_inputs, prepare_setup, script_long_session,
                            statistics.median, hostspeed.INTERPRETER),
}
