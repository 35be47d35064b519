"""Command-line front end.

``qdbsim run SCRIPT`` executes an op script — one command per line,
``name key=value ...`` with ``#`` comments — against a single database
session and writes numbered artifacts (amplitude dumps, circuit text, plan
reports, measurement outcomes) into the output directory. Artifacts are
byte-deterministic for a given script, seed, format and numpy build: floats
are written with ``repr``, and which multiply loop numpy picks can change
their last bits.

The whole script is dry-run first: each line's arguments are converted
once and its library transition (``<op>_meta``) is applied to the evolving
database record (and plans each extension), so semantic mistakes, a
command that widens past the qubit budget (exit 4) and an unplannable
transfer surface before anything is simulated or written; errors read
``command (line N): message``. The transition runs only there: the execution
hands what it derived to the op's effect. Only these checks run during
execution, named the same way:

- verification (exit 5): the transfer preflight, and the check that a
  ``mode=xor`` write moved the entry's amplitude from its old word to its
  new one (sensor purity is checked only by the library's
  ``write(keep_sensor=True)``);
- the amplitude-level checks (exit 3): an entry carrying no amplitude, and
  entry phase alignment in ``remove_reservoir``.

``qdbsim verify --level fast|full`` runs the built-in check battery.

Exit codes: 0 success, 2 script/circuit parse error, 3 semantic error,
4 capacity exceeded, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dumps import amplitude_records, dump_records, records_to_csv, records_to_json
from .errors import CircuitParseError, QdbError, ScriptError, SemanticError
from .extend import _extend, _extend_imbalanced, extend_imbalanced_meta, extend_meta
from .qdb import (
    QdbMeta,
    QdbState,
    _copy_data,
    _permute,
    _prepare,
    _read_projective,
    _removal_odds,
    _remove_reservoir,
    _survivor,
    _write,
    _write_swap,
    emit_meta,
    permute_meta,
    prepare_meta,
    read_copy_all_meta,
    read_copy_meta,
    read_projective_meta,
    remove_projective_meta,
    remove_reservoir_meta,
    write_meta,
    write_swap_meta,
)
from .statevector import DEFAULT_MAX_QUBITS, schmidt
from .text_format import _chunks, parse_text
from .verify import run_verify


def parse_script(text: str) -> list[tuple[int, str, dict[str, str]]]:
    """Split an op script into (line, command, key-value) triples."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        cmd = tokens[0]
        if cmd not in COMMANDS:
            raise ScriptError(ln, f"unknown command {cmd!r}")
        kv: dict[str, str] = {}
        for tok in tokens[1:]:
            if "=" not in tok:
                raise ScriptError(ln, f"expected key=value, got {tok!r}")
            key, _, value = tok.partition("=")
            if not key or not value:
                raise ScriptError(ln, f"malformed key=value pair {tok!r}")
            if key in kv:
                raise ScriptError(ln, f"duplicate key {key!r}")
            kv[key] = value
        out.append((ln, cmd, kv))
    return out


# ---------------------------------------------------------------------------
# argument conversion: one converter per command


_MISSING = object()


def _decimal(text: str) -> int:
    """``text`` as an int: an optional '-' and ASCII digits, nothing else.
    ``int`` would also take '_' separators, '+', spaces and other scripts'
    digits; ValueError, as from ``int``, for anything but the plain form."""
    if text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit()):
        return int(text)
    raise ValueError(f"not a decimal integer: {text!r}")


class _Args:
    """One line's key=value pairs; each key is converted as it is taken."""

    def __init__(self, ln: int, kv: dict[str, str], script_dir: Path):
        self.ln, self.kv, self.script_dir = ln, dict(kv), script_dir

    def text(self, key: str, default=_MISSING) -> str:
        if key in self.kv:
            return self.kv.pop(key)
        if default is _MISSING:
            raise ScriptError(self.ln, f"missing required key {key!r}")
        return default

    def number(self, key: str, default=_MISSING) -> int:
        if key not in self.kv and default is not _MISSING:
            return default
        raw = self.text(key)
        try:
            return _decimal(raw)
        except ValueError:
            raise ScriptError(self.ln, f"{key} must be an integer, got {raw!r}") from None

    def choice(self, key: str, *choices: str) -> str:
        """One of ``choices``; the first is the default."""
        value = self.text(key, choices[0])
        if value not in choices:
            raise ScriptError(
                self.ln, f"{key} must be {' or '.join(choices)}, got {value!r}")
        return value

    def done(self, **args) -> dict:
        if self.kv:
            raise ScriptError(self.ln, f"unknown keys: {', '.join(sorted(self.kv))}")
        return args


def _parse_data_spec(spec: str, ln: int) -> dict[int, str]:
    out: dict[int, str] = {}
    for part in spec.split(","):
        if ":" not in part:
            raise ScriptError(ln, f"data entries look like label:bits, got {part!r}")
        label, _, bits = part.partition(":")
        try:
            label = _decimal(label)
        except ValueError:
            raise ScriptError(ln, f"data label {label!r} is not an integer") from None
        if label in out:
            raise ScriptError(ln, f"data label {label} given twice")
        out[label] = bits
    return out


def _parse_perm_spec(spec: str, ln: int):
    if ":" in spec:
        out = {}
        for part in spec.split(","):
            src, _, dst = part.partition(":")
            try:
                src, dst = _decimal(src), _decimal(dst)
            except ValueError:
                raise ScriptError(ln, f"bad mapping pair {part!r}") from None
            if src in out:
                raise ScriptError(ln, f"mapping label {src} given twice")
            out[src] = dst
        return out
    try:
        return [_decimal(tok) for tok in spec.split(",")]
    except ValueError:
        raise ScriptError(ln, f"bad permutation {spec!r}") from None


def _prepare_args(a: _Args) -> dict:
    k, l = a.number("k"), a.number("l", 0)
    data = a.text("data", None)
    data = _parse_data_spec(data, a.ln) if data is not None else None
    m_data = a.number("m", 0) or None
    u_d = a.text("u_d", None)
    if u_d is not None:
        try:
            u_d = parse_text((a.script_dir / u_d).read_text())
        except OSError as exc:
            raise ScriptError(a.ln, f"cannot read data-encoding circuit: {exc}") from None
        except CircuitParseError as exc:  # its own line, inside the script's
            raise ScriptError(a.ln, f"data-encoding circuit {u_d}, {exc}") from None
    return a.done(k=k, l=l, data=data, m_data=m_data, u_d=u_d)


def _read_copy_args(a: _Args) -> dict:
    if "all" in a.kv:
        a.choice("all", "true")
        return a.done(j=None)
    return a.done(j=a.number("j"))


def _permute_args(a: _Args) -> dict:
    spec = a.text("map")
    return a.done(spec=spec, perm=_parse_perm_spec(spec, a.ln))


# ---------------------------------------------------------------------------
# the session: one database per script
#
# Each command is a transition and an effect. The transition applies the
# library's transition to the database's record and returns what the effect
# takes: the record the line leaves, or a tuple that starts with it (a
# string there names what consumed the database). The effect hands that to
# the op's private effect on the live database and writes the line's
# artifacts. The session rules (one database per script, none after it is
# consumed, one PRNG drawn in script order) live in the transitions.


@dataclass
class Session:
    seed: int | None
    script_dir: Path
    out_dir: Path | None = None
    fmt: str = "json"
    max_qubits: int = DEFAULT_MAX_QUBITS
    dry: bool = False
    db: QdbState | QdbMeta | None = None
    consumed: str | None = None
    artifact_count: int = 0

    def __post_init__(self):
        # one PRNG for the whole script: sampling commands draw sequentially
        self.rng = np.random.default_rng(self.seed) if self.seed is not None else None

    def step(self, ln: int, cmd: str, kv: dict[str, str]) -> tuple:
        """Run one line's transition, and its effect unless dry; return the line."""
        args = COMMANDS[cmd][0](_Args(ln, kv, self.script_dir))
        line = (ln, cmd, args, self._named(ln, cmd, COMMANDS[cmd][1], args))
        self.run(*line)
        return line

    def run(self, ln: int, cmd: str, args: dict, derived):
        """Run one line's effect on what its transition ``derived``, if not dry."""
        if not self.dry:
            self._named(ln, cmd, COMMANDS[cmd][2], args, derived)
        after = derived[0] if isinstance(derived, tuple) else derived
        if isinstance(after, str):
            self.consumed, self.db = after, None
        elif self.dry:
            self.db = after

    def _named(self, ln: int, cmd: str, fn, args: dict, *derived):
        """``fn`` on this session; a library error names the command and its line."""
        try:
            return fn(self, *derived, **args)
        except QdbError as exc:
            exc.args = (f"{cmd} (line {ln}): {exc}",)
            raise

    def record(self) -> QdbMeta:
        if self.consumed:
            raise SemanticError(f"database was consumed by {self.consumed}")
        if self.db is None:
            raise SemanticError("no database prepared yet")
        return self.db if self.dry else self.db.meta

    def artifact(self, name: str, text) -> Path:
        """Write the next artifact: ``text``, a string or an iterable of
        chunks written as they come, with ``Path.write_text``'s encoding
        and newlines."""
        self.artifact_count += 1
        path = self.out_dir / f"{self.artifact_count:03d}-{name}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.writelines((text,) if isinstance(text, str) else text)
        return path


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _prepare_meta(sess: Session, **args) -> QdbMeta:
    if sess.db is not None or sess.consumed:
        raise SemanticError("session already holds a database")
    return prepare_meta(**args, max_qubits=sess.max_qubits)


def _run_prepare(sess: Session, new: QdbMeta, **args):
    sess.db = _prepare(new)
    print(f"prepare: k={args['k']} l={args['l']} on {sess.db.n_qubits} qubits")


def _run_extend(sess: Session, derived, l: int):
    sess.db = _extend(sess.db, derived[1])
    plans = [plan.to_report() for _, plan in derived[1] if plan is not None]
    path = sess.artifact("extend-plan.json", _json_text({"l": l, "plans": plans}))
    print(f"extend: +{l} -> k={sess.db.k} on {sess.db.n_qubits} qubits ({path.name})")


def _run_extend_imbalanced(sess: Session, derived, l: int, z: int, route: str):
    sess.db = _extend_imbalanced(sess.db, *derived)
    path = sess.artifact("extend-imbalanced-plan.json", _json_text(derived[2].to_report()))
    print(f"extend-imbalanced: +{l} with z={z} -> k={sess.db.k} "
          f"balanced={derived[2].balanced} ({path.name})")


def _run_write(sess: Session, new: QdbMeta, j: int, word: str, mode: str):
    sess.db = (_write if mode == "xor" else _write_swap)(sess.db, new, j)
    print(f"write: entry {j} d={word} mode={mode}")


def _run_read_copy(sess: Session, new: QdbMeta, j: int | None):
    sess.db = _copy_data(sess.db, new, j)
    target = "all" if j is None else str(j)
    rep = schmidt(sess.db.state, sess.db.copy_qubits)
    path = sess.artifact("read-copy.json", _json_text({
        "entry": target, "purity": rep.purity, "schmidt_rank": rep.schmidt_rank,
        "entropy_bits": rep.entropy_bits, "entangled": rep.entangled}))
    print(f"read-copy: entry {target} entangled={rep.entangled} ({path.name})")


def _read_projective_meta(sess: Session, j: int) -> str:
    read_projective_meta(sess.record(), j)
    return "read-projective"


def _run_read_projective(sess: Session, _, j: int):
    data_state, prob = _read_projective(sess.db, j)
    segments = [("D", tuple(range(data_state.n_qubits)))]
    path = sess.artifact("read-projective.json", _json_text({
        "entry": j, "probability": prob, "records": amplitude_records(data_state, segments)}))
    print(f"read-projective: entry {j} probability={prob:.12g} ({path.name})")


def _remove_meta(sess: Session, j: int, mode: str):
    if mode == "reservoir":
        return remove_reservoir_meta(sess.record(), j)
    p, new = remove_projective_meta(sess.record(), j)
    if sess.rng is None:
        raise SemanticError("remove mode=projective samples an outcome; pass --seed")
    # a success is never drawn when new is None: p is 0 then
    return (new if sess.rng.random() < p else "remove mode=projective (failure branch)"), new


def _run_remove(sess: Session, derived, j: int, mode: str):
    if mode == "reservoir":
        sess.db = _remove_reservoir(sess.db, derived, j)
        print(f"remove: entry {j} -> reservoir (k={sess.db.k}, l={sess.db.l})")
        return
    after, new = derived
    p = _removal_odds(sess.db, new, j)
    verdict = "failure" if isinstance(after, str) else "success"
    if verdict == "success":  # only the branch the session goes on with is built
        sess.db = _survivor(sess.db, new, j)
    path = sess.artifact("remove.json", _json_text({
        "entry": j, "mode": "projective", "success_probability": p, "outcome": verdict}))
    print(f"remove: entry {j} projective p={p:.12g} outcome={verdict} ({path.name})")


def _run_permute(sess: Session, derived, spec: str, perm):
    sess.db = _permute(sess.db, *derived)
    print(f"permute: {spec}")


def _run_emit(sess: Session, _):
    path = sess.artifact("circuit.txt", _chunks(sess.db.circuit))
    print(f"emit: {len(sess.db.circuit)} gates ({path.name})")


def _run_dump(sess: Session, _):
    records = dump_records(sess.db)
    text = (records_to_json if sess.fmt == "json" else records_to_csv)(records)
    path = sess.artifact(f"dump.{sess.fmt}", text)
    print(f"dump: {len(records)} amplitudes ({path.name})")


# command -> (argument converter, transition, effect)
COMMANDS = {
    "prepare": (_prepare_args, _prepare_meta, _run_prepare),
    "extend": (lambda a: a.done(l=a.number("l")),
               lambda sess, l: extend_meta(sess.record(), l), _run_extend),
    "extend-imbalanced": (
        lambda a: a.done(l=a.number("l"), z=a.number("z"), route=a.text("route", "direct")),
        lambda sess, l, z, route: extend_imbalanced_meta(sess.record(), l, z, route=route),
        _run_extend_imbalanced),
    "write": (
        lambda a: a.done(j=a.number("j"), word=a.text("d"), mode=a.choice("mode", "xor", "swap")),
        lambda sess, j, word, mode: (write_meta if mode == "xor" else write_swap_meta)(
            sess.record(), j, word),
        _run_write),
    "read-copy": (_read_copy_args, lambda sess, j: (
        read_copy_all_meta(sess.record()) if j is None else read_copy_meta(sess.record(), j)),
        _run_read_copy),
    "read-projective": (lambda a: a.done(j=a.number("j")), _read_projective_meta,
                        _run_read_projective),
    "remove": (
        lambda a: a.done(j=a.number("j"), mode=a.choice("mode", "reservoir", "projective")),
        _remove_meta, _run_remove),
    "permute": (_permute_args, lambda sess, spec, perm: permute_meta(sess.record(), perm),
                _run_permute),
    "emit": (lambda a: a.done(), lambda sess: emit_meta(sess.record()), _run_emit),
    "dump": (lambda a: a.done(), lambda sess: sess.record(), _run_dump),
}


def dry_run(steps, *, seed: int | None, script_dir: Path,
            max_qubits: int = DEFAULT_MAX_QUBITS) -> list[tuple]:
    """Walk a parsed script through the library's transitions alone; raise on
    the first command that could not execute. Returns each command with its
    line, converted arguments and what its transition derived, for the
    execution to run the effects on."""
    sess = Session(seed, script_dir, max_qubits=max_qubits, dry=True)
    return [sess.step(ln, cmd, kv) for ln, cmd, kv in steps]


def run_script(script_path: Path, out_dir: Path, *, seed: int | None,
               max_qubits: int, fmt: str) -> int:
    try:
        text = script_path.read_text()
    except OSError as exc:
        raise ScriptError(0, f"cannot read script: {exc}") from None
    commands = dry_run(parse_script(text), seed=seed, script_dir=script_path.parent,
                       max_qubits=max_qubits)
    sess = Session(seed, script_path.parent, out_dir, fmt)  # the records carry the budget
    for line in commands:
        sess.run(*line)
    print(f"done: {len(commands)} commands, {sess.artifact_count} artifacts"
          + (f" in {out_dir}" if sess.artifact_count else ""))
    return 0


def _seed_type(text: str) -> int:
    try:
        value = _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"the seed must be a plain decimal integer, got {text!r}") from None
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _budget_type(text: str) -> int:
    try:
        value = _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"the qubit budget must be a plain decimal integer, got {text!r}") from None
    if value < 1:  # no database fits in fewer qubits
        raise argparse.ArgumentTypeError("the qubit budget must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdbsim",
        description="Simulate superposed-index quantum databases.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an op script")
    run_p.add_argument("script", type=Path, help="op script path")
    run_p.add_argument("--seed", type=_seed_type, default=None,
                       help="RNG seed (unsigned 64-bit); required by sampling commands")
    run_p.add_argument("--out", type=Path, default=None,
                       help="artifact directory (default: <script>-out beside the script)")
    run_p.add_argument("--max-qubits", type=_budget_type, default=DEFAULT_MAX_QUBITS,
                       help="qubit budget for the session")
    run_p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="amplitude dump format")

    verify_p = sub.add_parser("verify", help="run the built-in check battery")
    verify_p.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            out = args.out or args.script.parent / (args.script.stem + "-out")
            return run_script(args.script, out, seed=args.seed,
                              max_qubits=args.max_qubits, fmt=args.format)
        report = run_verify(args.level)
        for check in report.checks:
            mark = "PASS" if check.passed else "FAIL"
            print(f"[{mark}] {check.name}: {check.detail}")
        if not report.passed:
            print("verification failed")
            return 5
        print(f"verification passed ({args.level})")
        return 0
    except QdbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
