"""qdbsim benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload write_heavy --seed 1 --seconds 50 --trace 0

``--trace 0`` repeats the workload's session on the same inputs for
``--seconds`` with tracing off and prints the end-to-end metrics, with op
times scaled to the reference host speed of ``hostspeed.py``; ``--trace 1`` runs one traced session and prints the
per-layer metrics. Progress lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed correctness check prints
``"correct": false`` and exits 1. Without ``src/qdbsim`` beside this
directory it prints no result and exits 2.

This file uses only the standard library; the workloads and ``hostspeed.py``
use numpy, which qdbsim needs anyway.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set before the interpreter starts (the run re-executes itself with them):
# one thread for numpy's BLAS and OpenMP pools, so results do not depend on
# the host's core count (the schmidt SVDs are too small to gain from more),
# and a fixed string hash, so dict and set layouts repeat from run to run.
PROCESS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONHASHSEED": "0"}
SETUP_PROBES = 9  # fresh interpreters timed per run, after one untimed warm-up
REF_SAMPLES = 2  # reference kernel passes after each session
MIN_SESSIONS = 3  # so every op's fastest time is chosen from several repeats


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("write_heavy", "script_long"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measure sessions until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args()


def setup_probe(args) -> float:
    """Fresh interpreter to first op ready: the probe imports qdbsim, builds
    the workload's initial database and says so on stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {code}")
    return t1 - t0


def run_sessions(wl, inp, prepared, args, work_dir: Path, make_recorder):
    """Repeat the session on the same inputs until ``args.seconds`` would be
    overrun by one more, after at least ``MIN_SESSIONS``. Between
    sessions, time the reference kernel and, until there are enough, a
    setup probe, so both sample the host across the whole run. Peak memory
    is read after the first session, before the kernel's arrays add to it;
    later sessions repeat the same work."""
    setup_probe(args)  # warm-up: the first interpreter start reads cold files
    sessions, ref_times, setup_times = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()  # no session pays for the garbage of the one before
        sessions.append(wl.session(inp, prepared, work_dir, make_recorder()))
        if len(sessions) == 1:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ref_times += [wl.reference.one_pass() for _ in range(REF_SAMPLES)]
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(args))
        elapsed = time.perf_counter() - start
        if len(sessions) >= MIN_SESSIONS and elapsed * (1 + 1 / len(sessions)) > args.seconds:
            break
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(args))
    return sessions, ref_times, setup_times, peak_rss_mib


def sessions_agree(sessions) -> bool:
    """Sessions of one run share their inputs, so every count and output
    fingerprint must repeat exactly."""
    return len({(s.fingerprint, s.gates_appended, s.attempted) for s in sessions}) == 1


def end_to_end(wl, sessions, ref_times, setup_times, peak_rss_mib) -> tuple[dict, dict]:
    """Each op of a session gets one time from its repeats in the run
    (``wl.op_time``), and the session time is the sum of those. Op times
    are then scaled by ``nominal_s / median reference kernel pass``: the
    host's speed drifts by a quarter within seconds and by as much again
    over minutes (NOTES.md), and the scaling takes out what the kernel sees
    of that drift. ``setup_s`` is the median probe, unscaled."""
    reference_s = statistics.median(ref_times)
    speed = wl.reference.nominal_s / reference_s
    per_op = [wl.op_time(times) * speed for times in zip(*(s.latencies for s in sessions))]
    p90 = statistics.quantiles(per_op, n=10, method="inclusive")[8]
    first = sessions[0]
    session = sum(per_op)
    values = {
        "setup_s": statistics.median(setup_times),
        "session_ref_s": session,
        "ops_per_ref_s": first.attempted / session,
        "op_p50_ref_ms": 1e3 * statistics.median(per_op),
        "op_p90_ref_ms": 1e3 * p90,
        "peak_rss_mib": peak_rss_mib,
        "gates_per_op": first.gates_appended / first.attempted,
    }
    notes = {"sessions": len(sessions), "ops_per_session": first.attempted,
             "ops_beyond_p90": sum(1 for t in per_op if t > p90),
             "unscaled_session_s": round(session / speed, 4),
             "reference_s": round(reference_s, 5),
             "session_wall_s": [round(s.session_s, 3) for s in sessions],
             "fingerprint": first.fingerprint}
    return values, notes


def traced(wl, inp, prepared, work_dir: Path):
    """One session with the span tracer and tracemalloc on.

    trace.overhead_s is the time the wrappers spend in their own bookkeeping,
    measured inside this session. Subtracting an untraced session instead
    measures mostly the drift in host speed between the two."""
    import spans as layer_trace
    from workloads import Recorder

    gc.collect()
    tracer = layer_trace.Tracer()
    tracer.install()
    tracemalloc.start()
    try:
        result = wl.session(inp, prepared, work_dir, Recorder(tracer=tracer))
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    spans = tracer.records()
    values = layer_trace.layer_metrics(spans, tracer.counts, tracer.peak_qubits)
    values["cli.artifact_bytes"] = result.artifact_bytes
    values["trace.overhead_s"] = tracer.overhead_s
    values["trace.peak_traced_mib"] = peak_bytes / 2**20
    values["trace.covered_share"] = layer_trace.covered_time(spans) / result.session_s
    notes = {"spans": len(spans), "traced_session_s": result.session_s,
             "fingerprint": result.fingerprint}
    return values, notes, [result]


def main() -> int:
    args = parse_args()
    if not (SRC / "qdbsim" / "__init__.py").is_file():
        print(f"error: no qdbsim source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, **PROCESS_ENV})
    sys.path[:0] = [str(SRC), str(HERE)]

    from workloads import WORKLOADS, CheckFailed, Recorder

    wl = WORKLOADS[args.workload]
    if args.probe:
        wl.setup(wl.inputs(args.seed, args.size))
        print("ready", flush=True)
        return 0

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    problems: list[str] = []
    try:
        inp = wl.inputs(args.seed, args.size)
        prepared = wl.setup(inp)
        if args.trace:
            values, notes, sessions = traced(wl, inp, prepared, work_dir)
        else:
            sessions, *measured = run_sessions(wl, inp, prepared, args, work_dir, Recorder)
            values, notes = end_to_end(wl, sessions, *measured)
        if not sessions_agree(sessions):
            problems.append("sessions of one seed differ in counts or artifacts")
    except CheckFailed as exc:
        problems.append(f"check failed: {exc}")
    except Exception:
        traceback.print_exc()
        problems.append("the run raised")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for problem in problems:
        print(f"error: {args.workload}: {problem}", file=sys.stderr)
    if problems:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if list(values) != list(units):
        raise RuntimeError("metrics differ from BENCHMARK.json")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in notes.items()))
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(s.attempted for s in sessions),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
