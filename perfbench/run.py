"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload citadel-batch --seed 1 --seconds 12 --trace 0

Workloads: ``citadel-batch``, ``service-stratified``, ``replay-zipfian``
(see ``scenarios.py`` and ``README.md``).  The run

1. times the workload's set-up in ``SETUP_PROBES`` fresh interpreters;
2. builds the workload in this process and runs its untimed correctness
   and path probes;
3. repeats one identical unit of work for ``--seconds`` seconds with all
   instrumentation off — the end-to-end metrics come from here;
4. with ``--trace 1``, repeats the unit ``TRACED_REPS`` more times with
   every layer wrapped in spans (``spans.py``) and reports per-layer
   self times, work counts, their shares of the repetition's wall time
   and the tracing overhead.  The spans are written, once, to
   ``.perfbench_out/``.

It prints a readable report, then, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits
0 when every operation passed its correctness check, 1 when some did not,
and 2 or 3 without a result when it cannot run or would measure the wrong
code path.  ``--smoke`` shrinks every workload for a quick self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7
#: Repetitions each run makes at least, however short ``--seconds`` is.
MIN_REPS = 3
TRACED_REPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "time_to_result_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".share") or name.endswith("_frac"):
        return "fraction"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def setup_samples(args: argparse.Namespace, scratch: Path) -> List[Dict[str, float]]:
    command = [sys.executable, str(HERE / "setup_probe.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scratch", str(scratch)] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(2 if args.smoke else SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}", 2)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def window(workload: Any, ledger: Any, seconds: float) -> List[Any]:
    """Repeat the workload's unit for ``seconds`` (at least MIN_REPS times)."""
    reps: List[Any] = []
    runs = 0
    start = time.perf_counter()
    while runs < MIN_REPS or time.perf_counter() - start < seconds:
        rep = workload.rep(ledger, reps[0] if reps else None)
        runs += 1
        if rep is not None:
            reps.append(rep)
    return reps


def end_to_end(reps: List[Any], setups: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "trials_per_s": statistics.median(n / t for r in reps for t, n in r.ops),
        "time_to_result_s": statistics.median(t for r in reps for t, _ in r.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload: Any, ledger: Any, plain: List[Any], setups: List[Dict[str, float]],
           out: Path) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics from TRACED_REPS instrumented repetitions, and
    the probes whose call was not found."""
    import spans

    tracer = spans.Tracer()
    workload.untraced = tracer.paused
    reps = []
    tracer.install()
    try:
        for op in range(TRACED_REPS):
            tracer.op = op
            rep = workload.rep(ledger, plain[0])
            if rep is not None:
                reps.append((op, rep))
    finally:
        tracer.uninstall()
    tracer.write(out)
    if not reps:
        fail("every traced repetition failed", 1)
    self_times = tracer.self_times()
    counts = [tracer.op_counts(op) for op, _ in reps]
    if any(c != counts[0] for c in counts):
        ledger.record(False, "per-layer counts differ between identical repetitions")
    first_op, first = reps[0]
    wall = statistics.median(rep.wall_s for _, rep in reps)
    plain_wall = statistics.median(rep.wall_s for rep in plain)
    layer: Dict[str, float] = {
        name: statistics.median(self_times[op].get(name, 0.0) for op, _ in reps)
        for name in spans.TIME_METRICS
    }
    layer["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    layer["other.untraced_s"] = statistics.median(
        rep.wall_s - sum(self_times[op].values()) for op, rep in reps
    )
    layer["trace.overhead_s"] = wall - plain_wall
    for name in list(layer):
        layer[name + ".share"] = layer[name] / wall
    for name in spans.COUNT_METRICS:
        layer[name] = counts[0].get(name, 0)
    proven = layer["batch.fast_trials"] + layer["batch.fallback_trials"]
    layer["batch.proven_frac"] = layer["batch.fast_trials"] / proven if proven else 0.0
    layer["stopping.trials_used_frac"] = first.trials / first.planned_trials
    layer["trace.overhead_frac"] = (wall - plain_wall) / plain_wall
    layer["trace.spans"] = tracer.spans_in(first_op)
    return layer, tracer.missing


def report(args: argparse.Namespace, values: Dict[str, float], units: Dict[str, str],
           notes: List[str]) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"host: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy.__version__}; host time on a shared machine")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, for the benchmark's own smoke test")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro sources under {SRC}; run from a full checkout", 2)
    sys.path.insert(0, str(SRC))
    import repro
    import scenarios

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        fail(f"imported repro from {repro.__file__}, not from {SRC}", 2)
    if args.workload not in scenarios.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"expected one of {sorted(scenarios.WORKLOADS)}", 2)

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    ledger = scenarios.Ledger()
    try:
        setups = setup_samples(args, scratch)
        workload = scenarios.WORKLOADS[args.workload](args.seed, args.smoke, scratch)
        workload.setup()
        try:
            workload.check(ledger)
            plain = window(workload, ledger, args.seconds)
            if not plain:
                fail("every repetition failed:\n" + "\n".join(ledger.errors), 1)
            workload.finish(ledger, plain[0])
            if args.trace:
                out = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
                values, missing = traced(workload, ledger, plain, setups, out)
                units = {name: layer_unit(name) for name in values}
            else:
                values = end_to_end(plain, setups)
                units = END_TO_END_UNITS
        finally:
            workload.close()
    except scenarios.PathError as exc:
        fail(f"refusing to report: {exc}", 3)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    notes = [f"{len(plain)} timed repetitions, {len(setups)} set-ups",
             f"error_rate {ledger.failed / max(ledger.attempted, 1):.6g} fraction "
             f"({ledger.failed} failed / {ledger.attempted} attempted operations)"]
    hits = [t for rep in plain for t in rep.hit_latencies_s]
    if hits:
        to_ci = statistics.median(t for rep in plain for t, _ in rep.ops)
        notes.append(f"time_to_ci_s {to_ci:.6g} s (median over cold jobs, submit to done)")
        notes.append(f"hit_latency_ms_p50 {1e3 * percentile(hits, 50):.4g} ms, "
                     f"hit_latency_ms_p99 {1e3 * percentile(hits, 99):.4g} ms "
                     f"({len(hits)} cache hits)")
    if plain[0].requests:
        rate = statistics.median(rep.requests / rep.wall_s for rep in plain)
        notes.append(f"requests_per_s {rate:.6g} req/s")
    if args.trace:
        notes.append(f"spans written to {out.relative_to(ROOT)}")
        notes.extend(f"not instrumented (call not found): {label}"
                     for label in missing)
    for error in ledger.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    report(args, values, units, notes)
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
