"""The benchmark's own smoke test, at a tiny scale.

    python3 perfbench/smoke_test.py

For every workload declared in BENCHMARK.json it checks that

* a ``--trace 0`` run is correct and emits exactly the declared
  end-to-end metrics, each with its declared unit;
* two ``--trace 1`` runs with the same seed emit exactly the declared
  per-layer metrics with their units, and agree exactly on the counts
  listed in ``REPEATING_COUNTS``;

and that the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
REPEATING_COUNTS = (
    "results.to_dict_calls",
    "checkpoint.writes",
    "perf.runs",
    "batch.fallback_trials",
    "stopping.checks",
)


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess, problems: list, what: str) -> dict:
    if done.returncode != 0:
        problems.append(f"{what}: exit {done.returncode}\n{done.stderr[-2000:]}")
        return {}
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{what}: not correct: {result}")
    return result


def check_metrics(result: dict, declared: list, problems: list, what: str) -> None:
    emitted = result.get("metrics", {})
    if set(emitted) != {m["name"] for m in declared}:
        problems.append(f"{what}: emitted {sorted(emitted)}")
    for metric in declared:
        got = emitted.get(metric["name"], {}).get("unit")
        if got != metric["unit"]:
            problems.append(f"{what}: {metric['name']} unit {got!r} != {metric['unit']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = result_of(run(ROOT, workload, 0), problems, f"{workload} trace 0")
        check_metrics(plain, spec["end_to_end"], problems, f"{workload} trace 0")
        traced = [result_of(run(ROOT, workload, 1), problems, f"{workload} trace 1")
                  for _ in range(2)]
        for result in traced:
            check_metrics(result, spec["per_layer"], problems, f"{workload} trace 1")
        for name in REPEATING_COUNTS:
            values = [r.get("metrics", {}).get(name, {}).get("value") for r in traced]
            if values[0] != values[1]:
                problems.append(f"{workload}: {name} differs between runs: {values}")
        print(f"{workload}: checked", flush=True)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
