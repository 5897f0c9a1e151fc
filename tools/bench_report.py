#!/usr/bin/env python
"""Fold benchmark telemetry into one perf-trend artifact.

Usage: PYTHONPATH=src python tools/bench_report.py \
           [--results-dir results] [--out BENCH_3.json]

The benchmark harness (``benchmarks/conftest.py``) drops one metrics
registry per figure under ``results/metrics/<bench>.json``.  This tool
merges them, derives the headline quantities (parity-cache hit rate,
per-dimension 3DP correction counts, trial/failure totals) and writes a
single JSON document that CI uploads as the ``BENCH_3`` artifact, so
perf trends can be diffed across commits.

The document is deterministic: sorted keys, no timestamps, no host
information — two runs of the same code produce byte-identical
artifacts (trend tooling stamps them on ingest).

Schema 2 folds histogram metrics into the derived sections: every
histogram in a source registry contributes bucket counts (via the
registry snapshot) plus a deterministic quantile summary
(count/total/mean/min/max/p50/p90/p99) under ``derived.histograms``,
so latency-shaped distributions are trendable without wall-clock
values entering the artifact.

Benches with a wall-clock claim also drop a timing sidecar next to the
metrics: ``bench_sampling_speedup.json`` (importance-sampling trial
reduction), ``bench_replay_throughput.json`` (replayed requests/s) and
``batch_speedup.json`` (batch kernel vs scalar loop).  Wall-clock
numbers never enter the BENCH artifact (that would break its
determinism); instead :data:`SIDECARS` names each sidecar's measured
figure, its recorded floor and its identity flag (identical or
consistent results), and :func:`check_sidecar` re-checks them, so a
perf or exactness regression fails the build even if the bench
assertion itself was skipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.errors import TelemetryError  # noqa: E402
from repro.telemetry.files import write_json_atomic  # noqa: E402
from repro.telemetry.registry import MetricsRegistry  # noqa: E402
from repro.telemetry.stats import derived_stats, load_metrics_file  # noqa: E402

#: v2: ``derived.histograms`` (per-histogram deterministic quantile
#: summaries) joined the per-source and merged sections.
ARTIFACT_SCHEMA = 2


def build_report(metrics_dir: Path) -> Dict[str, Any]:
    """Assemble the artifact document from ``<metrics_dir>/*.json``."""
    sources: Dict[str, Any] = {}
    registries = []
    for path in sorted(metrics_dir.glob("*.json")):
        registry = load_metrics_file(path)
        registries.append(registry)
        sources[path.stem] = {
            "derived": derived_stats(registry),
            "metrics": registry.to_dict(),
        }
    merged = MetricsRegistry.merge_all(registries)
    return {
        "artifact": "BENCH",
        "schema": ARTIFACT_SCHEMA,
        "sources": sources,
        "merged": {
            "derived": derived_stats(merged),
            "metrics": merged.to_dict(),
        },
    }


@dataclass(frozen=True)
class Sidecar:
    """One bench's timing sidecar and how to re-check it."""

    #: File name under the results directory.
    file: str
    #: Measured figure, the floor it must meet, and the flag that must
    #: hold (identical or consistent results).
    metric_key: str
    floor_key: str
    identity_key: str
    #: Name of the measured figure in the report line.
    name: str
    #: Formats of the measured figure and of its floor.
    value_format: str
    floor_format: str
    #: Why the run fails when the identity flag is false.
    identity_message: str


#: Every sidecar a bench drops, keyed by bench.
SIDECARS: Dict[str, Sidecar] = {
    "sampling": Sidecar(
        "bench_sampling_speedup.json", "trial_reduction", "threshold",
        "estimates_consistent",
        "sampling trial reduction", "{:.1f}x", "threshold {:.1f}x",
        "importance and naive estimates disagree beyond combined "
        "uncertainty",
    ),
    "replay": Sidecar(
        "bench_replay_throughput.json", "requests_per_sec", "threshold",
        "results_identical",
        "replay throughput", "{:.0f} req/s", "floor {:.0f} req/s",
        "replay bench reported worker-count-dependent results",
    ),
    "batch": Sidecar(
        "batch_speedup.json", "speedup", "threshold", "results_identical",
        "batch kernel speedup", "{:.2f}x", "threshold {:.1f}x",
        "batch bench reported results diverging from the scalar engine",
    ),
}


def check_sidecar(results_dir: Path, sidecar: Sidecar) -> int:
    """Enforce one bench's floor, if the bench ran.

    Returns 0 when the sidecar is absent (the bench did not run) or the
    measured figure meets its floor with the identity flag set; 1 when
    it falls below the floor, the flag is false, or the file is
    unreadable.
    """
    path = results_dir / sidecar.file
    if not path.is_file():
        return 0
    try:
        data = json.loads(path.read_text())
        value = float(data[sidecar.metric_key])
        floor = float(data[sidecar.floor_key])
        holds = bool(data[sidecar.identity_key])
    except (ValueError, KeyError, TypeError) as exc:
        print(f"bench_report: unreadable sidecar {path}: {exc}",
              file=sys.stderr)
        return 1
    if not holds:
        print(f"bench_report: {sidecar.identity_message}", file=sys.stderr)
        return 1
    measured = sidecar.value_format.format(value)
    bound = sidecar.floor_format.format(floor)
    if value < floor:
        print(f"bench_report: {sidecar.name} regressed to {measured} "
              f"({bound})", file=sys.stderr)
        return 1
    print(f"bench_report: {sidecar.name} {measured} ({bound})",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", default=str(_REPO_ROOT / "results"),
                        help="benchmark output directory (default: results)")
    parser.add_argument("--out", default="BENCH_3.json",
                        help="artifact path (default: BENCH_3.json)")
    args = parser.parse_args(argv)

    metrics_dir = Path(args.results_dir) / "metrics"
    if not metrics_dir.is_dir():
        print(f"bench_report: no metrics directory at {metrics_dir} "
              "(run the benchmarks with REPRO_BENCH_TELEMETRY=1 first)",
              file=sys.stderr)
        return 2
    try:
        report = build_report(metrics_dir)
    except TelemetryError as exc:
        print(f"bench_report: {exc}", file=sys.stderr)
        return 2
    if not report["sources"]:
        print(f"bench_report: {metrics_dir} holds no metrics files",
              file=sys.stderr)
        return 2
    write_json_atomic(Path(args.out), report)
    print(f"bench_report: wrote {args.out} "
          f"({len(report['sources'])} source(s))", file=sys.stderr)
    return max(
        check_sidecar(Path(args.results_dir), sidecar)
        for sidecar in SIDECARS.values()
    )


if __name__ == "__main__":
    raise SystemExit(main())
