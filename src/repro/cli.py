"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``overhead``
    Print Citadel's storage-overhead accounting (§VII-E).
``reliability``
    Run a Monte-Carlo lifetime study for one scheme.
``perf``
    Simulate one benchmark under the five memory organizations.
``replay``
    Trace-replay co-simulation: replay a workload while a sampled
    fault timeline unfolds; one sharded run yields a joint
    reliability/performance/power report.
``stats``
    Summarize telemetry artifacts (metrics JSON, trace JSONL); with
    ``--export chrome|collapsed``, convert a trace into a Chrome/
    Perfetto ``trace_event`` document or collapsed-stack hotspots.
``profile``
    Run a small serial campaign under the wall-clock sampling profiler
    and report deterministic trial-weighted span hotspots.
``workloads``
    List the synthetic benchmark profiles.
``schemes``
    List the available correction schemes.
``serve``
    Run the campaign service (job queue + scheduler + HTTP API).
``submit`` / ``status`` / ``fetch`` / ``top``
    Talk to a running campaign service: enqueue a campaign, inspect
    jobs/health/metrics, download results, and watch a live dashboard.

Output discipline: **stdout carries only results** (summaries, tables,
``--json`` documents); every human-facing progress or bookkeeping line
goes to **stderr**, so ``python -m repro ... > results.txt`` captures a
clean artifact even with ``--progress`` enabled.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.core.citadel import CitadelConfig
from repro.errors import ReproError, TelemetryError
from repro.perf import PerfConfig, PowerModel, SystemSimulator
from repro.reliability.sampling import SAMPLING_METHODS
from repro.reliability.parallel import DEFAULT_SHARD_SIZE
from repro.reliability.results import ReliabilityResult
from repro.replay import DEFAULT_REPLAY_SHARD_SIZE
from repro.schemes import SCHEMES
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy
from repro.telemetry.console import err, out
from repro.telemetry.files import write_json_atomic
from repro.telemetry.registry import MetricsRegistry, monotonic_s
from repro.telemetry.stats import (
    derived_stats,
    load_metrics_file,
    summarize_trace,
)
from repro.workloads import PROFILES, WORKLOADS, rate_mode_traces
from repro.workloads.generator import DEFAULT_CORES

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.service.jobs import CampaignSpec


def package_version() -> str:
    """The installed package version, falling back to the source tree's
    ``repro.__version__`` when the distribution is not installed."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        try:
            return version("repro")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover - py<3.8 has no importlib.metadata
        pass
    import repro
    return repro.__version__

PERF_CONFIGS: Dict[str, PerfConfig] = {
    "same-bank": PerfConfig(striping=StripingPolicy.SAME_BANK),
    "across-banks": PerfConfig(striping=StripingPolicy.ACROSS_BANKS),
    "across-channels": PerfConfig(striping=StripingPolicy.ACROSS_CHANNELS),
    "3dp": PerfConfig(parity_protection=True, parity_caching=True),
    "3dp-nocache": PerfConfig(parity_protection=True, parity_caching=False),
}


def add_campaign_options(p: argparse.ArgumentParser) -> None:
    """The campaign knobs every campaign command shares (the matching
    :class:`~repro.service.jobs.CampaignSpec` fields)."""
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="citadel")
    p.add_argument("--tsv-fit", type=float, default=0.0,
                   help="TSV device FIT (paper sweeps 14-1430)")
    p.add_argument("--tsv-swap", type=int, default=None, metavar="N",
                   help="enable TSV-Swap with N stand-by TSVs per channel")
    p.add_argument("--dds", action="store_true", help="enable DDS sparing")
    p.add_argument("--scrub-hours", type=float, default=12.0)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Citadel (MICRO 2014) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    overhead = sub.add_parser(
        "overhead", help="storage-overhead accounting (§VII-E)"
    )
    overhead.add_argument("--json", action="store_true",
                          help="emit the accounting as JSON on stdout")
    workloads = sub.add_parser(
        "workloads", help="list synthetic benchmark profiles"
    )
    workloads.add_argument("--json", action="store_true",
                           help="emit the profiles as JSON on stdout")
    schemes = sub.add_parser(
        "schemes", help="list available correction schemes"
    )
    schemes.add_argument("--json", action="store_true",
                         help="emit the scheme table as JSON on stdout")

    rel = sub.add_parser("reliability", help="Monte-Carlo lifetime study")
    add_campaign_options(rel)
    rel.add_argument("--trials", type=int, default=20000)
    rel.add_argument("--modes", action="store_true",
                     help="report failure-mode attribution")
    rel.add_argument("--workers", type=int, default=1,
                     help="worker processes; results are identical for "
                          "any value (default 1)")
    rel.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                     metavar="N",
                     help="trials per shard (default %d)"
                          % DEFAULT_SHARD_SIZE)
    rel.add_argument("--checkpoint", metavar="FILE", default=None,
                     help="append-only JSONL checkpoint of completed shards")
    rel.add_argument("--resume", action="store_true",
                     help="resume from --checkpoint if it exists")
    rel.add_argument("--time-budget", type=float, default=None, metavar="S",
                     help="stop dispatching shards after S seconds")
    rel.add_argument("--sampling", choices=list(SAMPLING_METHODS),
                     default="naive",
                     help="variance-reduction plan: stratified fault-count "
                          "strata or importance-sampled epoch clustering")
    rel.add_argument("--target-ci-width", type=float, default=None,
                     metavar="W",
                     help="stop once the anytime-valid failure-probability "
                          "CI is narrower than W (checked at shard merges)")
    rel.add_argument("--telemetry", action="store_true",
                     help="collect deterministic engine metrics "
                          "(implied by --metrics-out)")
    rel.add_argument("--metrics-out", metavar="FILE", default=None,
                     help="write the merged metrics registry as JSON")
    rel.add_argument("--trace-out", metavar="FILE", default=None,
                     help="write a structured JSONL span/event trace")
    rel.add_argument("--trace-sample-every", type=int, default=100,
                     metavar="N", help="trace every Nth trial (default 100)")
    rel.add_argument("--progress", action="store_true",
                     help="stderr heartbeat: shards done, trials/s, ETA")
    rel.add_argument("--json", action="store_true",
                     help="emit the result as a JSON document on stdout")

    perf = sub.add_parser("perf", help="performance/power simulation")
    perf.add_argument("--benchmark", choices=sorted(PROFILES), default="mcf")
    perf.add_argument("--requests", type=int, default=3000,
                      help="requests per core")
    perf.add_argument("--cores", type=int, default=DEFAULT_CORES)
    perf.add_argument("--seed", type=int, default=0)
    perf.add_argument(
        "--configs", nargs="+", choices=sorted(PERF_CONFIGS),
        default=sorted(PERF_CONFIGS),
    )
    perf.add_argument("--telemetry", action="store_true",
                      help="collect event-counter metrics "
                           "(implied by --metrics-out)")
    perf.add_argument("--metrics-out", metavar="FILE", default=None,
                      help="write the run's metrics registry as JSON")
    perf.add_argument("--json", action="store_true",
                      help="emit results as a JSON document on stdout")

    replay = sub.add_parser(
        "replay",
        help="trace-replay co-simulation: joint reliability/perf/power",
    )
    add_campaign_options(replay)
    replay.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="zipfian")
    replay.add_argument("--trials", type=int, default=32,
                        help="co-simulation trials (each replays the "
                             "full trace; default 32)")
    replay.add_argument("--requests", type=int, default=512,
                        help="requests per core (default 512)")
    replay.add_argument("--cores", type=int, default=4)
    replay.add_argument("--thermal", action="store_true",
                        help="feed baseline bank activity back into "
                             "per-bank FIT multipliers")
    replay.add_argument("--workers", type=int, default=1,
                        help="worker processes; results are identical "
                             "for any value (default 1)")
    replay.add_argument("--shard-size", type=int, default=None, metavar="N",
                        help="trials per shard (default %d)"
                             % DEFAULT_REPLAY_SHARD_SIZE)
    replay.add_argument("--checkpoint", metavar="FILE", default=None,
                        help="append-only JSONL checkpoint of completed shards")
    replay.add_argument("--resume", action="store_true",
                        help="resume from --checkpoint if it exists")
    replay.add_argument("--telemetry", action="store_true",
                        help="collect deterministic replay metrics "
                             "(implied by --metrics-out)")
    replay.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the merged metrics registry as JSON")
    replay.add_argument("--json", action="store_true",
                        help="emit the joint report as JSON on stdout")

    stats = sub.add_parser(
        "stats", help="summarize telemetry artifacts from earlier runs"
    )
    stats.add_argument("--metrics", metavar="FILE", nargs="*", default=[],
                       help="metrics JSON files (merged before rendering); "
                            "reliability --json documents also work")
    stats.add_argument("--trace", metavar="FILE", default=None,
                       help="JSONL trace file to summarize")
    stats.add_argument("--export", choices=("chrome", "collapsed"),
                       default=None,
                       help="convert --trace into a Chrome/Perfetto "
                            "trace_event JSON document or collapsed-stack "
                            "span hotspots instead of summarizing")
    stats.add_argument("--export-out", metavar="FILE", default=None,
                       help="write the --export document to FILE "
                            "(default: stdout)")
    stats.add_argument("--json", action="store_true",
                       help="emit the summary as JSON on stdout")

    profile = sub.add_parser(
        "profile",
        help="profile a small serial campaign: deterministic span "
             "hotspots plus an optional wall-clock sampling profiler",
    )
    add_campaign_options(profile)
    profile.add_argument("--trials", type=int, default=2000)
    profile.add_argument("--sampling", choices=list(SAMPLING_METHODS),
                         default="naive")
    profile.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                         metavar="N")
    profile.add_argument("--trace-sample-every", type=int, default=1,
                         metavar="N",
                         help="trace every Nth trial (default 1: all "
                              "trials, for exact trial-weighted hotspots)")
    profile.add_argument("--interval", type=float, default=0.005,
                         metavar="S",
                         help="sampling-profiler interval (default 5 ms)")
    profile.add_argument("--no-sampler", action="store_true",
                         help="skip the wall-clock sampler; deterministic "
                              "span hotspots only")
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="hotspot lines to print (default 10)")
    profile.add_argument("--spans-out", metavar="FILE", default=None,
                         help="write deterministic collapsed span stacks")
    profile.add_argument("--collapsed-out", metavar="FILE", default=None,
                         help="write wall-clock collapsed sample stacks "
                              "(volatile)")
    profile.add_argument("--chrome-out", metavar="FILE", default=None,
                         help="write the trace as Chrome trace_event JSON")
    profile.add_argument("--trace-out", metavar="FILE", default=None,
                         help="keep the raw JSONL trace at FILE")
    profile.add_argument("--json", action="store_true",
                         help="emit the profile report as JSON on stdout")

    serve = sub.add_parser(
        "serve", help="run the campaign service (scheduler + HTTP API)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 picks a free port)")
    serve.add_argument("--slots", type=int, default=2,
                       help="concurrent campaign jobs (default 2)")
    serve.add_argument("--process-budget", type=int, default=None,
                       metavar="N",
                       help="total worker processes shared fairly across "
                            "running jobs (default: CPU count)")
    serve.add_argument("--store-dir", default="results/store", metavar="DIR",
                       help="content-addressed result store root")
    serve.add_argument("--store-entries", type=int, default=None, metavar="N",
                       help="LRU-evict store files beyond N entries")
    serve.add_argument("--retries", type=int, default=2,
                       help="default retry budget per job (default 2)")
    serve.add_argument("--retry-backoff", type=float, default=0.5,
                       metavar="S", help="base retry backoff seconds")
    serve.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the service metrics registry as JSON "
                            "on shutdown")
    serve.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a JSONL trace of job lifecycle events")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request stderr logging")

    def add_client_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default="http://127.0.0.1:8765",
                       help="campaign service endpoint")
        p.add_argument("--timeout", type=float, default=30.0, metavar="S",
                       help="per-request timeout seconds")
        p.add_argument("--json", action="store_true",
                       help="emit the response as JSON on stdout")

    submit = sub.add_parser(
        "submit", help="submit a campaign to a running service"
    )
    add_client_options(submit)
    add_campaign_options(submit)
    submit.add_argument("--trials", type=int, default=20000)
    submit.add_argument("--scale", type=int, default=1,
                        help="trial divisor for smoke runs (runs "
                             "trials//scale trials)")
    submit.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                        metavar="N")
    submit.add_argument("--sampling", choices=list(SAMPLING_METHODS),
                        default="naive",
                        help="variance-reduction plan for the campaign")
    submit.add_argument("--target-ci-width", type=float, default=None,
                        metavar="W",
                        help="anytime-valid CI width at which the campaign "
                             "stops early")
    submit.add_argument("--modes", action="store_true",
                        help="collect failure-mode attribution")
    submit.add_argument("--telemetry", action="store_true",
                        help="attach deterministic engine metrics to the "
                             "result")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first (default 0)")
    submit.add_argument("--workers", type=int, default=1,
                        help="requested worker processes (the service may "
                             "allot fewer under its fair-share budget)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job completes and print the "
                             "result")
    submit.add_argument("--wait-timeout", type=float, default=None,
                        metavar="S", help="give up waiting after S seconds")
    submit.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="poll interval while waiting (default 0.2)")

    status = sub.add_parser(
        "status", help="service health / job status / metrics"
    )
    add_client_options(status)
    status.add_argument("--job", metavar="ID", default=None,
                        help="show one job instead of service health")
    status.add_argument("--metrics", action="store_true",
                        help="include the service metrics registry")

    fetch = sub.add_parser(
        "fetch", help="fetch a completed job's result from the service"
    )
    add_client_options(fetch)
    fetch.add_argument("--job", metavar="ID", required=True)

    top = sub.add_parser(
        "top", help="live dashboard over a running campaign service"
    )
    top.add_argument("--url", default="http://127.0.0.1:8765",
                     help="campaign service endpoint")
    top.add_argument("--timeout", type=float, default=30.0, metavar="S",
                     help="per-request timeout seconds")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh interval (default 2s)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="frames to draw (default: until interrupted)")
    top.add_argument("--once", action="store_true",
                     help="draw a single frame and exit")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")
    return parser


# ---------------------------------------------------------------------- #
def cmd_overhead(args: argparse.Namespace) -> int:
    overhead = CitadelConfig().storage_overhead()
    if args.json:
        out(json.dumps(
            {
                "metadata_die_fraction": overhead.metadata_die_fraction,
                "parity_bank_fraction": overhead.parity_bank_fraction,
                "dram_fraction": overhead.dram_fraction,
                "sram_parity_bytes": overhead.sram_parity_bytes,
                "sram_rrt_bytes": overhead.sram_rrt_bytes,
                "sram_brt_bytes": overhead.sram_brt_bytes,
                "sram_bytes": overhead.sram_bytes,
            },
            indent=1,
            sort_keys=True,
        ))
        return 0
    out("Citadel storage overhead (§VII-E):")
    out(f"  metadata die       : {overhead.metadata_die_fraction:.3%}")
    out(f"  dim-1 parity bank  : {overhead.parity_bank_fraction:.3%}")
    out(f"  total DRAM         : {overhead.dram_fraction:.3%} "
        "(ECC DIMM: 12.5%)")
    out(f"  dim-2/3 parity SRAM: {overhead.sram_parity_bytes} B")
    out(f"  RRT SRAM           : {overhead.sram_rrt_bytes} B")
    out(f"  BRT SRAM           : {overhead.sram_brt_bytes} B")
    out(f"  total SRAM         : {overhead.sram_bytes} B (~35 KB)")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    if args.json:
        out(json.dumps(
            {name: asdict(WORKLOADS[name]) for name in sorted(WORKLOADS)},
            indent=1,
            sort_keys=True,
        ))
        return 0
    out(f"{'benchmark':<12} {'suite':<10} {'MPKI':>6} {'wr%':>5} "
        f"{'locality':>9} {'MLP':>4}")
    for name in sorted(WORKLOADS):
        p = WORKLOADS[name]
        out(f"{p.name:<12} {p.suite:<10} {p.mpki:>6.1f} "
            f"{p.write_fraction:>5.0%} {p.locality:>9.2f} {p.mlp:>4}")
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    from repro.service.jobs import CITADEL_DEFAULT_STANDBY_TSVS

    geometry = StackGeometry()
    if args.json:
        out(json.dumps(
            {
                name: {
                    "model": SCHEMES[name](geometry).name,
                    "implies_mitigations": name == "citadel",
                }
                for name in sorted(SCHEMES)
            },
            indent=1,
            sort_keys=True,
        ))
        return 0
    for name in sorted(SCHEMES):
        model = SCHEMES[name](geometry)
        extra = (
            f" (= 3dp + --tsv-swap {CITADEL_DEFAULT_STANDBY_TSVS} --dds)"
            if name == "citadel" else ""
        )
        out(f"{name:<24} {model.name}{extra}")
    return 0


def _campaign_spec(args: argparse.Namespace, **fields: Any) -> "CampaignSpec":
    """The :class:`CampaignSpec` of a campaign command: the shared
    :func:`add_campaign_options` knobs plus ``fields``."""
    from repro.service.jobs import CampaignSpec

    return CampaignSpec(
        scheme=args.scheme,
        trials=args.trials,
        tsv_fit=args.tsv_fit,
        tsv_swap=args.tsv_swap,
        dds=args.dds,
        scrub_hours=args.scrub_hours,
        seed=args.seed,
        **fields,
    )


def cmd_reliability(args: argparse.Namespace) -> int:
    spec = _campaign_spec(
        args,
        shard_size=args.shard_size,
        modes=args.modes,
        telemetry=args.telemetry or args.metrics_out is not None,
        sampling=args.sampling,
        target_ci_width=args.target_ci_width,
    )
    runner = spec.runner(
        args.workers,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        time_budget_s=args.time_budget,
        progress=args.progress,
        trace_path=args.trace_out,
        trace_sample_every=args.trace_sample_every,
    )
    result = runner.run(trials=spec.effective_trials)
    report = runner.last_report
    if args.metrics_out is not None:
        registry = result.metrics if result.metrics is not None else (
            MetricsRegistry()
        )
        write_json_atomic(Path(args.metrics_out), registry.to_dict())
        err(f"metrics written to {args.metrics_out}")
    if args.trace_out is not None:
        err(f"trace written to {args.trace_out}")
    if args.json:
        document: Dict[str, Any] = {"result": result.to_dict()}
        if report is not None:
            document["campaign"] = asdict(report)
        out(json.dumps(document, indent=1, sort_keys=True))
        return 0
    out(result.summary())
    if report is not None and (
        report.partial or report.stopped_early or report.resumed_shards
    ):
        err(
            f"campaign: {report.merged_shards}/{report.planned_shards} "
            f"shards merged ({report.resumed_shards} resumed, "
            f"{len(report.failed_shards)} failed)"
            + (", stopped early" if report.stopped_early else "")
            + (", interrupted" if report.interrupted else "")
            + (", time budget exhausted" if report.budget_exhausted else "")
        )
    if args.modes and result.failure_modes:
        out("failure modes:")
        for mode, count in result.top_failure_modes():
            out(f"  {mode:<40} {count}")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    geometry = StackGeometry()
    power_model = PowerModel(geometry)
    registry = (
        MetricsRegistry()
        if (args.telemetry or args.metrics_out is not None)
        else None
    )
    traces = rate_mode_traces(
        args.benchmark,
        geometry,
        cores=args.cores,
        requests_per_core=args.requests,
        seed=args.seed,
    )
    err(f"{args.benchmark}: {args.cores} cores x {args.requests} requests")
    baseline = None
    # Normalize against Same-Bank when it is selected.
    canonical = [c for c in PERF_CONFIGS if c in args.configs]
    canonical.sort(key=lambda c: c != "same-bank")
    rows: Dict[str, Dict[str, Any]] = {}
    for name in canonical:
        result = SystemSimulator(
            geometry, PERF_CONFIGS[name], metrics=registry
        ).run(traces)
        power = power_model.active_power_mw(result.counters)
        if baseline is None:
            baseline = (result.exec_cycles, power)
        rows[name] = {
            "exec_cycles": result.exec_cycles,
            "norm_time": result.exec_cycles / baseline[0],
            "norm_power": power / baseline[1],
            "row_buffer_hit_rate": result.row_buffer_hit_rate,
            "parity_lookups": result.parity_lookups,
            "parity_hit_rate": result.parity_hit_rate,
        }
    if args.metrics_out is not None:
        assert registry is not None
        write_json_atomic(Path(args.metrics_out), registry.to_dict())
        err(f"metrics written to {args.metrics_out}")
    if args.json:
        out(json.dumps(
            {
                "benchmark": args.benchmark,
                "cores": args.cores,
                "requests_per_core": args.requests,
                "results": rows,
            },
            indent=1,
            sort_keys=True,
        ))
        return 0
    out(f"{'config':<16} {'cycles':>12} {'norm time':>10} {'norm power':>11} "
        f"{'row hit':>8} {'parity hit':>11}")
    for name, row in rows.items():
        parity = (
            f"{row['parity_hit_rate']:>10.1%}" if row["parity_lookups"]
            else f"{'-':>10}"
        )
        out(
            f"{name:<16} {row['exec_cycles']:>12} "
            f"{row['norm_time']:>9.3f}x "
            f"{row['norm_power']:>10.2f}x "
            f"{row['row_buffer_hit_rate']:>7.1%} {parity}"
        )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    spec = _campaign_spec(
        args,
        shard_size=(
            args.shard_size if args.shard_size is not None
            else DEFAULT_REPLAY_SHARD_SIZE
        ),
        telemetry=args.telemetry or args.metrics_out is not None,
        mode="replay",
        workload=args.workload,
        requests=args.requests,
        replay_cores=args.cores,
        thermal=args.thermal,
    )
    runner = spec.runner(
        args.workers, checkpoint_path=args.checkpoint, resume=args.resume
    )
    err(
        f"replay: {args.workload} x {args.trials} trials "
        f"({args.cores} cores x {args.requests} requests each)"
    )
    result = runner.run(trials=spec.effective_trials)
    if args.metrics_out is not None:
        registry = result.metrics if result.metrics is not None else (
            MetricsRegistry()
        )
        write_json_atomic(Path(args.metrics_out), registry.to_dict())
        err(f"metrics written to {args.metrics_out}")
    summary = result.summary()
    if args.json:
        out(json.dumps(
            {
                "replay": result.to_dict(),
                "reliability": {
                    "failure_probability": result.failure_probability,
                    "failures": result.failures,
                    "trials": result.trials,
                    "stratum_weight": result.stratum_weight,
                    "min_faults": result.min_faults,
                },
                "performance": {
                    "baseline_exec_cycles": result.baseline_exec_cycles,
                    "mean_slowdown": result.mean_slowdown,
                    "worst_slowdown": result.worst_slowdown,
                    "extra_requests": result.extra_requests,
                    "delay_cycles": result.delay_cycles,
                },
                "power": {
                    "baseline_energy_nj": result.baseline_energy_nj,
                    "mean_energy_overhead": result.mean_energy_overhead,
                },
            },
            indent=1,
            sort_keys=True,
        ))
        return 0
    out(f"{summary['label']} on {summary['workload']}: "
        f"{summary['trials']} trials")
    out(f"  failure probability   {summary['failure_probability']:.3e}")
    out(f"  mean slowdown         {summary['mean_slowdown']:.4f}x")
    out(f"  worst slowdown        {summary['worst_slowdown']:.4f}x")
    out(f"  mean energy overhead  {summary['mean_energy_overhead']:.4f}x")
    out(f"  protection traffic    {summary['extra_requests']} requests, "
        f"{summary['delay_cycles']} stall cycles")
    if result.event_counts:
        events = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(result.event_counts.items())
        )
        out(f"  timeline events       {events}")
    return 0


# ---------------------------------------------------------------------- #
# Campaign service
# ---------------------------------------------------------------------- #
def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.http import make_server
    from repro.service.scheduler import CampaignScheduler
    from repro.service.store import ResultStore
    from repro.telemetry.tracing import TraceWriter

    metrics = MetricsRegistry()
    store = ResultStore(
        Path(args.store_dir),
        max_disk_entries=args.store_entries,
        metrics=metrics,
    )
    tracer = (
        TraceWriter(Path(args.trace_out))
        if args.trace_out is not None
        else None
    )
    scheduler = CampaignScheduler(
        store,
        slots=args.slots,
        process_budget=args.process_budget,
        retry_backoff_s=args.retry_backoff,
        default_max_retries=args.retries,
        metrics=metrics,
        tracer=tracer,
    ).start()
    server = make_server(scheduler, args.host, args.port, quiet=args.quiet)
    # Graceful drain on SIGINT *and* SIGTERM: flip /readyz to 503
    # immediately (so load balancers stop routing here) but KEEP the
    # HTTP server answering while a background thread drains the
    # scheduler; only then is the serve loop stopped.  Re-installing
    # the SIGINT handler matters when the service runs as a shell
    # background job, where SIGINT starts out ignored.
    drain_started = threading.Event()

    def _begin_drain() -> None:
        if drain_started.is_set():
            return
        drain_started.set()
        scheduler.begin_drain()
        err("campaign service: shutdown requested; draining jobs "
            "(readiness now 503) ...")

        def _drain() -> None:
            scheduler.shutdown(drain=True)
            server.shutdown()

        threading.Thread(target=_drain, name="repro-drain",
                         daemon=True).start()

    def _request_shutdown(signum: int, _frame: Any) -> None:
        _begin_drain()
    try:
        import signal
        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)
    except ValueError:  # not the main thread (embedded/test use)
        pass
    err(
        f"campaign service listening on http://{args.host}:{server.port} "
        f"(store: {store.root}, slots: {scheduler.slots}, "
        f"process budget: {scheduler.process_budget})"
    )
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        # Signal handler not installed (embedded/test use): drain inline.
        err("campaign service: interrupt received, draining jobs ...")
    finally:
        server.server_close()
        scheduler.shutdown(drain=True)
        if tracer is not None:
            tracer.close()
        if args.metrics_out is not None:
            write_json_atomic(
                Path(args.metrics_out), scheduler.metrics_snapshot().to_dict()
            )
            err(f"service metrics written to {args.metrics_out}")
    err("campaign service stopped")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url, timeout_s=args.timeout)
    spec = _campaign_spec(
        args,
        scale=args.scale,
        shard_size=args.shard_size,
        modes=args.modes,
        telemetry=args.telemetry,
        sampling=args.sampling,
        target_ci_width=args.target_ci_width,
    )
    job = client.submit(
        spec, priority=args.priority, workers=args.workers
    )
    if not args.wait:
        if args.json:
            out(json.dumps({"job": job}, indent=1, sort_keys=True))
        else:
            out(
                f"job {job['id']} state={job['state']} "
                f"cache_hit={str(job['cache_hit']).lower()}"
            )
        return 0
    err(f"submitted job {job['id']}; waiting ...")
    client.wait(
        job["id"], timeout_s=args.wait_timeout, poll_interval_s=args.poll
    )
    document = client.result_document(job["id"])
    if args.json:
        out(json.dumps(document, indent=1, sort_keys=True))
        return 0
    result = ReliabilityResult.from_dict(document["result"])
    out(result.summary())
    final = document["job"]
    err(
        f"job {final['id']}: cache_hit={str(final['cache_hit']).lower()} "
        f"attempts={final['attempts']}"
    )
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url, timeout_s=args.timeout)
    if args.job is not None:
        job = client.job(args.job)
        document = {"job": job}
        manifest_doc: Optional[Dict[str, Any]] = None
        if job.get("state") == "done":
            try:
                result_doc = client.result_document(args.job)
                manifest_doc = result_doc["result"].get("manifest")
            except ReproError:
                manifest_doc = None  # evicted/raced result: job line only
        if manifest_doc is not None:
            document["manifest"] = manifest_doc
        if args.json:
            out(json.dumps(document, indent=1, sort_keys=True))
        else:
            out(
                f"job {job['id']} state={job['state']} "
                f"attempts={job['attempts']} "
                f"cache_hit={str(job['cache_hit']).lower()}"
                + (f" error={job['error']}" if job.get("error") else "")
            )
            if manifest_doc is not None:
                from repro.telemetry.manifest import RunManifest

                out("provenance:")
                for line in RunManifest.from_dict(manifest_doc).describe():
                    out(f"  {line}")
        return 0
    document = {"health": client.healthz()}
    if args.metrics:
        document["metrics"] = client.metrics()
    if args.json:
        out(json.dumps(document, indent=1, sort_keys=True))
        return 0
    health = document["health"]
    out(f"status: {health['status']}")
    if "ready" in health:
        out(f"ready: {str(health['ready']).lower()}")
    out(f"queue depth: {health['queue_depth']}")
    out(f"store entries: {health['store_entries']}")
    for state, count in sorted(health["jobs"].items()):
        out(f"  {state:<10} {count}")
    if args.metrics:
        out(MetricsRegistry.from_dict(document["metrics"]).render())
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url, timeout_s=args.timeout)
    document = client.result_document(args.job)
    if args.json:
        out(json.dumps(document, indent=1, sort_keys=True))
        return 0
    out(ReliabilityResult.from_dict(document["result"]).summary())
    return 0


# ---------------------------------------------------------------------- #
def _export_trace(args: argparse.Namespace) -> int:
    """``stats --export``: convert a JSONL trace into a downstream
    format (Chrome ``trace_event`` JSON or collapsed span stacks)."""
    from repro.telemetry.profile import (
        collapse_spans,
        trace_to_chrome,
        write_collapsed,
    )
    from repro.telemetry.tracing import read_trace

    records = read_trace(Path(args.trace))
    if args.export == "chrome":
        document = trace_to_chrome(records)
        if args.export_out is not None:
            write_json_atomic(Path(args.export_out), document)
            err(f"chrome trace written to {args.export_out}")
        else:
            out(json.dumps(document, indent=1, sort_keys=True))
        return 0
    lines = collapse_spans(records)
    if args.export_out is not None:
        write_collapsed(lines, Path(args.export_out))
        err(f"collapsed spans written to {args.export_out}")
    else:
        for line in lines:
            out(line)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.export is not None:
        if args.trace is None:
            err("stats: --export requires --trace")
            return 2
        return _export_trace(args)
    if not args.metrics and args.trace is None:
        err("stats: pass --metrics and/or --trace (nothing to summarize)")
        return 2
    registry: Optional[MetricsRegistry] = None
    if args.metrics:
        registry = MetricsRegistry.merge_all(
            [load_metrics_file(Path(p)) for p in args.metrics]
        )
    trace_summary = (
        summarize_trace(Path(args.trace)) if args.trace is not None else None
    )
    if args.json:
        document: Dict[str, Any] = {}
        if registry is not None:
            document["metrics"] = registry.to_dict()
            document["derived"] = derived_stats(registry)
        if trace_summary is not None:
            document["trace"] = trace_summary
        out(json.dumps(document, indent=1, sort_keys=True))
        return 0
    if registry is not None:
        derived = derived_stats(registry)
        dims = derived.get("parity_corrections_by_dimension")
        if dims:
            out("3DP corrections by dimension:")
            for dim, count in sorted(dims.items()):
                out(f"  {dim:<6} {count}")
        causes = derived.get("uncorrectable_causes")
        if causes:
            out("uncorrectable fault combinations:")
            for cause, count in sorted(causes.items()):
                out(f"  {cause:<40} {count}")
        if "parity_cache_hit_rate" in derived:
            out(f"parity cache hit rate: "
                f"{derived['parity_cache_hit_rate']:.1%}")
        if "trials" in derived:
            out(f"trials: {derived['trials']}  "
                f"failures: {derived['failures']}  "
                f"faults sampled: {derived['faults_sampled']}")
        out("")
        out(registry.render())
    if trace_summary is not None:
        out("trace spans:")
        for name, entry in sorted(trace_summary["spans"].items()):
            out(f"  {name:<12} n={entry['count']} "
                f"total={entry['total_seconds']:.3f}s")
        if trace_summary["events"]:
            out("trace events:")
            for name, count in sorted(trace_summary["events"].items()):
                out(f"  {name:<12} n={count}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from repro.telemetry.profile import (
        SamplingProfiler,
        collapse_spans,
        trace_to_chrome,
        write_collapsed,
    )
    from repro.telemetry.tracing import read_trace

    spec = _campaign_spec(
        args,
        shard_size=args.shard_size,
        sampling=args.sampling,
    )
    tmpdir: Optional[str] = None
    if args.trace_out is not None:
        trace_path = Path(args.trace_out)
    else:
        tmpdir = tempfile.mkdtemp(prefix="repro-profile-")
        trace_path = Path(tmpdir) / "trace.jsonl"
    try:
        # Serial: one trace file, one thread to sample.
        runner = spec.runner(
            1,
            trace_path=str(trace_path),
            trace_sample_every=args.trace_sample_every,
        )
        profiler = (
            None if args.no_sampler
            else SamplingProfiler(interval_s=args.interval)
        )
        started = monotonic_s()
        if profiler is not None:
            profiler.start()
        try:
            result = runner.run(trials=spec.effective_trials)
        finally:
            if profiler is not None:
                profiler.stop()
        wall_s = monotonic_s() - started
        records = read_trace(trace_path)
        span_lines = collapse_spans(records)
        hotspots = []
        for line in span_lines:
            stack, count = line.rsplit(" ", 1)
            hotspots.append((stack, int(count)))
        hotspots.sort(key=lambda item: (-item[1], item[0]))
        err(
            f"campaign: p_fail={result.failure_probability:.3e} "
            f"({result.trials} trials in {wall_s:.2f}s)"
        )
        if profiler is not None:
            err(
                f"sampler: {profiler.sample_count} samples at "
                f"{args.interval * 1000:.1f} ms"
            )
        if args.spans_out is not None:
            write_collapsed(span_lines, Path(args.spans_out))
            err(f"span stacks written to {args.spans_out}")
        if args.collapsed_out is not None:
            if profiler is None:
                err("profile: --collapsed-out ignored with --no-sampler")
            else:
                write_collapsed(profiler.collapsed(), Path(args.collapsed_out))
                err(f"sample stacks written to {args.collapsed_out}")
        if args.chrome_out is not None:
            write_json_atomic(Path(args.chrome_out), trace_to_chrome(records))
            err(f"chrome trace written to {args.chrome_out}")
        if args.trace_out is not None:
            err(f"trace written to {args.trace_out}")
        if args.json:
            document: Dict[str, Any] = {
                "trials": result.trials,
                "span_hotspots": [
                    {"stack": stack, "count": count}
                    for stack, count in hotspots
                ],
            }
            if profiler is not None:
                # Volatile by nature: sample counts vary run to run.
                document["sampler"] = {
                    "samples": profiler.sample_count,
                    "interval_s": args.interval,
                }
            out(json.dumps(document, indent=1, sort_keys=True))
            return 0
        out(f"span hotspots (trial-weighted, {result.trials} trials):")
        for stack, count in hotspots[: args.top]:
            out(f"  {count:>8}  {stack}")
        return 0
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)


def cmd_top(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient
    from repro.telemetry.top import run_top

    client = ServiceClient(args.url, timeout_s=args.timeout)
    iterations = 1 if args.once else args.iterations
    clear = not args.no_clear and iterations != 1
    try:
        run_top(
            client,
            iterations=iterations,
            interval_s=args.interval,
            clear=clear,
        )
    except KeyboardInterrupt:
        err("repro top: stopped")
    return 0


COMMANDS = {
    "overhead": cmd_overhead,
    "workloads": cmd_workloads,
    "schemes": cmd_schemes,
    "reliability": cmd_reliability,
    "perf": cmd_perf,
    "replay": cmd_replay,
    "stats": cmd_stats,
    "profile": cmd_profile,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "fetch": cmd_fetch,
    "top": cmd_top,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except TelemetryError as exc:
        err(f"error: {exc}")
        return 2
    except ReproError as exc:
        err(f"error: {exc}")
        return 1
    except BrokenPipeError:
        # Downstream consumer closed stdout (``repro stats | head``);
        # detach so the interpreter's exit-time flush cannot raise too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
