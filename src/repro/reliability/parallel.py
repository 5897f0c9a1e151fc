"""Parallel sharded Monte-Carlo campaigns with checkpoint/resume.

:class:`ParallelLifetimeRunner` splits a lifetime-reliability campaign
into fixed-size *shards* and fans them out over ``multiprocessing``
workers.  The shard plan is a pure function of ``(trials, shard_size)``
and each shard draws from its own generator seeded with
``derive_seed(root_seed, "shard", index)``, so the merged
:class:`~repro.reliability.results.ReliabilityResult` is identical for
any worker count — ``workers=1`` (which runs the same shards in-process,
no pool) and ``workers=8`` produce byte-identical aggregates.

Robustness features for long campaigns:

* **Checkpointing** — the checkpoint is an append-only JSON Lines
  segment (:class:`~repro.telemetry.files.JsonlSegment`): a fingerprint
  header line, then one ``{"index", "shard"}`` line appended per
  completed shard, so checkpointing costs O(1) per shard.  A killed
  campaign resumes with ``resume=True`` and re-runs only missing shards;
  a torn final line is dropped on resume.  The fingerprint of the shard
  plan guards against resuming someone else's checkpoint
  (:class:`~repro.errors.CheckpointError`).
* **Wall-clock budget** — ``time_budget_s`` stops dispatching new shards
  once exceeded; completed shards are merged into an accurate partial
  result.
* **Graceful interrupt** — ``KeyboardInterrupt`` drains already-running
  shards, checkpoints them, and returns the partial aggregate instead of
  losing the campaign.
* **Worker-crash containment** — a shard that raises is recorded as
  failed and excluded from the merge (trial counts stay accurate); a
  hard worker death (``BrokenProcessPool``) aborts dispatch but still
  returns the completed prefix.
* **Early stopping** — an optional sequential-probability rule stops the
  campaign once the failure-probability confidence interval over the
  *contiguous shard prefix* is tight enough.  Evaluating the rule on the
  prefix (never on whichever shards happened to finish first) keeps the
  stopped result deterministic across worker counts.  The prefix is
  merged incrementally, so each shard is folded in and checked once.

Observability (all opt-in, none of it feeds back into the simulation):

* ``progress=True`` — a throttled stderr heartbeat with shards done,
  trial throughput, ETA and remaining wall-clock budget.
* ``trace_path`` — a structured JSONL trace: one ``campaign`` span, one
  ``shard`` span (serial mode) or ``shard_completed`` event (pool mode)
  per shard; in serial mode the tracer also reaches the trial loop for
  sampled ``trial`` spans and ``correction`` events.  Pool workers do
  not trace (a trace sink does not cross process boundaries).
* ``last_campaign_metrics`` — wall-clock campaign metrics (shard latency
  histogram, completion counters).  Deliberately kept *outside* the
  merged :class:`ReliabilityResult`, whose ``metrics`` sidecar only ever
  carries the deterministic per-shard snapshots, so the merged result
  stays byte-identical for any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    IO,
    Any,
    Callable,
    ContextManager,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro import contracts
from repro.ecc.base import CorrectionModel
from repro.errors import CheckpointError
from repro.faults.rates import FailureRates
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.reliability.results import ReliabilityResult
from repro.reliability.stopping import StoppingRule
from repro.rng import derive_seed
from repro.stack.geometry import StackGeometry
from repro.telemetry.files import JsonlSegment
from repro.telemetry.manifest import RunManifest, schemes_registry_hash
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import TraceWriter

#: v2: ``EngineConfig`` grew ``collect_metrics``; v3: it grew
#: ``incremental_correction`` (the fingerprint embeds ``asdict(config)``,
#: so older checkpoints cannot be resumed); v4: it grew ``sampling`` /
#: ``target_ci_width`` and shard results grew per-stratum tallies
#: (``ReliabilityResult.strata``); v5: merged results grew the optional
#: run-provenance ``manifest`` sidecar; v6: ``EngineConfig`` grew
#: ``thermal_bank_fit`` (the replay engine's thermal-FIT feedback);
#: v7: ``EngineConfig`` grew ``batch_trials`` (the vectorized trial
#: kernel toggle); v8: the whole-table JSON checkpoint became an
#: append-only JSON Lines segment (fingerprint header, one line per
#: shard).
CHECKPOINT_VERSION = 8

#: Bucket edges (seconds) of the wall-clock shard-latency histogram kept
#: in ``last_campaign_metrics`` (volatile: never merged into results).
SHARD_SECONDS_EDGES = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)

#: Default trials per shard: small enough that an 8-worker run of a
#: 20k-trial bench balances well, large enough that per-shard overhead
#: (process dispatch, injector setup) stays negligible.
DEFAULT_SHARD_SIZE = 2500


@dataclass(frozen=True)
class ShardSpec:
    """One unit of the campaign: ``trials`` lifetimes from one seed."""

    index: int
    seed: int
    trials: int


def shard_plan(trials: int, shard_size: int, root_seed: int) -> List[ShardSpec]:
    """The deterministic shard decomposition of a campaign.

    Depends only on ``(trials, shard_size, root_seed)`` — never on the
    worker count — which is what makes merged results reproducible on
    any machine shape.
    """
    contracts.require(trials >= 0, "trials must be >= 0, got %r", trials)
    contracts.require(
        shard_size > 0, "shard_size must be positive, got %r", shard_size
    )
    shards: List[ShardSpec] = []
    done = 0
    while done < trials:
        size = min(shard_size, trials - done)
        index = len(shards)
        shards.append(
            ShardSpec(
                index=index,
                seed=derive_seed(root_seed, "shard", index),
                trials=size,
            )
        )
        done += size
    return shards


@dataclass(frozen=True)
class ShardCheckpoint:
    """A campaign checkpoint: a :class:`JsonlSegment` whose header is the
    campaign fingerprint, then one ``{"index", "shard"}`` record per
    completed shard."""

    segment: JsonlSegment

    def append(self, index: int, shard: Dict[str, Any]) -> None:
        """Record one completed shard (its result dict, as serialized)."""
        self.segment.append([{"index": index, "shard": shard}])


_Shard = TypeVar("_Shard")


def open_checkpoint(
    path: Optional[Path],
    fingerprint: Dict[str, Any],
    resume: bool,
    from_dict: Callable[[Dict[str, Any]], _Shard],
) -> Tuple[Optional[ShardCheckpoint], Dict[int, _Shard]]:
    """Open a campaign's checkpoint and load the shards it holds.

    Returns ``(None, {})`` without a path.  Without ``resume`` a fresh
    checkpoint replaces any file at ``path``.
    """
    if path is None:
        return None, {}
    if not resume:
        return ShardCheckpoint(JsonlSegment.create(path, fingerprint)), {}
    segment, records = JsonlSegment.reopen(path, fingerprint)
    try:
        return ShardCheckpoint(segment), {
            int(record["index"]): from_dict(record["shard"])
            for record in records
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"malformed shard record in checkpoint {path}: {exc}"
        ) from exc


@dataclass(frozen=True)
class EarlyStopPolicy:
    """Stop once the failure-probability CI over the shard prefix is tight.

    The rule fires when at least ``min_failures`` failures have been
    observed *and* the ``z``-score confidence half-width is at most
    ``rel_halfwidth`` of the point estimate.  Requiring a failure floor
    first keeps the rule from triggering on the lucky all-zero prefixes
    of a rare-failure campaign.
    """

    rel_halfwidth: float = 0.1
    min_failures: int = 100
    z: float = 1.96

    def __post_init__(self) -> None:
        contracts.require(
            self.rel_halfwidth > 0,
            "rel_halfwidth must be positive, got %r",
            self.rel_halfwidth,
        )
        contracts.check_non_negative(self.min_failures, "min_failures")

    def satisfied(self, prefix: ReliabilityResult) -> bool:
        if prefix.trials == 0 or prefix.failures < self.min_failures:
            return False
        p = prefix.failure_probability
        if p <= 0.0:
            return False
        return self.z * prefix.std_error <= self.rel_halfwidth * p


@dataclass(frozen=True)
class CrashInjection:
    """Fault-injection hooks for the runner's own fault-tolerance tests.

    ``raise_on`` makes the worker raise ``RuntimeError`` for those shard
    indices (a contained per-shard failure); ``exit_on`` makes the worker
    process die with ``os._exit`` (an uncontained crash that breaks the
    pool).  Production campaigns leave both empty.
    """

    raise_on: FrozenSet[int] = frozenset()
    exit_on: FrozenSet[int] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.raise_on or self.exit_on)


@dataclass
class CampaignReport:
    """Bookkeeping for one :meth:`ParallelLifetimeRunner.run` call."""

    planned_shards: int = 0
    completed_shards: int = 0
    resumed_shards: int = 0
    failed_shards: List[int] = field(default_factory=list)
    merged_shards: int = 0
    elapsed_seconds: float = 0.0
    stopped_early: bool = False
    interrupted: bool = False
    budget_exhausted: bool = False
    pool_broken: bool = False
    cancelled: bool = False

    @property
    def partial(self) -> bool:
        """True when the campaign ran fewer shards than planned for any
        reason other than a deterministic early stop."""
        return (
            self.merged_shards < self.planned_shards
            and not self.stopped_early
        )


@dataclass
class _StopPrefix:
    """Running left fold of the contiguous completed-shard prefix.

    ``merged`` covers shards ``0 .. next_index - 1``; ``stop`` is the
    first index at which a stopping rule held, once one has.
    """

    merged: ReliabilityResult = field(default_factory=ReliabilityResult.identity)
    next_index: int = 0
    stop: Optional[int] = None


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker process needs to run one shard."""

    spec: ShardSpec
    geometry: StackGeometry
    rates: FailureRates
    model: CorrectionModel
    config: EngineConfig
    min_faults: int
    label: str
    crash: CrashInjection


def _run_shard(
    task: _ShardTask, tracer: Optional[TraceWriter] = None
) -> Tuple[int, Dict[str, Any], float]:
    """Worker entry point (module-level so it pickles).

    Returns ``(shard index, result dict, wall seconds)``.  The elapsed
    time feeds the parent's volatile campaign metrics only; the result
    dict carries nothing wall-clock-derived.  ``tracer`` is only ever
    non-None in the serial (``workers=1``) in-process path.
    """
    if task.spec.index in task.crash.exit_on:
        os._exit(17)
    if task.spec.index in task.crash.raise_on:
        raise RuntimeError(
            f"injected crash in shard {task.spec.index} (CrashInjection)"
        )
    started = time.monotonic()
    sim = LifetimeSimulator(
        task.geometry,
        task.rates,
        task.model,
        task.config,
        seed=task.spec.seed,
        tracer=tracer,
    )
    result = sim.run(
        trials=task.spec.trials,
        min_faults=task.min_faults,
        label=task.label,
    )
    return task.spec.index, result.to_dict(), time.monotonic() - started


class ParallelLifetimeRunner:
    """Sharded, resumable, multi-process lifetime-reliability campaigns.

    Drop-in upgrade of :class:`LifetimeSimulator.run`: construction takes
    the same ``(geometry, rates, model, config)`` tuple plus a
    ``root_seed``, and :meth:`run` returns the same
    :class:`ReliabilityResult` type the serial engine produces.
    """

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        model: CorrectionModel,
        config: Optional[EngineConfig] = None,
        *,
        root_seed: int = 0,
        workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        time_budget_s: Optional[float] = None,
        early_stop: Optional[EarlyStopPolicy] = None,
        stopping: Optional[StoppingRule] = None,
        crash_injection: Optional[CrashInjection] = None,
        progress: bool = False,
        progress_interval_s: float = 1.0,
        progress_stream: Optional[IO[str]] = None,
        trace_path: Optional[Union[str, Path]] = None,
        trace_sample_every: int = 1,
        cancel_hook: Optional[Callable[[], bool]] = None,
    ) -> None:
        contracts.require(workers >= 1, "workers must be >= 1, got %r", workers)
        contracts.require(
            shard_size > 0, "shard_size must be positive, got %r", shard_size
        )
        contracts.require(
            time_budget_s is None or time_budget_s > 0,
            "time_budget_s must be positive, got %r",
            time_budget_s,
        )
        self.geometry = geometry
        self.rates = rates
        self.model = model
        self.config = config if config is not None else EngineConfig()
        self.root_seed = root_seed
        self.workers = workers
        self.shard_size = shard_size
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.resume = resume
        self.time_budget_s = time_budget_s
        self.early_stop = early_stop
        #: Anytime-valid stopping rule, consulted on the contiguous shard
        #: prefix alongside ``early_stop``.  When None but the engine
        #: config sets ``target_ci_width``, :meth:`run` resolves a default
        #: :class:`StoppingRule` — the path the campaign service uses.
        self.stopping = stopping
        self.crash_injection = (
            crash_injection if crash_injection is not None else CrashInjection()
        )
        self.progress = progress
        self.progress_interval_s = progress_interval_s
        self.progress_stream = progress_stream
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self.trace_sample_every = trace_sample_every
        #: Cooperative cancellation: polled between shards (serial mode)
        #: and between completions (pool mode).  When it returns True the
        #: campaign stops dispatching, checkpoints what completed, and
        #: returns the partial merge with ``report.cancelled`` set —
        #: the embedding the campaign service uses to cancel running
        #: jobs without killing worker processes mid-shard.
        self.cancel_hook = cancel_hook
        self.last_report: Optional[CampaignReport] = None
        #: Wall-clock campaign observability (shard latency, completion
        #: counters).  Kept runner-side, never merged into the result.
        self.last_campaign_metrics: Optional[MetricsRegistry] = None
        self._reporter: Optional[ProgressReporter] = None
        self._tracer: Optional[TraceWriter] = None
        self._campaign: Optional[MetricsRegistry] = None
        self._active_stopping: Optional[StoppingRule] = None
        self._checkpoint: Optional[ShardCheckpoint] = None
        self._prefix = _StopPrefix()
        self._trials_done = 0

    # ------------------------------------------------------------------ #
    def run(
        self,
        trials: int,
        min_faults: Optional[int] = None,
        label: Optional[str] = None,
    ) -> ReliabilityResult:
        """Run (or resume) the campaign and return the merged result.

        ``self.last_report`` carries the campaign bookkeeping
        (shard counts, early-stop / interrupt / budget flags).
        """
        started = time.monotonic()
        template = LifetimeSimulator(
            self.geometry,
            self.rates,
            self.model,
            self.config,
            seed=self.root_seed,
        )
        resolved_min = (
            template.default_min_faults() if min_faults is None else min_faults
        )
        resolved_label = label if label is not None else template.scheme_label()
        self._active_stopping = self.stopping
        if self._active_stopping is None and self.config.target_ci_width is not None:
            self._active_stopping = StoppingRule(self.config.target_ci_width)
        shards = shard_plan(trials, self.shard_size, self.root_seed)
        report = CampaignReport(planned_shards=len(shards))
        fingerprint = self._fingerprint(trials, resolved_min, resolved_label)

        self._checkpoint, completed = open_checkpoint(
            self.checkpoint_path,
            fingerprint,
            self.resume,
            ReliabilityResult.from_dict,
        )
        report.resumed_shards = len(completed)
        self._prefix = _StopPrefix()
        self._trials_done = sum(r.trials for r in completed.values())
        pending = [s for s in shards if s.index not in completed]

        self._campaign = MetricsRegistry()
        self._reporter = (
            ProgressReporter(
                total_shards=len(shards),
                total_trials=trials,
                label=resolved_label,
                stream=self.progress_stream,
                min_interval_s=self.progress_interval_s,
                time_budget_s=self.time_budget_s,
            )
            if self.progress
            else None
        )
        self._tracer = (
            TraceWriter(self.trace_path, sample_every=self.trace_sample_every)
            if self.trace_path is not None
            else None
        )
        campaign_span: ContextManager[Any] = (
            self._tracer.span(
                "campaign",
                label=resolved_label,
                trials=trials,
                shards=len(shards),
                workers=self.workers,
            )
            if self._tracer is not None
            else nullcontext()
        )
        try:
            with campaign_span:
                try:
                    if self.workers == 1:
                        self._run_serial(pending, completed, report,
                                         resolved_min, resolved_label, started)
                    else:
                        self._run_pool(pending, completed, report,
                                       resolved_min, resolved_label, started)
                except KeyboardInterrupt:
                    report.interrupted = True
        finally:
            if self._reporter is not None:
                self._reporter.finish(len(completed), self._trials_done)
            if self._tracer is not None:
                self._tracer.close()
            self._campaign.inc("campaign/shards_completed",
                               report.completed_shards)
            self._campaign.inc("campaign/shards_failed",
                               len(report.failed_shards))
            if report.pool_broken:
                self._campaign.inc("campaign/pool_broken")
            self.last_campaign_metrics = self._campaign
            self._reporter = None
            self._tracer = None
            self._campaign = None
            self._checkpoint = None

        merged = self._merge(shards, completed, report)
        if merged.is_identity:
            # Nothing completed (0 trials, or everything crashed/stopped):
            # return an empty-but-labelled result rather than the bare
            # identity so downstream summaries stay readable.
            merged = ReliabilityResult(
                scheme_name=resolved_label,
                trials=0,
                failures=0,
                stratum_weight=1.0,
                lifetime_hours=self.config.lifetime_hours,
                min_faults=resolved_min,
            )
        merged.manifest = self._build_manifest(trials, resolved_label)
        self._record_campaign_outcome(trials, merged, report)
        report.elapsed_seconds = time.monotonic() - started
        self.last_report = report
        return merged

    def _build_manifest(self, trials: int, label: str) -> RunManifest:
        """Provenance of this campaign: a pure function of the campaign
        configuration (worker count and wall clock excluded), so merged
        results stay byte-identical for any worker count."""
        from repro import __version__

        return RunManifest(
            scheme=label,
            seed=self.root_seed,
            trials=trials,
            shard_size=self.shard_size,
            sampling=self.config.sampling,
            target_ci_width=self.config.target_ci_width,
            checkpoint_version=CHECKPOINT_VERSION,
            schemes_hash=schemes_registry_hash(),
            package_version=__version__,
        )

    def _record_campaign_outcome(
        self,
        planned_trials: int,
        merged: ReliabilityResult,
        report: CampaignReport,
    ) -> None:
        """Volatile campaign observability for the stopping layer: trials
        saved by stopping early, final anytime-valid CI width, and the
        effective (importance-weighted) failure count of the merge."""
        registry = self.last_campaign_metrics
        if registry is None:
            return
        if report.stopped_early:
            registry.inc(
                "campaign/trials_saved",
                max(0, planned_trials - merged.trials),
            )
        if self._active_stopping is not None:
            lo, hi = self._active_stopping.interval(merged)
            registry.gauge_set("campaign/ci_width", hi - lo, volatile=True)
        registry.gauge_set(
            "campaign/effective_failures",
            merged.effective_failures(),
            volatile=True,
        )

    # ------------------------------------------------------------------ #
    def _run_serial(
        self,
        pending: Sequence[ShardSpec],
        completed: Dict[int, ReliabilityResult],
        report: CampaignReport,
        min_faults: int,
        label: str,
        started: float,
    ) -> None:
        """``workers=1`` degenerate case: same shards, same merge, no pool."""
        for spec in pending:
            if self._cancel_requested():
                report.cancelled = True
                break
            if self._out_of_budget(started):
                report.budget_exhausted = True
                break
            task = self._task(spec, min_faults, label)
            tracer = self._tracer
            shard_span: ContextManager[Any] = (
                tracer.span("shard", index=spec.index, trials=spec.trials)
                if tracer is not None
                else nullcontext()
            )
            try:
                with shard_span:
                    # Single-arg call when untraced keeps drop-in shims
                    # (tests monkeypatch ``_run_shard(task)``) working.
                    index, payload, seconds = (
                        _run_shard(task, tracer)
                        if tracer is not None
                        else _run_shard(task)
                    )
            except (RuntimeError, OSError):
                report.failed_shards.append(spec.index)
                continue
            self._accept(completed, report, index, payload, seconds)
            self._emit_progress(completed)
            if self._stop_index(completed) is not None:
                report.stopped_early = True
                break

    def _run_pool(
        self,
        pending: Sequence[ShardSpec],
        completed: Dict[int, ReliabilityResult],
        report: CampaignReport,
        min_faults: int,
        label: str,
        started: float,
    ) -> None:
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures: Dict[Future[Tuple[int, Dict[str, Any]]], ShardSpec] = {
                pool.submit(_run_shard, self._task(spec, min_faults, label)): spec
                for spec in pending
            }
            try:
                while futures:
                    done, _ = wait(
                        futures, timeout=0.5, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        spec = futures.pop(future)
                        try:
                            index, payload, seconds = future.result()
                        except BrokenProcessPool:
                            report.pool_broken = True
                            report.failed_shards.append(spec.index)
                            continue
                        except Exception:
                            report.failed_shards.append(spec.index)
                            continue
                        self._accept(completed, report, index, payload, seconds)
                        self._emit_progress(completed)
                        if self._tracer is not None:
                            self._tracer.event(
                                "shard_completed",
                                index=index,
                                trials=spec.trials,
                                seconds=seconds,
                            )
                    if report.pool_broken:
                        for future in list(futures):
                            future.cancel()
                            report.failed_shards.append(
                                futures.pop(future).index
                            )
                        break
                    if self._stop_index(completed) is not None:
                        report.stopped_early = True
                        self._cancel_all(futures)
                        break
                    if self._cancel_requested():
                        report.cancelled = True
                        self._cancel_all(futures)
                        break
                    if self._out_of_budget(started):
                        report.budget_exhausted = True
                        self._cancel_all(futures)
                        break
            except KeyboardInterrupt:
                # Graceful drain: stop dispatching, let running shards
                # finish, fold them in, then re-raise for run() to flag.
                self._cancel_all(futures)
                for future, spec in futures.items():
                    if future.cancelled():
                        continue
                    try:
                        index, payload, seconds = future.result()
                    except Exception:
                        report.failed_shards.append(spec.index)
                        continue
                    self._accept(completed, report, index, payload, seconds)
                raise

    @staticmethod
    def _cancel_all(
        futures: Dict[Future[Tuple[int, Dict[str, Any]]], ShardSpec]
    ) -> None:
        for future in futures:
            future.cancel()

    # ------------------------------------------------------------------ #
    def _task(self, spec: ShardSpec, min_faults: int, label: str) -> _ShardTask:
        return _ShardTask(
            spec=spec,
            geometry=self.geometry,
            rates=self.rates,
            model=self.model,
            config=self.config,
            min_faults=min_faults,
            label=label,
            crash=self.crash_injection,
        )

    def _accept(
        self,
        completed: Dict[int, ReliabilityResult],
        report: CampaignReport,
        index: int,
        payload: Dict[str, Any],
        seconds: float,
    ) -> None:
        """Fold one finished shard into the campaign: checkpoint the
        worker's result dict as is (no re-serialization), then keep it."""
        if self._checkpoint is not None:
            self._checkpoint.append(index, payload)
        result = ReliabilityResult.from_dict(payload)
        completed[index] = result
        self._trials_done += result.trials
        report.completed_shards += 1
        self._observe_shard(seconds)

    def _observe_shard(self, seconds: float) -> None:
        """Record one shard's wall-clock latency (volatile campaign metrics)."""
        if self._campaign is None:
            return
        self._campaign.observe(
            "campaign/shard_seconds",
            seconds,
            edges=SHARD_SECONDS_EDGES,
            volatile=True,
        )
        self._campaign.record_seconds("campaign/shard_time", seconds)

    def _emit_progress(
        self, completed: Dict[int, ReliabilityResult]
    ) -> None:
        if self._reporter is not None:
            self._reporter.update(len(completed), self._trials_done)

    def _cancel_requested(self) -> bool:
        return self.cancel_hook is not None and self.cancel_hook()

    def _out_of_budget(self, started: float) -> bool:
        return (
            self.time_budget_s is not None
            and time.monotonic() - started >= self.time_budget_s
        )

    def _stop_index(self, completed: Dict[int, ReliabilityResult]) -> Optional[int]:
        """Smallest shard index k such that the early-stop rule holds on
        the contiguous prefix 0..k — or None.

        Only contiguous prefixes are considered so the decision depends
        on the shard plan, never on completion order; a failed shard is
        never completed, so it ends the prefix and disables stopping
        past it.  Both the legacy Wald-interval :class:`EarlyStopPolicy`
        and the anytime-valid :class:`StoppingRule` are consulted; either
        may fire.  The prefix fold persists for the whole :meth:`run`, so
        each shard is merged into it and checked exactly once, and the
        decision is remembered once made.
        """
        prefix = self._prefix
        if prefix.stop is not None:
            return prefix.stop
        rules = [
            rule
            for rule in (self.early_stop, self._active_stopping)
            if rule is not None
        ]
        if not rules:
            return None
        while prefix.next_index in completed:
            prefix.merged = prefix.merged.merge(completed[prefix.next_index])
            prefix.next_index += 1
            if any(rule.satisfied(prefix.merged) for rule in rules):
                prefix.stop = prefix.next_index - 1
                break
        return prefix.stop

    def _merge(
        self,
        shards: Sequence[ShardSpec],
        completed: Dict[int, ReliabilityResult],
        report: CampaignReport,
    ) -> ReliabilityResult:
        """Left fold of the merged shards in index order.

        The folded prefix is reused as is: it already is the fold of
        shards ``0 .. next_index - 1``, the smallest completed indices.
        """
        stop = self._stop_index(completed)
        if stop is not None:
            report.stopped_early = True
            report.merged_shards = stop + 1
            return self._prefix.merged
        report.merged_shards = len(completed)
        merged = self._prefix.merged
        for index in sorted(completed):
            if index >= self._prefix.next_index:
                merged = merged.merge(completed[index])
        return merged

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def _fingerprint(
        self, trials: int, min_faults: int, label: str
    ) -> Dict[str, Any]:
        """Identity of the shard plan; a checkpoint from a different plan
        must never be silently merged into this campaign."""
        engine_config = asdict(self.config)
        if engine_config.get("thermal_bank_fit") is not None:
            # JSON round-trips tuples as lists; normalize so a saved
            # fingerprint compares equal to a freshly computed one.
            engine_config["thermal_bank_fit"] = list(
                engine_config["thermal_bank_fit"]
            )
        return {
            "version": CHECKPOINT_VERSION,
            "root_seed": self.root_seed,
            "trials": trials,
            "shard_size": self.shard_size,
            "min_faults": min_faults,
            "label": label,
            "model": self.model.name,
            "engine_config": engine_config,
            "rates_tsv_fit": self.rates.tsv_device_fit,
        }
