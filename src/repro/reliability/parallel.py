"""Sharded Monte-Carlo campaigns with checkpoint/resume.

:class:`ShardedCampaignRunner` is the one campaign loop every campaign
kind runs on.  It splits a campaign into fixed-size *shards* and fans
them out over ``multiprocessing`` workers.  The shard plan is a pure
function of ``(trials, shard_size, root_seed)`` and each shard draws
from its own generator seeded with
``derive_seed(root_seed, "shard", index)``, so the merged result is
identical for any worker count — ``workers=1`` (which runs the same
shards in-process, no pool) and ``workers=8`` produce byte-identical
aggregates.

A campaign kind subclasses it and supplies its hooks:

* ``result_type`` — the result monoid (:class:`CampaignResult`:
  ``identity``/``merge``/``to_dict``/``from_dict``) the shard results
  fold into, in shard-index order;
* ``_task(spec)`` — the picklable :class:`ShardTask` that runs one shard;
* ``_fingerprint(trials)`` — the campaign's checkpoint identity;
* optionally ``pool_initializer`` (run once per pool worker) and
  ``_stop_rule`` (a stopping rule over the merged shard prefix).

:class:`ParallelLifetimeRunner` (lifetime reliability) adds the
anytime-valid stopping rule, the run manifest and a labelled empty
result; :class:`~repro.replay.runner.ReplayCampaignRunner` (trace-replay
co-simulation) adds a per-process shared workload.

Robustness features, the same for every campaign kind:

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
* **Cancellation** — ``cancel_hook`` is polled between shards; when it
  returns True the campaign stops dispatching and returns the partial
  merge with ``report.cancelled`` set.
* **Graceful interrupt** — ``KeyboardInterrupt`` drains already-running
  shards, checkpoints them, and returns the partial aggregate instead of
  losing the campaign.
* **Worker-crash containment** — a shard that raises is recorded as
  failed and excluded from the merge (trial counts stay accurate); a
  hard worker death (``BrokenProcessPool``) aborts dispatch but still
  returns the completed prefix.
* **Stopping** — an optional rule stops the campaign once it holds on
  the *contiguous shard prefix*.  Evaluating the rule on the prefix
  (never on whichever shards happened to finish first) keeps the stopped
  result deterministic across worker counts.  The prefix is merged
  incrementally, so each shard is folded in and checked once.

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
  merged result, whose ``metrics`` sidecar only ever carries the
  deterministic per-shard snapshots, so the merged result stays
  byte-identical for any worker count.
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
    Generic,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
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

#: v2: ``EngineConfig`` grew ``collect_metrics``; v3: it grew the
#: incremental-correction toggle (the fingerprint embeds
#: ``asdict(config)``, so older checkpoints cannot be resumed); v4: it
#: grew ``sampling`` / ``target_ci_width`` and shard results grew
#: per-stratum tallies (``ReliabilityResult.strata``); v5: merged results
#: grew the optional run-provenance ``manifest`` sidecar; v6:
#: ``EngineConfig`` grew ``thermal_bank_fit`` (the replay engine's
#: thermal-FIT feedback);
#: v7: ``EngineConfig`` grew ``batch_trials`` (the vectorized trial
#: kernel toggle); v8: the whole-table JSON checkpoint became an
#: append-only JSON Lines segment (fingerprint header, one line per
#: shard); v9: ``EngineConfig`` lost the incremental-correction toggle
#: (one correctability path); v10: ``batch_trials`` defaults to on (the
#: engine picks the batch path itself; ``False`` is the scalar oracle)
#: and ``CampaignSpec`` lost its ``batch`` field.
CHECKPOINT_VERSION = 10

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


class CampaignResult(Protocol):
    """The result monoid a campaign's shard results fold into.

    :class:`ReliabilityResult` and
    :class:`~repro.replay.results.ReplayResult` both satisfy it.
    """

    trials: int

    @classmethod
    def identity(cls: Type["R"]) -> "R": ...

    @classmethod
    def from_dict(cls: Type["R"], data: Dict[str, Any]) -> "R": ...

    def merge(self: "R", other: "R") -> "R": ...

    def to_dict(self) -> Dict[str, Any]: ...


R = TypeVar("R", bound=CampaignResult)


def open_checkpoint(
    path: Optional[Path],
    fingerprint: Dict[str, Any],
    resume: bool,
    from_dict: Callable[[Dict[str, Any]], R],
) -> Tuple[Optional[JsonlSegment], Dict[int, R]]:
    """Open a campaign's checkpoint and load the shards it holds.

    The checkpoint is a :class:`JsonlSegment` whose header is the
    campaign fingerprint, then one ``{"index", "shard"}`` record per
    completed shard.  Returns ``(None, {})`` without a path.  Without
    ``resume`` a fresh checkpoint replaces any file at ``path``.
    """
    if path is None:
        return None, {}
    if not resume:
        return JsonlSegment.create(path, fingerprint), {}
    segment, records = JsonlSegment.reopen(path, fingerprint)
    try:
        return segment, {
            int(record["index"]): from_dict(record["shard"])
            for record in records
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"malformed shard record in checkpoint {path}: {exc}"
        ) from exc


def config_fingerprint(config: Dict[str, Any]) -> Dict[str, Any]:
    """An ``asdict`` config as a checkpoint fingerprint holds it.

    JSON round-trips tuples (``thermal_bank_fit``) as lists; normalize
    them so a saved fingerprint compares equal to a freshly computed one.
    """
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in config.items()
    }


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
    """Bookkeeping for one campaign ``run()`` call."""

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
class _StopPrefix(Generic[R]):
    """Running left fold of the contiguous completed-shard prefix.

    ``merged`` covers shards ``0 .. next_index - 1``; ``stop`` is the
    first index at which the stopping rule held, once it has.
    """

    merged: R
    next_index: int = 0
    stop: Optional[int] = None


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker process needs to run one shard.

    Campaign kinds subclass it with their own fields and :meth:`run`;
    it must pickle, since pool workers receive it by value.
    """

    spec: ShardSpec
    crash: CrashInjection

    def run(self, tracer: Optional[TraceWriter] = None) -> Dict[str, Any]:
        """Run the shard; returns its result dict."""
        raise NotImplementedError


def _run_shard(
    task: ShardTask, tracer: Optional[TraceWriter] = None
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
    payload = task.run(tracer)
    return task.spec.index, payload, time.monotonic() - started


_Futures = Dict["Future[Tuple[int, Dict[str, Any], float]]", ShardSpec]


class ShardedCampaignRunner(Generic[R]):
    """The shared campaign loop: shard plan, checkpoint, serial and pool
    loops, cancel, time budget, crash containment, interrupt drain,
    progress, tracing and the index-order merge.

    Subclasses supply ``result_type``, :meth:`_task` and
    :meth:`_fingerprint`, and call :meth:`_drive` from their ``run``.
    The keywords here are the execution keywords every campaign runner
    accepts; none of them changes the merged result except through the
    shard plan (``root_seed``, ``shard_size``).
    """

    #: The result monoid the shard results fold into.
    result_type: Type[R]

    def __init__(
        self,
        *,
        shard_size: int,
        root_seed: int = 0,
        workers: int = 1,
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        time_budget_s: Optional[float] = None,
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
        self.root_seed = root_seed
        self.workers = workers
        self.shard_size = shard_size
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.resume = resume
        self.time_budget_s = time_budget_s
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
        #: Run once in each pool worker before its first shard.
        self.pool_initializer: Optional[Callable[[], None]] = None
        self.last_report: Optional[CampaignReport] = None
        #: Wall-clock campaign observability (shard latency, completion
        #: counters).  Kept runner-side, never merged into the result.
        self.last_campaign_metrics: Optional[MetricsRegistry] = None
        #: Stopping rule over the merged contiguous shard prefix (None:
        #: run every planned shard); set per run by runners that stop.
        self._stop_rule: Optional[Callable[[R], bool]] = None
        self._reporter: Optional[ProgressReporter] = None
        self._tracer: Optional[TraceWriter] = None
        self._campaign: Optional[MetricsRegistry] = None
        self._checkpoint: Optional[JsonlSegment] = None
        self._prefix: _StopPrefix[R] = _StopPrefix(self.result_type.identity())
        self._trials_done = 0

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _task(self, spec: ShardSpec) -> ShardTask:
        """The picklable task that runs shard ``spec``."""
        raise NotImplementedError

    def _fingerprint(self, trials: int) -> Dict[str, Any]:
        """Identity of the campaign; a checkpoint from a different one
        must never be silently merged into it."""
        raise NotImplementedError

    def _plan_fingerprint(self, trials: int, **identity: Any) -> Dict[str, Any]:
        """The shard plan's identity plus the runner's ``identity`` keys."""
        return {
            "version": CHECKPOINT_VERSION,
            "root_seed": self.root_seed,
            "trials": trials,
            "shard_size": self.shard_size,
            **identity,
        }

    # ------------------------------------------------------------------ #
    def _drive(self, trials: int, label: str) -> R:
        """Run (or resume) the campaign and return the merged result.

        ``self.last_report`` carries the campaign bookkeeping (shard
        counts, stop / interrupt / budget / cancel flags).
        """
        started = time.monotonic()
        shards = shard_plan(trials, self.shard_size, self.root_seed)
        report = CampaignReport(planned_shards=len(shards))
        self._checkpoint, completed = open_checkpoint(
            self.checkpoint_path,
            self._fingerprint(trials),
            self.resume,
            self.result_type.from_dict,
        )
        report.resumed_shards = len(completed)
        self._prefix = _StopPrefix(self.result_type.identity())
        self._trials_done = sum(r.trials for r in completed.values())
        pending = [s for s in shards if s.index not in completed]

        self._campaign = MetricsRegistry()
        self._reporter = (
            ProgressReporter(
                total_shards=len(shards),
                total_trials=trials,
                label=label,
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
                label=label,
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
                        self._run_serial(pending, completed, report, started)
                    else:
                        self._run_pool(pending, completed, report, started)
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

        merged = self._merge(completed, report)
        report.elapsed_seconds = time.monotonic() - started
        self.last_report = report
        return merged

    def _run_serial(
        self,
        pending: Sequence[ShardSpec],
        completed: Dict[int, R],
        report: CampaignReport,
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
            task = self._task(spec)
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
            if self._stop_index(completed) is not None:
                report.stopped_early = True
                break

    def _run_pool(
        self,
        pending: Sequence[ShardSpec],
        completed: Dict[int, R],
        report: CampaignReport,
        started: float,
    ) -> None:
        with ProcessPoolExecutor(
            max_workers=self.workers, initializer=self.pool_initializer
        ) as pool:
            futures: _Futures = {
                pool.submit(_run_shard, self._task(spec)): spec
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
                # finish, fold them in, then re-raise for _drive to flag.
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
    def _cancel_all(futures: _Futures) -> None:
        for future in futures:
            future.cancel()

    # ------------------------------------------------------------------ #
    def _accept(
        self,
        completed: Dict[int, R],
        report: CampaignReport,
        index: int,
        payload: Dict[str, Any],
        seconds: float,
    ) -> None:
        """Fold one finished shard into the campaign: checkpoint the
        worker's result dict as is (no re-serialization), then keep it."""
        if self._checkpoint is not None:
            self._checkpoint.append([{"index": index, "shard": payload}])
        result = self.result_type.from_dict(payload)
        completed[index] = result
        self._trials_done += result.trials
        report.completed_shards += 1
        if self._campaign is not None:
            # Wall-clock shard latency (volatile campaign metrics).
            self._campaign.observe(
                "campaign/shard_seconds",
                seconds,
                edges=SHARD_SECONDS_EDGES,
                volatile=True,
            )
            self._campaign.record_seconds("campaign/shard_time", seconds)
        if self._reporter is not None:
            self._reporter.update(len(completed), self._trials_done)

    def _cancel_requested(self) -> bool:
        return self.cancel_hook is not None and self.cancel_hook()

    def _out_of_budget(self, started: float) -> bool:
        return (
            self.time_budget_s is not None
            and time.monotonic() - started >= self.time_budget_s
        )

    def _stop_index(self, completed: Dict[int, R]) -> Optional[int]:
        """Smallest shard index k such that the stopping rule holds on
        the contiguous prefix 0..k — or None.

        Only contiguous prefixes are considered so the decision depends
        on the shard plan, never on completion order; a failed shard is
        never completed, so it ends the prefix and disables stopping
        past it.  The prefix fold persists for the whole run, so each
        shard is merged into it and checked exactly once, and the
        decision is remembered once made.
        """
        prefix = self._prefix
        rule = self._stop_rule
        if prefix.stop is not None or rule is None:
            return prefix.stop
        while prefix.next_index in completed:
            prefix.merged = prefix.merged.merge(completed[prefix.next_index])
            prefix.next_index += 1
            if rule(prefix.merged):
                prefix.stop = prefix.next_index - 1
                break
        return prefix.stop

    def _merge(self, completed: Dict[int, R], report: CampaignReport) -> R:
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


@dataclass(frozen=True)
class _ShardTask(ShardTask):
    """One lifetime-reliability shard."""

    geometry: StackGeometry
    rates: FailureRates
    model: CorrectionModel
    config: EngineConfig
    min_faults: int
    label: str

    def run(self, tracer: Optional[TraceWriter] = None) -> Dict[str, Any]:
        sim = LifetimeSimulator(
            self.geometry,
            self.rates,
            self.model,
            self.config,
            seed=self.spec.seed,
            tracer=tracer,
        )
        result = sim.run(
            trials=self.spec.trials,
            min_faults=self.min_faults,
            label=self.label,
        )
        return result.to_dict()


class ParallelLifetimeRunner(ShardedCampaignRunner[ReliabilityResult]):
    """Sharded, resumable, multi-process lifetime-reliability campaigns.

    Drop-in upgrade of :class:`LifetimeSimulator.run`: construction takes
    the same ``(geometry, rates, model, config)`` tuple plus the
    execution keywords (``root_seed``, ``workers``, ``checkpoint_path``,
    ``cancel_hook``, ... — see :class:`ShardedCampaignRunner`), and
    :meth:`run` returns the same :class:`ReliabilityResult` type the
    serial engine produces.  On top of the shared loop it adds the
    anytime-valid stopping rule, the run manifest and a labelled empty
    result.
    """

    result_type = ReliabilityResult

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        model: CorrectionModel,
        config: Optional[EngineConfig] = None,
        *,
        shard_size: int = DEFAULT_SHARD_SIZE,
        stopping: Optional[StoppingRule] = None,
        **execution: Any,
    ) -> None:
        super().__init__(shard_size=shard_size, **execution)
        self.geometry = geometry
        self.rates = rates
        self.model = model
        self.config = config if config is not None else EngineConfig()
        #: Anytime-valid stopping rule, consulted on the contiguous shard
        #: prefix.  When None but the engine config sets
        #: ``target_ci_width``, :meth:`run` resolves a default
        #: :class:`StoppingRule` — the path the campaign service uses.
        self.stopping = stopping
        self._active_stopping: Optional[StoppingRule] = None
        self._min_faults = 0
        self._label = ""

    def run(
        self,
        trials: int,
        min_faults: Optional[int] = None,
        label: Optional[str] = None,
    ) -> ReliabilityResult:
        """Run (or resume) the campaign and return the merged result.

        ``self.last_report`` carries the campaign bookkeeping
        (shard counts, stop / interrupt / budget / cancel flags).
        """
        template = LifetimeSimulator(
            self.geometry,
            self.rates,
            self.model,
            self.config,
            seed=self.root_seed,
        )
        self._min_faults = (
            template.default_min_faults() if min_faults is None else min_faults
        )
        self._label = label if label is not None else template.scheme_label()
        self._active_stopping = self.stopping
        if self._active_stopping is None and self.config.target_ci_width is not None:
            self._active_stopping = StoppingRule(self.config.target_ci_width)
        self._stop_rule = (
            self._active_stopping.satisfied
            if self._active_stopping is not None
            else None
        )
        merged = self._drive(trials, self._label)
        if merged.is_identity:
            # Nothing completed (0 trials, or everything crashed/stopped):
            # return an empty-but-labelled result rather than the bare
            # identity so downstream summaries stay readable.
            merged = ReliabilityResult(
                scheme_name=self._label,
                trials=0,
                failures=0,
                stratum_weight=1.0,
                lifetime_hours=self.config.lifetime_hours,
                min_faults=self._min_faults,
            )
        merged.manifest = self._build_manifest(trials)
        self._record_campaign_outcome(trials, merged)
        return merged

    def _task(self, spec: ShardSpec) -> _ShardTask:
        return _ShardTask(
            spec=spec,
            crash=self.crash_injection,
            geometry=self.geometry,
            rates=self.rates,
            model=self.model,
            config=self.config,
            min_faults=self._min_faults,
            label=self._label,
        )

    def _fingerprint(self, trials: int) -> Dict[str, Any]:
        return self._plan_fingerprint(
            trials,
            min_faults=self._min_faults,
            label=self._label,
            model=self.model.name,
            engine_config=config_fingerprint(asdict(self.config)),
            rates_tsv_fit=self.rates.tsv_device_fit,
        )

    def _build_manifest(self, trials: int) -> RunManifest:
        """Provenance of this campaign: a pure function of the campaign
        configuration (worker count and wall clock excluded), so merged
        results stay byte-identical for any worker count."""
        from repro import __version__

        return RunManifest(
            scheme=self._label,
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
        self, planned_trials: int, merged: ReliabilityResult
    ) -> None:
        """Volatile campaign observability for the stopping layer: trials
        saved by stopping early, final anytime-valid CI width, and the
        effective (importance-weighted) failure count of the merge."""
        registry = self.last_campaign_metrics
        report = self.last_report
        if registry is None or report is None:
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
