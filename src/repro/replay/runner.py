"""Sharded, resumable replay campaigns (the parallel half).

Mirrors :class:`~repro.reliability.parallel.ParallelLifetimeRunner`:
the shard plan is a pure function of ``(trials, shard_size, root_seed)``
via :func:`~repro.reliability.parallel.shard_plan`, workers pull shards
from a process pool, each completed shard is appended as one line to an
append-only checkpoint segment headed by the campaign fingerprint
(:func:`~repro.reliability.parallel.open_checkpoint`), and the final
aggregate is the monoid fold of the shard results in index order — so
workers-1 and workers-4 runs (and a checkpoint/resume run) produce
byte-identical serialized results.

The shared :class:`~repro.replay.engine.ReplayWorkload` is built lazily by
the first shard, at most once per campaign per process: a serial
``run()`` holds it for that call, a pool worker for the pool's life (one
``run()``).  Nothing carries over between ``run()`` calls.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro import contracts
from repro.faults.rates import FailureRates
from repro.ecc.base import CorrectionModel
from repro.perf.system import PerfConfig
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import (
    CHECKPOINT_VERSION,
    ShardSpec,
    open_checkpoint,
    shard_plan,
)
from repro.replay.engine import ReplayConfig, ReplayEngine, ReplayWorkload
from repro.replay.results import ReplayResult
from repro.rng import derive_seed
from repro.stack.geometry import StackGeometry
from repro.telemetry.registry import MetricsRegistry

#: Replay trials are orders of magnitude heavier than reliability trials
#: (each replays the full trace), so shards stay small.
DEFAULT_REPLAY_SHARD_SIZE = 8


@dataclass(frozen=True)
class _ReplayShardTask:
    """Everything a worker process needs to run one replay shard."""

    spec: ShardSpec
    engine: ReplayEngine
    trace_seed: int
    label: str
    collect_metrics: bool


def _run_replay_shard(
    task: _ReplayShardTask, workload: Optional[ReplayWorkload] = None
) -> Tuple[int, Dict[str, Any], ReplayWorkload]:
    """Run one shard; builds the campaign's workload unless given one."""
    if workload is None:
        workload = task.engine.build_workload(task.trace_seed)
    metrics = MetricsRegistry() if task.collect_metrics else None
    result = task.engine.run_shard(
        task.spec.seed,
        task.spec.trials,
        workload,
        label=task.label,
        metrics=metrics,
    )
    return task.spec.index, result.to_dict(), workload


#: A pool worker's copy of its campaign's workload, built by the first
#: shard it runs; the pool's initializer clears it.
_worker_workload: Optional[ReplayWorkload] = None


def _clear_worker_workload() -> None:
    global _worker_workload
    _worker_workload = None


def _run_pooled_shard(task: _ReplayShardTask) -> Tuple[int, Dict[str, Any]]:
    """Pool entry point (module-level so it pickles)."""
    global _worker_workload
    index, payload, _worker_workload = _run_replay_shard(
        task, _worker_workload
    )
    return index, payload


class ReplayCampaignRunner:
    """Sharded, resumable, multi-process replay campaigns."""

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        model: CorrectionModel,
        engine_config: Optional[EngineConfig] = None,
        replay_config: Optional[ReplayConfig] = None,
        perf_config: Optional[PerfConfig] = None,
        *,
        root_seed: int = 0,
        workers: int = 1,
        shard_size: int = DEFAULT_REPLAY_SHARD_SIZE,
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        collect_metrics: bool = False,
        label: Optional[str] = None,
    ) -> None:
        contracts.require(workers >= 1, "workers must be >= 1, got %r", workers)
        contracts.require(
            shard_size > 0, "shard_size must be positive, got %r", shard_size
        )
        self.geometry = geometry
        self.rates = rates
        self.model = model
        self.engine_config = (
            engine_config if engine_config is not None else EngineConfig()
        )
        self.replay_config = (
            replay_config if replay_config is not None else ReplayConfig()
        )
        self.engine = ReplayEngine(
            geometry, rates, model, self.engine_config, self.replay_config,
            perf_config,
        )
        self.root_seed = root_seed
        self.workers = workers
        self.shard_size = shard_size
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.resume = resume
        self.collect_metrics = collect_metrics
        self.label = label if label is not None else self.engine.scheme_label()

    # ------------------------------------------------------------------ #
    @property
    def trace_seed(self) -> int:
        """Seed of the shared workload trace (shard-independent)."""
        return derive_seed(self.root_seed, "trace")

    def run(self, trials: int) -> ReplayResult:
        """Run (or resume) a ``trials``-trial campaign; returns the merge."""
        contracts.require(trials >= 0, "trials must be >= 0, got %r", trials)
        plan = shard_plan(trials, self.shard_size, self.root_seed)
        checkpoint, completed = open_checkpoint(
            self.checkpoint_path,
            self._fingerprint(trials),
            self.resume,
            ReplayResult.from_dict,
        )
        pending = [shard for shard in plan if shard.index not in completed]
        if not plan:
            return ReplayResult.identity()
        for index, payload in self._shard_results(pending):
            # Checkpoint the worker's result dict as is, then keep it.
            if checkpoint is not None:
                checkpoint.append(index, payload)
            completed[index] = ReplayResult.from_dict(payload)
        return ReplayResult.merge_all(
            completed[shard.index] for shard in plan
        )

    # ------------------------------------------------------------------ #
    def _task(self, shard: ShardSpec) -> _ReplayShardTask:
        return _ReplayShardTask(
            spec=shard,
            engine=self.engine,
            trace_seed=self.trace_seed,
            label=self.label,
            collect_metrics=self.collect_metrics,
        )

    def _shard_results(
        self, pending: List[ShardSpec]
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Run ``pending``; yields ``(index, result dict)`` per shard as it
        completes."""
        if self.workers == 1 or len(pending) <= 1:
            workload = None
            for shard in pending:
                index, payload, workload = _run_replay_shard(
                    self._task(shard), workload
                )
                yield index, payload
            return
        with ProcessPoolExecutor(
            max_workers=self.workers, initializer=_clear_worker_workload
        ) as pool:
            futures = [
                pool.submit(_run_pooled_shard, self._task(shard))
                for shard in pending
            ]
            for future in as_completed(futures):
                yield future.result()

    # ------------------------------------------------------------------ #
    # Checkpoint identity (same container as the reliability runner)
    # ------------------------------------------------------------------ #
    def _fingerprint(self, trials: int) -> Dict[str, Any]:
        engine_config = asdict(self.engine_config)
        if engine_config.get("thermal_bank_fit") is not None:
            engine_config["thermal_bank_fit"] = list(
                engine_config["thermal_bank_fit"]
            )
        return {
            "version": CHECKPOINT_VERSION,
            "kind": "replay",
            "root_seed": self.root_seed,
            "trials": trials,
            "shard_size": self.shard_size,
            "label": self.label,
            "model": self.model.name,
            "engine_config": engine_config,
            "replay_config": asdict(self.replay_config),
            "perf_label": self.engine.perf_config.label(),
            "rates_tsv_fit": self.rates.tsv_device_fit,
        }
