"""Sharded, resumable replay campaigns (the parallel half).

:class:`ReplayCampaignRunner` runs on the shared campaign loop of
:mod:`repro.reliability.parallel`
(:class:`~repro.reliability.parallel.ShardedCampaignRunner`), the same
one the lifetime-reliability runner uses: the shard plan, the
append-only checkpoint, the serial and pool loops, the cancel hook,
the time budget, crash containment, progress, tracing and the
index-order monoid fold all come from there — so workers-1 and workers-4
runs (and a checkpoint/resume run) produce byte-identical serialized
results.  This module supplies only the replay shard task, the
campaign fingerprint and the result monoid
(:class:`~repro.replay.results.ReplayResult`, whose ``identity()`` is
the empty result).

The shared :class:`~repro.replay.engine.ReplayWorkload` is built lazily by
the first shard, at most once per campaign per process: a serial
``run()`` holds it for that call, a pool worker for the pool's life (one
``run()``; the pool initializer clears it).  Nothing carries over between
``run()`` calls.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.faults.rates import FailureRates
from repro.ecc.base import CorrectionModel
from repro.perf.system import PerfConfig
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import (
    ShardedCampaignRunner,
    ShardSpec,
    ShardTask,
    config_fingerprint,
)
from repro.replay.engine import ReplayConfig, ReplayEngine, ReplayWorkload
from repro.replay.results import ReplayResult
from repro.rng import derive_seed
from repro.stack.geometry import StackGeometry
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import TraceWriter

#: Replay trials are orders of magnitude heavier than reliability trials
#: (each replays the full trace), so shards stay small.
DEFAULT_REPLAY_SHARD_SIZE = 8


@dataclass
class _WorkloadSlot:
    """A campaign's shared workload, once its first shard has built it."""

    workload: Optional[ReplayWorkload] = None


#: A pool worker's slot, filled by the first shard it runs; the pool's
#: initializer empties it.
_worker_workload = _WorkloadSlot()


def _clear_worker_workload() -> None:
    _worker_workload.workload = None


@dataclass(frozen=True)
class _ReplayShardTask(ShardTask):
    """One replay shard."""

    engine: ReplayEngine
    trace_seed: int
    label: str
    collect_metrics: bool
    #: The serial run's slot; None in a pool worker, which uses its own.
    workload: Optional[_WorkloadSlot] = None

    def run(self, tracer: Optional[TraceWriter] = None) -> Dict[str, Any]:
        slot = self.workload if self.workload is not None else _worker_workload
        if slot.workload is None:
            slot.workload = self.engine.build_workload(self.trace_seed)
        metrics = MetricsRegistry() if self.collect_metrics else None
        result = self.engine.run_shard(
            self.spec.seed,
            self.spec.trials,
            slot.workload,
            label=self.label,
            metrics=metrics,
        )
        return result.to_dict()


class ReplayCampaignRunner(ShardedCampaignRunner[ReplayResult]):
    """Sharded, resumable, multi-process replay campaigns.

    Besides the replay knobs, construction takes the shared execution
    keywords (``root_seed``, ``workers``, ``checkpoint_path``,
    ``resume``, ``cancel_hook``, ``time_budget_s``, ... — see
    :class:`~repro.reliability.parallel.ShardedCampaignRunner`).
    """

    result_type = ReplayResult

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        model: CorrectionModel,
        engine_config: Optional[EngineConfig] = None,
        replay_config: Optional[ReplayConfig] = None,
        perf_config: Optional[PerfConfig] = None,
        *,
        shard_size: int = DEFAULT_REPLAY_SHARD_SIZE,
        collect_metrics: bool = False,
        label: Optional[str] = None,
        **execution: Any,
    ) -> None:
        super().__init__(shard_size=shard_size, **execution)
        self.pool_initializer = _clear_worker_workload
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
        self.collect_metrics = collect_metrics
        self.label = label if label is not None else self.engine.scheme_label()
        self._workload: Optional[_WorkloadSlot] = None

    @property
    def trace_seed(self) -> int:
        """Seed of the shared workload trace (shard-independent)."""
        return derive_seed(self.root_seed, "trace")

    def run(self, trials: int) -> ReplayResult:
        """Run (or resume) a ``trials``-trial campaign; returns the merge.

        ``self.last_report`` carries the campaign bookkeeping.
        """
        self._workload = _WorkloadSlot() if self.workers == 1 else None
        try:
            return self._drive(trials, self.label)
        finally:
            self._workload = None

    def _task(self, spec: ShardSpec) -> _ReplayShardTask:
        return _ReplayShardTask(
            spec=spec,
            crash=self.crash_injection,
            engine=self.engine,
            trace_seed=self.trace_seed,
            label=self.label,
            collect_metrics=self.collect_metrics,
            workload=self._workload,
        )

    def _fingerprint(self, trials: int) -> Dict[str, Any]:
        return self._plan_fingerprint(
            trials,
            kind="replay",
            label=self.label,
            model=self.model.name,
            engine_config=config_fingerprint(asdict(self.engine_config)),
            replay_config=asdict(self.replay_config),
            perf_label=self.engine.perf_config.label(),
            rates_tsv_fit=self.rates.tsv_device_fit,
        )
