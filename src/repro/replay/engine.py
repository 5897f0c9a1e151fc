"""The replay co-simulation engine: one shard of joint trials.

A replay trial couples the two simulators:

1. the reliability engine samples a lifetime fault history (with the
   same ``min_faults`` conditioning and stratum weight as ``repro
   reliability``) and exports its mitigation-event timeline;
2. the performance simulator replays the shared workload trace with a
   :class:`~repro.replay.perturb.ReplayPerturbation` hook, so remaps,
   swaps, scrubbing and degraded-bank correction perturb per-request
   latency and inject protection traffic;
3. the power model prices the perturbed run's event counters, and —
   with the thermal switch on — baseline bank activity feeds per-bank
   FIT multipliers back into the fault injector
   (:mod:`repro.replay.thermal`).

Every trial replays against the *same* traces (seeded from the campaign
root), so shard results share bitwise-identical baselines and merge via
the :class:`~repro.replay.results.ReplayResult` monoid; the runner
builds that shared :class:`ReplayWorkload` once per campaign per process.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from repro import contracts
from repro.errors import ConfigurationError
from repro.faults.rates import FailureRates
from repro.ecc.base import CorrectionModel
from repro.perf.power import PowerModel
from repro.perf.system import (
    PerfConfig,
    PerfResult,
    PreparedTraces,
    SystemSimulator,
)
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.replay.perturb import ReplayPerturbation
from repro.replay.results import ReplayResult
from repro.replay.thermal import thermal_bank_multipliers
from repro.replay.timeline import build_timeline
from repro.rng import derive_seed
from repro.stack.geometry import StackGeometry
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.generator import rate_mode_traces
from repro.workloads.profiles import WORKLOADS

#: Bucket edges of the ``replay/slowdown`` histogram (perturbed over
#: baseline execution time; protection overheads are small multipliers).
SLOWDOWN_EDGES = (1.0, 1.01, 1.02, 1.05, 1.1, 1.2, 1.5, 2.0)


@dataclass(frozen=True)
class ReplayConfig:
    """The workload/feedback half of a replay campaign."""

    workload: str = "zipfian"
    cores: int = 4
    requests_per_core: int = 512
    stacks: int = 2
    #: Feed baseline bank activity back into per-bank FIT multipliers.
    thermal: bool = False
    thermal_max_rise_c: float = 10.0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ConfigurationError(f"unknown workload: {self.workload}")
        contracts.require(self.cores >= 1, "cores must be >= 1")
        contracts.require(
            self.requests_per_core >= 1, "requests_per_core must be >= 1"
        )
        contracts.require(self.stacks >= 1, "stacks must be >= 1")
        contracts.require(
            self.thermal_max_rise_c > 0,
            "thermal_max_rise_c must be positive",
        )


@dataclass(frozen=True)
class ReplayWorkload:
    """What every shard of one campaign shares; built by
    :meth:`ReplayEngine.build_workload`."""

    traces: PreparedTraces
    baseline: PerfResult
    baseline_energy_nj: float
    #: The campaign's engine config, thermal multipliers applied.
    engine_config: EngineConfig
    thermal_mean: Optional[float]


def default_perf_config(replay: ReplayConfig) -> PerfConfig:
    """The paper's Citadel organization: Same-Bank + cached 3DP parity."""
    return PerfConfig(
        parity_protection=True,
        parity_caching=True,
        stacks=replay.stacks,
    )


class ReplayEngine:
    """Runs replay trials for one (scheme, workload, mitigation) tuple."""

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        model: CorrectionModel,
        engine_config: EngineConfig,
        replay_config: ReplayConfig,
        perf_config: Optional[PerfConfig] = None,
    ) -> None:
        self.geometry = geometry
        self.rates = rates
        self.model = model
        self.engine_config = engine_config
        self.replay_config = replay_config
        self.perf_config = (
            perf_config
            if perf_config is not None
            else default_perf_config(replay_config)
        )
        self.power = PowerModel(geometry, stacks=replay_config.stacks)

    # ------------------------------------------------------------------ #
    def min_faults(self) -> int:
        """The ``min_faults`` stratum shared with ``repro reliability``."""
        probe = LifetimeSimulator(
            self.geometry, self.rates, self.model, self.engine_config, seed=0
        )
        return probe.default_min_faults()

    def scheme_label(self) -> str:
        probe = LifetimeSimulator(
            self.geometry, self.rates, self.model, self.engine_config, seed=0
        )
        return probe.scheme_label() + " replay"

    def build_workload(self, trace_seed: int) -> ReplayWorkload:
        """Build the shared workload: the traces (prepared for the service
        loop), the unperturbed baseline run and its energy, and — with the
        thermal switch on — the baseline's per-bank FIT multipliers."""
        replay = self.replay_config
        traces = rate_mode_traces(
            replay.workload,
            self.geometry,
            cores=replay.cores,
            requests_per_core=replay.requests_per_core,
            seed=trace_seed,
            stacks=replay.stacks,
        )
        simulator = SystemSimulator(self.geometry, self.perf_config)
        prepared = simulator.prepare(traces)
        baseline = simulator.run(prepared)
        engine_config = self.engine_config
        thermal_mean = None
        if replay.thermal:
            multipliers = thermal_bank_multipliers(
                baseline.bank_activations,
                self.geometry,
                max_rise_c=replay.thermal_max_rise_c,
            )
            engine_config = replace(
                engine_config, thermal_bank_fit=multipliers
            )
            thermal_mean = math.fsum(multipliers) / len(multipliers)
        return ReplayWorkload(
            traces=prepared,
            baseline=baseline,
            baseline_energy_nj=self.power.active_energy_nj(baseline.counters),
            engine_config=engine_config,
            thermal_mean=thermal_mean,
        )

    # ------------------------------------------------------------------ #
    def run_shard(
        self,
        shard_seed: int,
        trials: int,
        workload: ReplayWorkload,
        label: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> ReplayResult:
        """Run ``trials`` co-simulation trials from one shard seed against
        the campaign's shared ``workload``."""
        replay = self.replay_config
        engine_config = workload.engine_config
        total_requests = len(workload.traces)
        baseline_cycles = workload.baseline.exec_cycles

        min_faults = self.min_faults()
        expected_weight = None
        result = ReplayResult(
            label=label if label is not None else self.scheme_label(),
            workload=replay.workload,
            trials=0,
            lifetime_hours=engine_config.lifetime_hours,
            min_faults=min_faults,
            requests_per_trial=total_requests,
            baseline_exec_cycles=baseline_cycles,
            baseline_energy_nj=workload.baseline_energy_nj,
        )
        for trial in range(trials):
            sim = LifetimeSimulator(
                self.geometry,
                self.rates,
                self.model,
                engine_config,
                seed=derive_seed(shard_seed, "trial", trial),
            )
            if expected_weight is None:
                # The weight contract of the reliability engine, carried
                # over: every trial's sampled stratum weight must agree
                # bitwise with the injector's tail probability.
                expected_weight = (
                    sim.injector.prob_at_least(
                        min_faults, engine_config.lifetime_hours
                    )
                    if min_faults > 0
                    else 1.0
                )
            timeline = build_timeline(sim, min_faults)
            contracts.require(
                timeline.weight == expected_weight,  # reprolint: disable=REPRO003
                "timeline stratum weight %r disagrees bitwise with the "
                "injector tail probability %r",
                timeline.weight,
                expected_weight,
            )
            hook = ReplayPerturbation(timeline, self.geometry, total_requests)
            perf = SystemSimulator(
                self.geometry, self.perf_config, hook=hook
            ).run(workload.traces)
            energy = self.power.active_energy_nj(perf.counters)

            result.trials += 1
            result.stratum_weight = timeline.weight
            result.exec_cycles.append(perf.exec_cycles)
            result.energy_nj.append(energy)
            result.extra_requests += perf.extra_reads + perf.extra_writes
            result.delay_cycles += perf.perturb_delay_cycles
            for event in timeline.events:
                result.event_counts[event.kind] += 1
            if timeline.failed:
                result.failures += 1
                result.failure_times_hours.append(
                    timeline.failure_time_hours
                )
            if workload.thermal_mean is not None:
                result.thermal_multipliers.append(workload.thermal_mean)
            if metrics is not None:
                self._record_trial_metrics(
                    metrics, timeline, perf, baseline_cycles
                )
        canonical = result.canonical()
        if metrics is not None:
            metrics.inc("replay/trials", trials)
            metrics.inc("replay/failures", canonical.failures)
            canonical.metrics = metrics.deterministic_snapshot()
        return canonical

    @staticmethod
    def _record_trial_metrics(
        metrics: MetricsRegistry, timeline, perf, baseline_cycles: int
    ) -> None:
        metrics.inc("replay/requests", perf.demand_reads + perf.demand_writes)
        metrics.inc("replay/extra_reads", perf.extra_reads)
        metrics.inc("replay/extra_writes", perf.extra_writes)
        metrics.inc("replay/delay_cycles", perf.perturb_delay_cycles)
        for event in timeline.events:
            metrics.inc(f"replay/events/{event.kind}")
        if baseline_cycles > 0:
            metrics.observe(
                "replay/slowdown",
                perf.exec_cycles / baseline_cycles,
                edges=SLOWDOWN_EDGES,
            )
