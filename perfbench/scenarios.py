"""The benchmark's three workloads, driven through repro's public API.

Each workload is one process, ``workers=1``:

* ``citadel-batch`` — a :class:`ParallelLifetimeRunner` campaign on the
  paper's Citadel configuration through the vectorized batch kernel;
* ``service-stratified`` — one closed-loop client driving an in-process
  :class:`CampaignScheduler` over a disk :class:`ResultStore`: cold
  stratified jobs that stop on their anytime-valid CI target, then
  cache-hit resubmissions;
* ``replay-zipfian`` — a :class:`ReplayCampaignRunner` co-simulation.

A workload builds its objects in :meth:`setup` (timed as ``setup_s``),
runs untimed correctness probes in :meth:`check`, and then repeats one
identical unit of work, :meth:`rep`, which times itself.  Every
repetition must reproduce the first one byte for byte.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, ContextManager, List, Optional, Tuple

from repro.core.parity3dp import make_3dp
from repro.faults.rates import TSV_FIT_HIGH, FailureRates
from repro.reliability import batch as batch_module
from repro.reliability import EngineConfig, ParallelLifetimeRunner, StoppingRule
from repro.replay import ReplayCampaignRunner, ReplayConfig
from repro.rng import derive_seed
from repro.schemes import SCHEMES
from repro.service.jobs import CampaignSpec, JobState
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore
from repro.stack.geometry import StackGeometry

#: Client poll interval while a cold job runs (closed loop, one job in flight).
POLL_S = 0.005


class PathError(RuntimeError):
    """The workload is not measuring the code path it is meant to."""


class Ledger:
    """Operations attempted and failed (an operation is one campaign,
    job, cache hit or replay run)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def attempt(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one operation; a raise counts as a failure and gives None."""
        try:
            return fn()
        except Exception:  # an operation that raises is a failed operation
            self.record(False, f"{what} raised:\n{traceback.format_exc()}")
            return None


@dataclass
class Rep:
    """Measurements of one repetition."""

    wall_s: float
    #: ``(seconds, trials)`` of each timed operation: the time from
    #: start or submit until its result was final, and the lifetimes it
    #: simulated (a campaign, a cold job, a replay run).
    ops: List[Tuple[float, int]]
    planned_trials: int
    #: Serialized results; every repetition must reproduce the first.
    doc: str
    #: Demand requests replayed, summed over the replay run's trials.
    requests: int = 0
    hit_latencies_s: List[float] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return sum(trials for _, trials in self.ops)


def dumps(result: Any) -> str:
    return json.dumps(result.to_dict())


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        #: Context in which the benchmark's own checks run; the traced
        #: run swaps in ``Tracer.paused`` so checks are not recorded.
        self.untraced: Callable[[], ContextManager[Any]] = nullcontext

    def setup(self) -> None:
        raise NotImplementedError

    def check(self, ledger: Ledger) -> None:
        """Untimed correctness and path probes, before any timing."""

    def rep(self, ledger: Ledger, first: Optional[Rep]) -> Optional[Rep]:
        """One timed repetition; each operation in it is recorded once,
        and fails unless it reproduces ``first`` (when given)."""
        raise NotImplementedError

    def finish(self, ledger: Ledger, first: Rep) -> None:
        """Untimed checks against the first repetition."""

    def close(self) -> None:
        """Release what :meth:`setup` made."""


# ---------------------------------------------------------------------- #
class CitadelBatch(Workload):
    """3DP + TSV-Swap 4 + DDS at TSV_FIT_HIGH, naive, batch kernel on."""

    name = "citadel-batch"

    def setup(self) -> None:
        self.trials = 2000 if self.smoke else 20000
        self.probe_trials = 500 if self.smoke else 2500
        self.geometry = StackGeometry()
        self.rates = FailureRates.paper_baseline(tsv_device_fit=TSV_FIT_HIGH)
        self.model = make_3dp(self.geometry)
        self.config = EngineConfig(tsv_swap_standby=4, use_dds=True, batch_trials=True)
        self.runner = self._runner(self.config)

    def _runner(self, config: EngineConfig, **kwargs: Any) -> ParallelLifetimeRunner:
        return ParallelLifetimeRunner(
            self.geometry, self.rates, self.model, config,
            root_seed=self.seed, workers=1, **kwargs,
        )

    def check(self, ledger: Ledger) -> None:
        """Batch and scalar paths agree byte for byte on a short probe,
        and the batch kernel really proves trials (no silent fallback to
        the scalar loop)."""
        kernels: List[Any] = []
        make = batch_module.make_batch_runner

        def capture(sim: Any) -> Any:
            kernel = make(sim)
            kernels.append(kernel)
            return kernel

        def probe() -> bool:
            batch_module.make_batch_runner = capture
            try:
                batched = self._runner(self.config).run(self.probe_trials)
            finally:
                batch_module.make_batch_runner = make
            scalar = self._runner(replace(self.config, batch_trials=False)).run(
                self.probe_trials
            )
            return dumps(batched) == dumps(scalar)

        same = ledger.attempt("batch/scalar probe", probe)
        if same is not None:
            ledger.record(same, "batch probe result differs from the scalar path")
        if not kernels or any(k is None for k in kernels):
            raise PathError("make_batch_runner fell back to the scalar loop")
        if sum(k.fast_trials for k in kernels) == 0:
            raise PathError("batch kernel proved no trial (batch.fast_trials == 0)")

    def rep(self, ledger: Ledger, first: Optional[Rep]) -> Optional[Rep]:
        def campaign() -> Rep:
            start = time.perf_counter()
            result = self.runner.run(self.trials)
            wall = time.perf_counter() - start
            with self.untraced():
                doc = dumps(result)
            return Rep(wall, [(wall, result.trials)], self.trials, doc)

        rep = ledger.attempt("campaign", campaign)
        if rep is not None:
            ledger.record(first is None or rep.doc == first.doc,
                          "campaign result differs from the first repetition")
        return rep


# ---------------------------------------------------------------------- #
class ServiceStratified(Workload):
    """Closed-loop client, one job in flight, over a fresh disk store."""

    name = "service-stratified"

    def _specs(self) -> List[CampaignSpec]:
        # Three Citadel jobs stop after ~100 shards of 20 trials (their CI
        # width barely depends on the seed: failures are rare), so the
        # per-shard checkpoint rewrite stays a visible share of the job
        # time; the 3DP job has more failures and stops after ~25 shards.
        if self.smoke:
            cap, citadel, citadel_tsv, plain = 400, 6.0e-3, 1.15e-2, 1.0e-2
        else:
            cap, citadel, citadel_tsv, plain = 4000, 6.4e-4, 1.26e-3, 3.5e-3
        seeds = [derive_seed(self.seed, "service", i) for i in range(2)]
        common = dict(trials=cap, sampling="stratified", shard_size=20)
        return [
            CampaignSpec(scheme="citadel", tsv_fit=0.0, seed=seeds[0],
                         target_ci_width=citadel, **common),
            CampaignSpec(scheme="citadel", tsv_fit=0.0, seed=seeds[1],
                         target_ci_width=citadel, **common),
            CampaignSpec(scheme="citadel", tsv_fit=TSV_FIT_HIGH, seed=seeds[0],
                         target_ci_width=citadel_tsv, **common),
            CampaignSpec(scheme="3dp", tsv_fit=0.0, seed=seeds[0],
                         target_ci_width=plain, **common),
        ]

    def setup(self) -> None:
        self.specs = self._specs()
        self.hits_per_spec = 10 if self.smoke else 250
        self.scheduler: Optional[CampaignScheduler] = None
        self._start()

    def _start(self) -> None:
        """A fresh scheduler over an empty store, so every job is cold."""
        self.close()
        self.store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        self.scheduler = CampaignScheduler(
            ResultStore(self.store_dir), slots=1, process_budget=1
        ).start()
        self.fresh = True

    def close(self) -> None:
        if self.scheduler is not None:
            self.scheduler.shutdown(drain=False, cancel_running=True, timeout_s=60)
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.scheduler = None

    def rep(self, ledger: Ledger, first: Optional[Rep]) -> Optional[Rep]:
        """One round: every spec once, cold, then the cache hits."""
        if not self.fresh:
            self._start()
        self.fresh = False
        expected = json.loads(first.doc) if first is not None else None
        start = time.perf_counter()
        docs: List[Optional[str]] = []
        ops: List[Tuple[float, int]] = []
        for index, spec in enumerate(self.specs):
            outcome = ledger.attempt("cold job", lambda: self._cold(spec))
            docs.append(None)
            if outcome is None:
                continue
            elapsed, result, stopped = outcome
            if result is None:
                ledger.record(False, "cold job did not end in state done")
                continue
            ops.append((elapsed, result.trials))
            with self.untraced():
                docs[index] = dumps(result)
            same = expected is None or docs[index] == expected[index]
            ledger.record(stopped and same, "cold job did not stop early on its "
                                            "CI target or differs from round one")
        latencies: List[float] = []
        for _ in range(self.hits_per_spec):
            for index, spec in enumerate(self.specs):
                outcome = ledger.attempt("cache hit", lambda: self._hit(spec))
                if outcome is None:
                    continue
                elapsed, job, result = outcome
                latencies.append(elapsed)
                with self.untraced():
                    same = dumps(result) == docs[index]
                ledger.record(job.cache_hit and same,
                              "cache hit missed or differs from the cold result")
        wall = time.perf_counter() - start
        planned = sum(spec.effective_trials for spec in self.specs)
        return Rep(wall, ops, planned, json.dumps(docs), hit_latencies_s=latencies)

    def _cold(self, spec: CampaignSpec) -> Any:
        """Submit and wait for the job; ``(seconds, result or None, stopped)``."""
        scheduler = self.scheduler
        start = time.perf_counter()
        job = scheduler.submit(spec)
        while not job.state.terminal:
            time.sleep(POLL_S)
        elapsed = time.perf_counter() - start
        if job.state is not JobState.DONE or job.cache_hit:
            return elapsed, None, False
        result = scheduler.result(job.id)
        with self.untraced():
            # A done job merged fewer trials than planned only if the
            # stopping rule fired (partial campaigns never reach done).
            stopped = result.trials < spec.effective_trials and StoppingRule(
                spec.target_ci_width
            ).satisfied(result)
        return elapsed, result, stopped

    def _hit(self, spec: CampaignSpec) -> Any:
        start = time.perf_counter()
        job = self.scheduler.submit(spec)
        result = self.scheduler.result(job.id)
        return time.perf_counter() - start, job, result

    def finish(self, ledger: Ledger, first: Rep) -> None:
        """One spec run directly through ParallelLifetimeRunner must
        match its service result byte for byte."""
        spec = self.specs[-1]
        geometry = spec.build_geometry()

        def direct() -> str:
            runner = ParallelLifetimeRunner(
                geometry,
                FailureRates.paper_baseline(tsv_device_fit=spec.tsv_fit),
                SCHEMES[spec.scheme](geometry),
                spec.engine_config(),
                root_seed=spec.seed,
                workers=1,
                shard_size=spec.shard_size,
            )
            return dumps(runner.run(trials=spec.effective_trials))

        doc = ledger.attempt("direct run", direct)
        if doc is not None:
            ledger.record(doc == json.loads(first.doc)[-1],
                          "service result differs from a direct runner run")


# ---------------------------------------------------------------------- #
class ReplayZipfian(Workload):
    """Citadel replay co-simulation on the zipfian workload."""

    name = "replay-zipfian"

    def setup(self) -> None:
        self.trials = 4 if self.smoke else 16
        geometry = StackGeometry()
        self.runner = ReplayCampaignRunner(
            geometry,
            FailureRates.paper_baseline(tsv_device_fit=TSV_FIT_HIGH),
            make_3dp(geometry),
            EngineConfig(tsv_swap_standby=4, use_dds=True),
            ReplayConfig(workload="zipfian", cores=4,
                         requests_per_core=128 if self.smoke else 1024),
            root_seed=self.seed,
            workers=1,
            shard_size=2 if self.smoke else 4,
        )

    def rep(self, ledger: Ledger, first: Optional[Rep]) -> Optional[Rep]:
        def replay() -> Rep:
            start = time.perf_counter()
            result = self.runner.run(trials=self.trials)
            wall = time.perf_counter() - start
            with self.untraced():
                doc = dumps(result)
            return Rep(wall, [(wall, result.trials)], self.trials, doc,
                       requests=result.trials * result.requests_per_trial)

        rep = ledger.attempt("replay run", replay)
        if rep is not None:
            ledger.record(first is None or rep.doc == first.doc,
                          "replay result differs from the first repetition")
        return rep


WORKLOADS = {w.name: w for w in (CitadelBatch, ServiceStratified, ReplayZipfian)}
