"""Batch trial engine: evaluate a shard's trials as numpy arrays.

The engine routes naive-sampling campaigns through
:class:`BatchTrialKernel` by itself whenever :func:`make_batch_runner`
accepts them (``EngineConfig.batch_trials=False`` forces the scalar loop,
the oracle the differential tests compare against): trials are sampled
in chunks (consuming the injector's RNG stream draw-for-draw like the
scalar loop, so results stay bitwise-identical), flattened into
:class:`repro.ecc.batch_kernels.TrialBatch` columns, and screened by the
scheme's array-shaped kernel.  Trials the kernel *proves* survive are
done — no Python fault objects, no model machinery.  The rest (a small
minority on Citadel-class configs: genuine failures, TSV-Swap overflows,
multi-round peels) are materialised into ``Fault`` objects and re-run
through ``LifetimeSimulator._simulate``, the exact scalar path.

Compatibility rules this module must uphold (and the batch differential
tests enforce):

* **RNG**: a trial consumes ``sample_count`` -> per-fault spec draws ->
  per-fault ``uniform`` times, in that order — exactly the scalar
  ``sample_lifetime`` sequence.  Chunking never reorders or skips draws.
* **Weights**: every trial's sampled stratum weight is checked bitwise
  against the engine-side tail probability, mirroring the naive loop's
  contract.
* **Results**: ``ReliabilityResult`` fields (failure counts, times in
  trial order, weights) are byte-identical to the scalar path's.

The kernel boundary is array-shaped on purpose: a native (Rust/maturin)
backend can replace ``BatchCorrectionKernel.survives`` without touching
the sampling or fallback logic here.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from repro import contracts
from repro.ecc.batch_kernels import BatchCorrectionKernel, TrialBatch
from repro.faults.injector import FaultSpec
from repro.faults.types import FaultKind, Permanence
from repro.reliability.results import ReliabilityResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.reliability.montecarlo import LifetimeSimulator

#: Trials evaluated per array pass.  Large enough to amortise the numpy
#: call overhead, small enough to keep the per-chunk Python lists cheap.
CHUNK_TRIALS = 4096


def make_batch_runner(
    sim: "LifetimeSimulator",
) -> Optional["BatchTrialKernel"]:
    """The batch runner for ``sim``, or ``None`` to use the scalar loop.

    Returns ``None`` — silent scalar fallback, the results are identical
    either way — when the oracle switch forces the scalar loop, the run
    needs per-trial observability (metrics, sparing stats, failure modes,
    tracing) or the model has no array-shaped kernel.
    """
    config = sim.config
    if not config.batch_trials:
        return None
    if (
        config.collect_metrics
        or config.collect_sparing_stats
        or config.collect_failure_modes
        or sim.tracer is not None
    ):
        return None
    kernel = sim.model.batch_kernel()
    if kernel is None:
        return None
    return BatchTrialKernel(sim, kernel)


class BatchTrialKernel:
    """Chunked array evaluation of one shard's trials."""

    def __init__(
        self, sim: "LifetimeSimulator", kernel: BatchCorrectionKernel
    ) -> None:
        self.sim = sim
        self.kernel = kernel
        #: Trials proven survivable by the array kernel (no scalar work).
        self.fast_trials = 0
        #: Trials re-run through the exact scalar simulator.
        self.fallback_trials = 0

    # ------------------------------------------------------------------ #
    def run(
        self, trials: int, strata_min: int, label: Optional[str]
    ) -> ReliabilityResult:
        sim = self.sim
        config = sim.config
        expected_weight = (
            sim.injector.prob_at_least(strata_min, config.lifetime_hours)
            if strata_min > 0
            else 1.0
        )
        failures = 0
        failure_times: List[float] = []
        for start in range(0, trials, CHUNK_TRIALS):
            chunk = min(CHUNK_TRIALS, trials - start)
            chunk_failures = self._run_chunk(
                chunk, strata_min, expected_weight, failure_times
            )
            failures += chunk_failures
        return ReliabilityResult(
            scheme_name=label if label is not None else sim.scheme_label(),
            trials=trials,
            failures=failures,
            stratum_weight=expected_weight,
            lifetime_hours=config.lifetime_hours,
            min_faults=strata_min,
            sparing=None,
            failure_times_hours=failure_times,
            failure_modes=Counter(),
            metrics=None,
        )

    # ------------------------------------------------------------------ #
    def _run_chunk(
        self,
        n: int,
        strata_min: int,
        expected_weight: float,
        failure_times: List[float],
    ) -> int:
        sim = self.sim
        injector = sim.injector
        geometry = sim.geometry
        config = sim.config
        lifetime = config.lifetime_hours
        interval = config.scrub_interval_hours
        standby = config.tsv_swap_standby
        rng_uniform = injector.rng.uniform
        permanent_enum = Permanence.PERMANENT

        #: Per trial: (specs in draw order, times sorted ascending) —
        #: spec ``i`` pairs with the ``i``-th smallest time, matching
        #: ``FaultInjector.place_at``.
        sampled: List[Tuple[List[FaultSpec], List[float]]] = []
        needs_scalar: Set[int] = set()
        counts: List[int] = []
        permanent: List[bool] = []
        is_tsv: List[bool] = []
        is_bank_kind: List[bool] = []
        die: List[int] = []
        bank: List[int] = []
        row_base: List[int] = []
        row_mask: List[int] = []
        col_base: List[int] = []
        col_mask: List[int] = []
        epoch: List[int] = []

        for index in range(n):
            count, sampled_weight = injector.sample_count(
                lifetime, min_faults=strata_min
            )
            if sampled_weight != expected_weight:  # reprolint: disable=REPRO003
                # Same contract (and message) as the naive loop; the
                # equality fast path keeps the check off the hot path.
                contracts.require(
                    math.isclose(
                        sampled_weight, expected_weight,
                        rel_tol=0.0, abs_tol=0.0,
                    ),
                    "stratum weight sampled by the injector (%r) disagrees "
                    "with the engine's tail probability (%r)",
                    sampled_weight,
                    expected_weight,
                )
            specs = injector.sample_specs(count)
            times = [rng_uniform(0.0, lifetime) for _ in range(count)]
            times.sort()
            sampled.append((specs, times))
            spec_is_tsv = [spec.kind.is_tsv for spec in specs]

            drop_tsv = False
            if standby is not None and True in spec_is_tsv:
                if self._tsv_overflows(specs, spec_is_tsv, standby):
                    # A channel overflowed its stand-by pool: partial
                    # swaps and post-swap DDS behaviour need the scalar
                    # TSV-Swap controller.
                    needs_scalar.add(index)
                    counts.append(0)
                    continue
                drop_tsv = True

            live = 0
            for spec, time_hours, tsv in zip(specs, times, spec_is_tsv):
                if drop_tsv and tsv:
                    continue
                live += 1
                rb, rm, cb, cm = spec.footprint_masks(geometry)
                permanent.append(spec.permanence is permanent_enum)
                is_tsv.append(tsv)
                is_bank_kind.append(spec.kind is FaultKind.BANK)
                die.append(spec.die)
                bank.append(spec.bank)
                row_base.append(rb)
                row_mask.append(rm)
                col_base.append(cb)
                col_mask.append(cm)
                epoch.append(int(time_hours // interval))
            counts.append(live)

        batch = TrialBatch(
            geometry,
            counts,
            permanent,
            is_tsv,
            is_bank_kind,
            die,
            bank,
            row_base,
            row_mask,
            col_base,
            col_mask,
            epoch,
        )
        survives = self.kernel.survives(batch)

        failures = 0
        for index in range(n):
            if index not in needs_scalar and bool(survives[index]):
                self.fast_trials += 1
                continue
            self.fallback_trials += 1
            specs, times = sampled[index]
            faults = [
                spec.build(geometry, time_hours)
                for spec, time_hours in zip(specs, times)
            ]
            outcome = sim._simulate(faults, None, None, None)
            if outcome is not None:
                failed_at, _mode = outcome
                failures += 1
                failure_times.append(failed_at)
        return failures

    @staticmethod
    def _tsv_overflows(
        specs: List[FaultSpec], spec_is_tsv: List[bool], standby: int
    ) -> bool:
        """Does some channel's stand-by pool overflow?

        TSV-Swap absorbs each *distinct* faulty TSV of a channel at the
        cost of one stand-by slot (duplicates are free; a faulty stand-by
        still costs exactly its own slot), so a trial's TSV faults vanish
        entirely iff every channel's distinct count fits its pool.  On
        overflow the repair order matters — scalar fallback.
        """
        per_channel: dict = {}
        for spec, tsv in zip(specs, spec_is_tsv):
            if tsv:
                per_channel.setdefault(spec.die, set()).add(
                    (spec.kind, spec.a)
                )
        return any(len(ids) > standby for ids in per_channel.values())
