"""Engine hot-path bench: the batch trial kernel must beat the scalar loop.

Runs the Citadel configuration (3DP + TSV-Swap + DDS) at paper rates,
serially, once on the vectorized batch path and once on the scalar
per-trial loop (which asks the correction model ``is_uncorrectable``
about the live set after every fault arrival).

Asserted here (and re-checked by ``tools/bench_report.py`` from the
``results/batch_speedup.json`` it reads):

* serial wall-clock speedup of ``batch_trials=True`` over the scalar
  loop is >= 3x;
* the two :class:`ReliabilityResult` documents are byte-identical.
"""

import time

import pytest

from conftest import RESULTS_DIR, emit, scaled
from repro.analysis.report import ExperimentReport
from repro.core.parity3dp import make_3dp
from repro.faults.rates import TSV_FIT_HIGH, FailureRates
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.telemetry.files import write_json_atomic

SEED = 302

BATCH_TRIALS = scaled(12000, floor=3000)
BATCH_SPEEDUP_TARGET = 3.0


@pytest.mark.benchmark(group="engine")
def test_batch_kernel_speedup(benchmark, geometry):
    """The vectorized batch path must beat the scalar loop by >= 3x on
    the paper's Citadel configuration, with byte-identical results.

    Paper-rate workload: the batch kernel's fast path is a survival
    proof, so its win is largest exactly where campaigns spend their
    time — overwhelmingly-correctable trials.
    Metrics are off on both legs because the batch path only engages for
    observability-free runs (``make_batch_runner`` falls back otherwise).
    """
    import json

    rates = FailureRates.paper_baseline(tsv_device_fit=TSV_FIT_HIGH)

    def serial(batch: bool):
        config = EngineConfig(
            tsv_swap_standby=4, use_dds=True, batch_trials=batch
        )
        sim = LifetimeSimulator(
            geometry, rates, make_3dp(geometry), config, seed=SEED
        )
        return sim.run(trials=BATCH_TRIALS)

    def experiment():
        t0 = time.perf_counter()
        batched = serial(batch=True)
        t_batch = time.perf_counter() - t0
        t0 = time.perf_counter()
        scalar = serial(batch=False)
        t_scalar = time.perf_counter() - t0
        return batched, scalar, t_batch, t_scalar

    batched, scalar, t_batch, t_scalar = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    speedup = t_scalar / t_batch

    identical = json.dumps(batched.to_dict(), sort_keys=False) == json.dumps(
        scalar.to_dict(), sort_keys=False
    )
    assert identical, "batch path diverged from the scalar engine"

    report = ExperimentReport(
        "Batch trial kernel speedup",
        f"Citadel paper-rate campaign, {BATCH_TRIALS} trials, serial",
    )
    report.add("scalar wall-clock", None, t_scalar, unit="s")
    report.add("batch wall-clock", None, t_batch, unit="s")
    report.add("speedup", BATCH_SPEEDUP_TARGET, speedup, unit="x",
               note="byte-identical ReliabilityResult documents")
    emit(report, "engine_batch")

    # Timing sidecar re-checked by tools/bench_report.py; lives next to
    # (not in) results/metrics/ so wall-clock numbers never enter the
    # deterministic BENCH artifact.
    write_json_atomic(
        RESULTS_DIR / "batch_speedup.json",
        {
            "bench": "engine_batch",
            "trials": BATCH_TRIALS,
            "threshold": BATCH_SPEEDUP_TARGET,
            "speedup": speedup,
            "batch_seconds": t_batch,
            "scalar_seconds": t_scalar,
            "results_identical": identical,
        },
    )

    assert speedup >= BATCH_SPEEDUP_TARGET, (
        f"batch trial kernel only {speedup:.2f}x over the scalar loop "
        f"(target {BATCH_SPEEDUP_TARGET}x)"
    )
