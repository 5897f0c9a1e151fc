"""Differential tests for the vectorized batch trial kernel.

The batch path (on by default; ``EngineConfig.batch_trials=False`` is the
scalar oracle) is a *survival filter*: the array kernels may only claim a
trial survives when the exact scalar simulator would agree, and every
other trial is re-run through the scalar path.  These tests pin both
halves of that claim:

* byte-identity of ``ReliabilityResult`` documents between the scalar and
  batch engines for every registered scheme, across worker counts, and
  through checkpoint/resume;
* hypothesis soundness at the kernel boundary — crowded random fault
  sets where a ``survives`` verdict must match a from-scratch scalar
  simulation of the same trial;
* the dispatch contract — the batch path is the default for naive runs,
  with silent scalar fallback for observability runs, kernel-less models
  and sampled plans.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parity3dp import make_3dp
from repro.faults.injector import FaultSpec
from repro.faults.rates import FailureRates
from repro.faults.types import FaultKind, Permanence
from repro.reliability import ParallelLifetimeRunner
from repro.reliability.batch import BatchTrialKernel, make_batch_runner
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.schemes import SCHEMES
from repro.stack.geometry import LIFETIME_HOURS, StackGeometry

GEOM = StackGeometry()
#: TSV faults on so TSV-Swap absorption and the TSV kernel rows are hit.
RATES = FailureRates.paper_baseline(tsv_device_fit=1430.0)

np = pytest.importorskip("numpy")


def run_once(scheme, seed, batch, trials=300, **config_kwargs):
    config = EngineConfig(batch_trials=batch, **config_kwargs)
    sim = LifetimeSimulator(GEOM, RATES, SCHEMES[scheme](GEOM), config, seed=seed)
    return sim.run(trials)


def doc(result):
    return json.dumps(result.to_dict(), sort_keys=False)


# ---------------------------------------------------------------------- #
# End-to-end byte identity
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestBatchMatchesScalar:
    def test_result_documents_identical(self, scheme):
        for seed in (7, 99):
            scalar = run_once(scheme, seed, batch=False)
            batch = run_once(scheme, seed, batch=True)
            assert doc(scalar) == doc(batch), (scheme, seed)

    def test_identical_with_mitigations(self, scheme):
        scalar = run_once(
            scheme, 31, batch=False, tsv_swap_standby=4, use_dds=True
        )
        batch = run_once(
            scheme, 31, batch=True, tsv_swap_standby=4, use_dds=True
        )
        assert doc(scalar) == doc(batch), scheme


class TestWorkerByteIdentity:
    def make_runner(self, batch, workers, **kwargs):
        return ParallelLifetimeRunner(
            GEOM,
            RATES,
            make_3dp(GEOM),
            EngineConfig(
                tsv_swap_standby=4, use_dds=True, batch_trials=batch
            ),
            root_seed=42,
            workers=workers,
            shard_size=200,
            **kwargs,
        )

    def test_workers_1_vs_4_with_batch(self):
        a = self.make_runner(batch=True, workers=1).run(trials=800)
        b = self.make_runner(batch=True, workers=4).run(trials=800)
        assert doc(a) == doc(b)

    def test_batch_runner_equals_scalar_runner(self):
        scalar = self.make_runner(batch=False, workers=2).run(trials=800)
        batch = self.make_runner(batch=True, workers=2).run(trials=800)
        assert doc(scalar) == doc(batch)

    def test_resume_with_batch(self, tmp_path):
        cp = tmp_path / "cp.json"
        reference = self.make_runner(batch=True, workers=1).run(trials=800)
        self.make_runner(
            batch=True, workers=1, checkpoint_path=cp
        ).run(trials=800)
        runner = self.make_runner(
            batch=True, workers=1, checkpoint_path=cp, resume=True
        )
        resumed = runner.run(trials=800)
        assert doc(resumed) == doc(reference)
        assert runner.last_report.resumed_shards == 4


# ---------------------------------------------------------------------- #
# Kernel-boundary soundness (hypothesis)
# ---------------------------------------------------------------------- #
#: Small coordinate pools force aliasing — the same trick as the
#: incremental-correction differential.
PERM = st.sampled_from([Permanence.TRANSIENT, Permanence.PERMANENT])


@st.composite
def crowded_specs(draw, geom=GEOM):
    kind = draw(
        st.sampled_from(
            ["bit", "word", "row", "column", "subarray", "bank", "dtsv", "atsv"]
        )
    )
    perm = draw(PERM)
    die = draw(st.integers(0, min(3, geom.total_dies - 1)))
    bank = draw(st.integers(0, min(2, geom.banks_per_die - 1)))
    rows = st.integers(0, min(7, geom.rows_per_bank - 1))
    cols = st.integers(0, min(127, geom.row_bits - 1))
    if kind == "bit":
        return FaultSpec(FaultKind.BIT, perm, die, bank, draw(rows), draw(cols))
    if kind == "word":
        word = draw(st.integers(0, min(3, geom.row_bits // 32 - 1)))
        return FaultSpec(FaultKind.WORD, perm, die, bank, draw(rows), word)
    if kind == "row":
        return FaultSpec(FaultKind.ROW, perm, die, bank, draw(rows), 0)
    if kind == "column":
        return FaultSpec(FaultKind.COLUMN, perm, die, bank, draw(cols), 0)
    if kind == "subarray":
        sub = draw(st.integers(0, min(1, geom.subarrays_per_bank - 1)))
        return FaultSpec(FaultKind.SUBARRAY, perm, die, bank, sub, 0)
    if kind == "bank":
        return FaultSpec(FaultKind.BANK, perm, die, bank, 0, 0)
    channel = draw(st.integers(0, min(3, geom.channels - 1)))
    if kind == "dtsv":
        idx = draw(st.integers(0, min(7, geom.data_tsvs_per_channel - 1)))
        return FaultSpec(
            FaultKind.DATA_TSV, Permanence.PERMANENT, channel, -1, idx, 0
        )
    idx = draw(st.integers(0, min(3, geom.addr_tsvs_per_channel - 1)))
    return FaultSpec(
        FaultKind.ADDR_TSV, Permanence.PERMANENT, channel, -1, idx,
        draw(st.integers(0, 1)),
    )


TRIAL_STRATEGY = st.lists(crowded_specs(), min_size=0, max_size=6)
TIME_STRATEGY = st.lists(
    st.floats(min_value=0.0, max_value=LIFETIME_HOURS - 1.0,
              allow_nan=False, allow_infinity=False),
    min_size=6, max_size=6,
)

#: Schemes whose models expose an array-shaped kernel.
KERNEL_SCHEMES = sorted(
    name for name in SCHEMES if SCHEMES[name](GEOM).batch_kernel() is not None
)


def build_single_trial_batch(specs, times, interval):
    """Mirror ``BatchTrialKernel._run_chunk``'s column assembly for one
    trial with no TSV-Swap absorption."""
    from repro.ecc.batch_kernels import TrialBatch

    columns = {
        "permanent": [], "is_tsv": [], "is_bank_kind": [], "die": [],
        "bank": [], "row_base": [], "row_mask": [], "col_base": [],
        "col_mask": [], "epoch": [],
    }
    for spec, t in zip(specs, times):
        rb, rm, cb, cm = spec.footprint_masks(GEOM)
        columns["permanent"].append(spec.permanence is Permanence.PERMANENT)
        columns["is_tsv"].append(spec.kind.is_tsv)
        columns["is_bank_kind"].append(spec.kind is FaultKind.BANK)
        columns["die"].append(spec.die)
        columns["bank"].append(spec.bank)
        columns["row_base"].append(rb)
        columns["row_mask"].append(rm)
        columns["col_base"].append(cb)
        columns["col_mask"].append(cm)
        columns["epoch"].append(int(t // interval))
    return TrialBatch(GEOM, [len(specs)], **columns)


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
class TestKernelSoundness:
    """A ``survives`` verdict must never contradict the scalar engine."""

    @settings(max_examples=40, deadline=None)
    @given(specs=TRIAL_STRATEGY, raw_times=TIME_STRATEGY)
    def test_survives_implies_scalar_survival(self, scheme, specs, raw_times):
        for use_dds in (False, True):
            config = EngineConfig(use_dds=use_dds)
            sim = LifetimeSimulator(
                GEOM, RATES, SCHEMES[scheme](GEOM), config, seed=0
            )
            times = sorted(raw_times[: len(specs)])
            batch = build_single_trial_batch(
                specs, times, config.scrub_interval_hours
            )
            kernel = sim.model.batch_kernel()
            verdict = kernel.survives(batch)
            assert verdict.shape == (1,)
            if bool(verdict[0]):
                faults = [
                    spec.build(GEOM, t) for spec, t in zip(specs, times)
                ]
                assert sim._simulate(faults, None, None, None) is None, (
                    scheme, use_dds, specs, times
                )

    def test_empty_trial_survives(self, scheme):
        config = EngineConfig()
        batch = build_single_trial_batch([], [], config.scrub_interval_hours)
        kernel = SCHEMES[scheme](GEOM).batch_kernel()
        assert bool(kernel.survives(batch)[0])


# ---------------------------------------------------------------------- #
# The one shape definition, against closed-form sizes
# ---------------------------------------------------------------------- #
SMALL = StackGeometry.small()


def expected_shape(spec, g):
    """``(total bits, banks touched, (row, col) of the drawn anchor)`` of a
    spec's fault, from the paper's shape descriptions (Figure 2, §V-B)
    without going through address masks."""
    word_bits = 32
    num_dtsv = g.data_tsvs_per_channel
    return {
        FaultKind.BIT: (1, 1, (spec.a, spec.b)),
        FaultKind.WORD: (word_bits, 1, (spec.a, spec.b * word_bits)),
        FaultKind.COLUMN: (g.rows_per_bank, 1, (g.rows_per_bank - 1, spec.a)),
        FaultKind.ROW: (g.row_bits, 1, (spec.a, g.row_bits - 1)),
        FaultKind.SUBARRAY: (
            g.rows_per_subarray * g.row_bits, 1,
            (spec.a * g.rows_per_subarray, 0),
        ),
        FaultKind.BANK: (g.rows_per_bank * g.row_bits, 1, (0, 0)),
        # DTSV k carries bit k of every line's D-bit beat, for every beat
        # of the burst, in every row of every bank of its die.
        FaultKind.DATA_TSV: (
            g.banks_per_die * g.rows_per_bank * g.lines_per_row
            * g.line_bits // num_dtsv,
            g.banks_per_die,
            (0, spec.a),
        ),
        # A stuck ATSV hides the half of the rows whose (folded) address
        # bit differs from the stuck value, in every bank of its die.
        FaultKind.ADDR_TSV: (
            g.rows_per_bank // 2 * g.row_bits * g.banks_per_die,
            g.banks_per_die,
            ((1 - spec.b) << (spec.a % g.row_address_bits), 0),
        ),
    }[spec.kind]


@settings(max_examples=200, deadline=None)
@given(spec=crowded_specs(SMALL))
def test_built_footprint_matches_closed_form_shape(spec):
    bits, banks, (row, col) = expected_shape(spec, SMALL)
    footprint = spec.build(SMALL).footprint
    assert footprint.total_bits() == bits, spec
    assert footprint.dies == {spec.die}, spec
    assert footprint.num_bank_instances == banks, spec
    anchor_bank = spec.bank if banks == 1 else SMALL.banks_per_die - 1
    assert footprint.contains(spec.die, anchor_bank, row, col), spec


# ---------------------------------------------------------------------- #
# Dispatch contract
# ---------------------------------------------------------------------- #
class TestDispatch:
    def make_sim(self, **config_kwargs):
        config_kwargs.setdefault("batch_trials", True)
        config = EngineConfig(
            tsv_swap_standby=4, use_dds=True, **config_kwargs
        )
        return LifetimeSimulator(
            GEOM, RATES, make_3dp(GEOM), config, seed=302
        )

    def test_runner_used_and_counts_trials(self):
        sim = self.make_sim()
        runner = make_batch_runner(sim)
        assert isinstance(runner, BatchTrialKernel)
        result = runner.run(400, 2, None)
        assert result.trials == 400
        assert runner.fast_trials > 0
        assert runner.fast_trials + runner.fallback_trials == 400

    def test_scalar_flag_off_returns_none(self):
        assert make_batch_runner(self.make_sim(batch_trials=False)) is None

    def test_observability_forces_scalar_fallback(self):
        sim = self.make_sim(collect_metrics=True)
        assert make_batch_runner(sim) is None
        # ... and the end-to-end run still matches the scalar engine.
        with_batch_flag = self.make_sim(collect_metrics=True).run(200)
        scalar = self.make_sim(
            batch_trials=False, collect_metrics=True
        ).run(200)
        assert doc(with_batch_flag) == doc(scalar)

    def test_kernelless_model_falls_back(self):
        config = EngineConfig(batch_trials=True)
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES["bch"](GEOM), config, seed=1
        )
        assert sim.model.batch_kernel() is None
        assert make_batch_runner(sim) is None

    def test_batch_is_the_default(self):
        sim = LifetimeSimulator(GEOM, RATES, make_3dp(GEOM), EngineConfig())
        assert isinstance(make_batch_runner(sim), BatchTrialKernel)

    def test_sampled_plan_ignores_the_switch(self):
        default = LifetimeSimulator(
            GEOM, RATES, make_3dp(GEOM), EngineConfig(sampling="stratified"),
            seed=5,
        ).run(300)
        scalar = run_once("3dp", 5, batch=False, sampling="stratified")
        assert doc(default) == doc(scalar)
