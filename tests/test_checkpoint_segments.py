"""Append-only campaign checkpoints and linear-time campaign bookkeeping.

Covers the runners' side of the JSONL checkpoint segment: torn-write
recovery (truncation at every byte offset of a reliability checkpoint
and around every line boundary of a replay checkpoint), rejection of the
pre-segment whole-table format, and work-counting regressions that pin
the per-shard bookkeeping to O(1): serializations for checkpointing and
stopping-rule checks for the contiguous prefix.
"""

import json

import pytest

from repro.core.parity3dp import make_1dp, make_3dp
from repro.errors import CheckpointError
from repro.faults.rates import FailureRates
from repro.reliability import ParallelLifetimeRunner, ReliabilityResult
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.stopping import StoppingRule
from repro.replay import ReplayCampaignRunner, ReplayConfig

#: A FIT high enough that three-trial shards fail, so shards differ.
RATES = FailureRates.paper_baseline(tsv_device_fit=1.0e4)


def reliability_runner(geometry, **kwargs):
    kwargs.setdefault("root_seed", 42)
    kwargs.setdefault("shard_size", 3)
    kwargs.setdefault("workers", 1)
    return ParallelLifetimeRunner(
        geometry, RATES, make_1dp(geometry), EngineConfig(), **kwargs
    )


def replay_runner(geometry, **kwargs):
    return ReplayCampaignRunner(
        geometry,
        FailureRates.paper_baseline(tsv_device_fit=500.0),
        make_3dp(geometry),
        EngineConfig(tsv_swap_standby=4, use_dds=True),
        ReplayConfig(workload="zipfian", cores=2, requests_per_core=32),
        root_seed=42,
        shard_size=2,
        **kwargs,
    )


def dumps(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def whole_table_v7(fingerprint, shards):
    """A checkpoint in the pre-segment format: one indented JSON table."""
    return json.dumps(
        {
            "fingerprint": {**fingerprint, "version": 7},
            "shards": {str(i): shard for i, shard in shards.items()},
        },
        indent=1,
    )


class TestTornWrites:
    TRIALS = 12  # four shards of three

    def test_every_byte_offset_resumes_byte_identically(
        self, geometry, tmp_path
    ):
        cp = tmp_path / "cp.jsonl"
        reference = dumps(
            reliability_runner(geometry, checkpoint_path=cp).run(self.TRIALS)
        )
        intact = cp.read_bytes()
        assert intact.count(b"\n") == 5  # header + four shard lines
        for cut in range(len(intact) + 1):
            cp.write_bytes(intact[:cut])
            runner = reliability_runner(
                geometry, checkpoint_path=cp, resume=True
            )
            resumed = runner.run(self.TRIALS)
            assert dumps(resumed) == reference, cut
            # Only complete shard lines are trusted; a torn tail re-runs.
            complete_shards = max(0, intact[:cut].count(b"\n") - 1)
            assert runner.last_report.resumed_shards == complete_shards, cut
            # Serial resume re-appends in index order: the repaired file
            # is the uninterrupted checkpoint, byte for byte.
            assert cp.read_bytes() == intact, cut

    def test_replay_line_boundaries_resume_byte_identically(
        self, geometry, tmp_path
    ):
        cp = tmp_path / "replay.jsonl"
        reference = dumps(replay_runner(geometry, checkpoint_path=cp).run(6))
        intact = cp.read_bytes()
        boundaries = [i + 1 for i, byte in enumerate(intact) if byte == 0x0A]
        assert len(boundaries) == 4  # header + three shard lines
        cuts = sorted(
            {0} | {b + d for b in boundaries for d in (-1, 0, 1)}
            & set(range(len(intact) + 1))
        )
        for cut in cuts:
            cp.write_bytes(intact[:cut])
            resumed = replay_runner(
                geometry, checkpoint_path=cp, resume=True
            ).run(6)
            assert dumps(resumed) == reference, cut

    def test_corrupt_middle_line_is_rejected(self, geometry, tmp_path):
        cp = tmp_path / "cp.jsonl"
        reliability_runner(geometry, checkpoint_path=cp).run(self.TRIALS)
        lines = cp.read_text().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        cp.write_text("".join(lines))
        with pytest.raises(CheckpointError):
            reliability_runner(
                geometry, checkpoint_path=cp, resume=True
            ).run(self.TRIALS)

    def test_malformed_shard_record_is_rejected(self, geometry, tmp_path):
        cp = tmp_path / "cp.jsonl"
        reliability_runner(geometry, checkpoint_path=cp).run(self.TRIALS)
        header = cp.read_text().splitlines(keepends=True)[0]
        cp.write_text(header + json.dumps({"index": 0}) + "\n")
        with pytest.raises(CheckpointError, match="malformed shard record"):
            reliability_runner(
                geometry, checkpoint_path=cp, resume=True
            ).run(self.TRIALS)


class TestPreSegmentCheckpoints:
    """Version 7 wrote one whole-table JSON document per checkpoint;
    resuming from one must fail with a clean CheckpointError."""

    def test_reliability_v7_table_rejected(self, geometry, tmp_path):
        cp = tmp_path / "cp.jsonl"
        runner = reliability_runner(geometry, checkpoint_path=cp)
        runner.run(6)
        header, *records = [
            json.loads(line) for line in cp.read_text().splitlines()
        ]
        cp.write_text(
            whole_table_v7(header, {r["index"]: r["shard"] for r in records})
        )
        with pytest.raises(CheckpointError):
            reliability_runner(geometry, checkpoint_path=cp, resume=True).run(6)

    def test_replay_v7_table_rejected(self, geometry, tmp_path):
        cp = tmp_path / "replay.jsonl"
        replay_runner(geometry, checkpoint_path=cp).run(2)
        header, *records = [
            json.loads(line) for line in cp.read_text().splitlines()
        ]
        cp.write_text(
            whole_table_v7(header, {r["index"]: r["shard"] for r in records})
        )
        with pytest.raises(CheckpointError):
            replay_runner(geometry, checkpoint_path=cp, resume=True).run(2)


class TestBookkeepingWork:
    """Count work, not wall time: per-shard bookkeeping is O(1)."""

    SHARDS = 400

    def count_to_dict(self, monkeypatch):
        calls = []
        real = ReliabilityResult.to_dict

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(ReliabilityResult, "to_dict", counting)
        return calls

    def test_checkpointing_serializes_each_shard_once(
        self, geometry, tmp_path, monkeypatch
    ):
        calls = self.count_to_dict(monkeypatch)
        plain = reliability_runner(geometry, shard_size=1).run(self.SHARDS)
        without_checkpoint = len(calls)
        calls.clear()
        cp = tmp_path / "cp.jsonl"
        checkpointed = reliability_runner(
            geometry, shard_size=1, checkpoint_path=cp
        ).run(self.SHARDS)
        # Checkpointing reuses each worker's result dict: no extra
        # serializations at all, and one per shard overall.
        assert len(calls) == without_checkpoint == self.SHARDS
        assert dumps(checkpointed) == dumps(plain)
        assert cp.read_text().count("\n") == 1 + self.SHARDS

    def count_checks(self, monkeypatch):
        checks = []
        real = StoppingRule.satisfied

        def counting(self, prefix):
            checks.append(prefix.trials)
            return real(self, prefix)

        monkeypatch.setattr(StoppingRule, "satisfied", counting)
        return checks

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rule_checked_once_per_prefix_shard(
        self, geometry, monkeypatch, workers
    ):
        checks = self.count_checks(monkeypatch)
        runner = reliability_runner(
            geometry,
            shard_size=5,
            workers=workers,
            stopping=StoppingRule(target_ci_width=1e-9),  # never fires
        )
        runner.run(5 * 40)
        assert runner.last_report.merged_shards == 40
        # One check per shard joining the prefix, on a growing prefix.
        assert checks == [5 * k for k in range(1, 41)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stop_decision_is_remembered(self, geometry, monkeypatch, workers):
        checks = self.count_checks(monkeypatch)
        runner = reliability_runner(
            geometry,
            shard_size=5,
            workers=workers,
            stopping=StoppingRule(target_ci_width=0.4),  # fires mid-run
        )
        runner.run(5 * 40)
        report = runner.last_report
        assert report.stopped_early
        # The prefix stops growing once the rule fires; _merge reuses
        # the decision instead of re-checking.
        assert 1 < len(checks) == report.merged_shards < 40
        assert checks == [5 * k for k in range(1, report.merged_shards + 1)]
