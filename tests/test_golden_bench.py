"""Golden-value regression tests for the paper-figure experiments.

``tests/golden/*.json`` pins the exact sharded Monte-Carlo outputs of
the Figure 14 and Figure 18 experiments at reduced trial counts, under
fixed root seeds and a fixed shard plan.  A refactor of the trial loop,
fault sampling, striping, or shard/merge machinery that shifts any
number — failure counts, failure times, stratum weights — fails these
tests, so paper figures cannot drift silently.

``perf_small.json`` likewise pins the performance simulator (five
memory organizations x three benchmarks) and the replay engine (one
shard, plus a campaign with thermal feedback off and on).  Those runs
make no LLC evictions, so the fixture does not depend on how lines map
to LLC sets.

Legitimately intended changes are re-pinned with::

    PYTHONPATH=src python tools/regen_goldens.py
"""

import json
from pathlib import Path

import pytest

from repro.reliability.experiments import fig14_experiment, fig18_experiment
from repro.reliability.results import ReliabilityResult

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load(name):
    return json.loads((GOLDEN_DIR / name).read_text())


def assert_matches_golden(results, golden_results):
    assert sorted(results) == sorted(golden_results)
    for key, result in results.items():
        expected = ReliabilityResult.from_dict(golden_results[key])
        assert result == expected, (
            f"{key}: Monte-Carlo output drifted from the golden fixture "
            f"(got {result.failures}/{result.trials} failures, expected "
            f"{expected.failures}/{expected.trials}); if this change is "
            f"intended, regenerate with tools/regen_goldens.py"
        )


class TestBenchArtifactSchema:
    """The BENCH perf-trend artifact contract (schema 2): histogram
    metrics are folded into ``derived.histograms`` with deterministic
    quantile summaries, alongside the existing counter-derived stats."""

    def build(self, tmp_path):
        from repro.telemetry.registry import MetricsRegistry
        from tools.bench_report import ARTIFACT_SCHEMA, build_report

        metrics_dir = tmp_path / "metrics"
        metrics_dir.mkdir()
        registry = MetricsRegistry()
        registry.inc("engine/trials", 50)
        for value in (0.002, 0.004, 0.02):
            registry.observe(
                "engine/shard_seconds", value, edges=(0.001, 0.01, 0.1)
            )
        (metrics_dir / "fig14.json").write_text(
            json.dumps(registry.to_dict())
        )
        return ARTIFACT_SCHEMA, build_report(metrics_dir)

    def test_schema_version_is_2(self, tmp_path):
        schema, report = self.build(tmp_path)
        assert schema == 2
        assert report["schema"] == 2
        assert report["artifact"] == "BENCH"

    def test_histograms_folded_into_derived_sections(self, tmp_path):
        _, report = self.build(tmp_path)
        for section in (report["sources"]["fig14"], report["merged"]):
            summary = section["derived"]["histograms"][
                "engine/shard_seconds"
            ]
            assert summary["count"] == 3
            assert summary["max"] == 0.02
            assert set(summary) == {
                "count", "total", "mean", "min", "max", "p50", "p90", "p99"
            }

    def test_artifact_is_json_round_trip_stable(self, tmp_path):
        _, report = self.build(tmp_path)
        encoded = json.dumps(report, sort_keys=True)
        assert json.dumps(json.loads(encoded), sort_keys=True) == encoded


class TestGoldenFigures:
    def test_fig14_small_matches_golden(self, geometry):
        golden = load("fig14_small.json")
        results = fig14_experiment(
            geometry, golden["trials"], shard_size=golden["shard_size"]
        )
        assert_matches_golden(results, golden["results"])

    def test_fig18_small_matches_golden(self, geometry):
        golden = load("fig18_small.json")
        results = fig18_experiment(
            geometry,
            golden["symbol_trials"],
            golden["citadel_trials"],
            shard_size=golden["shard_size"],
        )
        assert_matches_golden(results, golden["results"])

    def test_goldens_have_resolving_power(self):
        """A fixture with zero failures everywhere could not detect a
        biased refactor; require every pinned experiment to have at
        least one failing scheme and sane counts."""
        for name in ("fig14_small.json", "fig18_small.json"):
            golden = load(name)
            total_failures = 0
            for key, payload in golden["results"].items():
                result = ReliabilityResult.from_dict(payload)
                assert result.trials > 0
                assert 0 <= result.failures <= result.trials
                assert len(result.failure_times_hours) == result.failures
                total_failures += result.failures
            assert total_failures > 0, name


class TestGoldenPerf:
    def test_perf_small_matches_golden(self, geometry):
        from tools.regen_goldens import perf_small

        golden = load("perf_small.json")
        current = perf_small(geometry)  # asserts zero LLC evictions
        for config_name, per_bench in golden["perf"].items():
            for bench, expected in per_bench.items():
                assert current["perf"][config_name][bench] == expected, (
                    f"{config_name}/{bench}: PerfResult drifted from the "
                    f"golden fixture"
                )
        assert current["replay_shard"] == golden["replay_shard"]
        assert current["replay_campaigns"] == golden["replay_campaigns"]
        assert current == golden
