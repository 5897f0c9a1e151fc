"""MetricsRegistry: the merge monoid, snapshots, and serialization.

The whole telemetry design rests on one algebraic fact: ``merge`` is a
commutative monoid over registries (counters add, gauges max, histograms
with identical edges add bucket-wise, the empty registry is the
identity).  That is what lets per-shard metrics flow through
``ReliabilityResult`` merges in any order — workers=1 and workers=4
campaigns then agree byte-for-byte.  These tests pin the laws with
hypothesis-generated registries.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MergeError
from repro.telemetry.registry import Histogram, MetricsRegistry, Timer

EDGES = (1.0, 2.0, 5.0, 10.0)

COUNTER_NAMES = ("engine/trials", "parity/checks", "dds/row_spared")
GAUGE_NAMES = ("perf/exec_cycles", "campaign/high_water")
HISTOGRAM_NAMES = ("engine/faults_per_trial", "campaign/shard_seconds")


@st.composite
def registries(draw):
    """A registry with arbitrary counts over a fixed name universe."""
    registry = MetricsRegistry()
    for name in COUNTER_NAMES:
        n = draw(st.integers(0, 1000))
        if n:
            registry.inc(name, n)
    for name in GAUGE_NAMES:
        if draw(st.booleans()):
            registry.gauge_set(name, draw(st.floats(0, 1e6)))
    for name in HISTOGRAM_NAMES:
        # Integer-valued observations keep the running float totals
        # exactly associative; real campaign metrics are event counts
        # and cycle counts, so this matches what production records.
        for value in draw(
            st.lists(st.integers(0, 20), max_size=8)
        ):
            registry.observe(name, float(value), edges=EDGES)
    return registry


class TestMergeMonoid:
    @settings(max_examples=60, deadline=None)
    @given(registries(), registries())
    def test_commutative(self, a, b):
        assert a.merge(b).to_dict() == b.merge(a).to_dict()

    @settings(max_examples=60, deadline=None)
    @given(registries(), registries(), registries())
    def test_associative(self, a, b, c):
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_dict() == right.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(registries())
    def test_empty_is_identity(self, a):
        empty = MetricsRegistry()
        assert a.merge(empty).to_dict() == a.to_dict()
        assert empty.merge(a).to_dict() == a.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(registries(), registries())
    def test_merge_is_nondestructive(self, a, b):
        before_a, before_b = a.to_dict(), b.to_dict()
        a.merge(b)
        assert a.to_dict() == before_a
        assert b.to_dict() == before_b

    def test_counters_add_and_gauges_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x", 3)
        b.inc("x", 4)
        a.gauge_set("g", 2.0)
        b.gauge_set("g", 7.0)
        merged = a.merge(b)
        assert merged.counter("x") == 7
        assert merged.gauge("g") == 7.0

    def test_histogram_edge_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 1.0, edges=(1.0, 2.0))
        b.observe("h", 1.0, edges=(1.0, 3.0))
        with pytest.raises(MergeError):
            a.merge(b)

    def test_merge_all_of_nothing_is_empty(self):
        assert MetricsRegistry.merge_all([]).is_empty


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(registries())
    def test_round_trip(self, registry):
        data = registry.to_dict()
        assert MetricsRegistry.from_dict(data).to_dict() == data

    @settings(max_examples=30, deadline=None)
    @given(registries())
    def test_to_dict_is_json_stable(self, registry):
        text = json.dumps(registry.to_dict(), sort_keys=True)
        parsed = MetricsRegistry.from_dict(json.loads(text))
        assert json.dumps(parsed.to_dict(), sort_keys=True) == text

    def test_histogram_round_trip_preserves_extremes(self):
        h = Histogram(edges=EDGES)
        for value in (0.5, 3.0, 42.0):
            h.observe(value)
        back = Histogram.from_dict(h.to_dict())
        assert back.min_value == 0.5
        assert back.max_value == 42.0
        assert back.total == pytest.approx(45.5)

    def test_timer_round_trip(self):
        t = Timer()
        t.record(0.25)
        t.record(0.75)
        back = Timer.from_dict(t.to_dict())
        assert back.count == 2
        assert back.total_seconds == pytest.approx(1.0)


class TestDeterministicSnapshot:
    def test_strips_timers_and_volatile_entries(self):
        registry = MetricsRegistry()
        registry.inc("engine/trials", 5)
        registry.record_seconds("campaign/shard_time", 0.5)
        registry.gauge_set("campaign/load", 0.9, volatile=True)
        registry.observe("campaign/shard_seconds", 0.5,
                         edges=EDGES, volatile=True)
        registry.observe("engine/faults_per_trial", 2.0, edges=EDGES)
        snapshot = registry.deterministic_snapshot()
        assert snapshot.counter("engine/trials") == 5
        assert snapshot.timer("campaign/shard_time") is None
        assert snapshot.gauge("campaign/load") is None
        assert snapshot.histogram("campaign/shard_seconds") is None
        assert snapshot.histogram("engine/faults_per_trial") is not None

    def test_volatile_counter_stripped_but_merges(self):
        registry = MetricsRegistry()
        registry.inc("engine/volatile_example", 3, volatile=True)
        registry.inc("engine/trials", 1)
        assert registry.counter("engine/volatile_example") == 3
        snapshot = registry.deterministic_snapshot()
        assert snapshot.counter("engine/volatile_example") == 0
        assert snapshot.counter("engine/trials") == 1
        other = MetricsRegistry()
        other.inc("engine/volatile_example", 2, volatile=True)
        merged = registry.merge(other)
        assert merged.counter("engine/volatile_example") == 5
        assert merged.deterministic_snapshot().counter(
            "engine/volatile_example"
        ) == 0

    def test_snapshot_of_snapshot_is_fixed_point(self):
        registry = MetricsRegistry()
        registry.inc("a", 1)
        registry.record_seconds("t", 1.0)
        once = registry.deterministic_snapshot()
        assert once.deterministic_snapshot().to_dict() == once.to_dict()


class TestAccessors:
    def test_absent_counter_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.inc("parity/corrected/dim1", 3)
        registry.inc("parity/corrected/dim2", 1)
        registry.inc("parity/checks", 9)
        assert registry.counters_with_prefix("parity/corrected/dim") == {
            "parity/corrected/dim1": 3,
            "parity/corrected/dim2": 1,
        }

    def test_render_mentions_every_name(self):
        registry = MetricsRegistry()
        registry.inc("engine/trials", 2)
        registry.gauge_set("perf/exec_cycles", 10.0)
        registry.observe("engine/faults_per_trial", 1.0, edges=EDGES)
        registry.record_seconds("campaign/shard_time", 0.1)
        text = registry.render()
        for name in registry.names():
            assert name in text


class TestThreadSafety:
    """Recording APIs are shared by scheduler worker threads; hammering
    them concurrently must never drop an update (REPRO009 regression:
    the registry now serializes writes behind an internal RLock)."""

    THREADS = 8
    ROUNDS = 2000

    def _hammer(self, work):
        import threading

        barrier = threading.Barrier(self.THREADS)

        def body():
            barrier.wait()
            for i in range(self.ROUNDS):
                work(i)

        threads = [
            threading.Thread(target=body) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_concurrent_inc_loses_no_updates(self):
        registry = MetricsRegistry()
        self._hammer(lambda i: registry.inc("service/jobs", 1))
        assert registry.counter("service/jobs") == self.THREADS * self.ROUNDS

    def test_concurrent_observe_loses_no_samples(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", edges=[1.0, 10.0])
        self._hammer(lambda i: registry.observe("lat", float(i % 20)))
        hist = registry.histogram("lat")
        assert hist.count == self.THREADS * self.ROUNDS
        assert sum(hist.counts) == hist.count

    def test_concurrent_timers_lose_no_durations(self):
        registry = MetricsRegistry()
        self._hammer(lambda i: registry.record_seconds("phase", 0.001))
        assert registry.timer("phase").count == self.THREADS * self.ROUNDS
