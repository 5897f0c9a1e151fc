"""Tests for the content-addressed result store.

The store's contract is byte-identity: ``get`` after ``put`` (in this
process or a later one) reproduces exactly the ``to_dict()`` document
that was filed, whether served from the in-memory LRU layer or re-read
from disk.  Eviction, corruption detection, and concurrent access are
covered here; the scheduler-level dedupe built on top of the store is
exercised in ``test_service_scheduler.py``.
"""

import json
import threading

import pytest

from repro.errors import StoreError
from repro.reliability.results import ReliabilityResult
from repro.service.jobs import CampaignSpec, clone_spec
from repro.service.store import ResultStore
from repro.telemetry.registry import MetricsRegistry


def make_spec(seed=0, **overrides):
    overrides.setdefault("scheme", "secded")
    overrides.setdefault("trials", 500)
    return CampaignSpec(seed=seed, **overrides)


def make_result(spec):
    """A deterministic fake result derived from the spec."""
    return ReliabilityResult(
        scheme_name=spec.scheme,
        trials=spec.effective_trials,
        failures=spec.seed % 7,
        lifetime_hours=61320.0,
        failure_times_hours=[100.0 * (i + 1) for i in range(spec.seed % 7)],
    )


class TestRoundTrip:
    def test_put_get_byte_identity(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = make_spec(seed=3)
        result = make_result(spec)
        key = store.put(spec, result)
        assert key == spec.spec_hash()
        fetched = store.get(spec)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()

    def test_get_returns_fresh_objects(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = make_spec(seed=3)
        store.put(spec, make_result(spec))
        first = store.get(spec)
        first.failure_times_hours.append(999.0)  # mutate the copy
        assert store.get(spec).to_dict() == make_result(spec).to_dict()

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "store", metrics=MetricsRegistry())
        assert store.get(make_spec()) is None
        assert store.metrics.to_dict()["counters"]["store/misses"] == 1

    def test_persists_across_instances(self, tmp_path):
        spec = make_spec(seed=5)
        result = make_result(spec)
        ResultStore(tmp_path / "store").put(spec, result)
        reopened = ResultStore(tmp_path / "store")
        assert reopened.contains(spec)
        assert len(reopened) == 1
        assert reopened.get(spec).to_dict() == result.to_dict()

    def test_entry_carries_spec_and_result(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = make_spec(seed=2)
        store.put(spec, make_result(spec))
        entry = store.entry(spec)
        assert entry["spec"] == spec.canonical_dict()
        assert entry["spec_hash"] == spec.spec_hash()
        assert entry["result"] == make_result(spec).to_dict()


class TestLRULayers:
    def test_memory_layer_serves_hot_entries(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=metrics)
        spec = make_spec(seed=1)
        store.put(spec, make_result(spec))
        store.get(spec)
        counters = metrics.to_dict()["counters"]
        assert counters["store/memory_hits"] == 1
        assert "store/disk_hits" not in counters

    def test_memory_eviction_falls_back_to_disk(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultStore(
            tmp_path / "store", max_memory_entries=2, metrics=metrics
        )
        specs = [make_spec(seed=i) for i in range(3)]
        for spec in specs:
            store.put(spec, make_result(spec))
        # seed=0 was evicted from memory but survives on disk.
        assert store.get(specs[0]).to_dict() == make_result(specs[0]).to_dict()
        counters = metrics.to_dict()["counters"]
        assert counters["store/memory_evictions"] >= 1
        assert counters["store/disk_hits"] == 1

    def test_disk_eviction_drops_oldest(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultStore(
            tmp_path / "store", max_disk_entries=2, metrics=metrics
        )
        specs = [make_spec(seed=i) for i in range(3)]
        for spec in specs:
            store.put(spec, make_result(spec))
        assert len(store) == 2
        assert not store.contains(specs[0])
        assert store.contains(specs[1]) and store.contains(specs[2])
        assert metrics.to_dict()["counters"]["store/disk_evictions"] == 1

    def test_get_refreshes_lru_position(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_disk_entries=2)
        specs = [make_spec(seed=i) for i in range(3)]
        store.put(specs[0], make_result(specs[0]))
        store.put(specs[1], make_result(specs[1]))
        store.get(specs[0])  # now seed=1 is the LRU victim
        store.put(specs[2], make_result(specs[2]))
        assert store.contains(specs[0])
        assert not store.contains(specs[1])


class TestIntegrity:
    def test_unreadable_entry_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = make_spec()
        store.put(spec, make_result(spec))
        fresh = ResultStore(tmp_path / "store")
        (tmp_path / "store" / f"{spec.spec_hash()}.json").write_text("{oops")
        with pytest.raises(StoreError, match="unreadable"):
            fresh.get(spec)

    def test_hash_mismatch_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = make_spec(seed=1)
        store.put(spec, make_result(spec))
        path = tmp_path / "store" / f"{spec.spec_hash()}.json"
        entry = json.loads(path.read_text())
        entry["spec"]["seed"] = 999  # tamper: spec no longer matches key
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="content address"):
            ResultStore(tmp_path / "store").get(spec)

    def test_unparseable_filed_spec_is_a_store_error(self, tmp_path):
        # A filed spec that no longer parses (here: the retired
        # ``"batch": true`` field) is a corrupt entry, not a bad
        # submission; a SpecError would surface as HTTP 400.
        store = ResultStore(tmp_path / "store")
        spec = make_spec(seed=2)
        store.put(spec, make_result(spec))
        path = tmp_path / "store" / f"{spec.spec_hash()}.json"
        entry = json.loads(path.read_text())
        entry["spec"]["batch"] = True
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="malformed store entry"):
            ResultStore(tmp_path / "store").get(spec)

    def test_wrong_schema_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = make_spec()
        store.put(spec, make_result(spec))
        path = tmp_path / "store" / f"{spec.spec_hash()}.json"
        entry = json.loads(path.read_text())
        entry["schema"] = 99
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="schema"):
            ResultStore(tmp_path / "store").get(spec)

    def test_missing_result_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = make_spec()
        store.put(spec, make_result(spec))
        path = tmp_path / "store" / f"{spec.spec_hash()}.json"
        entry = json.loads(path.read_text())
        del entry["result"]
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="missing its result"):
            ResultStore(tmp_path / "store").get(spec)


class TestConcurrency:
    def test_concurrent_readers_and_writers(self, tmp_path):
        """Hammer one store from many threads; every read must see
        either nothing or a complete, byte-identical entry."""
        store = ResultStore(tmp_path / "store", max_memory_entries=4)
        specs = [make_spec(seed=i) for i in range(8)]
        expected = {s.spec_hash(): make_result(s).to_dict() for s in specs}
        errors = []
        barrier = threading.Barrier(8)

        def worker(index):
            try:
                barrier.wait()
                spec = specs[index]
                for _ in range(20):
                    store.put(spec, make_result(spec))
                    for other in specs:
                        found = store.get(other)
                        if found is not None:
                            assert found.to_dict() == expected[
                                other.spec_hash()
                            ]
            except Exception as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(store) == len(specs)

    def test_concurrent_identical_puts_converge(self, tmp_path):
        """Two threads filing the same spec concurrently leave exactly
        one well-formed entry (atomic rename discipline)."""
        store = ResultStore(tmp_path / "store")
        spec = make_spec(seed=4)
        result = make_result(spec)
        barrier = threading.Barrier(2)

        def put():
            barrier.wait()
            store.put(spec, result)

        threads = [threading.Thread(target=put) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store) == 1
        assert store.get(spec).to_dict() == result.to_dict()


class TestAttachMetrics:
    """REPRO009 regression: the scheduler used to reach into the store
    and assign ``store.metrics`` directly (an unguarded cross-object
    mutation); it now goes through the synchronized ``attach_metrics``."""

    def test_attach_adopts_registry_when_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        registry = MetricsRegistry()
        store.attach_metrics(registry)
        assert store.metrics is registry
        spec = make_spec(seed=3)
        store.put(spec, make_result(spec))
        assert registry.counter("store/puts") >= 1

    def test_attach_never_overwrites_injected_registry(self, tmp_path):
        mine = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=mine)
        store.attach_metrics(MetricsRegistry())
        assert store.metrics is mine

    def test_first_attach_wins_under_contention(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        registries = [MetricsRegistry() for _ in range(8)]
        threads = [
            threading.Thread(target=store.attach_metrics, args=(r,))
            for r in registries
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert any(store.metrics is r for r in registries)
