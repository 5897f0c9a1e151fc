"""TraceWriter/TraceRecord schema, nesting, sampling; ProgressReporter."""

import io
import json

import pytest

import repro.telemetry.files as files_mod
from repro.errors import TelemetryError
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.tracing import (
    TRACE_SCHEMA_VERSION,
    TraceRecord,
    TraceWriter,
    read_trace,
)


class TestTraceRecord:
    def test_round_trip(self):
        record = TraceRecord(
            kind="event", name="failure", path="campaign/shard-0/failure",
            t=1.25, attrs={"trial": 17},
        )
        assert TraceRecord.from_dict(record.to_dict()) == record

    def test_empty_attrs_omitted_from_dict(self):
        record = TraceRecord(kind="begin", name="x", path="x", t=0.0, attrs={})
        assert "attrs" not in record.to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError):
            TraceRecord.from_dict({"kind": "bogus", "name": "x",
                                   "path": "x", "t": 0.0})

    def test_missing_field_rejected(self):
        with pytest.raises(TelemetryError):
            TraceRecord.from_dict({"kind": "event", "name": "x", "t": 0.0})


class TestTraceWriter:
    def test_nested_scopes_build_paths(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as tracer:
            with tracer.span("campaign"):
                with tracer.span("shard-0"):
                    tracer.event("failure", trial=3)
        records = read_trace(path)
        kinds = [r.kind for r in records]
        assert kinds == ["meta", "begin", "begin", "event", "end", "end"]
        event = records[3]
        assert event.path == "campaign/shard-0/failure"
        assert event.attrs == {"trial": 3}
        # Ends carry their span's duration and close inner-first.
        assert records[4].name == "shard-0"
        assert records[5].name == "campaign"
        assert records[4].attrs["seconds"] >= 0.0

    def test_file_is_valid_jsonl_with_meta_header(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, sample_every=7) as tracer:
            tracer.event("ping")
        lines = path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "meta"
        assert parsed[0]["attrs"]["schema"] == TRACE_SCHEMA_VERSION
        assert parsed[0]["attrs"]["sample_every"] == 7

    def test_deterministic_modulo_sampling(self, tmp_path):
        tracer = TraceWriter(tmp_path / "t.jsonl", sample_every=3)
        sampled = [i for i in range(10) if tracer.should_sample(i)]
        assert sampled == [0, 3, 6, 9]
        tracer.close()

    def test_flush_appends_new_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = TraceWriter(path, flush_every=1)
        tracer.event("a")
        first = read_trace(path)
        tracer.event("b")
        second = read_trace(path)
        # Each flush appends only the records buffered since the last
        # one, so the file always holds the complete stream so far.
        assert [r.name for r in first] == ["trace", "a"]
        assert [r.name for r in second] == ["trace", "a", "b"]
        tracer.close()

    @pytest.mark.parametrize("flush_every", [1, 3, 1024])
    def test_each_record_serialized_once(
        self, tmp_path, monkeypatch, flush_every
    ):
        serialized = []
        real = files_mod.jsonl_line

        def counting(record):
            serialized.append(record)
            return real(record)

        monkeypatch.setattr(files_mod, "jsonl_line", counting)
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, flush_every=flush_every) as tracer:
            with tracer.span("campaign"):
                for i in range(50):
                    tracer.event("tick", i=i)
            tracer.flush()
        records = read_trace(path)
        assert len(records) == 1 + 2 + 50
        assert len(serialized) == len(records)

    def test_closed_writer_rejects_records(self, tmp_path):
        tracer = TraceWriter(tmp_path / "t.jsonl")
        tracer.close()
        with pytest.raises(TelemetryError):
            tracer.event("late")

    def test_read_trace_rejects_torn_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "meta", "name": "trace", "path": "", '
                        '"t": 0.0, "attrs": {"schema": 1}}\n{"kind": "ev\n')
        with pytest.raises(TelemetryError):
            read_trace(path)

    def test_read_trace_requires_meta_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "event", "name": "x", "path": "x", '
                        '"t": 0.0}\n')
        with pytest.raises(TelemetryError):
            read_trace(path)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestProgressReporter:
    def make(self, clock, **kwargs):
        stream = io.StringIO()
        kwargs.setdefault("label", "campaign")
        reporter = ProgressReporter(
            10, 5000, stream=stream, clock=clock, **kwargs
        )
        return reporter, stream

    def test_throttles_below_min_interval(self):
        clock = FakeClock()
        reporter, _ = self.make(clock, min_interval_s=1.0)
        assert reporter.update(1, 500)
        clock.now = 0.5
        assert not reporter.update(2, 1000)
        clock.now = 1.5
        assert reporter.update(2, 1000)
        assert reporter.lines_emitted == 2

    def test_renders_rate_and_eta(self):
        clock = FakeClock()
        reporter, stream = self.make(clock)
        clock.now = 2.0
        reporter.update(4, 2000)
        line = stream.getvalue().strip()
        assert "[campaign] shards 4/10" in line
        assert "trials 2000/5000" in line
        assert "1000 trials/s" in line
        assert "ETA 3s" in line

    def test_budget_countdown(self):
        clock = FakeClock()
        reporter, stream = self.make(clock, time_budget_s=60.0)
        clock.now = 10.0
        reporter.update(1, 100)
        assert "budget 50s left" in stream.getvalue()

    def test_finish_forces_a_line(self):
        clock = FakeClock()
        reporter, stream = self.make(clock, min_interval_s=100.0)
        reporter.update(1, 100)
        reporter.finish(10, 5000)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert "shards 10/10" in lines[-1]


class TestTraceWriterThreadSafety:
    """One writer is shared by every scheduler worker thread; concurrent
    events (with flushes forced mid-stream) must neither drop records
    nor tear the file (REPRO009 regression: internal RLock)."""

    def test_concurrent_events_all_recorded(self, tmp_path):
        import threading

        writer = TraceWriter(tmp_path / "trace.jsonl", flush_every=16)
        threads_n, events_n = 6, 300
        barrier = threading.Barrier(threads_n)

        def body(tid):
            barrier.wait()
            for i in range(events_n):
                writer.event("tick", tid=tid, i=i)

        threads = [
            threading.Thread(target=body, args=(t,)) for t in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        writer.close()
        records = read_trace(tmp_path / "trace.jsonl")
        events = [r for r in records if r.kind == "event"]
        assert len(events) == threads_n * events_n
        seen = {(r.attrs["tid"], r.attrs["i"]) for r in events}
        assert len(seen) == threads_n * events_n

    def test_close_is_idempotent_across_threads(self, tmp_path):
        import threading

        writer = TraceWriter(tmp_path / "trace.jsonl")
        writer.event("once")
        threads = [threading.Thread(target=writer.close) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(read_trace(tmp_path / "trace.jsonl")) == 2
