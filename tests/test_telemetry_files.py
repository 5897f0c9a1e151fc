"""Tests for the atomic file helpers and the append-only JSONL segment.

The load-bearing property of :func:`atomic_write_text` is
concurrent-writer safety: every writer renames its own ``mkstemp``
file, so a reader polling the target during a storm of simultaneous
writes must only ever observe one writer's complete output — never a
torn interleaving, never a missing file once the first write has landed.
For :class:`JsonlSegment` it is the reopen contract: a torn final line
is dropped and truncated away, anything else foreign is rejected.
"""

import json
import threading

import pytest

from repro.errors import CheckpointError
from repro.telemetry.files import (
    JsonlSegment,
    atomic_write_text,
    jsonl_line,
    write_json_atomic,
)


class TestAtomicWriteText:
    def test_writes_and_returns_path(self, tmp_path):
        target = tmp_path / "artifact.txt"
        assert atomic_write_text(target, "hello\n") == target
        assert target.read_text() == "hello\n"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "artifact.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_overwrites_previous_content(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_fsync_variant_writes_identically(self, tmp_path):
        target = tmp_path / "durable.txt"
        atomic_write_text(target, "payload", fsync=True)
        assert target.read_text() == "payload"

    def test_no_temp_files_left_behind(self, tmp_path):
        target = tmp_path / "artifact.txt"
        for index in range(5):
            atomic_write_text(target, f"write {index}")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_concurrent_writers_never_tear(self, tmp_path):
        """Writer storm on one target: readers see complete payloads only.

        Each writer repeatedly writes a self-describing payload (its id
        repeated, so truncation or interleaving is detectable) while a
        reader thread polls the target.  With the old fixed ``.tmp``
        sidecar path two writers would open the same temp file and the
        reader could observe a mix; with per-writer ``mkstemp`` names
        every observed content must match exactly one writer.
        """
        target = tmp_path / "contended.txt"
        writers = 8
        rounds = 40
        payloads = {
            f"writer-{i}": (f"writer-{i};" * 200) + "END"
            for i in range(writers)
        }
        valid = set(payloads.values())
        torn = []
        stop = threading.Event()

        def write_loop(payload):
            for _ in range(rounds):
                atomic_write_text(target, payload)

        def read_loop():
            while not stop.is_set():
                try:
                    content = target.read_text()
                except FileNotFoundError:
                    continue
                if content not in valid:
                    torn.append(content[:80])
                    return

        reader = threading.Thread(target=read_loop)
        threads = [
            threading.Thread(target=write_loop, args=(payload,))
            for payload in payloads.values()
        ]
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stop.set()
        reader.join(timeout=30.0)
        assert torn == [], f"observed torn content: {torn[:1]}"
        assert target.read_text() in valid
        # The storm cleaned up after itself: no .tmp litter.
        assert [p.name for p in tmp_path.iterdir()] == ["contended.txt"]


class TestWriteJsonAtomic:
    def test_stable_indented_json(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json_atomic(target, {"b": 2, "a": 1})
        text = target.read_text()
        assert text == '{\n "a": 1,\n "b": 2\n}\n'
        assert json.loads(text) == {"a": 1, "b": 2}

    def test_deterministic_bytes(self, tmp_path):
        payload = {"z": [3, 2, 1], "a": {"nested": True}}
        first = write_json_atomic(tmp_path / "a.json", payload).read_text()
        second = write_json_atomic(tmp_path / "b.json", payload).read_text()
        assert first == second


HEADER = {"version": 8, "campaign": "demo"}


class TestJsonlSegment:
    def test_create_writes_header_line(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        JsonlSegment.create(path, HEADER)
        assert path.read_text() == jsonl_line(HEADER)

    def test_append_writes_one_line_per_record(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        segment = JsonlSegment.create(path, HEADER)
        segment.append([{"i": 0}])
        segment.append([{"i": 1}, {"i": 2}])
        segment.append([])
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            HEADER, {"i": 0}, {"i": 1}, {"i": 2}
        ]

    def test_reopen_returns_records_and_appends_after_them(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        JsonlSegment.create(path, HEADER).append([{"i": 0}, {"i": 1}])
        segment, records = JsonlSegment.reopen(path, HEADER)
        assert records == [{"i": 0}, {"i": 1}]
        segment.append([{"i": 2}])
        assert JsonlSegment.reopen(path, HEADER)[1] == [
            {"i": 0}, {"i": 1}, {"i": 2}
        ]

    def test_reopen_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        _, records = JsonlSegment.reopen(path, HEADER)
        assert records == []
        assert path.read_text() == jsonl_line(HEADER)

    def test_torn_final_line_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        JsonlSegment.create(path, HEADER).append([{"i": 0}])
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"i": 1')
        segment, records = JsonlSegment.reopen(path, HEADER)
        assert records == [{"i": 0}]
        assert path.read_bytes() == intact
        segment.append([{"i": 1}])
        assert JsonlSegment.reopen(path, HEADER)[1] == [{"i": 0}, {"i": 1}]

    def test_complete_json_missing_its_newline_is_torn(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        path.write_text(jsonl_line(HEADER) + json.dumps({"i": 0}))
        assert JsonlSegment.reopen(path, HEADER)[1] == []
        assert path.read_text() == jsonl_line(HEADER)

    @pytest.mark.parametrize("cut", [0, 1, 10])
    def test_torn_header_starts_fresh(self, tmp_path, cut):
        path = tmp_path / "seg.jsonl"
        path.write_text(jsonl_line(HEADER)[:cut])
        assert JsonlSegment.reopen(path, HEADER)[1] == []
        assert path.read_text() == jsonl_line(HEADER)

    def test_foreign_text_without_newline_rejected(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            JsonlSegment.reopen(path, HEADER)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        JsonlSegment.create(path, {**HEADER, "version": 7})
        with pytest.raises(CheckpointError, match="different campaign"):
            JsonlSegment.reopen(path, HEADER)

    def test_corrupt_complete_line_rejected(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        path.write_text(jsonl_line(HEADER) + '{"i": \n' + jsonl_line({"i": 1}))
        with pytest.raises(CheckpointError, match=":2:"):
            JsonlSegment.reopen(path, HEADER)

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        path.write_text(jsonl_line(HEADER) + "[1, 2]\n")
        with pytest.raises(CheckpointError, match="not an object"):
            JsonlSegment.reopen(path, HEADER)
