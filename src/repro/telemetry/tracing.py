"""Structured event tracing: JSONL spans with nested scopes.

A :class:`TraceWriter` buffers a stream of records and flushes them
atomically as JSON Lines.  Scopes nest
(``campaign > shard-3 > trial-17 > correction``), giving every record a
``path`` that encodes where in the campaign hierarchy it happened:

.. code-block:: json

    {"schema": 1, "kind": "meta", ...}
    {"kind": "begin", "name": "campaign", "path": "campaign", "t": 0.0}
    {"kind": "begin", "name": "shard-0", "path": "campaign/shard-0", ...}
    {"kind": "event", "name": "failure", "path": ".../trial-17", ...}
    {"kind": "end", "name": "shard-0", ..., "attrs": {"seconds": 0.41}}

Sampling: trial-level spans of a million-trial campaign would dominate
the file, so callers gate them on :meth:`TraceWriter.should_sample` —
a *deterministic* modulo rule (never an RNG draw, which would perturb
the simulation's random stream and break REPRO001 determinism).

The file is an append-only :class:`~repro.telemetry.files.JsonlSegment`
(the same container as campaign checkpoints): the first flush writes
the meta record as the header through an atomic rename, and every
later flush appends only the records buffered since the previous one.
Each record is serialized exactly once, so a trace of *n* records costs
O(*n*) no matter how often it is flushed.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro import contracts
from repro.errors import TelemetryError
from repro.telemetry.files import JsonlSegment
from repro.telemetry.registry import monotonic_s

TRACE_SCHEMA_VERSION = 1

#: Record kinds a well-formed trace may contain.
RECORD_KINDS = ("meta", "begin", "end", "event")


@dataclass(frozen=True)
class TraceRecord:
    """One parsed line of a trace file."""

    kind: str  # "meta" | "begin" | "end" | "event"
    name: str
    path: str
    t: float  # seconds since the writer's epoch
    attrs: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "path": self.path,
            "t": self.t,
        }
        if self.attrs:
            data["attrs"] = self.attrs
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceRecord":
        kind = data.get("kind")
        if kind not in RECORD_KINDS:
            raise TelemetryError(f"unknown trace record kind: {kind!r}")
        for key in ("name", "path", "t"):
            if key not in data:
                raise TelemetryError(f"trace record missing {key!r}: {data!r}")
        attrs = data.get("attrs", {})
        if not isinstance(attrs, dict):
            raise TelemetryError(f"trace attrs must be an object: {attrs!r}")
        return cls(
            kind=str(kind),
            name=str(data["name"]),
            path=str(data["path"]),
            t=float(data["t"]),
            attrs=dict(attrs),
        )


class TraceWriter:
    """Buffered JSONL span/event emitter with nested scopes.

    Record emission is thread-safe (one writer is shared by every
    scheduler worker thread); an internal re-entrant lock serializes
    buffer appends, scope mutation and flushes.  Scope *nesting* is
    still a per-writer notion — concurrent spans interleave their
    begin/end records but never corrupt the buffer or the file.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        sample_every: int = 1,
        flush_every: int = 1024,
    ) -> None:
        contracts.require(
            sample_every >= 1, "sample_every must be >= 1, got %r", sample_every
        )
        contracts.require(
            flush_every >= 1, "flush_every must be >= 1, got %r", flush_every
        )
        self.path = Path(path)
        self.sample_every = sample_every
        self.flush_every = flush_every
        self._epoch = monotonic_s()
        self._lock = threading.RLock()
        self._scopes: List[str] = []
        #: Records emitted since the last flush (the first is the meta
        #: record, which becomes the segment header).
        self._records: List[Dict[str, Any]] = []
        self._segment: Optional[JsonlSegment] = None
        self._closed = False
        self._record(
            TraceRecord(
                kind="meta",
                name="trace",
                path="",
                t=0.0,
                attrs={
                    "schema": TRACE_SCHEMA_VERSION,
                    "sample_every": sample_every,
                },
            )
        )

    # ------------------------------------------------------------------ #
    def should_sample(self, index: int) -> bool:
        """Deterministic sampling rule for per-item spans (e.g. trials)."""
        return index % self.sample_every == 0

    @property
    def scope_path(self) -> str:
        return "/".join(self._scopes)

    def _now(self) -> float:
        return monotonic_s() - self._epoch

    def _record(self, record: TraceRecord) -> None:
        with self._lock:
            if self._closed:
                raise TelemetryError(
                    f"trace writer for {self.path} is closed"
                )
            self._records.append(record.to_dict())
            if len(self._records) >= self.flush_every:
                self.flush()

    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Nested scope: emits ``begin``/``end`` records around the body."""
        with self._lock:
            self._scopes.append(name)
            path = self.scope_path
        started = self._now()
        self._record(
            TraceRecord(
                kind="begin", name=name, path=path, t=started, attrs=dict(attrs)
            )
        )
        try:
            yield
        finally:
            ended = self._now()
            self._record(
                TraceRecord(
                    kind="end",
                    name=name,
                    path=path,
                    t=ended,
                    attrs={"seconds": ended - started},
                )
            )
            with self._lock:
                self._scopes.pop()

    def event(self, name: str, **attrs: Any) -> None:
        """Point event inside the current scope."""
        scope = self.scope_path
        self._record(
            TraceRecord(
                kind="event",
                name=name,
                path=f"{scope}/{name}" if scope else name,
                t=self._now(),
                attrs=dict(attrs),
            )
        )

    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Append the records buffered since the last flush, then drop them."""
        with self._lock:
            records, self._records = self._records, []
            if self._segment is None:
                self._segment = JsonlSegment.create(self.path, records[0])
                records = records[1:]
            self._segment.append(records)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.flush()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Parse and schema-validate a JSONL trace file."""
    records: List[TraceRecord] = []
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(
                f"{path}:{lineno}: invalid JSON in trace: {exc}"
            ) from exc
        records.append(TraceRecord.from_dict(data))
    if not records or records[0].kind != "meta":
        raise TelemetryError(f"{path}: trace must start with a meta record")
    schema = records[0].attrs.get("schema")
    if schema != TRACE_SCHEMA_VERSION:
        raise TelemetryError(
            f"{path}: unsupported trace schema {schema!r} "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    return records
