"""Profiling: wall-clock stack sampling and deterministic span collapse.

Two complementary views of where a campaign spends its effort:

* :class:`SamplingProfiler` — a background thread that periodically
  snapshots the target thread's Python stack via
  ``sys._current_frames()`` and tallies folded stacks.  Its output is
  wall-clock-shaped and therefore **volatile by construction**: it
  lives entirely outside the metrics registry and the trace stream, so
  enabling it cannot perturb any deterministic artifact, and when it is
  never started it costs nothing (no thread, no instrumentation in the
  hot loop).

* :func:`collapse_spans` — a *deterministic* hotspot attributor over
  the existing :class:`~repro.telemetry.tracing.TraceWriter` span
  scopes.  It weights each span path by its occurrence count (trial
  counts, not seconds — seconds are wall-clock and vary run to run),
  normalizing indexed scope names (``shard-3`` → ``shard``) so all
  shards and trials aggregate.  Same campaign, same trace sampling →
  byte-identical collapsed output.

Both emit the collapsed-stack ("folded") format consumed by flamegraph
tooling: one ``frame;frame;frame count`` line per unique stack.

:func:`trace_to_chrome` converts a trace-record list to the Chrome /
Perfetto ``trace_event`` JSON format (``B``/``E`` duration events plus
``i`` instants) for ``chrome://tracing`` and https://ui.perfetto.dev.
"""

from __future__ import annotations

import re
import sys
import threading
from pathlib import Path
from types import FrameType
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import contracts
from repro.errors import TelemetryError
from repro.telemetry.files import atomic_write_text
from repro.telemetry.tracing import TraceRecord

_INDEX_SUFFIX_RE = re.compile(r"-\d+$")


class SamplingProfiler:
    """Periodic stack sampler for one target thread.

    The sampler thread wakes every ``interval_s``, reads the target
    thread's current frame out of ``sys._current_frames()`` and folds
    the stack (outermost first) into a tally.  Sampling reads frames
    without pausing the target, so it observes — never alters — the
    profiled computation.

    Thread safety: the tally dict is shared between the sampler thread
    and readers, so every access goes through ``_lock``.
    """

    def __init__(
        self,
        interval_s: float = 0.005,
        *,
        thread_id: Optional[int] = None,
    ) -> None:
        contracts.require(
            interval_s > 0, "interval_s must be positive, got %r", interval_s
        )
        self.interval_s = interval_s
        self._target_thread_id = thread_id
        self._lock = threading.Lock()
        self._stacks: Dict[str, int] = {}
        self._sample_count = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            if self._thread is not None:
                raise TelemetryError("profiler already started")
            if self._target_thread_id is None:
                self._target_thread_id = threading.get_ident()
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-profiler", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join()

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self._target_thread_id)
            if frame is None:
                continue
            folded = _fold_frame(frame)
            with self._lock:
                self._stacks[folded] = self._stacks.get(folded, 0) + 1
                self._sample_count += 1

    # ------------------------------------------------------------------ #
    @property
    def sample_count(self) -> int:
        with self._lock:
            return self._sample_count

    def collapsed(self) -> List[str]:
        """Folded-stack lines, sorted for a stable report."""
        with self._lock:
            stacks = dict(self._stacks)
        return [f"{stack} {count}" for stack, count in sorted(stacks.items())]


def _fold_frame(frame: Optional[FrameType]) -> str:
    """Render a frame's stack as ``module:func;...`` outermost first."""
    parts: List[str] = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{frame.f_code.co_name}")
        frame = frame.f_back
    return ";".join(reversed(parts))


# ---------------------------------------------------------------------- #
# Deterministic span attribution
# ---------------------------------------------------------------------- #
def normalize_scope(component: str) -> str:
    """Strip a trailing ``-<digits>`` index so scopes aggregate
    (``shard-3`` → ``shard``, ``trial-17`` → ``trial``)."""
    return _INDEX_SUFFIX_RE.sub("", component)


def collapse_spans(
    records: Sequence[TraceRecord], *, normalize: bool = True
) -> List[str]:
    """Fold span ``end`` records into deterministic collapsed stacks.

    Each span contributes weight 1 at its (normalized) scope path, so
    the output reflects *how many times* each scope ran — a pure
    function of the simulated campaign and the trace-sampling modulus,
    never of wall-clock time.
    """
    tally: Dict[str, int] = {}
    for record in records:
        if record.kind != "end":
            continue
        components = record.path.split("/")
        if normalize:
            components = [normalize_scope(c) for c in components]
        folded = ";".join(components)
        tally[folded] = tally.get(folded, 0) + 1
    return [f"{stack} {count}" for stack, count in sorted(tally.items())]


def write_collapsed(
    lines: Sequence[str], path: Union[str, Path]
) -> Path:
    """Write folded-stack lines atomically (flamegraph.pl input)."""
    return atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")


# ---------------------------------------------------------------------- #
# Chrome / Perfetto trace_event export
# ---------------------------------------------------------------------- #
def trace_to_chrome(records: Sequence[TraceRecord]) -> Dict[str, Any]:
    """Convert trace records to a Chrome ``trace_event`` document.

    Spans become ``B``/``E`` duration events and point events become
    ``i`` instants, all on one synthetic process/thread (the writer
    serializes records, so nesting-by-time matches the scope nesting
    for single-threaded campaigns; concurrent scheduler spans interleave
    but remain individually visible).  Timestamps are microseconds from
    the writer's epoch.
    """
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro campaign"},
        }
    ]
    for record in records:
        if record.kind == "meta":
            continue
        base: Dict[str, Any] = {
            "name": record.name,
            "cat": "span" if record.kind in ("begin", "end") else "event",
            "ts": record.t * 1e6,
            "pid": 0,
            "tid": 0,
        }
        if record.kind == "begin":
            base["ph"] = "B"
            if record.attrs:
                base["args"] = record.attrs
        elif record.kind == "end":
            base["ph"] = "E"
        elif record.kind == "event":
            base["ph"] = "i"
            base["s"] = "t"
            if record.attrs:
                base["args"] = record.attrs
        else:  # pragma: no cover - RECORD_KINDS is closed
            raise TelemetryError(f"unknown record kind {record.kind!r}")
        events.append(base)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
