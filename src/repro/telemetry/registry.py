"""Process-local metrics registry with monoid merge semantics.

A :class:`MetricsRegistry` holds four metric families keyed by
slash-separated names (``"parity/corrected/dim1"``):

* **counters** — monotonically increasing integers (:meth:`inc`);
* **gauges** — floats whose merge takes the maximum (high-water marks);
* **histograms** — fixed bucket edges declared up front, so two shards'
  histograms are mergeable by vector-adding their bucket counts;
* **timers** — count / total / min / max of monotonic durations.

:meth:`MetricsRegistry.merge` is a commutative monoid: counters add,
gauges max, histograms (with identical edges) add bucket-wise, timers
combine, and the empty registry is the identity.  Any merge tree over
the same shard registries therefore produces the same aggregate — the
property that lets per-shard metrics flow through
:class:`~repro.reliability.results.ReliabilityResult` and checkpoints
exactly like sample data.

Determinism: metrics recorded in simulation hot paths must be pure
functions of simulated events.  Wall-clock quantities (timers, and any
metric recorded with ``volatile=True``) are tracked in a *volatile* set
that :meth:`deterministic_snapshot` strips, so the snapshot attached to
a merged campaign result is byte-identical for any worker count.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import MergeError, TelemetryError


def monotonic_s() -> float:
    """The telemetry clock: monotonic seconds (never wall time)."""
    return time.monotonic()


@dataclass
class Histogram:
    """Fixed-bucket histogram; ``counts`` has ``len(edges) + 1`` slots.

    Bucket ``i`` counts observations ``v`` with
    ``edges[i-1] < v <= edges[i]`` (first bucket: ``v <= edges[0]``,
    last bucket: ``v > edges[-1]``).
    """

    edges: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    min_value: Optional[float] = None
    max_value: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.edges or list(self.edges) != sorted(set(self.edges)):
            raise TelemetryError(
                f"histogram edges must be non-empty and strictly "
                f"increasing, got {self.edges!r}"
            )
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)
        if len(self.counts) != len(self.edges) + 1:
            raise TelemetryError(
                f"histogram needs {len(self.edges) + 1} buckets, "
                f"got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.total += value
        self.count += 1
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        if self.edges != other.edges:
            raise MergeError(
                f"cannot merge histograms with different bucket edges: "
                f"{self.edges!r} vs {other.edges!r}"
            )
        return Histogram(
            edges=self.edges,
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            total=self.total + other.total,
            count=self.count + other.count,
            min_value=_opt_min(self.min_value, other.min_value),
            max_value=_opt_max(self.max_value, other.max_value),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        return cls(
            edges=tuple(float(e) for e in data["edges"]),
            counts=[int(c) for c in data["counts"]],
            total=float(data["total"]),
            count=int(data["count"]),
            min_value=None if data["min"] is None else float(data["min"]),
            max_value=None if data["max"] is None else float(data["max"]),
        )


@dataclass
class Timer:
    """Aggregate of monotonic-clock durations (always volatile)."""

    count: int = 0
    total_seconds: float = 0.0
    min_seconds: Optional[float] = None
    max_seconds: Optional[float] = None

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if self.min_seconds is None or seconds < self.min_seconds:
            self.min_seconds = seconds
        if self.max_seconds is None or seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def merge(self, other: "Timer") -> "Timer":
        return Timer(
            count=self.count + other.count,
            total_seconds=self.total_seconds + other.total_seconds,
            min_seconds=_opt_min(self.min_seconds, other.min_seconds),
            max_seconds=_opt_max(self.max_seconds, other.max_seconds),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Timer":
        return cls(
            count=int(data["count"]),
            total_seconds=float(data["total_seconds"]),
            min_seconds=(
                None if data["min_seconds"] is None
                else float(data["min_seconds"])
            ),
            max_seconds=(
                None if data["max_seconds"] is None
                else float(data["max_seconds"])
            ),
        )


def _opt_min(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _opt_max(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


class MetricsRegistry:
    """Counters, gauges, histograms and timers under one namespace.

    Recording is thread-safe: one registry is shared by every
    :class:`~repro.service.scheduler.CampaignScheduler` worker thread,
    so all writes happen under an internal re-entrant lock.  Reads and
    merges are meant for quiesced registries (between campaigns, or on
    per-shard registries owned by a single worker).
    """

    SCHEMA_VERSION = 1

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}
        #: metric names excluded from :meth:`deterministic_snapshot`
        #: (wall-clock or otherwise run-shape-dependent quantities).
        self._volatile: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def inc(self, name: str, n: int = 1, volatile: bool = False) -> None:
        """Add ``n`` to counter ``name`` (created at 0).

        ``volatile`` counters measure *how* the run computed its answer
        (cache reuse, fast-path hits) rather than *what* it computed, so
        they are excluded from :meth:`deterministic_snapshot`.
        """
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
            if volatile:
                self._volatile.add(name)

    def gauge_set(self, name: str, value: float, volatile: bool = False) -> None:
        """Set gauge ``name``; merged registries keep the maximum."""
        with self._lock:
            self._gauges[name] = float(value)
            if volatile:
                self._volatile.add(name)

    def declare_histogram(
        self,
        name: str,
        edges: Sequence[float],
        volatile: bool = False,
    ) -> Histogram:
        """Create (or fetch) histogram ``name`` with fixed bucket edges."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(edges=tuple(float(e) for e in edges))
                self._histograms[name] = hist
            elif hist.edges != tuple(float(e) for e in edges):
                raise TelemetryError(
                    f"histogram {name!r} already declared with different edges"
                )
            if volatile:
                self._volatile.add(name)
            return hist

    def observe(
        self,
        name: str,
        value: float,
        edges: Optional[Sequence[float]] = None,
        volatile: bool = False,
    ) -> None:
        """Record ``value`` into histogram ``name``.

        ``edges`` is required the first time a name is seen; afterwards
        it may be omitted (and must match when given).
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                if edges is None:
                    raise TelemetryError(
                        f"histogram {name!r} not declared; pass bucket edges"
                    )
                hist = self.declare_histogram(name, edges, volatile=volatile)
            elif volatile:
                self._volatile.add(name)
            hist.observe(value)

    def record_seconds(self, name: str, seconds: float) -> None:
        """Fold one duration into timer ``name`` (timers are volatile)."""
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = Timer()
                self._timers[name] = timer
            timer.record(seconds)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def timer(self, name: str) -> Optional[Timer]:
        return self._timers.get(name)

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """All counters whose name starts with ``prefix``, sorted."""
        return {
            name: value
            for name, value in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def names(self) -> List[str]:
        return sorted(
            set(self._counters)
            | set(self._gauges)
            | set(self._histograms)
            | set(self._timers)
        )

    @property
    def is_empty(self) -> bool:
        return not (
            self._counters or self._gauges or self._histograms or self._timers
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    # ------------------------------------------------------------------ #
    # Monoid structure
    # ------------------------------------------------------------------ #
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Commutative, associative combination of two registries.

        Counters add, gauges keep the maximum, histograms with identical
        edges add bucket-wise (:class:`~repro.errors.MergeError` on edge
        mismatch), timers combine, and the volatile sets union.  The
        empty registry is the identity element.
        """
        merged = MetricsRegistry()
        merged._counters = dict(self._counters)
        for name, value in other._counters.items():
            merged._counters[name] = merged._counters.get(name, 0) + value
        merged._gauges = dict(self._gauges)
        for name, value in other._gauges.items():
            prev = merged._gauges.get(name)
            merged._gauges[name] = value if prev is None else max(prev, value)
        merged._histograms = {
            name: hist.merge(Histogram(edges=hist.edges))
            for name, hist in self._histograms.items()
        }
        for name, hist in other._histograms.items():
            mine = merged._histograms.get(name)
            merged._histograms[name] = (
                hist.merge(Histogram(edges=hist.edges))
                if mine is None
                else mine.merge(hist)
            )
        merged._timers = {
            name: timer.merge(Timer()) for name, timer in self._timers.items()
        }
        for name, timer in other._timers.items():
            mine = merged._timers.get(name)
            merged._timers[name] = (
                timer.merge(Timer()) if mine is None else mine.merge(timer)
            )
        merged._volatile = set(self._volatile) | set(other._volatile)
        return merged

    @classmethod
    def merge_all(
        cls, registries: Sequence["MetricsRegistry"]
    ) -> "MetricsRegistry":
        merged = cls()
        for registry in registries:
            merged = merged.merge(registry)
        return merged

    def deterministic_snapshot(self) -> "MetricsRegistry":
        """A copy without timers or ``volatile``-marked metrics.

        This is the view attached to shard results: everything in it is
        a pure function of simulated events, so merged campaign metrics
        are byte-identical for any worker count.
        """
        snap = MetricsRegistry()
        snap._counters = {
            k: v for k, v in self._counters.items() if k not in self._volatile
        }
        snap._gauges = {
            k: v for k, v in self._gauges.items() if k not in self._volatile
        }
        snap._histograms = {
            k: Histogram.from_dict(h.to_dict())
            for k, h in self._histograms.items()
            if k not in self._volatile
        }
        return snap

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.SCHEMA_VERSION,
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self._histograms.items())
            },
            "timers": {
                name: timer.to_dict()
                for name, timer in sorted(self._timers.items())
            },
            "volatile": sorted(self._volatile),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry._counters = {
            str(k): int(v) for k, v in data.get("counters", {}).items()
        }
        registry._gauges = {
            str(k): float(v) for k, v in data.get("gauges", {}).items()
        }
        registry._histograms = {
            str(k): Histogram.from_dict(v)
            for k, v in data.get("histograms", {}).items()
        }
        registry._timers = {
            str(k): Timer.from_dict(v)
            for k, v in data.get("timers", {}).items()
        }
        registry._volatile = {str(n) for n in data.get("volatile", [])}
        return registry

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry: {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} "
            f"histograms, {len(self._timers)} timers>"
        )

    # ------------------------------------------------------------------ #
    # Rendering (consumed by ``repro stats``)
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        lines: List[str] = []
        if self._counters:
            lines.append("counters:")
            width = max(len(n) for n in self._counters)
            for name, value in sorted(self._counters.items()):
                lines.append(f"  {name:<{width}}  {value}")
        if self._gauges:
            lines.append("gauges:")
            width = max(len(n) for n in self._gauges)
            for name, value in sorted(self._gauges.items()):
                lines.append(f"  {name:<{width}}  {value:g}")
        if self._histograms:
            lines.append("histograms:")
            for name, hist in sorted(self._histograms.items()):
                lines.append(
                    f"  {name}: n={hist.count} mean={hist.mean:.3g} "
                    f"min={_fmt_opt(hist.min_value)} "
                    f"max={_fmt_opt(hist.max_value)}"
                )
                lines.append(
                    "    buckets "
                    + " ".join(
                        f"(<={edge:g}):{count}"
                        for edge, count in zip(hist.edges, hist.counts)
                    )
                    + f" (>{hist.edges[-1]:g}):{hist.counts[-1]}"
                )
        if self._timers:
            lines.append("timers:")
            for name, timer in sorted(self._timers.items()):
                lines.append(
                    f"  {name}: n={timer.count} "
                    f"total={timer.total_seconds:.3f}s "
                    f"mean={timer.mean_seconds:.4f}s "
                    f"min={_fmt_opt(timer.min_seconds)} "
                    f"max={_fmt_opt(timer.max_seconds)}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


def _fmt_opt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3g}"
