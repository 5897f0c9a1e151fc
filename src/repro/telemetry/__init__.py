"""repro.telemetry — deterministic observability for the reproduction.

The package provides four pieces, all designed around one constraint:
*telemetry must never change the numbers*.  Metrics recorded inside the
Monte-Carlo trial loop are pure functions of the simulated events (no
wall-clock, no RNG), so the merged metrics of a sharded campaign are
byte-identical for any worker count, exactly like the sample data they
ride along with.

* :mod:`repro.telemetry.registry` — :class:`MetricsRegistry`: process-
  local counters, gauges, fixed-bucket histograms and monotonic timers
  whose :meth:`~MetricsRegistry.merge` is a commutative monoid.
* :mod:`repro.telemetry.tracing` — :class:`TraceWriter`: structured
  JSONL span/event emitter with nested scopes
  (``campaign > shard > trial > correction``) and a deterministic
  sampling knob, flushed atomically next to checkpoints.
* :mod:`repro.telemetry.progress` — :class:`ProgressReporter`: stderr
  heartbeat for long campaigns (shards done, trials/s, ETA, budget).
* :mod:`repro.telemetry.console` — ``out()`` / ``err()``: the only
  sanctioned way for instrumented modules to reach stdout/stderr
  (enforced by reprolint rule REPRO007).

The observability plane (PR 8) builds on those four:

* :mod:`repro.telemetry.exposition` — deterministic OpenMetrics text
  encoding of a registry (plus the strict parser CI validates scrapes
  with), content-negotiated on the service's ``GET /metrics``.
* :mod:`repro.telemetry.profile` — wall-clock stack sampling (volatile
  by construction), the deterministic span-collapse attributor, and the
  Chrome ``trace_event`` exporter.
* :mod:`repro.telemetry.manifest` — :class:`RunManifest` run-provenance
  records attached to merged campaign results and store entries.
* :mod:`repro.telemetry.top` — the ``repro top`` live dashboard over
  ``/healthz`` + ``/metrics``.
"""

from repro.telemetry.console import err, out
from repro.telemetry.exposition import (
    OPENMETRICS_CONTENT_TYPE,
    parse_openmetrics,
    render_openmetrics,
)
from repro.telemetry.files import atomic_write_text, write_json_atomic
from repro.telemetry.manifest import RunManifest, schemes_registry_hash
from repro.telemetry.profile import (
    SamplingProfiler,
    collapse_spans,
    trace_to_chrome,
    write_collapsed,
)
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.registry import (
    Histogram,
    MetricsRegistry,
    Timer,
    monotonic_s,
)
from repro.telemetry.stats import histogram_quantile, histogram_summary
from repro.telemetry.top import TopSample, render_dashboard, run_top
from repro.telemetry.tracing import TraceRecord, TraceWriter, read_trace

__all__ = [
    "MetricsRegistry",
    "Histogram",
    "Timer",
    "monotonic_s",
    "TraceWriter",
    "TraceRecord",
    "read_trace",
    "ProgressReporter",
    "out",
    "err",
    "atomic_write_text",
    "write_json_atomic",
    "OPENMETRICS_CONTENT_TYPE",
    "render_openmetrics",
    "parse_openmetrics",
    "RunManifest",
    "schemes_registry_hash",
    "SamplingProfiler",
    "collapse_spans",
    "trace_to_chrome",
    "write_collapsed",
    "histogram_quantile",
    "histogram_summary",
    "TopSample",
    "render_dashboard",
    "run_top",
]
