"""In-memory span tracer that instruments repro's layers from outside.

The traced run of the benchmark wraps the public calls of each layer
(see :data:`PLAN`) with a span recorder.  Nothing inside ``src/`` is
touched: the wrappers are installed on the classes and modules at run
time and removed afterwards, so the end-to-end run measures the
unmodified program.

Spans stay in memory — ``(id, parent, op, thread, label, start, end)``
tuples — and are written out once, at the end of the run.  A layer's
self time is the span's duration minus the time covered by its direct
child spans (``FaultInjector.sample_lifetime`` nests ``sample_count``,
for example), so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pathlib
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``count(tracer, result, args)`` adds a layer's work counters for one call.
CountFn = Callable[["Tracer", Any, Tuple[Any, ...]], None]


@dataclass(frozen=True)
class Probe:
    """One instrumented call: where it lives and what it measures."""

    owner: str          # dotted module path, optionally ``:Class``
    attr: str           # function, method or classmethod name
    time_metric: str    # self time accumulates here
    calls_metric: Optional[str] = None
    count: Optional[CountFn] = None
    #: Record only calls for which ``when(args)`` holds.
    when: Optional[Callable[[Tuple[Any, ...]], bool]] = None


def _faults_drawn(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    tracer.add("faults.faults_drawn", len(result))


def _batch_outcome(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    kernel = args[0]  # a fresh BatchTrialKernel per LifetimeSimulator.run
    tracer.add("batch.fast_trials", kernel.fast_trials)
    tracer.add("batch.fallback_trials", kernel.fallback_trials)


def _checkpoint_bytes(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    tracer.add("checkpoint.bytes_written", len(args[1]))


def _store_hit(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    if result is not None:
        tracer.add("store.hits", 1)


def _perf_run(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    tracer.add("perf.requests_simulated", result.demand_reads + result.demand_writes)
    tracer.add("replay.extra_requests", result.extra_reads + result.extra_writes)


def _traces_built(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    tracer.add("workloads.requests_generated", sum(len(trace) for trace in result))


def _timeline_events(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    tracer.add("replay.events", len(result.events))


def _under_wip(args: Tuple[Any, ...]) -> bool:
    return args[0].parent.name == "wip"


_INJECTOR = "repro.faults.injector:FaultInjector"
_MODEL = "repro.core.parity3dp:ParityND"
_RESULT = "repro.reliability.results:ReliabilityResult"

#: Every instrumented call, grouped by layer.  Module-level functions are
#: patched where their caller looks them up (``repro.replay.engine``
#: imports ``build_timeline`` by name, for example).
PLAN: Tuple[Probe, ...] = (
    # faults.injector: the injector RNG
    Probe(_INJECTOR, "sample_count", "faults.sample_s", "faults.sample_calls"),
    Probe(_INJECTOR, "sample_specs", "faults.sample_s", "faults.sample_calls",
          _faults_drawn),
    Probe(_INJECTOR, "sample_kinds", "faults.sample_s", "faults.sample_calls",
          _faults_drawn),
    Probe(_INJECTOR, "sample_lifetime", "faults.sample_s", "faults.sample_calls"),
    # reliability.batch + ecc.batch_kernels
    Probe("repro.reliability.batch:BatchTrialKernel", "run", "batch.assemble_s",
          count=_batch_outcome),
    Probe("repro.faults.injector:FaultSpec", "footprint_masks", "batch.assemble_s"),
    Probe("repro.ecc.batch_kernels:TrialBatch", "__init__", "batch.assemble_s"),
    Probe("repro.core.parity3dp:ParityPeelBatchKernel", "survives",
          "kernel.survives_s", "kernel.calls"),
    Probe("repro.ecc.batch_kernels:PairwiseBatchKernel", "survives",
          "kernel.survives_s", "kernel.calls"),
    # scalar engine, ecc (the concrete 3DP model) and core mitigations
    Probe("repro.reliability.montecarlo:LifetimeSimulator", "_simulate",
          "engine.simulate_s", "engine.simulated_trials"),
    Probe(_MODEL, "observe", "ecc.observe_s", "ecc.observe_calls"),
    Probe(_MODEL, "rebuild", "ecc.rebuild_s", "ecc.rebuild_calls"),
    Probe(_MODEL, "begin_trial", "ecc.begin_trial_s"),
    Probe("repro.reliability.montecarlo", "apply_tsv_swap", "core.tsv_swap_s"),
    Probe("repro.core.dds:DDSController", "process_scrub", "core.dds_scrub_s",
          "core.dds_scrub_calls"),
    # reliability.sampling + reliability.stopping
    Probe("repro.reliability.sampling:StratifiedSampler", "sample",
          "sampling.sample_s", "sampling.samples"),
    Probe("repro.reliability.sampling:ImportanceSampler", "sample",
          "sampling.sample_s", "sampling.samples"),
    Probe("repro.reliability.stopping:StoppingRule", "satisfied",
          "stopping.check_s", "stopping.checks"),
    # reliability.results + checkpoint I/O
    Probe(_RESULT, "merge", "results.merge_s", "results.merge_calls"),
    Probe(_RESULT, "to_dict", "results.to_dict_s", "results.to_dict_calls"),
    Probe(_RESULT, "from_dict", "results.from_dict_s", "results.from_dict_calls"),
    Probe("repro.reliability.parallel:ParallelLifetimeRunner", "_write_checkpoint",
          "checkpoint.rewrite_s"),
    Probe("pathlib:Path", "write_text", "checkpoint.write_s", "checkpoint.writes",
          _checkpoint_bytes, when=_under_wip),
    # service
    Probe("repro.service.store:ResultStore", "get", "store.get_s", "store.gets",
          _store_hit),
    Probe("repro.service.store:ResultStore", "put", "store.put_s", "store.puts"),
    Probe("repro.service.jobs:CampaignSpec", "spec_hash", "jobs.spec_hash_s",
          "jobs.spec_hash_calls"),
    # perf
    Probe("repro.perf.system:SystemSimulator", "run", "perf.run_s", "perf.runs",
          _perf_run),
    Probe("repro.perf.power:PowerModel", "active_energy_nj", "perf.energy_s"),
    # workloads + replay
    Probe("repro.replay.engine", "rate_mode_traces", "workloads.generate_s",
          "workloads.trace_sets", _traces_built),
    Probe("repro.replay.engine", "build_timeline", "replay.timeline_s",
          "replay.timelines", _timeline_events),
)


#: Work counters the probes above produce, reported even when zero (a
#: zero says the workload bypasses that layer).
COUNT_METRICS: Tuple[str, ...] = (
    "faults.sample_calls", "faults.faults_drawn",
    "batch.fast_trials", "batch.fallback_trials", "kernel.calls",
    "engine.simulated_trials",
    "ecc.observe_calls", "ecc.rebuild_calls", "core.dds_scrub_calls",
    "sampling.samples", "stopping.checks",
    "results.merge_calls", "results.to_dict_calls", "results.from_dict_calls",
    "checkpoint.writes", "checkpoint.bytes_written",
    "store.gets", "store.hits", "store.puts", "jobs.spec_hash_calls",
    "perf.runs", "perf.requests_simulated",
    "workloads.trace_sets", "workloads.requests_generated",
    "replay.timelines", "replay.events", "replay.extra_requests",
)

#: Self-time metrics, in plan order.
TIME_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(p.time_metric for p in PLAN))


def _resolve(owner: str, attr: str) -> Any:
    """The module, or the class in the MRO that defines ``attr``; None
    when the program no longer has that call."""
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if not class_name:
        return module if hasattr(module, attr) else None
    cls = getattr(module, class_name, None)
    return next((k for k in getattr(cls, "__mro__", ()) if attr in k.__dict__), None)


class Tracer:
    """Records spans around the calls in :data:`PLAN` while installed."""

    def __init__(self) -> None:
        self.labels: List[str] = [f"{p.owner}.{p.attr}" for p in PLAN]
        #: ``(id, parent id or -1, op, thread ident, probe index, start, end)``
        self.spans: List[Tuple[int, int, int, int, int, float, float]] = []
        #: ``(op, counter name) -> count``
        self.counts: Counter = Counter()
        #: Operation id stamped on every span; spans of one operation
        #: (one campaign, job round or replay run) share it.
        self.op = 0
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Probes whose call the program no longer has (their metrics read 0).
        self.missing: List[str] = []

    # ------------------------------------------------------------------ #
    def add(self, name: str, amount: int) -> None:
        self.counts[(self.op, name)] += amount

    def install(self) -> None:
        for index, probe in enumerate(PLAN):
            owner = _resolve(probe.owner, probe.attr)
            if owner is None:
                self.missing.append(self.labels[index])
                continue
            raw = owner.__dict__[probe.attr] if isinstance(owner, type) else getattr(
                owner, probe.attr
            )
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self._wrap(raw.__func__, index))
            else:
                patched = self._wrap(raw, index)
            setattr(owner, probe.attr, patched)
            self._patches.append((owner, probe.attr, raw))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made by the benchmark's own checks are not recorded."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # ------------------------------------------------------------------ #
    def _wrap(self, fn: Callable[..., Any], index: int) -> Callable[..., Any]:
        probe = PLAN[index]
        when, count, calls = probe.when, probe.count, probe.calls_metric
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = threading.get_ident()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, tracer.op, local.thread,
                              index, start, end))
            if calls is not None:
                tracer.counts[(tracer.op, calls)] += 1
            if count is not None:
                count(tracer, result, args)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``op -> time metric -> seconds`` of self time."""
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, parent, _op, _thread, _index, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_op: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span_id, _parent, op, _thread, index, start, end in self.spans:
            metric = PLAN[index].time_metric
            per_op[op][metric] += (end - start) - child_time.get(span_id, 0.0)
        return per_op

    def op_counts(self, op: int) -> Dict[str, int]:
        return {name: n for (o, name), n in self.counts.items() if o == op}

    def spans_in(self, op: int) -> int:
        return sum(1 for span in self.spans if span[2] == op)

    def write(self, path: pathlib.Path) -> None:
        """Write every span as one JSON line (labels first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"labels": self.labels,
                                  "fields": ["id", "parent", "op", "thread",
                                             "label", "start", "end"]}) + "\n")
            for span in sorted(self.spans):
                out.write(json.dumps(span) + "\n")
