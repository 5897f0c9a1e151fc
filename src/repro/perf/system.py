"""The system performance simulator (§III-B).

8 cores with limited memory-level parallelism share the stacked-memory
channels; requests are expanded according to the striping policy and
served FCFS against open-page bank state machines and per-channel data
buses.  The 3DP overlay adds, per writeback: a read-before-write (the XOR
delta of Figure 12), a parity-line lookup in the LLC and — on a miss —
a parity fetch from (and eventual writeback to) the parity bank.

Outputs: execution time (max over cores), event counters for the power
model, row-buffer and parity-cache statistics.

One service loop serves every striping policy, hooked or not, and builds
no per-access objects: :meth:`SystemSimulator.prepare` flattens traces
once into per-request tuples with the striping expansion and the LLC
keys precomputed; replay prepares its workload once per campaign.  LLC
keys are plain ints derived from the line coordinates, so the LLC set of
a line does not depend on the interpreter's hash seed.

A per-request perturbation hook lets the replay co-simulation engine
(``repro.replay``) inject protection traffic — scrub reads, DDS copy
traffic, TSV-Swap mux delay, degraded-bank correction latency — into the
service loop.  A hook that never perturbs leaves every result unchanged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import contracts
from repro.errors import ConfigurationError
from repro.perf.bank import ChannelState
from repro.perf.llc import DEFAULT_LLC_CAPACITY_BYTES, DEFAULT_LLC_WAYS, LRUCache
from repro.perf.power import EnergyCounters
from repro.perf.timing import DRAMTimings
from repro.stack.address import LineLocation
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy, sub_accesses
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class PerfConfig:
    """One simulated memory organization."""

    striping: StripingPolicy = StripingPolicy.SAME_BANK
    #: Enable the 3DP write path (RBW + dim-1 parity updates).
    parity_protection: bool = False
    #: Cache dim-1 parity lines in the LLC (§VI-C); when False every
    #: writeback reads and rewrites the parity line in memory.
    parity_caching: bool = True
    mlp_per_core: int = 4
    llc_capacity_bytes: int = DEFAULT_LLC_CAPACITY_BYTES
    llc_ways: int = DEFAULT_LLC_WAYS
    #: Number of stacks in the system (Table II: 2 x 8 GB).
    stacks: int = 2

    def __post_init__(self) -> None:
        contracts.require(self.mlp_per_core > 0, "mlp_per_core must be positive")
        contracts.require(
            self.llc_capacity_bytes > 0 and self.llc_ways > 0,
            "LLC capacity and associativity must be positive",
        )
        contracts.require(self.stacks > 0, "need at least one stack")

    def label(self) -> str:
        if not self.parity_protection:
            return self.striping.label
        suffix = "with parity caching" if self.parity_caching else "no parity caching"
        return f"3DP ({suffix})"


@dataclass(frozen=True)
class Perturbation:
    """Extra work a reliability event injects around one demand request.

    ``extra_accesses`` are background memory accesses (``(home,
    is_write)`` pairs — scrub reads, sparing copy traffic) issued at the
    request's arrival cycle; they occupy banks and buses, so later
    demand requests observe the contention.  ``delay_cycles`` stalls the
    request itself before service (remap indirection, TSV-Swap mux,
    erasure-correction latency).
    """

    delay_cycles: int = 0
    extra_accesses: Tuple[Tuple[LineLocation, bool], ...] = ()

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.delay_cycles, "delay_cycles")


class RequestHook:
    """Interface consulted once per demand request, in service order.

    ``index`` is the global 0-based ordinal of the request across all
    cores (heap pop order, which is deterministic).  Return ``None`` for
    "no perturbation" — the common case — or a :class:`Perturbation`.
    """

    def on_request(
        self, index: int, request, now: int
    ) -> Optional[Perturbation]:
        raise NotImplementedError


@dataclass
class PerfResult:
    """Measurements from one simulation run."""

    label: str
    exec_cycles: int
    counters: EnergyCounters
    demand_reads: int = 0
    demand_writes: int = 0
    rbw_reads: int = 0
    parity_fetches: int = 0
    parity_writebacks: int = 0
    parity_lookups: int = 0
    parity_hits: int = 0
    row_hits: int = 0
    row_misses: int = 0
    core_finish_cycles: List[int] = field(default_factory=list)
    #: Hook-injected work (zero unless a :class:`RequestHook` ran).
    extra_reads: int = 0
    extra_writes: int = 0
    perturb_delay_cycles: int = 0
    #: Per-channel, per-bank activation counts (activity for the replay
    #: power/thermal models); indexed ``[channel][bank]``.
    bank_activations: List[List[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.exec_cycles, "exec_cycles")
        contracts.check_non_negative(self.row_hits, "row_hits")
        contracts.check_non_negative(self.row_misses, "row_misses")

    @property
    def parity_hit_rate(self) -> float:
        if not self.parity_lookups:
            return 0.0
        return self.parity_hits / self.parity_lookups

    @property
    def row_buffer_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


#: How a line access spreads over the banks, whatever its row: the bytes
#: it moves and, per channel touched (in the order first touched),
#: ``(channel, (flat bank index, ...))``.
AccessPlan = Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]


@dataclass(frozen=True)
class PreparedTraces:
    """Traces flattened by :meth:`SystemSimulator.prepare` for one layout.

    Per core: its ``mlp`` and one ``(gap_cycles, is_write, llc_key, row,
    plan, parity_key, parity_plan, request)`` tuple per request (parity
    fields ``None`` unless a 3DP writeback; the parity line shares the
    demand line's row).  A demand line is keyed in the LLC by its linear
    address, the parity line of group ``row * lines_per_row + slot`` by
    ``-1 - group``.  ``plans`` memoizes access plans by the flat index of
    the Same-Bank home bank.
    """

    layout: Tuple[object, ...]
    cores: Tuple[Tuple[int, Tuple[tuple, ...]], ...]
    plans: Dict[int, AccessPlan] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __len__(self) -> int:
        return sum(len(requests) for _, requests in self.cores)


class SystemSimulator:
    """Event-ordered FCFS simulation of the full memory system."""

    def __init__(
        self,
        geometry: StackGeometry,
        config: PerfConfig,
        timings: DRAMTimings = DRAMTimings(),
        metrics: Optional[MetricsRegistry] = None,
        hook: Optional[RequestHook] = None,
    ) -> None:
        self.geometry = geometry
        self.config = config
        self.timings = timings
        #: Per-request perturbation source (replay co-simulation).
        self.hook = hook
        #: Observability hook: after every :meth:`run`, the run's event
        #: counters (``perf/``) and LLC statistics (``llc/``) are added
        #: to this registry.  Purely a mirror of :class:`PerfResult` —
        #: the simulation itself never reads it.
        self.metrics = metrics
        self.llc_sets = (
            config.llc_capacity_bytes // geometry.line_bytes // config.llc_ways
        )
        #: What a prepared trace depends on besides its requests.
        self.layout = (geometry, config.striping, config.stacks,
                       config.parity_protection)

    # ------------------------------------------------------------------ #
    def _plan(
        self, plans: Dict[int, AccessPlan], channel: int, bank: int
    ) -> AccessPlan:
        """Access plan (memoized in ``plans``) of the lines whose Same-Bank
        home is bank ``bank`` of channel ``channel``.

        Striping spreads a line's row and slot unchanged over banks or
        channels (§II-D), so the banks a line touches depend only on its
        home bank, and each of them opens the line's row.  Sub-accesses
        within one channel gang onto a single bus burst (the banks drive
        disjoint TSV subsets of the same beats, §V-A), so an Across-Banks
        access costs one bus slot on one channel while an Across-Channels
        access costs one slot on every channel.
        """
        banks = self.geometry.banks_per_die
        index = channel * banks + bank
        plan = plans.get(index)
        if plan is None:
            home = LineLocation(channel, bank, 0, 0)
            groups: Dict[int, List[int]] = {}
            nbytes = 0
            for sub in sub_accesses(self.config.striping, self.geometry, home):
                contracts.require(sub.row == home.row,
                                  "striping must keep the line's row")
                groups.setdefault(sub.channel, []).append(
                    sub.channel * banks + sub.bank
                )
                nbytes += sub.bytes
            plan = plans[index] = (nbytes, tuple(
                (channel, tuple(subs)) for channel, subs in groups.items()
            ))
        return plan

    def prepare(self, traces: Sequence[Trace]) -> PreparedTraces:
        """Flatten ``traces`` for :meth:`run` (see :class:`PreparedTraces`).

        A writeback's dim-1 parity line lives in the parity bank, an
        address range spread over physical banks by swapping bank/channel
        bits (paper footnote 4), so parity traffic does not bottleneck
        one bank.
        """
        if not traces:
            raise ConfigurationError("need at least one core trace")
        g = self.geometry
        # Radices of the linear line address (the demand LLC key).
        lines_per_row, banks = g.lines_per_row, g.banks_per_die
        channels = self.config.stacks * g.channels
        plans: Dict[int, AccessPlan] = {}
        cores = []
        for trace in traces:
            requests = []
            for request in trace.requests:
                home = request.home
                channel, bank, row, slot = (
                    home.channel, home.bank, home.row, home.slot
                )
                group = row * lines_per_row + slot
                parity_key = parity_plan = None
                if request.is_write and self.config.parity_protection:
                    parity_key = -1 - group
                    stack_base = (channel // g.channels) * g.channels
                    parity_plan = self._plan(
                        plans,
                        stack_base + (row + slot) % g.channels,
                        (row // g.channels) % g.banks_per_die,
                    )
                requests.append((
                    request.gap_cycles, request.is_write,
                    (group * banks + bank) * channels + channel, row,
                    self._plan(plans, channel, bank),
                    parity_key, parity_plan, request,
                ))
            cores.append((trace.mlp, tuple(requests)))
        return PreparedTraces(self.layout, tuple(cores), plans)

    # ------------------------------------------------------------------ #
    def run(self, traces: Union[Sequence[Trace], PreparedTraces]) -> PerfResult:
        """Serve every core's requests FCFS; ``traces`` may be raw or
        already prepared by a simulator with the same layout."""
        if isinstance(traces, PreparedTraces):
            prepared = traces
            if prepared.layout != self.layout:
                raise ConfigurationError(
                    "traces were prepared for another memory organization"
                )
        else:
            prepared = self.prepare(traces)
        geometry, config, hook = self.geometry, self.config, self.hook
        plans = prepared.plans
        channels = [
            ChannelState(self.timings, geometry.banks_per_die)
            for _ in range(config.stacks * geometry.channels)
        ]
        bank_access = [
            bank.access for channel in channels for bank in channel.banks
        ]
        reserve_bus = [channel.reserve_bus for channel in channels]
        llc = LRUCache(num_sets=self.llc_sets, ways=config.llc_ways)
        llc_access = llc.access
        moved = [0, 0]  # read bytes, write bytes

        def access(plan: AccessPlan, row: int, at: int, is_write: bool) -> int:
            """Reserve the plan's banks at ``row``, then one bus slot per
            channel; returns the completion cycle."""
            nbytes, groups = plan
            completion = at
            for channel, subs in groups:
                data_at = 0
                for bank in subs:
                    ready = bank_access[bank](at, row, is_write)
                    if ready > data_at:
                        data_at = ready
                done = reserve_bus[channel](data_at)
                if done > completion:
                    completion = done
            moved[is_write] += nbytes
            return completion

        parity, caching = config.parity_protection, config.parity_caching
        reads = writes = lookups = parity_hits = fetches = 0
        extra_reads = extra_writes = delay_cycles = 0
        # Per-core cursors: (next_issue_time, core_id) on a heap.
        streams = [requests for _, requests in prepared.cores]
        windows = [mlp or config.mlp_per_core for mlp, _ in prepared.cores]
        positions = [0] * len(streams)
        outstanding: List[List[int]] = [[] for _ in streams]
        finish = [0] * len(streams)
        heap: List[Tuple[int, int]] = [
            (requests[0][0], cid)
            for cid, requests in enumerate(streams)
            if requests
        ]
        heapify(heap)

        served = 0
        while heap:
            now, cid = heappop(heap)
            requests = streams[cid]
            position = positions[cid]
            (_, is_write, key, row, plan,
             parity_key, parity_plan, request) = requests[position]
            issue = now
            if hook is not None:
                effect = hook.on_request(served, request, now)
                if effect is not None:
                    for home, extra_is_write in effect.extra_accesses:
                        extra = self._plan(plans, home.channel, home.bank)
                        access(extra, home.row, now, extra_is_write)
                        if extra_is_write:
                            extra_writes += 1
                        else:
                            extra_reads += 1
                    issue = now + effect.delay_cycles
                    delay_cycles += effect.delay_cycles
            served += 1
            # Demand lines occupy (and pressure) the LLC.
            llc_access(key)
            if is_write:
                writes += 1
            else:
                reads += 1
            if not (parity and is_write):
                completion = access(plan, row, issue, is_write)
            else:
                # 3DP writeback (Figure 12): read-before-write for the XOR
                # delta, then the dim-1 parity update.
                completion = access(
                    plan, row, access(plan, row, issue, False), True
                )
                lookups += 1
                if caching and llc_access(parity_key):
                    parity_hits += 1  # on-chip XOR update, no memory traffic
                elif caching:
                    # Miss: fetch the parity line into the LLC; the dirty
                    # line is eventually written back — account for it now.
                    fetches += 1
                    access(parity_plan, row, completion, False)
                    access(parity_plan, row, completion, True)
                else:
                    # No caching: read-modify-write the parity line.
                    fetches += 1
                    done = access(parity_plan, row, completion, False)
                    access(parity_plan, row, done, True)
            if completion > finish[cid]:
                finish[cid] = completion
            # Writebacks also hold a window slot: evictions are produced by
            # the same miss stream, so a stalled core stops emitting them
            # (keeps the request loop closed under saturation).
            pending = outstanding[cid]
            heappush(pending, completion)
            position += 1
            positions[cid] = position
            if position >= len(requests):
                continue
            next_time = now + requests[position][0]
            # Retire completions that happened by then.
            while pending and pending[0] <= next_time:
                heappop(pending)
            # Window full: stall until the oldest miss returns.
            while len(pending) >= windows[cid]:
                next_time = max(next_time, heappop(pending))
            heappush(heap, (next_time, cid))

        result = PerfResult(
            label=config.label(),
            exec_cycles=max(finish),
            counters=EnergyCounters(read_bytes=moved[0], write_bytes=moved[1]),
            demand_reads=reads,
            demand_writes=writes,
            rbw_reads=writes if parity else 0,
            parity_fetches=fetches,
            parity_writebacks=fetches,
            parity_lookups=lookups,
            parity_hits=parity_hits,
            core_finish_cycles=finish,
            extra_reads=extra_reads,
            extra_writes=extra_writes,
            perturb_delay_cycles=delay_cycles,
        )
        for channel in channels:
            result.bank_activations.append(
                [bank.activations for bank in channel.banks]
            )
            for bank in channel.banks:
                result.counters.activations += bank.activations
                result.row_hits += bank.row_hits
                result.row_misses += bank.row_misses
        result.counters.exec_cycles = result.exec_cycles
        self._record_metrics(result, llc)
        return result

    def _record_metrics(self, result: PerfResult, llc: LRUCache) -> None:
        registry = self.metrics
        if registry is None:
            return
        llc.record_metrics(registry, prefix="llc")
        registry.inc("perf/demand_reads", result.demand_reads)
        registry.inc("perf/demand_writes", result.demand_writes)
        registry.inc("perf/rbw_reads", result.rbw_reads)
        registry.inc("perf/parity_lookups", result.parity_lookups)
        registry.inc("perf/parity_hits", result.parity_hits)
        registry.inc("perf/parity_fetches", result.parity_fetches)
        registry.inc("perf/parity_writebacks", result.parity_writebacks)
        registry.inc("perf/row_hits", result.row_hits)
        registry.inc("perf/row_misses", result.row_misses)
        registry.gauge_set("perf/exec_cycles", float(result.exec_cycles))
        if result.extra_reads or result.extra_writes or result.perturb_delay_cycles:
            # Only present for hooked (replay) runs, so unhooked metric
            # snapshots stay byte-identical to pre-hook output.
            registry.inc("perf/extra_reads", result.extra_reads)
            registry.inc("perf/extra_writes", result.extra_writes)
            registry.inc("perf/perturb_delay_cycles", result.perturb_delay_cycles)
