"""Mapping fault-timeline events onto per-request perturbations.

:class:`ReplayPerturbation` is the :class:`~repro.perf.system.RequestHook`
the replay engine installs on the performance simulator.  A timeline
event at ``t`` hours lands on demand-request ordinal
``floor(t / lifetime * total_requests)`` — a pure rescaling, no extra
RNG — and from that request on changes the service-loop behavior:

* a live fault degrades its (channel, bank) positions: requests homed
  there pay the 3DP erasure-correction latency;
* a DDS remap converts degradation into a one-time sparing-copy burst
  plus a small permanent indirection latency (RRT/BRT lookup);
* a TSV-Swap activation adds the standby-mux latency to every access on
  the affected channel;
* a scrub pass injects a bounded burst of background reads and clears
  transient degradation.

The reliability timeline describes one stack; perturbations apply to
that stack's channels (the first ``geometry.channels`` of the simulated
system).  All latencies are deterministic integers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.perf.system import Perturbation, RequestHook
from repro.replay.timeline import FaultTimeline, TimelineEvent
from repro.stack.address import LineLocation
from repro.stack.geometry import StackGeometry

#: Standby-mux latency on a channel with an activated TSV swap (§V-B:
#: the swap network adds one mux stage to the TSV path).
TSV_SWAP_MUX_CYCLES = 2

#: Extra read-path latency for a line whose bank carries a live fault:
#: the 3DP overlay reconstructs through parity (a second access), so a
#: degraded read costs roughly one more bank access.
CORRECTION_DELAY_CYCLES = 8

#: RRT/BRT indirection after a DDS remap (an SRAM lookup, §IV).
REMAP_INDIRECTION_CYCLES = 1

#: Background reads injected per recorded scrub pass (bounded so a
#: 7-year timeline's collapsed scrubs cannot swamp a short trace).
SCRUB_READS_PER_PASS = 8

#: Sparing-copy traffic per DDS remap, in (read, write) line pairs.
REMAP_COPY_LINES = {"row": 2, "bank": 8}


class ReplayPerturbation(RequestHook):
    """Stateful request hook driven by one :class:`FaultTimeline`."""

    def __init__(
        self,
        timeline: FaultTimeline,
        geometry: StackGeometry,
        total_requests: int,
    ) -> None:
        self.timeline = timeline
        self.geometry = geometry
        self.total_requests = total_requests
        #: (channel, bank) -> "transient" | "permanent" for live faults.
        self._degraded: Dict[Tuple[int, int], str] = {}
        #: (channel, bank) positions served through a DDS remap.
        self._remapped: Set[Tuple[int, int]] = set()
        #: Channels with an activated TSV swap.
        self._swapped: Set[int] = set()
        self._schedule: List[Tuple[int, TimelineEvent]] = [
            (self._ordinal(event.time_hours), event)
            for event in timeline.events
        ]
        self._cursor = 0

    # ------------------------------------------------------------------ #
    def _ordinal(self, time_hours: float) -> int:
        """Request ordinal standing in for lifetime instant ``time_hours``."""
        if self.total_requests <= 0 or self.timeline.lifetime_hours <= 0:
            return 0
        frac = time_hours / self.timeline.lifetime_hours
        ordinal = int(frac * self.total_requests)
        return min(max(ordinal, 0), self.total_requests - 1)

    def _positions(self, event: TimelineEvent) -> List[Tuple[int, int]]:
        """The (channel, bank) positions an event's footprint covers."""
        channels = self.geometry.channels
        positions = []
        for die in event.dies:
            for bank in event.banks:
                positions.append((die % channels, bank))
        return positions

    def _scrub_reads(self, event: TimelineEvent) -> List[Tuple[LineLocation, bool]]:
        """A bounded, deterministic burst of scrub reads.

        Locations are spread round-robin over channels/banks/rows by the
        event's sequence number, so successive passes touch different
        rows without any RNG.
        """
        g = self.geometry
        reads = []
        for i in range(min(SCRUB_READS_PER_PASS, g.channels * g.banks_per_die)):
            reads.append(
                (
                    LineLocation(
                        channel=(event.seq + i) % g.channels,
                        bank=(event.seq + i) % g.banks_per_die,
                        row=(event.seq * 31 + i) % g.rows_per_bank,
                        slot=0,
                    ),
                    False,
                )
            )
        return reads

    def _copy_traffic(
        self, event: TimelineEvent
    ) -> List[Tuple[LineLocation, bool]]:
        """Sparing-copy burst for a DDS remap (read source, write spare)."""
        g = self.geometry
        lines = REMAP_COPY_LINES.get(event.detail, 2)
        accesses = []
        for channel, bank in self._positions(event):
            for i in range(lines):
                row = (event.seq * 31 + i) % g.rows_per_bank
                home = LineLocation(channel=channel, bank=bank, row=row, slot=0)
                spare = LineLocation(
                    channel=channel,
                    bank=(bank + 1) % g.banks_per_die,
                    row=row,
                    slot=0,
                )
                accesses.append((home, False))
                accesses.append((spare, True))
        return accesses

    # ------------------------------------------------------------------ #
    def _apply(self, event: TimelineEvent) -> List[Tuple[LineLocation, bool]]:
        """Advance the protection state machine; returns injected traffic."""
        if event.kind == "fault":
            if event.channel >= 0:
                # An unabsorbed TSV fault degrades the whole channel.
                for bank in range(self.geometry.banks_per_die):
                    self._degraded.setdefault(
                        (event.channel, bank), event.detail or "permanent"
                    )
            for position in self._positions(event):
                self._degraded.setdefault(
                    position, event.detail or "permanent"
                )
            return []
        if event.kind == "tsv_swap":
            if event.channel >= 0:
                self._swapped.add(event.channel)
            return []
        if event.kind == "scrub":
            transient = [
                pos for pos, kind in self._degraded.items()
                if kind == "transient"
            ]
            for position in transient:
                del self._degraded[position]
            return self._scrub_reads(event)
        if event.kind == "dds_remap":
            for position in self._positions(event):
                self._degraded.pop(position, None)
                self._remapped.add(position)
            return self._copy_traffic(event)
        # "failure": the reliability verdict; no extra service traffic.
        return []

    def on_request(
        self, index: int, request, now: int
    ) -> Optional[Perturbation]:
        extra: List[Tuple[LineLocation, bool]] = []
        while (
            self._cursor < len(self._schedule)
            and self._schedule[self._cursor][0] <= index
        ):
            extra.extend(self._apply(self._schedule[self._cursor][1]))
            self._cursor += 1
        home = request.home
        position = (home.channel, home.bank)
        delay = 0
        if home.channel in self._swapped:
            delay += TSV_SWAP_MUX_CYCLES
        if position in self._degraded:
            delay += CORRECTION_DELAY_CYCLES
        elif position in self._remapped:
            delay += REMAP_INDIRECTION_CYCLES
        if not delay and not extra:
            return None
        return Perturbation(delay_cycles=delay, extra_accesses=tuple(extra))
