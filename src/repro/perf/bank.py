"""Bank and channel resource models for the performance simulator.

Each bank is an open-page state machine with a ``busy_until`` horizon and
the identity of the open row; each channel owns a shared data bus.  The
simulator serves requests in arrival order (FCFS — a conservative stand-in
for FR-FCFS) by reserving the bank and then a bus slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import contracts
from repro.perf.timing import DRAMTimings


@dataclass
class BankState:
    """Open-page bank with a single availability horizon."""

    timings: DRAMTimings
    open_row: Optional[int] = None
    busy_until: int = 0
    activations: int = 0
    row_hits: int = 0
    row_misses: int = 0

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.open_row, "open_row")
        contracts.check_non_negative(self.busy_until, "busy_until")

    def access(self, at: int, row: int, is_write: bool) -> int:
        """Serve one column access; returns the cycle data is available.

        ``at`` is the earliest cycle the access may start (request arrival
        at the controller).
        """
        t = self.timings
        busy = self.busy_until
        start = busy if busy > at else at
        if self.open_row == row:
            self.row_hits += 1
            data_at = busy = start + t.tCAS  # the row-hit latency
        else:
            self.row_misses += 1
            self.activations += 1
            act_at = start + t.tRP
            data_at = act_at + t.tRCD + t.tCAS
            # The row must stay active for tRAS before the next precharge,
            # so a conflicting access cannot begin earlier than that.
            busy = act_at + t.tRAS
            if data_at > busy:
                busy = data_at
            self.open_row = row
        if is_write:
            busy += t.tWTR
        self.busy_until = busy
        return data_at


@dataclass
class ChannelState:
    """One channel: its banks plus the shared data bus."""

    timings: DRAMTimings
    num_banks: int
    banks: List[BankState] = field(default_factory=list)
    bus_free_at: int = 0
    bus_busy_cycles: int = 0

    def __post_init__(self) -> None:
        contracts.require(self.num_banks > 0, "channel needs at least one bank")
        if not self.banks:
            self.banks = [BankState(self.timings) for _ in range(self.num_banks)]

    def reserve_bus(self, at: int) -> int:
        """Claim the next bus slot at or after ``at``; returns transfer end."""
        burst = self.timings.tBURST
        free_at = self.bus_free_at
        end = (free_at if free_at > at else at) + burst
        self.bus_free_at = end
        self.bus_busy_cycles += burst
        return end
