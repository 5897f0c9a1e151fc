"""Active-power model following the Micron power-calculation method
(§III-B: read, write, refresh and activation power for 8 Gb dies).

Energy is accumulated from event counters produced by the performance
simulator:

* each row activation costs ``e_act_nj`` (ACT + PRE current over tRC);
* each 64-byte data burst costs ``e_rd_nj`` / ``e_wr_nj`` (scaled by the
  bytes actually moved, so a striped access that splits one line over 8
  banks pays the same burst energy but 8x the activation energy);
* refresh draws a constant ``p_refresh_mw`` per die (8 Gb dies at the
  HBM 32 ms refresh interval).

"Active power" = active energy / execution time, which is how Figures 5
and 16 normalize their bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.stack.geometry import StackGeometry

#: 800 MHz memory clock.
MEM_CLOCK_HZ = 800e6


@dataclass(frozen=True)
class PowerParams:
    """Per-event energies (nJ) and per-die refresh power (mW).

    Defaults derived from the Micron DDR3 8 Gb power technical note
    (TN-41-01 method) for a 2 KB row: activation dominates, which is why
    multi-bank striping costs 3.8-4.7x in active power (Figure 5).
    """

    e_act_nj: float = 18.0      # one row activate + precharge
    e_rd_nj: float = 4.0        # one 64 B read burst (I/O + column path)
    e_wr_nj: float = 4.4        # one 64 B write burst
    p_refresh_mw_per_die: float = 25.0

    def __post_init__(self) -> None:
        for name in ("e_act_nj", "e_rd_nj", "e_wr_nj", "p_refresh_mw_per_die"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass
class EnergyCounters:
    """Event counts accumulated by the simulator."""

    activations: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    exec_cycles: int = 0


class PowerModel:
    """Turns event counters into active energy and power."""

    def __init__(
        self,
        geometry: StackGeometry,
        params: PowerParams = PowerParams(),
        line_bytes: Optional[int] = None,
        stacks: int = 2,
    ) -> None:
        self.geometry = geometry
        self.params = params
        self.line_bytes = geometry.line_bytes if line_bytes is None else line_bytes
        self.stacks = stacks

    def active_energy_nj(self, counters: EnergyCounters) -> float:
        p = self.params
        burst = (
            counters.read_bytes / self.line_bytes * p.e_rd_nj
            + counters.write_bytes / self.line_bytes * p.e_wr_nj
        )
        exec_seconds = counters.exec_cycles / MEM_CLOCK_HZ
        refresh_nj = (
            p.p_refresh_mw_per_die
            * self.geometry.total_dies
            * self.stacks
            * exec_seconds
            * 1e6  # mW * s = mJ -> nJ
        )
        return counters.activations * p.e_act_nj + burst + refresh_nj

    def active_power_mw(self, counters: EnergyCounters) -> float:
        if counters.exec_cycles <= 0:
            raise ConfigurationError("exec_cycles must be positive")
        exec_seconds = counters.exec_cycles / MEM_CLOCK_HZ
        return self.active_energy_nj(counters) * 1e-6 / exec_seconds
