"""TSV-SWAP — runtime repair of faulty TSVs without spare TSVs (§V).

TSV-Swap designates a pool of *stand-by* data TSVs (DTSV-0/64/128/192 for
the baseline channel) whose payload is replicated in the per-line metadata
(8 "Swap Data" bits of Figure 6).  When BIST identifies a faulty TSV —
data, address or command — the TSV Redirection Register (TRR) drives pass
transistors that connect the faulty TSV's lane to a stand-by TSV
(Figure 8).  A repair is lossless: the stand-by TSV's own traffic keeps
flowing through the metadata replica.

Detection (§V-C2): every line carries a CRC-32 computed over address and
data.  On a mismatch, two per-die *fixed rows* at bit-inverse addresses
(e.g. 0x0000 and 0xFFFF) holding known patterns are read back; if they
mismatch too, the fault is attributed to a TSV and BIST locates it.

Two views are provided:

* :class:`TSVSwapController` — a stateful device model used by the
  functional datapath and tests (TRR contents, per-channel stand-by pool,
  fixed-row check).
* :func:`apply_tsv_swap` — the reliability-engine filter: processes TSV
  faults in arrival order and removes the ones the per-channel stand-by
  pool can absorb; the remainder stay visible to the correction scheme as
  multi-bank faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.faults.types import Fault, FaultKind
from repro.stack.geometry import StackGeometry
from repro.stack.tsv import TSVClass, TSVId, standby_dtsv_indices, validate_tsv
from repro.telemetry.registry import MetricsRegistry

#: Stand-by DTSVs per channel in the paper's design (§V-C1).
DEFAULT_STANDBY_TSVS = 4


@dataclass(frozen=True)
class TRREntry:
    """One TSV Redirection Register entry: faulty TSV -> stand-by TSV."""

    faulty: TSVId
    standby_index: int  # DTSV index of the stand-by TSV now carrying it


@dataclass
class ChannelSwapState:
    """Stand-by pool and TRR of one channel."""

    standby_pool: List[int]
    trr: List[TRREntry] = field(default_factory=list)
    #: TSV faults that arrived after the pool was exhausted.
    unrepaired: List[TSVId] = field(default_factory=list)

    @property
    def repairs_used(self) -> int:
        return len(self.trr)

    @property
    def repairs_left(self) -> int:
        return len(self.standby_pool)


class TSVSwapController:
    """Device model of TSV-Swap across all channels of a stack."""

    def __init__(
        self,
        geometry: StackGeometry,
        standby_count: int = DEFAULT_STANDBY_TSVS,
    ) -> None:
        self.geometry = geometry
        self.standby_count = standby_count
        self._standby_indices = standby_dtsv_indices(geometry, standby_count)
        self.channels: Dict[int, ChannelSwapState] = {
            channel: ChannelSwapState(standby_pool=list(self._standby_indices))
            for channel in range(geometry.channels)
        }

    def state(self, channel: int) -> ChannelSwapState:
        if channel not in self.channels:
            raise ConfigurationError(f"no such channel: {channel}")
        return self.channels[channel]

    # ------------------------------------------------------------------ #
    def repair(self, tsv: TSVId) -> TRREntry:
        """Decommission a faulty TSV onto a stand-by TSV.

        Raises :class:`CapacityError` when the channel's stand-by pool is
        exhausted — the caller then has to leave the fault to the ECC
        layer.
        """
        validate_tsv(self.geometry, tsv)
        state = self.state(tsv.channel)
        if self._already_repaired(state, tsv):
            raise ConfigurationError(f"{tsv} is already repaired")
        if tsv.tsv_class is TSVClass.DATA and tsv.index in state.standby_pool:
            # A faulty stand-by TSV needs no rewiring: its payload already
            # lives in the metadata replica.  It just leaves the pool.
            state.standby_pool.remove(tsv.index)
            entry = TRREntry(faulty=tsv, standby_index=tsv.index)
            state.trr.append(entry)
            return entry
        if not state.standby_pool:
            state.unrepaired.append(tsv)
            raise CapacityError(
                f"channel {tsv.channel}: stand-by TSV pool exhausted"
            )
        standby = state.standby_pool.pop(0)
        entry = TRREntry(faulty=tsv, standby_index=standby)
        state.trr.append(entry)
        return entry

    def try_repair(self, tsv: TSVId) -> Optional[TRREntry]:
        """Like :meth:`repair` but returns None instead of raising."""
        try:
            return self.repair(tsv)
        except CapacityError:
            return None

    def _already_repaired(self, state: ChannelSwapState, tsv: TSVId) -> bool:
        return any(entry.faulty == tsv for entry in state.trr)

    def redirect(self, tsv: TSVId) -> Optional[int]:
        """The stand-by DTSV index now carrying ``tsv``, if repaired."""
        state = self.state(tsv.channel)
        for entry in state.trr:
            if entry.faulty == tsv:
                return entry.standby_index
        return None

    # ------------------------------------------------------------------ #
    def fixed_row_addresses(self) -> Tuple[int, int]:
        """The two per-die fixed test rows at bit-inverse addresses."""
        low = 0
        high = self.geometry.rows_per_bank - 1
        return (low, high)

    def metadata_bits_used(self) -> int:
        """Swap-data metadata bits per line (8 in the baseline)."""
        burst = self.geometry.line_bits // self.geometry.data_tsvs_per_channel
        return self.standby_count * burst


def apply_tsv_swap(
    faults: Sequence[Fault],
    geometry: StackGeometry,
    standby_count: int = DEFAULT_STANDBY_TSVS,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[List[Fault], TSVSwapController]:
    """Filter a time-ordered fault history through TSV-Swap.

    Returns the faults still visible to the ECC layer (all DRAM faults,
    plus TSV faults the per-channel pools could not absorb) and the
    controller state after processing.  When ``metrics`` is given, the
    repair decision mix is counted under ``tsvswap/`` (Fig. 9
    attribution); recording reads only the fault stream, never a clock
    or RNG, so the counters merge deterministically across shards.
    """
    controller = TSVSwapController(geometry, standby_count)
    visible: List[Fault] = []
    for fault in sorted(faults, key=lambda f: f.time_hours):
        if not fault.kind.is_tsv:
            visible.append(fault)
            continue
        if metrics is not None:
            metrics.inc("tsvswap/tsv_faults")
        tsv = TSVId(
            channel=fault.channel,
            tsv_class=(
                TSVClass.DATA
                if fault.kind is FaultKind.DATA_TSV
                else TSVClass.ADDRESS
            ),
            index=fault.tsv_index,
        )
        if controller.redirect(tsv) is not None:
            if metrics is not None:
                metrics.inc("tsvswap/already_rewired")
            continue  # this TSV already failed and was rewired
        if controller.try_repair(tsv) is None:
            if metrics is not None:
                metrics.inc("tsvswap/pool_exhausted")
            visible.append(fault)
        elif metrics is not None:
            metrics.inc("tsvswap/repaired")
    return visible, controller
