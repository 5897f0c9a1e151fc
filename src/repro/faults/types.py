"""Fault taxonomy of the paper (Figure 2, Table I).

DRAM-die faults: single bit, single word, single column, single row, single
bank.  Stacked-memory-specific faults: data-TSV and address-TSV faults,
which manifest as multi-bank footprints because all banks of a die share
the channel TSVs (§V-A).

Each fault is a :class:`Fault` carrying its kind, permanence, arrival time
and physical :class:`~repro.faults.footprint.Footprint`.  Every fault shape
is defined once, by :meth:`FaultSpec.footprint_masks`: the injector samples
``FaultSpec`` records, :meth:`FaultSpec.build` turns one into a ``Fault``,
and the module-level ``make_*_fault`` constructors validate geometry
coordinates and build through the same spec.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro import contracts
from repro.errors import ConfigurationError
from repro.faults.footprint import Footprint, RangeMask
from repro.stack.geometry import StackGeometry

#: Number of bits a "word" fault touches (an aligned 32-bit word, matching
#: the Sridharan et al. field-study granularity the paper inherits).
WORD_BITS = 32


class FaultKind(enum.Enum):
    """Granularity classes from Table I plus the TSV fault modes of §V.

    ``SUBARRAY`` is the 3D transposition of the field-measured "single
    bank" failures: the paper scales the 2D bank rate by the subarray
    count (§III-A, "sub-array size remains roughly constant") and its
    Figure 17 places the resulting failures at thousands — not 64K — of
    rows; full-bank/channel losses in a stack come from TSV faults
    (§II-B).  ``BANK`` (a complete bank) is kept for direct injection and
    for the 'full' bank-fault-granularity ablation.
    """

    BIT = "bit"
    WORD = "word"
    COLUMN = "column"
    ROW = "row"
    SUBARRAY = "subarray"
    BANK = "bank"
    DATA_TSV = "data_tsv"
    ADDR_TSV = "addr_tsv"

    @property
    def is_tsv(self) -> bool:
        # Identity checks: this property sits on the sampling hot path.
        return self is FaultKind.DATA_TSV or self is FaultKind.ADDR_TSV


class Permanence(enum.Enum):
    TRANSIENT = "transient"
    PERMANENT = "permanent"


_fault_ids = itertools.count()


@dataclass(frozen=True)
class Fault:
    """One fault event in the lifetime of a stack."""

    kind: FaultKind
    permanence: Permanence
    footprint: Footprint
    time_hours: float = 0.0
    #: Channel the fault's TSV belongs to (TSV faults only).
    channel: Optional[int] = None
    #: Index of the faulty TSV within its channel (TSV faults only).
    tsv_index: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_fault_ids))

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.time_hours, "time_hours")
        contracts.check_non_negative(self.channel, "channel")
        contracts.check_non_negative(self.tsv_index, "tsv_index")
        contracts.require(
            (self.channel is None) == (not self.kind.is_tsv),
            "channel must be set exactly for TSV faults (kind=%s)",
            self.kind.value,
        )

    @property
    def is_transient(self) -> bool:
        return self.permanence is Permanence.TRANSIENT

    @property
    def is_permanent(self) -> bool:
        return self.permanence is Permanence.PERMANENT

    def at_time(self, time_hours: float) -> "Fault":
        return replace(self, time_hours=time_hours)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = (
            f"dies={sorted(self.footprint.dies)} banks={sorted(self.footprint.banks)}"
        )
        return (
            f"Fault({self.kind.value}/{self.permanence.value} t={self.time_hours:.1f}h "
            f"{where})"
        )


@dataclass(frozen=True)
class FaultSpec:
    """The sampled identity of one fault, before ``Fault`` construction.

    A spec captures exactly the information the injector's random draws
    decide — final kind (after the BANK->SUBARRAY transposition and the
    DTSV/ATSV split), permanence, location coordinates — in a flat,
    array-friendly record.  :meth:`footprint_masks` is the one definition
    of every fault shape: :meth:`build` turns its masks into the
    :class:`Fault` the scalar path simulates, and the batch trial kernel
    consumes the same masks as ints.

    Coordinate conventions: ``die`` holds the channel for TSV kinds and
    ``bank`` is -1 (a TSV fault spans every bank of its die).  ``a``/``b``
    are the kind-specific placement draws:

    ========== ======================= =================
    kind        a                       b
    ========== ======================= =================
    BIT         row                     column bit
    WORD        row                     word index
    COLUMN      column bit              (unused)
    ROW         row                     (unused)
    SUBARRAY    subarray                (unused)
    BANK        (unused)                (unused)
    DATA_TSV    tsv index               (unused)
    ADDR_TSV    tsv index               stuck value
    ========== ======================= =================
    """

    kind: FaultKind
    permanence: Permanence
    die: int
    bank: int
    a: int = 0
    b: int = 0

    def __post_init__(self) -> None:
        # Hot path (one spec per sampled fault): short-circuit so the
        # common all-in-range case costs two comparisons.
        if self.die < 0 or self.bank < -1 or (
            self.bank < 0 and not self.kind.is_tsv
        ):
            contracts.require(
                False,
                "FaultSpec coordinates out of range: die=%d bank=%d kind=%s",
                self.die,
                self.bank,
                self.kind.value,
            )

    def footprint_masks(self, geometry: StackGeometry) -> Tuple[int, int, int, int]:
        """``(row_base, row_mask, col_base, col_mask)`` of the fault.

        The canonical FaultSim address+mask pairs (a row or column-bit
        address ``x`` is in the footprint iff ``x & ~mask == base``), as
        plain ints.  This is the only place a fault shape is written down:
        :meth:`build` wraps the masks in :class:`RangeMask` sets, and the
        batch trial kernels read them without constructing ``Fault``
        objects.
        """
        kind = self.kind
        row_universe = (1 << geometry.row_address_bits) - 1
        col_universe = (1 << geometry.col_address_bits) - 1
        if kind is FaultKind.BIT:
            return self.a, 0, self.b, 0
        if kind is FaultKind.WORD:
            word_bits = min(WORD_BITS, geometry.row_bits)
            return self.a, 0, self.b * word_bits, word_bits - 1
        if kind is FaultKind.COLUMN:
            # One bit position in every row of the bank (column decoder).
            return 0, row_universe, self.a, 0
        if kind is FaultKind.ROW:
            return self.a, 0, 0, col_universe
        if kind is FaultKind.SUBARRAY:
            return (
                self.a * geometry.rows_per_subarray,
                geometry.rows_per_subarray - 1,
                0,
                col_universe,
            )
        if kind is FaultKind.BANK:
            return 0, row_universe, 0, col_universe
        if kind is FaultKind.DATA_TSV:
            # Bits {tsv_index + j*num_dtsv : j < burst} within a line,
            # repeated for every line in the row: the don't-care bits are
            # the burst selector bits plus the line-index bits.
            num_dtsv = geometry.data_tsvs_per_channel
            burst = geometry.line_bits // num_dtsv
            burst_mask = (burst - 1) * num_dtsv if burst > 1 else 0
            line_select_mask = col_universe & ~(geometry.line_bits - 1)
            col_mask = burst_mask | line_select_mask
            return 0, row_universe, self.a & ~col_mask, col_mask
        if kind is FaultKind.ADDR_TSV:
            # The *reachable* half still returns correct data; the rows
            # whose address bit differs from the stuck value are the
            # faulty footprint.
            bit = self.a % geometry.row_address_bits
            return (
                (1 - self.b) << bit,
                row_universe & ~(1 << bit),
                0,
                col_universe,
            )
        raise ConfigurationError(f"unsupported fault kind: {kind}")

    def build(self, geometry: StackGeometry, time_hours: float = 0.0) -> Fault:
        """The :class:`Fault` whose footprint :meth:`footprint_masks` defines.

        TSV faults span every bank of their channel's die and carry the
        channel and TSV index; every other fault touches one bank.
        """
        row_base, row_mask, col_base, col_mask = self.footprint_masks(geometry)
        tsv = self.kind.is_tsv
        footprint = Footprint.build(
            geometry,
            dies=[self.die],  # one channel per die in the HBM-like layout
            banks=range(geometry.banks_per_die) if tsv else [self.bank],
            rows=RangeMask(row_base, row_mask, geometry.row_address_bits),
            cols=RangeMask(col_base, col_mask, geometry.col_address_bits),
        )
        return Fault(
            self.kind,
            self.permanence,
            footprint,
            time_hours,
            channel=self.die if tsv else None,
            tsv_index=self.a if tsv else None,
        )


# ---------------------------------------------------------------------- #
# Constructors — one per fault shape, from geometry coordinates
# ---------------------------------------------------------------------- #
def _check_channel(geometry: StackGeometry, channel: int) -> None:
    if not 0 <= channel < geometry.channels:
        raise ConfigurationError(
            f"channel {channel} out of range [0, {geometry.channels})"
        )


def check_dtsv_layout(geometry: StackGeometry) -> None:
    """Reject geometries whose data-TSV footprint has no address+mask form.

    The injector checks this once when TSV faults are possible, so neither
    the scalar nor the batch path builds a DTSV mask the layout cannot
    express.
    """
    num_dtsv = geometry.data_tsvs_per_channel
    if geometry.line_bits % num_dtsv:
        raise ConfigurationError(
            "line_bits must be a multiple of data_tsvs_per_channel"
        )
    # A burst longer than one beat strides by num_dtsv, which an
    # address+mask set can only express for a power of two.
    if geometry.line_bits // num_dtsv > 1 and num_dtsv & (num_dtsv - 1):
        raise ConfigurationError("data_tsvs_per_channel must be a power of two")


def make_bit_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    row: int,
    col: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A single faulty cell."""
    geometry.check_col_bit(col)
    spec = FaultSpec(FaultKind.BIT, permanence, die, bank, row, col)
    return spec.build(geometry, time_hours)


def make_word_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    row: int,
    word_index: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A single faulty aligned word (WORD_BITS bits in one row)."""
    geometry.check_col_bit(word_index * min(WORD_BITS, geometry.row_bits))
    spec = FaultSpec(FaultKind.WORD, permanence, die, bank, row, word_index)
    return spec.build(geometry, time_hours)


def make_column_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    col: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A faulty column: one bit position across every row of the bank.

    Column faults originate at the column decoder (§III-A), which serves
    the whole bank, so one bad bit appears in *every* row — this is why
    column faults sit at the 64K-row end of the Figure 17 sparing-demand
    distribution (3.82% of permanent faults = Table I's column share).
    """
    geometry.check_col_bit(col)
    spec = FaultSpec(FaultKind.COLUMN, permanence, die, bank, col)
    return spec.build(geometry, time_hours)


def make_subarray_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    subarray: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A failed subarray: every row of one subarray of the bank.

    This is the 3D transposition of the field study's "single bank"
    failures (§II-B, §III-A): the 8 Gb die keeps the subarray size
    constant and multiplies the failure rate by the subarray count, and
    each event takes out one subarray (the thousands-of-rows peak of
    Figure 17).
    """
    if not 0 <= subarray < geometry.subarrays_per_bank:
        raise ConfigurationError(
            f"subarray {subarray} out of range [0, {geometry.subarrays_per_bank})"
        )
    spec = FaultSpec(FaultKind.SUBARRAY, permanence, die, bank, subarray)
    return spec.build(geometry, time_hours)


def make_row_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    row: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A fully faulty row (wordline failure)."""
    spec = FaultSpec(FaultKind.ROW, permanence, die, bank, row)
    return spec.build(geometry, time_hours)


def make_bank_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A complete single-bank failure."""
    spec = FaultSpec(FaultKind.BANK, permanence, die, bank)
    return spec.build(geometry, time_hours)


def make_data_tsv_fault(
    geometry: StackGeometry,
    channel: int,
    tsv_index: int,
    permanence: Permanence = Permanence.PERMANENT,
    time_hours: float = 0.0,
) -> Fault:
    """A faulty data TSV.

    With a burst length of 2, DTSV ``k`` carries bits ``k`` and ``k + D``
    of every cache line in every bank of its die, where ``D`` is the
    number of data TSVs per channel (§V-B: bits 1 and 257 for DTSV-1).
    Within a row the pattern repeats for every line slot, which is exactly
    the aligned-mask set ``{c : c mod line_bits in {k, k+D}}``.
    """
    _check_channel(geometry, channel)
    num_dtsv = geometry.data_tsvs_per_channel
    if not 0 <= tsv_index < num_dtsv:
        raise ConfigurationError(
            f"DTSV index {tsv_index} out of range [0, {num_dtsv})"
        )
    check_dtsv_layout(geometry)
    spec = FaultSpec(FaultKind.DATA_TSV, permanence, channel, -1, tsv_index)
    return spec.build(geometry, time_hours)


def make_addr_tsv_fault(
    geometry: StackGeometry,
    channel: int,
    tsv_index: int,
    stuck_value: int = 0,
    permanence: Permanence = Permanence.PERMANENT,
    time_hours: float = 0.0,
) -> Fault:
    """A faulty address TSV: half the rows of the die become unreachable.

    A stuck address TSV ``k`` makes every row whose address bit ``k``
    differs from the stuck value inaccessible in all banks of the die
    (§V-B, Figure 7).  Address TSVs above the row-address width select
    bank/column bits; we conservatively map those onto row-address bits
    modulo the row width, which preserves the "half the memory" blast
    radius the paper describes.
    """
    _check_channel(geometry, channel)
    if not 0 <= tsv_index < geometry.addr_tsvs_per_channel:
        raise ConfigurationError(
            f"ATSV index {tsv_index} out of range "
            f"[0, {geometry.addr_tsvs_per_channel})"
        )
    if stuck_value not in (0, 1):
        raise ConfigurationError(f"stuck_value must be 0 or 1, got {stuck_value}")
    spec = FaultSpec(
        FaultKind.ADDR_TSV, permanence, channel, -1, tsv_index, stuck_value
    )
    return spec.build(geometry, time_hours)
