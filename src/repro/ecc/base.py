"""Correction-model interface used by the reliability engine.

A :class:`CorrectionModel` answers one question for the Monte-Carlo
lifetime simulator: *given the set of live (uncorrected) faults, has the
stack lost data?*  Detection is assumed (CRC-32's escape probability is
negligible — paper footnote 2 — and is studied separately by the
functional datapath).

Models also report ``min_faults_to_fail``, the smallest number of
simultaneous faults that can possibly defeat them, which the engine uses
for stratified sampling of rare failures.

The engine asks ``is_uncorrectable`` about the whole live set after
every arrival; models keep no state across a trial.  At the paper's
fault rates a trial sees only 2-4 faults, and this from-scratch check
costs 0.83-1.10x what the incremental kernels it replaced did
(DESIGN.md §11).  :class:`PairwiseModel` is the shared form of the
schemes whose verdict is a disjunction of single-fault and fault-pair
predicates.
"""

from __future__ import annotations

import abc
import itertools
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.ecc.batch_kernels import BatchCorrectionKernel

from repro.faults.footprint import RangeMask
from repro.faults.types import Fault
from repro.stack.geometry import StackGeometry
from repro.telemetry.registry import MetricsRegistry


class CorrectionModel(abc.ABC):
    """Decides correctability of a set of concurrent faults."""

    #: Optional observability hook: when the lifetime simulator runs with
    #: telemetry enabled it points this at the shard's registry, and the
    #: model records correction-path counters (e.g. which 3DP dimension
    #: peeled a fault).  Recording must be a pure function of the fault
    #: set — no RNG, no clock — so metrics merge deterministically.
    metrics: Optional[MetricsRegistry] = None

    def __init__(self, geometry: StackGeometry) -> None:
        self.geometry = geometry

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable scheme name used in reports."""

    @abc.abstractmethod
    def is_uncorrectable(self, faults: Sequence[Fault]) -> bool:
        """True iff the fault set causes data loss."""

    def min_faults_to_fail(self) -> int:
        """Lower bound on simultaneous faults needed for data loss.

        Conservative default: a single fault may be fatal.
        """
        return 1

    def batch_kernel(self) -> Optional["BatchCorrectionKernel"]:
        """An array-shaped correctability kernel for the batch trial path.

        ``None`` (the default) means the scheme has no vectorized form and
        its naive campaigns run on the scalar loop.  Implementations
        return a fresh :class:`repro.ecc.batch_kernels.BatchCorrectionKernel`
        whose ``survives`` verdicts are *sound*: ``True`` only for trials
        the scalar engine would also report as non-failing.
        """
        return None

    def storage_overhead_fraction(self) -> float:
        """Extra storage (check bits, parity, spares) / data storage."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}: {self.name}>"


class PairwiseModel(CorrectionModel):
    """A model whose live set is fatal iff some fault is fatal alone or
    some unordered pair of faults is jointly fatal.

    SECDED, 2D-ECC, RAID-5 and the symbol code supply the two predicates;
    ``_fatal_pair`` must be symmetric.
    """

    @abc.abstractmethod
    def _fatal_alone(self, fault: Fault) -> bool:
        """True iff ``fault`` alone causes data loss."""

    @abc.abstractmethod
    def _fatal_pair(self, a: Fault, b: Fault) -> bool:
        """True iff ``a`` and ``b`` together cause data loss."""

    def is_uncorrectable(self, faults: Sequence[Fault]) -> bool:
        for fault in faults:
            if self._fatal_alone(fault):
                return True
        for a, b in itertools.combinations(faults, 2):
            if self._fatal_pair(a, b):
                return True
        return False


# ---------------------------------------------------------------------- #
# Shared footprint helpers
# ---------------------------------------------------------------------- #
def slot_projection(geometry: StackGeometry, cols: RangeMask) -> Tuple[int, int]:
    """Project a column-bit mask onto line-slot address bits.

    Returns (base, mask) over the full column width but with the low
    (within-line) bits forced to don't-care, so two projections intersect
    iff the faults can touch the same cache-line slot.
    """
    line_low_bits = geometry.line_bits - 1
    return (cols.base & ~line_low_bits, cols.mask | line_low_bits)


def share_line_slot(
    geometry: StackGeometry, a: RangeMask, b: RangeMask
) -> bool:
    """True iff column masks ``a`` and ``b`` can fall in the same line slot."""
    base_a, mask_a = slot_projection(geometry, a)
    base_b, mask_b = slot_projection(geometry, b)
    return (base_a ^ base_b) & ~(mask_a | mask_b) == 0


def bits_in_one_line(geometry: StackGeometry, cols: RangeMask) -> int:
    """Maximum faulty bits the column mask places within a single line."""
    line_low_bits = geometry.line_bits - 1
    within_line_mask = cols.mask & line_low_bits
    return 1 << bin(within_line_mask).count("1")
