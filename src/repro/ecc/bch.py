"""Multi-bit BCH correction model (the 6EC7ED comparator of Figure 19).

A ``t``-error-correcting BCH code over each 512-bit cache line corrects up
to ``t`` faulty bits per line (6 for 6EC7ED).  Following the FaultSim
convention, every bit inside a fault footprint is assumed bad, so the code
fails as soon as any cache line accumulates more than ``t`` faulty bits —
which is why BCH "cannot correct large-granularity faults" (§VIII-F): a
row, bank, column-pair or word fault already exceeds the per-line budget.

The predicate pools per-line bit counts over *groups* of line-sharing
faults (each fault anchors a pool of every other fault it can share a
line with), so it is not a bare pair disjunction like
:class:`~repro.ecc.base.PairwiseModel`.
"""

from __future__ import annotations

from typing import Sequence

from repro.ecc.base import CorrectionModel, bits_in_one_line, share_line_slot
from repro.faults.types import Fault
from repro.stack.geometry import StackGeometry


class BCHCode(CorrectionModel):
    """t-error-correcting code applied per cache line, in-bank layout."""

    def __init__(self, geometry: StackGeometry, t: int = 6) -> None:
        super().__init__(geometry)
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        self.t = t

    @property
    def name(self) -> str:
        return f"{self.t}EC{self.t + 1}ED BCH"

    def storage_overhead_fraction(self) -> float:
        # t * ceil(log2(n)) check bits per 512-bit line, stored like ECC
        # DIMM metadata; the paper's schemes all budget 64b per line.
        return 1.0 / 8.0

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        return 1

    # ------------------------------------------------------------------ #
    def _line_bits(self, fault: Fault) -> int:
        return bits_in_one_line(self.geometry, fault.footprint.cols)

    def _pools_with(self, a: Fault, b: Fault) -> bool:
        """Can the two faults contribute bad bits to one cache line?"""
        fa, fb = a.footprint, b.footprint
        if fa.covers(fb) or fb.covers(fa):
            return False  # nested faults add no new bad bits
        if not (fa.dies & fb.dies and fa.banks & fb.banks):
            return False
        if not fa.rows.intersects(fb.rows):
            return False
        return share_line_slot(self.geometry, fa.cols, fb.cols)

    def is_uncorrectable(self, faults: Sequence[Fault]) -> bool:
        for fault in faults:
            if self._line_bits(fault) > self.t:
                return True
        # Concurrent faults pool their per-line bit counts.  For each fault,
        # conservatively assume every other line-sharing fault lands in the
        # same cache line and accumulate.
        for anchor in faults:
            total = self._line_bits(anchor)
            for other in faults:
                if other.uid == anchor.uid:
                    continue
                if not self._pools_with(anchor, other):
                    continue
                total += self._line_bits(other)
            if total > self.t:
                return True
        return False
