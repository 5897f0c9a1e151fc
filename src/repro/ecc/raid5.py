"""RAID-5-style rotated parity across banks (the Figure 19 comparator).

One parity strip per stripe, rotated over the 64 banks of the stack; the
stripe unit is a DRAM row and the stripe group is the set of equal-indexed
rows across all banks of all dies.  RAID-5 reconstructs any single faulty
strip per stripe; data is lost when two strips of one stripe are faulty
(classic RAID semantics operate at strip granularity, so unlike bit-level
parity the column positions of the two faults do not matter), or when a
single fault spans two strips of one stripe (multi-bank TSV faults).
"""

from __future__ import annotations

from repro.ecc.base import PairwiseModel
from repro.faults.types import Fault


class RAID5(PairwiseModel):
    """Row-granularity rotated parity across all banks."""

    @property
    def name(self) -> str:
        return "RAID-5 (row strips across banks)"

    def storage_overhead_fraction(self) -> float:
        return 1.0 / self.geometry.data_banks

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        return 1 if tsv_possible else 2

    def batch_kernel(self):
        from repro.ecc.batch_kernels import RAID5BatchKernel

        return RAID5BatchKernel(self.geometry)

    # ------------------------------------------------------------------ #
    def _fatal_alone(self, fault: Fault) -> bool:
        # A fault covering the same row index in >= 2 banks occupies
        # two strips of one stripe on its own (TSV faults do this).
        return fault.footprint.spans_multiple_banks()

    def _fatal_pair(self, a: Fault, b: Fault) -> bool:
        fa, fb = a.footprint, b.footprint
        if fa.dies == fb.dies and fa.banks == fb.banks:
            return False  # same strip column: still one bad strip per stripe
        return fa.rows.intersects(fb.rows)
