"""SECDED — the conventional ECC-DIMM baseline (§I).

A (72, 64) Hamming-class code corrects one bit and detects two per aligned
64-bit word.  It is the paper's stand-in for "conventional error
correction ... targeted towards correcting random bit errors and
ineffective at tolerating large-granularity faults": any fault placing two
or more bad bits inside one 64-bit word defeats it.
"""

from __future__ import annotations

from repro.ecc.base import PairwiseModel
from repro.faults.footprint import RangeMask
from repro.faults.types import Fault

_WORD_BITS = 64


class SECDED(PairwiseModel):
    """Single-error-correct, double-error-detect per 64-bit word."""

    @property
    def name(self) -> str:
        return "SECDED (ECC-DIMM like)"

    def storage_overhead_fraction(self) -> float:
        return 8.0 / 64.0

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        return 1

    def batch_kernel(self):
        from repro.ecc.batch_kernels import SECDEDBatchKernel

        return SECDEDBatchKernel(self.geometry)

    def _bits_per_word(self, cols: RangeMask) -> int:
        within = cols.mask & (_WORD_BITS - 1)
        return 1 << bin(within).count("1")

    def _share_word(self, a: RangeMask, b: RangeMask) -> bool:
        """Can the two column masks touch the same 64-bit word?"""
        word_low = _WORD_BITS - 1
        base_a, mask_a = a.base & ~word_low, a.mask | word_low
        base_b, mask_b = b.base & ~word_low, b.mask | word_low
        return (base_a ^ base_b) & ~(mask_a | mask_b) == 0

    # ------------------------------------------------------------------ #
    def _fatal_alone(self, fault: Fault) -> bool:
        return self._bits_per_word(fault.footprint.cols) > 1

    def _fatal_pair(self, a: Fault, b: Fault) -> bool:
        fa, fb = a.footprint, b.footprint
        if fa.covers(fb) or fb.covers(fa):
            return False  # nested faults add no new bad bits
        if not (fa.dies & fb.dies and fa.banks & fb.banks):
            return False
        if not fa.rows.intersects(fb.rows):
            return False
        return self._share_word(fa.cols, fb.cols)
