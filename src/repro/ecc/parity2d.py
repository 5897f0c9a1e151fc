"""2D error coding — the in-bank product-code comparator (§VIII-E).

2D-ECC (Kim et al., MICRO-40) keeps horizontal per-word check bits and
vertical (column) parity inside each bank, correcting multi-bit faults
whose row and column syndromes can be intersected.  Because all check
state lives *in the protected bank*, it only covers small-granularity
faults:

* a single bit/word/row/column fault within a bank is correctable (a row
  is one bad row per column group; a column is one bad bit per word);
* an *area* fault — many rows x many columns, i.e. a subarray or a whole
  bank — floods both syndrome dimensions and is fatal ("2D-ECC only
  protects against small granularity faults (32x32 cells)", §VIII-E);
* TSV faults hit every bank of a die and are fatal;
* two concurrent faults in the same bank whose row ranges or column
  ranges intersect produce ambiguous syndromes and are fatal.

The paper reports 3DP achieving ~130x higher resilience than 2D-ECC with
a fraction of the storage (1.6% vs 25%); the dominant 2D-ECC killer is
the subarray failure mode.
"""

from __future__ import annotations

from repro.ecc.base import PairwiseModel
from repro.faults.types import Fault, FaultKind


class TwoDimECC(PairwiseModel):
    """In-bank horizontal + vertical coding (2D-ECC)."""

    #: Correction tile of the 2D code (32x32 cells, §VIII-E).
    TILE = 32

    @property
    def name(self) -> str:
        return "2D-ECC (in-bank product code)"

    def storage_overhead_fraction(self) -> float:
        return 0.25  # the paper cites 25% for prior 2D schemes (§I, §VIII-E)

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        return 1

    def batch_kernel(self):
        from repro.ecc.batch_kernels import TwoDimBatchKernel

        return TwoDimBatchKernel(self.geometry, self.TILE)

    # ------------------------------------------------------------------ #
    def _fatal_alone(self, fault: Fault) -> bool:
        fp = fault.footprint
        if fault.kind is FaultKind.BANK or fp.spans_multiple_banks():
            return True
        # Area faults (subarray/bank scale) flood both syndrome
        # dimensions at once.
        return fp.num_rows > self.TILE and fp.num_cols > self.TILE

    def _fatal_pair(self, a: Fault, b: Fault) -> bool:
        fa, fb = a.footprint, b.footprint
        if fa.covers(fb) or fb.covers(fa):
            return False  # nested faults add no new bad bits
        if not (fa.dies & fb.dies and fa.banks & fb.banks):
            return False
        return fa.rows.intersects(fb.rows) or fa.cols.intersects(fb.cols)
