"""Tri-Dimensional Parity (3DP) — the correction engine of Citadel (§VI).

3DP maintains XOR parity over three orthogonal partitions of the stack:

* **Dimension 1** (Figure 10): for every row index, parity across all banks
  of all dies, accumulated into a parity bank carved out of the data banks
  (1/64 of capacity = 1.6%).  Group of a bit = ``(row, col)``.
* **Dimension 2** (Figure 11): parity across all rows of all banks within a
  die, one parity row per die, kept at the memory controller.  Group of a
  bit = ``(die, col)``.
* **Dimension 3** (Figure 11): parity across all rows of one bank index
  across dies, one parity row per bank index, kept at the memory
  controller.  Group of a bit = ``(bank, col)``.

Correction is modeled as *iterative peeling* (erasure decoding of the
product code): a fault is recoverable through dimension ``d`` when its
footprint places at most one faulty bit in each ``d``-group — i.e. it does
not **self-alias** in ``d`` — and no other live fault intersects any of its
``d``-groups.  Peeled faults are corrected and removed; if peeling empties
the live set, the fault combination is correctable.  This reproduces the
paper's behavior: dimensions 2/3 isolate small faults, after which
dimension 1 corrects a concurrent column or bank failure; faults that
alias in every dimension (e.g. unswapped TSV faults, or two overlapping
bank failures) are data loss.

Self-aliasing rules per dimension:

* dim 1: any multi-bank fault repeats a ``(row, col)`` coordinate across
  banks (TSV faults);
* dim 2: any fault covering more than one row, or more than one bank of a
  die, puts >= 2 bits in a ``(die, col)`` group (column/bank/TSV faults);
* dim 3: any fault covering more than one row or more than one die does
  the same for ``(bank, col)`` groups.

``ParityND`` generalizes to the 1DP/2DP ablations of Figure 14.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro import contracts
from repro.ecc import batch_kernels
from repro.ecc.base import CorrectionModel
from repro.errors import ConfigurationError
from repro.faults.types import Fault
from repro.stack.geometry import StackGeometry


class ParityND(CorrectionModel):
    """N-dimensional parity with peeling correction (1DP/2DP/3DP)."""

    def __init__(
        self,
        geometry: StackGeometry,
        dimensions: FrozenSet[int] = frozenset({1, 2, 3}),
    ) -> None:
        super().__init__(geometry)
        dims = frozenset(dimensions)
        if not dims or not dims <= {1, 2, 3}:
            raise ConfigurationError(
                f"dimensions must be a non-empty subset of {{1,2,3}}, got {dims}"
            )
        self.dimensions = dims
        self._sorted_dims = sorted(dims)
        self.parity_bank = (geometry.data_dies - 1, geometry.banks_per_die - 1)

    @property
    def name(self) -> str:
        return f"{len(self.dimensions)}DP" + (
            "" if self.dimensions == frozenset(range(1, len(self.dimensions) + 1))
            else f" dims={sorted(self.dimensions)}"
        )

    def storage_overhead_fraction(self) -> float:
        """DRAM overhead of the enabled dimensions.

        Dimension 1 costs one bank out of all data banks; dimensions 2/3
        live in controller SRAM (17 rows = 34 KB) and cost no DRAM.
        """
        return (1.0 / self.geometry.data_banks) if 1 in self.dimensions else 0.0

    def sram_overhead_bytes(self) -> int:
        """Controller SRAM for dims 2 and 3 (§VI-C)."""
        total = 0
        if 2 in self.dimensions:
            total += self.geometry.total_dies * self.geometry.row_bytes
        if 3 in self.dimensions:
            total += self.geometry.banks_per_die * self.geometry.row_bytes
        return total

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        # Unswapped TSV faults self-alias in every dimension and are fatal
        # alone; otherwise at least two faults must collide.
        return 1 if tsv_possible else 2

    def batch_kernel(self) -> "ParityPeelBatchKernel":
        return ParityPeelBatchKernel(self.geometry, self._sorted_dims)

    # ------------------------------------------------------------------ #
    # Peeling
    # ------------------------------------------------------------------ #
    def _is_peeling_fault(self, fault: Fault) -> bool:
        """Faults 3DP decodes: anything touching at least one data die.

        Metadata-die-only faults degrade CRC/sparing resources and are
        accounted for by the DDS model, not by peeling.
        """
        return any(
            not self.geometry.is_metadata_die(d) for d in fault.footprint.dies
        )

    def is_uncorrectable(self, faults: Sequence[Fault]) -> bool:
        return bool(self.unpeelable(faults))

    def unpeelable(self, faults: Sequence[Fault]) -> List[Fault]:
        """The subset of faults that peeling cannot correct.

        Faults in the metadata die are ignored: 3DP's dimensions span the
        data dies (including the parity bank); metadata-die faults degrade
        CRC/sparing resources and are accounted for by the DDS model.
        """
        live = [f for f in faults if self._is_peeling_fault(f)]
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("parity/checks")
        survivors, events = self._peel(live)
        if metrics is not None:
            # Correction-path mix (Fig. 13/14 attribution): one count per
            # peel event, keyed by the dimension that recovered the fault
            # and by the fault kind.
            for event_name, count in sorted(events.items()):
                metrics.inc(event_name, count)
            if survivors:
                metrics.inc("parity/uncorrectable")
                cause = "+".join(sorted(f.kind.value for f in survivors))
                metrics.inc(f"parity/uncorrectable_cause/{cause}")
        if contracts.enabled():
            original = {f.uid for f in faults}
            contracts.ensure(
                all(f.uid in original for f in survivors),
                "peeling produced survivors absent from the input set",
            )
        return survivors

    def _peel(
        self, live: List[Fault]
    ) -> Tuple[List[Fault], Dict[str, int]]:
        """Iterative peeling of ``live``; returns (survivors, events).

        Every round evaluates each fault against the round's starting
        set, so the outcome is independent of fault order.
        """
        events: Dict[str, int] = {}
        changed = True
        while changed and live:
            changed = False
            survivors: List[Fault] = []
            for fault in live:
                others = [g for g in live if g.uid != fault.uid]
                dim = self._peel_dimension(fault, others)
                if dim is not None:
                    changed = True
                    for event_name in (
                        f"parity/corrected/dim{dim}",
                        f"parity/corrected_kind/{fault.kind.value}",
                    ):
                        events[event_name] = events.get(event_name, 0) + 1
                else:
                    survivors.append(fault)
            live = survivors
        return live, events

    def _peel_dimension(
        self, fault: Fault, others: Sequence[Fault]
    ) -> Optional[int]:
        """Lowest dimension able to peel ``fault``, or None.

        Dimensions are tried in ascending order, mirroring the paper's
        decode order (dim-1 parity bank first), so the telemetry's
        per-dimension correction counts attribute each recovery to the
        cheapest dimension that could have performed it.
        """
        for dim in self._sorted_dims:
            if not self._self_alias(fault, dim) and not any(
                self._alias(fault, other, dim) for other in others
            ):
                return dim
        return None

    # ------------------------------------------------------------------ #
    def _self_alias(self, fault: Fault, dim: int) -> bool:
        fp = fault.footprint
        if dim == 1:
            return fp.spans_multiple_banks()
        if dim == 2:
            return fp.spans_multiple_rows() or len(fp.banks) > 1
        return fp.spans_multiple_rows() or len(fp.dies) > 1

    def _alias(self, a: Fault, b: Fault, dim: int) -> bool:
        """Do ``a`` and ``b`` place two *distinct* bad bits in one group?

        Parity groups count physical bits, so two faults corrupting the
        same bit (e.g. a bit fault nested inside a failed subarray) do not
        alias — there is still only one bad bit in the group.
        """
        fa, fb = a.footprint, b.footprint
        if dim == 1:
            # Group (row, col); one bit per (die, bank) instance.
            if not (fa.rows.intersects(fb.rows) and fa.cols.intersects(fb.cols)):
                return False
            same_single_instance = (
                fa.dies == fb.dies
                and fa.banks == fb.banks
                and fa.num_bank_instances == 1
            )
            return not same_single_instance
        if dim == 2:
            # Group (die, col); one bit per (bank, row).
            if not (fa.dies & fb.dies and fa.cols.intersects(fb.cols)):
                return False
            same_single_bit = (
                fa.banks == fb.banks
                and len(fa.banks) == 1
                and fa.rows == fb.rows
                and fa.rows.is_singleton()
            )
            return not same_single_bit
        # Group (bank, col); one bit per (die, row).
        if not (fa.banks & fb.banks and fa.cols.intersects(fb.cols)):
            return False
        same_single_bit = (
            fa.dies == fb.dies
            and len(fa.dies) == 1
            and fa.rows == fb.rows
            and fa.rows.is_singleton()
        )
        return not same_single_bit


class ParityPeelBatchKernel(batch_kernels.BatchCorrectionKernel):
    """Array-shaped round-one peelability check for :class:`ParityND`.

    A trial is proven correctable when *every* peeling fault has at least
    one enabled dimension in which it neither self-aliases nor aliases
    with any possibly-co-live peeling fault: then every live subset peels
    completely in its first round (peeling evaluates each fault against
    the round's starting set, and both the self- and pair-alias
    predicates are monotone under subsets), so no prefix of the trial is
    ever uncorrectable.  Trials needing multi-round peeling — or
    containing unswapped TSV faults, which self-alias everywhere — come
    back ``False`` and re-run on the exact scalar peeler.

    Metadata-die faults are excluded exactly like ``unpeelable`` excludes
    them (they are DDS bookkeeping, not peeling work).
    """

    def __init__(self, geometry: StackGeometry, dims: Sequence[int]) -> None:
        self.geometry = geometry
        self.dims = tuple(dims)

    def survives(self, batch: "batch_kernels.TrialBatch") -> "np.ndarray":
        geometry = self.geometry
        multi_bank = geometry.banks_per_die > 1
        # All sampled faults touch a single die; ``die`` is the channel
        # (== die) for TSV faults, so the metadata-die filter is uniform.
        peeling = batch.die < geometry.data_dies
        first, second, colive = batch.pairs()
        consider = colive & peeling[first] & peeling[second]
        ok = np.zeros(batch.n_faults, dtype=bool)
        for dim in self.dims:
            ok |= ~self._self_alias(batch, dim, multi_bank) & ~self._has_alias(
                batch, dim, first, second, consider
            )
        return batch.trials_where_none(peeling & ~ok)

    # -------------------------------------------------------------- #
    def _self_alias(
        self, batch: "batch_kernels.TrialBatch", dim: int, multi_bank: bool
    ) -> "np.ndarray":
        spans_banks = batch.is_tsv & multi_bank
        spans_rows = batch.row_mask != 0
        if dim == 1:
            return spans_banks
        if dim == 2:
            return spans_rows | spans_banks
        return spans_rows  # dim 3: every sampled fault is single-die

    def _has_alias(
        self,
        batch: "batch_kernels.TrialBatch",
        dim: int,
        first: "np.ndarray",
        second: "np.ndarray",
        consider: "np.ndarray",
    ) -> "np.ndarray":
        """Per-fault mask: aliases with some co-live peeling fault in ``dim``."""
        if not first.size:
            return np.zeros(batch.n_faults, dtype=bool)
        alias = self._alias_pairs(batch, dim, first, second) & consider
        hits = np.bincount(
            first[alias], minlength=batch.n_faults
        ) + np.bincount(second[alias], minlength=batch.n_faults)
        return hits > 0

    def _alias_pairs(
        self,
        batch: "batch_kernels.TrialBatch",
        dim: int,
        first: "np.ndarray",
        second: "np.ndarray",
    ) -> "np.ndarray":
        """Vector mirror of ``ParityND._alias`` for single-die faults."""
        die_eq = batch.die[first] == batch.die[second]
        single_instance = ~batch.is_tsv[first] | (
            self.geometry.banks_per_die == 1
        )
        if dim == 1:
            overlap = batch_kernels.rows_intersect(
                batch, first, second
            ) & batch_kernels.cols_intersect(batch, first, second)
            same_single_instance = (
                die_eq
                & batch_kernels.banks_equal(batch, first, second)
                & single_instance
            )
            return overlap & ~same_single_instance
        rows_same_singleton = (
            (batch.row_mask[first] == 0)
            & (batch.row_mask[second] == 0)
            & (batch.row_base[first] == batch.row_base[second])
        )
        if dim == 2:
            overlap = die_eq & batch_kernels.cols_intersect(
                batch, first, second
            )
            same_single_bit = (
                batch_kernels.banks_equal(batch, first, second)
                & single_instance
                & rows_same_singleton
            )
            return overlap & ~same_single_bit
        # dim 3: group (bank, col), one bit per (die, row).
        overlap = batch_kernels.banks_intersect(
            batch, first, second
        ) & batch_kernels.cols_intersect(batch, first, second)
        same_single_bit = die_eq & rows_same_singleton
        return overlap & ~same_single_bit


def make_1dp(geometry: StackGeometry) -> ParityND:
    return ParityND(geometry, frozenset({1}))


def make_2dp(geometry: StackGeometry) -> ParityND:
    return ParityND(geometry, frozenset({1, 2}))


def make_3dp(geometry: StackGeometry) -> ParityND:
    return ParityND(geometry, frozenset({1, 2, 3}))
