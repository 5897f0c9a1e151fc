"""TSV (through-silicon via) organization of one channel (§V-A).

Each channel owns ``data_tsvs_per_channel`` data TSVs (DTSVs) and
``addr_tsvs_per_channel`` address/command TSVs (ATSVs), shared by all banks
of its die — which is why a TSV fault is a *multi-bank* fault.  Two
redundant control TSVs (assumed fault-free, per the paper's footnote) load
the TSV Redirection Register.

TSV-Swap designates evenly-spaced DTSVs as *stand-by* TSVs: their payload
is replicated in the per-line metadata (8 bits for 4 stand-by TSVs at
burst length 2), so they can be rewired to replace any faulty TSV without
data loss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro import contracts
from repro.errors import ConfigurationError
from repro.stack.geometry import StackGeometry


class TSVClass(enum.Enum):
    DATA = "data"
    ADDRESS = "address"


@dataclass(frozen=True, order=True)
class TSVId:
    """Identity of one TSV within the stack."""

    channel: int
    tsv_class: TSVClass
    index: int

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.channel, "channel")
        contracts.check_non_negative(self.index, "index")


def validate_tsv(geometry: StackGeometry, tsv: TSVId) -> None:
    if not 0 <= tsv.channel < geometry.channels:
        raise ConfigurationError(
            f"channel {tsv.channel} out of range [0, {geometry.channels})"
        )
    limit = (
        geometry.data_tsvs_per_channel
        if tsv.tsv_class is TSVClass.DATA
        else geometry.addr_tsvs_per_channel
    )
    if not 0 <= tsv.index < limit:
        raise ConfigurationError(
            f"{tsv.tsv_class.value} TSV index {tsv.index} out of range [0, {limit})"
        )


def standby_dtsv_indices(geometry: StackGeometry, count: int = 4) -> List[int]:
    """Indices of the predesignated stand-by DTSVs.

    The paper designates DTSV-0, DTSV-64, DTSV-128 and DTSV-192 from the
    pool of 256 (§V-C1): evenly spaced so that each stand-by TSV replicates
    a distinct, aligned slice of the line (bits 0, 64, 128, ..., 448).
    """
    num = geometry.data_tsvs_per_channel
    if not 0 < count <= num:
        raise ConfigurationError(
            f"stand-by count {count} out of range (0, {num}]"
        )
    if num % count:
        raise ConfigurationError(
            f"stand-by count {count} must divide the DTSV pool size {num}"
        )
    stride = num // count
    return [i * stride for i in range(count)]
