"""Activity-weighted power attribution and the thermal FIT proxy.

The replay engine's feedback loop (echoing Cerberus-style cross-layer
coupling):

1. the unperturbed baseline run yields per-(channel, bank) activation
   counts (``PerfResult.bank_activations``);
2. activations (hence activation energy) are attributed to bank
   *positions*, summed over channels — the thermal column above a bank
   position spans the die;
3. the hottest position is assigned ``max_rise_c`` of temperature rise
   over ambient, others scale linearly with their activation share;
4. the classic reliability rule-of-thumb — FIT doubles per 10 °C —
   turns the rise into a per-bank-position FIT multiplier, consumed by
   :class:`~repro.faults.injector.ThermalFaultInjector` via
   ``EngineConfig.thermal_bank_fit``.

Everything is a pure function of integer activation counts, so the
multipliers are bitwise reproducible across workers and shards.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.stack.geometry import StackGeometry

#: Temperature rise (deg C) assigned to the most active bank position.
DEFAULT_MAX_RISE_C = 10.0

#: FIT doubles for every this many degrees of temperature rise.
FIT_DOUBLING_C = 10.0


def bank_position_activity(
    bank_activations: Sequence[Sequence[int]],
    geometry: StackGeometry,
) -> List[int]:
    """Total activations per bank position, summed over all channels."""
    per_position = [0] * geometry.banks_per_die
    for channel_counts in bank_activations:
        for bank, count in enumerate(channel_counts):
            per_position[bank % geometry.banks_per_die] += count
    return per_position


def thermal_bank_multipliers(
    bank_activations: Sequence[Sequence[int]],
    geometry: StackGeometry,
    max_rise_c: float = DEFAULT_MAX_RISE_C,
) -> Tuple[float, ...]:
    """Per-bank-position FIT multipliers from activity counts.

    The peak position gets ``2 ** (max_rise_c / FIT_DOUBLING_C)``; an
    idle position gets exactly 1.0.  An all-idle activity map (e.g. an
    empty trace) degenerates to all-ones — no feedback.
    """
    per_position = bank_position_activity(bank_activations, geometry)
    peak = max(per_position) if per_position else 0
    if peak <= 0:
        return tuple(1.0 for _ in per_position)
    return tuple(
        2.0 ** ((max_rise_c * count / peak) / FIT_DOUBLING_C)
        for count in per_position
    )
