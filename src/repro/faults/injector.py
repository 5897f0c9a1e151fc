"""Monte-Carlo fault injection (the arrival half of a FaultSim-like engine).

Fault arrivals form a Poisson process whose intensity is the total FIT of
the device: the sum of the per-die DRAM rates (Table I) over all dies plus
the TSV device FIT.  Each arrival is attributed to a (kind, permanence,
location) by sampling proportionally to the individual rates, and placed
uniformly at random inside the structure it affects — exactly the procedure
described for FaultSim [10].

Each placement is drawn as a :class:`~repro.faults.types.FaultSpec`
(importable from here too, where the batch trial kernel takes it): the
batch path reads its masks directly, and the scalar path turns it into a
``Fault`` with :meth:`FaultSpec.build`.  The shapes themselves live only
in :meth:`FaultSpec.footprint_masks`.

For very reliable schemes (Citadel's failure probability is ~1e-6 per
lifetime) naive sampling wastes almost every trial on empty lifetimes, so
:meth:`FaultInjector.sample_lifetime` supports *stratified* sampling: the
number of faults ``N`` is drawn conditioned on ``N >= min_faults`` and the
trial carries the importance weight ``P(N >= min_faults)``.  Failure
probability estimates then remain unbiased provided failures require at
least ``min_faults`` faults (e.g. two for any single-fault-correcting
scheme).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import contracts
from repro.errors import ConfigurationError
from repro.faults.rates import FailureRates
from repro.faults.types import (
    WORD_BITS,
    Fault,
    FaultKind,
    FaultSpec,
    Permanence,
    check_dtsv_layout,
)
from repro.rng import make_rng
from repro.stack.geometry import LIFETIME_HOURS, StackGeometry

_FIT_TO_PER_HOUR = 1e-9

#: Log-domain terms more than this far below the running maximum are
#: beyond double precision and can be dropped from a log-sum-exp.
_LOG_NEGLIGIBLE = 60.0


def _poisson_log_pmf(lam: float, log_lam: float, j: int) -> float:
    return -lam + j * log_lam - math.lgamma(j + 1)


def _poisson_tail_log_space(lam: float, min_faults: int) -> float:
    """P(N >= min_faults) for Poisson(lam) when ``exp(-lam)`` underflows.

    For ``lam >~ 745`` every term of the direct CDF summation derives from
    ``exp(-lam) == 0.0`` and the survival collapses to 1.0 regardless of
    ``min_faults``.  Work in log space instead: log-sum-exp whichever side
    of the distribution is the *small* one (the CDF prefix below the mean,
    the tail above it) and recover the survival through ``expm1``/``exp``.
    """
    log_lam = math.log(lam)
    if min_faults <= lam:
        # The prefix CDF is the small quantity.  Its terms increase
        # monotonically for j < lam, so sum downward from the largest and
        # stop once further terms cannot move a double.
        peak = _poisson_log_pmf(lam, log_lam, min_faults - 1)
        total = 0.0
        for j in range(min_faults - 1, -1, -1):
            log_term = _poisson_log_pmf(lam, log_lam, j)
            if log_term < peak - _LOG_NEGLIGIBLE:
                break
            total += math.exp(log_term - peak)
        log_cdf = peak + math.log(total)
        if log_cdf >= 0.0:  # pure rounding: CDF cannot exceed 1
            return 0.0
        return min(1.0, -math.expm1(log_cdf))
    # The tail is the small quantity; its terms decrease monotonically
    # once j > lam, so sum forward until negligible.
    peak = _poisson_log_pmf(lam, log_lam, min_faults)
    total = 0.0
    j = min_faults
    while True:
        log_term = _poisson_log_pmf(lam, log_lam, j)
        if log_term < peak - _LOG_NEGLIGIBLE:
            break
        total += math.exp(log_term - peak)
        j += 1
    log_survival = peak + math.log(total)
    if log_survival >= 0.0:
        return 1.0
    return math.exp(log_survival)


@dataclass(frozen=True)
class _RateEntry:
    kind: FaultKind
    permanence: Permanence
    rate_per_hour: float


class FaultInjector:
    """Samples the fault history of one stack over a lifetime."""

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.geometry = geometry
        self.rates = rates
        self.rng = make_rng(rng, seed)
        self._entries = self._build_entries()
        self._total_rate = sum(e.rate_per_hour for e in self._entries)
        self._weights = [e.rate_per_hour for e in self._entries]

    # ------------------------------------------------------------------ #
    def _build_entries(self) -> List[_RateEntry]:
        geometry, rates = self.geometry, self.rates
        num_dies = (
            geometry.total_dies
            if rates.include_metadata_die
            else geometry.data_dies
        )
        entries: List[_RateEntry] = []
        for kind, (transient, permanent) in rates.die_fit.items():
            for permanence, fit in (
                (Permanence.TRANSIENT, transient),
                (Permanence.PERMANENT, permanent),
            ):
                if fit > 0:
                    entries.append(
                        _RateEntry(kind, permanence, fit * num_dies * _FIT_TO_PER_HOUR)
                    )
        if rates.tsv_device_fit > 0:
            check_dtsv_layout(geometry)
            entries.append(
                _RateEntry(
                    FaultKind.DATA_TSV,  # refined into DTSV/ATSV when placed
                    Permanence.PERMANENT,
                    rates.tsv_device_fit * _FIT_TO_PER_HOUR,
                )
            )
        if not entries:
            raise ConfigurationError("all failure rates are zero")
        return entries

    # ------------------------------------------------------------------ #
    @property
    def total_rate_per_hour(self) -> float:
        return self._total_rate

    def expected_faults(self, lifetime_hours: float = LIFETIME_HOURS) -> float:
        return self._total_rate * lifetime_hours

    def prob_at_least(
        self, min_faults: int, lifetime_hours: float = LIFETIME_HOURS
    ) -> float:
        """P(N >= min_faults) for the Poisson fault count.

        Small means use the direct CDF summation — bitwise-identical to
        the historical weights that golden fixtures and checkpoints embed.
        Once ``exp(-lam)`` underflows (lam >~ 745, e.g. Cerberus-style
        cross-layer stress sweeps) the direct sum degenerates to 1.0 for
        every ``min_faults``; those means switch to a log-space
        evaluation (:func:`_poisson_tail_log_space`).
        """
        lam = self.expected_faults(lifetime_hours)
        if min_faults <= 0:
            return 1.0
        term = math.exp(-lam)
        if term > 0.0:
            cdf = 0.0
            for k in range(min_faults):
                cdf += term
                term *= lam / (k + 1)
            return max(0.0, 1.0 - cdf)
        return _poisson_tail_log_space(lam, min_faults)

    # ------------------------------------------------------------------ #
    def sample_count(
        self,
        lifetime_hours: float = LIFETIME_HOURS,
        min_faults: int = 0,
    ) -> Tuple[int, float]:
        """Sample the lifetime fault count ``N`` (optionally conditioned
        on ``N >= min_faults``); returns ``(count, stratum weight)``."""
        lam = self.expected_faults(lifetime_hours)
        if min_faults <= 0:
            return self._sample_poisson(lam), 1.0
        return (
            self._sample_truncated_poisson(lam, min_faults),
            self.prob_at_least(min_faults, lifetime_hours),
        )

    def sample_kinds(self, count: int) -> List[Fault]:
        """``count`` faults with kind/permanence/placement but no arrival
        time yet (the time-independent half of the arrival process)."""
        geometry = self.geometry
        return [self._sample_spec().build(geometry) for _ in range(count)]

    @staticmethod
    def place_at(faults: List[Fault], times: List[float]) -> List[Fault]:
        """Attach arrival times (sorted) to sampled faults.

        Kinds are exchangeable and independent of times, so zipping the
        kind draws onto the *sorted* times in order preserves the joint
        arrival distribution — and lets alternative time proposals
        (``repro.reliability.sampling``) reuse the kind sampler as-is.
        """
        contracts.require(
            len(faults) == len(times),
            "place_at needs one arrival time per fault: "
            "%d faults vs %d times",
            len(faults),
            len(times),
        )
        ordered = sorted(times)
        return [fault.at_time(t) for fault, t in zip(faults, ordered)]

    def sample_lifetime(
        self,
        lifetime_hours: float = LIFETIME_HOURS,
        min_faults: int = 0,
    ) -> Tuple[List[Fault], float]:
        """Sample one lifetime's fault history.

        Returns ``(faults, weight)`` where ``faults`` are sorted by arrival
        time and ``weight`` is the probability mass of the stratum the
        sample was drawn from (1.0 for unconditioned sampling).
        """
        count, weight = self.sample_count(lifetime_hours, min_faults)
        faults = self.sample_kinds(count)
        times = [self.rng.uniform(0.0, lifetime_hours) for _ in range(count)]
        return self.place_at(faults, times), weight

    # ------------------------------------------------------------------ #
    def _sample_poisson(self, lam: float) -> int:
        """Knuth's algorithm; lam is a handful of faults at most."""
        threshold = math.exp(-lam)
        count, product = 0, self.rng.random()
        while product > threshold:
            count += 1
            product *= self.rng.random()
        return count

    def _sample_truncated_poisson(self, lam: float, minimum: int) -> int:
        """Sample N ~ Poisson(lam) conditioned on N >= minimum."""
        if lam <= 0:
            raise ConfigurationError(
                "cannot condition on faults with a zero total rate"
            )
        term = math.exp(-lam)
        if term == 0.0:
            raise ConfigurationError(
                f"Poisson mean {lam:g} is too large for inverse-CDF "
                "conditioning: exp(-mean) underflows, so every "
                "conditioned draw would silently return the minimum and "
                "bias the stratified estimator"
            )
        cdf = 0.0
        for k in range(minimum):
            cdf += term
            term *= lam / (k + 1)
        tail_mass = max(1e-300, 1.0 - cdf)
        u = self.rng.random() * tail_mass
        k = minimum
        # ``term`` is now pmf(minimum).
        acc = 0.0
        while True:
            acc += term
            if u <= acc:
                return k
            if term < 1e-300:
                raise ConfigurationError(
                    f"truncated-Poisson tail mass underflowed at mean "
                    f"{lam:g}, minimum {minimum}: the conditioned sampler "
                    "cannot place the draw without biasing the stratum"
                )
            k += 1
            term *= lam / k

    # ------------------------------------------------------------------ #
    def sample_specs(self, count: int) -> List[FaultSpec]:
        """``count`` fault specs — the same draws :meth:`sample_kinds`
        consumes, without constructing ``Fault`` objects.  The batch trial
        kernel samples through this so its RNG stream stays bitwise-
        compatible with the scalar path."""
        return [self._sample_spec() for _ in range(count)]

    def _sample_spec(self) -> FaultSpec:
        entry = self.rng.choices(self._entries, weights=self._weights, k=1)[0]
        if entry.kind.is_tsv:
            return self._sample_tsv_spec()
        return self._sample_dram_spec(entry.kind, entry.permanence)

    def _sample_die(self) -> int:
        num_dies = (
            self.geometry.total_dies
            if self.rates.include_metadata_die
            else self.geometry.data_dies
        )
        return self.rng.randrange(num_dies)

    def _sample_bank(self) -> int:
        """Bank placement for a die-local fault.

        Uniform here; :class:`ThermalFaultInjector` reweights it by the
        per-bank thermal multipliers.  The call consumes exactly one
        ``randrange`` draw either way.
        """
        return self.rng.randrange(self.geometry.banks_per_die)

    def _sample_dram_spec(
        self, kind: FaultKind, permanence: Permanence
    ) -> FaultSpec:
        geometry, rng = self.geometry, self.rng
        die = self._sample_die()
        bank = self._sample_bank()
        # Table I's "single bank" rate: transposed to subarray failures
        # unless the 'full' ablation is selected (§II-B, Figure 17).
        if (
            kind is FaultKind.BANK
            and self.rates.bank_fault_granularity == "subarray"
        ):
            kind = FaultKind.SUBARRAY
        a = b = 0
        if kind is FaultKind.BIT:
            a = rng.randrange(geometry.rows_per_bank)
            b = rng.randrange(geometry.row_bits)
        elif kind is FaultKind.WORD:
            a = rng.randrange(geometry.rows_per_bank)
            b = rng.randrange(max(1, geometry.row_bits // WORD_BITS))
        elif kind is FaultKind.COLUMN:
            a = rng.randrange(geometry.row_bits)
        elif kind is FaultKind.ROW:
            a = rng.randrange(geometry.rows_per_bank)
        elif kind is FaultKind.SUBARRAY:
            a = rng.randrange(geometry.subarrays_per_bank)
        elif kind is not FaultKind.BANK:
            raise ConfigurationError(f"unsupported DRAM fault kind: {kind}")
        return FaultSpec(kind, permanence, die, bank, a, b)

    def _sample_tsv_spec(self) -> FaultSpec:
        """TSV faults land on a uniformly random TSV of a random channel.

        The DTSV/ATSV split is proportional to the TSV populations
        (256:24 per channel in the baseline geometry).
        """
        geometry, rng = self.geometry, self.rng
        channel = rng.randrange(geometry.channels)
        num_dtsv = geometry.data_tsvs_per_channel
        num_atsv = geometry.addr_tsvs_per_channel
        pick = rng.randrange(num_dtsv + num_atsv)
        if pick < num_dtsv:
            return FaultSpec(
                FaultKind.DATA_TSV, Permanence.PERMANENT, channel, -1, pick
            )
        return FaultSpec(
            FaultKind.ADDR_TSV,
            Permanence.PERMANENT,
            channel,
            -1,
            pick - num_dtsv,
            rng.randrange(2),
        )


class ThermalFaultInjector(FaultInjector):
    """Fault injection with per-bank thermal FIT multipliers.

    The replay engine's thermal proxy maps bank activity to a temperature
    rise and hence a FIT multiplier per bank *position* (applied to every
    die — the thermal column above a hot bank spans the stack).  Die-local
    DRAM rates scale by the mean multiplier; bank placement becomes
    multiplier-weighted; TSV rates are geometry-wide and stay untouched.

    ``prob_at_least`` reads the scaled total rate, so the importance
    weight the engine recomputes from this injector is bitwise-identical
    to the weight attached at sampling time — the engine's weight
    contract survives the subclassing.
    """

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        multipliers: Tuple[float, ...] = (),
    ) -> None:
        plan = tuple(float(m) for m in multipliers)
        if len(plan) != geometry.banks_per_die:
            raise ConfigurationError(
                f"need one multiplier per bank position "
                f"({geometry.banks_per_die}), got {len(plan)}"
            )
        if any(m <= 0.0 for m in plan):
            raise ConfigurationError("thermal multipliers must be positive")
        self.multipliers = plan
        self._mean_multiplier = math.fsum(plan) / len(plan)
        super().__init__(geometry, rates, rng, seed)

    def _build_entries(self) -> List[_RateEntry]:
        entries = []
        for entry in super()._build_entries():
            if entry.kind.is_tsv:
                entries.append(entry)
            else:
                entries.append(
                    _RateEntry(
                        entry.kind,
                        entry.permanence,
                        entry.rate_per_hour * self._mean_multiplier,
                    )
                )
        return entries

    def _sample_bank(self) -> int:
        banks = range(self.geometry.banks_per_die)
        return self.rng.choices(banks, weights=self.multipliers, k=1)[0]
