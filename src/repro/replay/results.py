"""Mergeable replay-campaign results (the co-simulation monoid).

:class:`ReplayResult` follows the :class:`ReliabilityResult` discipline
exactly: per-trial samples live in sorted lists, counts in plain sums,
campaign metadata must match bitwise for two shards to merge, and an
``identity()`` element makes any merge tree over the same shard set
byte-identical — which is what lets the workers-1-vs-4 harness cover
replay output.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import contracts
from repro.errors import MergeError
from repro.telemetry.registry import MetricsRegistry


@dataclass
class ReplayResult:
    """Aggregated reliability/performance/power outcome of replay trials.

    One trial = one sampled fault timeline replayed against the shared
    workload trace.  ``baseline_exec_cycles`` / ``baseline_energy_nj``
    describe the unperturbed run of the same trace and are identical for
    every shard (merge requires bitwise agreement).
    """

    label: str
    workload: str
    trials: int
    failures: int = 0
    stratum_weight: float = 1.0
    lifetime_hours: float = 0.0
    min_faults: int = 0
    requests_per_trial: int = 0
    baseline_exec_cycles: int = 0
    baseline_energy_nj: float = 0.0
    #: Per-trial perturbed execution time / active energy, kept sorted.
    exec_cycles: List[int] = field(default_factory=list)
    energy_nj: List[float] = field(default_factory=list)
    #: Hook-injected accesses and stall cycles, summed over trials.
    extra_requests: int = 0
    delay_cycles: int = 0
    #: Timeline event mix ("fault", "scrub", "dds_remap", ...).
    event_counts: Counter = field(default_factory=Counter)
    failure_times_hours: List[float] = field(default_factory=list)
    #: Per-trial mean thermal FIT multiplier (empty when feedback off).
    thermal_multipliers: List[float] = field(default_factory=list)
    metrics: Optional[MetricsRegistry] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Normalize to float so a result built from an int-valued config
        # serializes byte-identically to its JSON round trip.
        self.lifetime_hours = float(self.lifetime_hours)
        self.stratum_weight = float(self.stratum_weight)
        self.baseline_energy_nj = float(self.baseline_energy_nj)
        contracts.check_non_negative(self.trials, "trials")
        contracts.check_non_negative(self.failures, "failures")
        contracts.require(
            self.failures <= self.trials,
            "failures (%d) cannot exceed trials (%d)",
            self.failures,
            self.trials,
        )
        contracts.require(
            len(self.exec_cycles) == self.trials or not self.trials,
            "need one exec_cycles sample per trial (%d vs %d)",
            len(self.exec_cycles),
            self.trials,
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls) -> "ReplayResult":
        """The merge-neutral element (mirrors ``ReliabilityResult``)."""
        return cls(label="", workload="", trials=0)

    @property
    def is_identity(self) -> bool:
        return self.trials == 0 and not self.label and not self.workload

    def canonical(self) -> "ReplayResult":
        """Sample lists in sorted order — the unique shard-order-free form."""
        return ReplayResult(
            label=self.label,
            workload=self.workload,
            trials=self.trials,
            failures=self.failures,
            stratum_weight=self.stratum_weight,
            lifetime_hours=self.lifetime_hours,
            min_faults=self.min_faults,
            requests_per_trial=self.requests_per_trial,
            baseline_exec_cycles=self.baseline_exec_cycles,
            baseline_energy_nj=self.baseline_energy_nj,
            exec_cycles=sorted(self.exec_cycles),
            energy_nj=sorted(self.energy_nj),
            extra_requests=self.extra_requests,
            delay_cycles=self.delay_cycles,
            event_counts=Counter(self.event_counts),
            failure_times_hours=sorted(self.failure_times_hours),
            thermal_multipliers=sorted(self.thermal_multipliers),
            metrics=self.metrics,
        )

    def _merge_compatible(self, other: "ReplayResult") -> bool:
        # Bitwise equality on purpose: shards of one campaign share this
        # metadata exactly; "close" baselines would mean different traces.
        return (
            self.label == other.label
            and self.workload == other.workload
            and self.stratum_weight == other.stratum_weight  # reprolint: disable=REPRO003
            and self.lifetime_hours == other.lifetime_hours  # reprolint: disable=REPRO003
            and self.min_faults == other.min_faults
            and self.requests_per_trial == other.requests_per_trial
            and self.baseline_exec_cycles == other.baseline_exec_cycles
            and self.baseline_energy_nj == other.baseline_energy_nj  # reprolint: disable=REPRO003
        )

    def merge(self, other: "ReplayResult") -> "ReplayResult":
        """Combine two shards; commutative and associative."""
        if self.is_identity:
            return other.canonical()
        if other.is_identity:
            return self.canonical()
        if not self._merge_compatible(other):
            raise MergeError(
                f"cannot merge incompatible replay shards: "
                f"({self.label!r}, {self.workload!r}, "
                f"base={self.baseline_exec_cycles}) vs "
                f"({other.label!r}, {other.workload!r}, "
                f"base={other.baseline_exec_cycles})"
            )
        metrics: Optional[MetricsRegistry] = None
        if self.metrics is not None or other.metrics is not None:
            metrics = (self.metrics or MetricsRegistry()).merge(
                other.metrics or MetricsRegistry()
            )
        return ReplayResult(
            label=self.label,
            workload=self.workload,
            trials=self.trials + other.trials,
            failures=self.failures + other.failures,
            stratum_weight=self.stratum_weight,
            lifetime_hours=self.lifetime_hours,
            min_faults=self.min_faults,
            requests_per_trial=self.requests_per_trial,
            baseline_exec_cycles=self.baseline_exec_cycles,
            baseline_energy_nj=self.baseline_energy_nj,
            exec_cycles=sorted(self.exec_cycles + other.exec_cycles),
            energy_nj=sorted(self.energy_nj + other.energy_nj),
            extra_requests=self.extra_requests + other.extra_requests,
            delay_cycles=self.delay_cycles + other.delay_cycles,
            event_counts=self.event_counts + other.event_counts,
            failure_times_hours=sorted(
                self.failure_times_hours + other.failure_times_hours
            ),
            thermal_multipliers=sorted(
                self.thermal_multipliers + other.thermal_multipliers
            ),
            metrics=metrics,
        )

    # ------------------------------------------------------------------ #
    # JSON serialization (checkpoints, the joint report)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "label": self.label,
            "workload": self.workload,
            "trials": self.trials,
            "failures": self.failures,
            "stratum_weight": self.stratum_weight,
            "lifetime_hours": self.lifetime_hours,
            "min_faults": self.min_faults,
            "requests_per_trial": self.requests_per_trial,
            "baseline_exec_cycles": self.baseline_exec_cycles,
            "baseline_energy_nj": self.baseline_energy_nj,
            "exec_cycles": list(self.exec_cycles),
            "energy_nj": list(self.energy_nj),
            "extra_requests": self.extra_requests,
            "delay_cycles": self.delay_cycles,
            # Sorted: Counter iteration order depends on merge order.
            "event_counts": dict(sorted(self.event_counts.items())),
            "failure_times_hours": list(self.failure_times_hours),
        }
        if self.thermal_multipliers:
            # Only present with the thermal switch on, so thermal-off
            # output stays byte-identical to a feedback-free build.
            data["thermal_multipliers"] = list(self.thermal_multipliers)
        if self.metrics is not None:
            data["metrics"] = self.metrics.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReplayResult":
        return cls(
            label=str(data["label"]),
            workload=str(data["workload"]),
            trials=int(data["trials"]),
            failures=int(data["failures"]),
            stratum_weight=float(data["stratum_weight"]),
            lifetime_hours=float(data["lifetime_hours"]),
            min_faults=int(data["min_faults"]),
            requests_per_trial=int(data["requests_per_trial"]),
            baseline_exec_cycles=int(data["baseline_exec_cycles"]),
            baseline_energy_nj=float(data["baseline_energy_nj"]),
            exec_cycles=[int(c) for c in data["exec_cycles"]],
            energy_nj=[float(e) for e in data["energy_nj"]],
            extra_requests=int(data["extra_requests"]),
            delay_cycles=int(data["delay_cycles"]),
            event_counts=Counter(
                {str(k): int(v) for k, v in data["event_counts"].items()}
            ),
            failure_times_hours=[
                float(t) for t in data["failure_times_hours"]
            ],
            thermal_multipliers=[
                float(m) for m in data.get("thermal_multipliers", [])
            ],
            metrics=(
                MetricsRegistry.from_dict(data["metrics"])
                if data.get("metrics") is not None
                else None
            ),
        )

    # ------------------------------------------------------------------ #
    # Estimators
    # ------------------------------------------------------------------ #
    @property
    def failure_probability(self) -> float:
        """Importance-weighted per-lifetime failure probability."""
        if not self.trials:
            return float("nan")
        return self.stratum_weight * self.failures / self.trials

    @property
    def mean_slowdown(self) -> float:
        """Mean perturbed execution time over the unperturbed baseline."""
        if not self.trials or not self.baseline_exec_cycles:
            return float("nan")
        mean = math.fsum(float(c) for c in sorted(self.exec_cycles))
        return mean / self.trials / self.baseline_exec_cycles

    @property
    def worst_slowdown(self) -> float:
        if not self.trials or not self.baseline_exec_cycles:
            return float("nan")
        return max(self.exec_cycles) / self.baseline_exec_cycles

    @property
    def mean_energy_overhead(self) -> float:
        """Mean perturbed active energy over the baseline energy."""
        if not self.trials or self.baseline_energy_nj <= 0.0:
            return float("nan")
        mean = math.fsum(sorted(self.energy_nj))
        return mean / self.trials / self.baseline_energy_nj

    def summary(self) -> Dict[str, Any]:
        """Headline numbers for the joint report (JSON-safe)."""
        return {
            "label": self.label,
            "workload": self.workload,
            "trials": self.trials,
            "failures": self.failures,
            "failure_probability": self.failure_probability,
            "mean_slowdown": self.mean_slowdown,
            "worst_slowdown": self.worst_slowdown,
            "mean_energy_overhead": self.mean_energy_overhead,
            "extra_requests": self.extra_requests,
            "delay_cycles": self.delay_cycles,
        }
