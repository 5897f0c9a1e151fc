"""Job model for the campaign service.

A :class:`CampaignSpec` is the validated, *canonical* description of one
campaign — exactly the knobs ``repro reliability`` and ``repro replay``
expose (scheme, trials, TSV FIT, mitigations, seed, shard size, replay
workload) plus a ``scale`` divisor for smoke-sized runs and optional
geometry overrides.  :meth:`CampaignSpec.runner` is the one place a
campaign runner is built, for the CLI and the service alike.
Canonicalization matters because the result store is content-addressed:
two submissions describe *the same campaign* iff their canonical JSON
documents are byte-identical, so :meth:`CampaignSpec.spec_hash` is the
store key and the dedupe key for in-flight jobs.

Execution parameters that provably do not change the merged
:class:`~repro.reliability.results.ReliabilityResult` — the worker
count, priority, retry budget — are deliberately *not* part of the spec:
they live on the :class:`Job`, so a 1-worker and an 8-worker submission
of the same campaign share one cache entry.

A :class:`Job` is one submission's lifecycle:
``queued -> running -> done | failed | cancelled``, with
``attempts``/``max_retries`` bookkeeping for the scheduler's
retry-with-backoff loop and a ``cache_hit`` flag recording whether the
result came from the store (or from piggybacking on an identical
in-flight job) rather than a fresh execution.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro import contracts
from repro.errors import ConfigurationError, SpecError
from repro.faults.rates import FailureRates
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import DEFAULT_SHARD_SIZE, ParallelLifetimeRunner
from repro.reliability.sampling import SAMPLING_METHODS
from repro.replay import ReplayCampaignRunner, ReplayConfig
from repro.schemes import SCHEMES
from repro.stack.geometry import StackGeometry
from repro.stack.tsv import standby_dtsv_indices
from repro.workloads.profiles import WORKLOADS

SPEC_SCHEMA_VERSION = 1

#: TSV-Swap stand-by budget implied by the ``citadel`` scheme.  Applied
#: only in :meth:`CampaignSpec.__post_init__`; the CLI builds its
#: campaigns from specs too, so service and CLI runs of ``citadel``
#: hash and run identically.
CITADEL_DEFAULT_STANDBY_TSVS = 4

#: Geometry override keys a spec may carry (``StackGeometry`` fields).
GEOMETRY_FIELDS: Tuple[str, ...] = tuple(
    sorted(StackGeometry.__dataclass_fields__)
)

_SPEC_FIELDS = (
    "scheme",
    "trials",
    "scale",
    "tsv_fit",
    "tsv_swap",
    "dds",
    "scrub_hours",
    "seed",
    "shard_size",
    "modes",
    "telemetry",
    "sampling",
    "target_ci_width",
    "geometry",
    "mode",
    "workload",
    "requests",
    "replay_cores",
    "thermal",
)

#: Campaign kinds a spec may describe.
SPEC_MODES = ("reliability", "replay")


@dataclass(frozen=True)
class CampaignSpec:
    """Canonical, validated description of one campaign."""

    scheme: str = "citadel"
    trials: int = 20000
    #: Trial divisor for smoke-sized runs: the campaign executes
    #: ``max(1, trials // scale)`` trials (the same convention as the
    #: benchmark suite's ``REPRO_BENCH_SCALE``).
    scale: int = 1
    tsv_fit: float = 0.0
    tsv_swap: Optional[int] = None
    dds: bool = False
    scrub_hours: float = 12.0
    seed: int = 0
    shard_size: int = DEFAULT_SHARD_SIZE
    #: Collect failure-mode attribution in the result.
    modes: bool = False
    #: Attach the deterministic engine metrics snapshot to the result.
    telemetry: bool = False
    #: Variance-reduction plan (``EngineConfig.sampling``); changing it
    #: changes the sampled trial stream, so it is part of the content
    #: address.
    sampling: str = "naive"
    #: Anytime-valid CI width at which the campaign stops early (None
    #: runs every planned trial).
    target_ci_width: Optional[float] = None
    #: Overrides applied to the baseline :class:`StackGeometry`.
    geometry: Mapping[str, int] = field(default_factory=dict)
    #: Campaign kind: ``"reliability"`` (the default Monte-Carlo
    #: lifetime study) or ``"replay"`` (trace-replay co-simulation).
    #: The replay-only fields below are canonicalized back to their
    #: defaults for reliability specs, so every pre-existing
    #: reliability spec hash is unchanged by their addition.
    mode: str = "reliability"
    workload: str = "zipfian"
    requests: int = 512
    replay_cores: int = 4
    thermal: bool = False

    def __post_init__(self) -> None:
        if self.mode not in SPEC_MODES:
            raise SpecError(
                f"unknown mode {self.mode!r}; expected one of "
                f"{list(SPEC_MODES)}"
            )
        if self.mode == "replay":
            if self.workload not in WORKLOADS:
                raise SpecError(
                    f"unknown workload {self.workload!r}; "
                    f"expected one of {sorted(WORKLOADS)}"
                )
            if not isinstance(self.requests, int) or self.requests < 1:
                raise SpecError(
                    f"requests must be a positive int, got {self.requests!r}"
                )
            if not isinstance(self.replay_cores, int) or self.replay_cores < 1:
                raise SpecError(
                    f"replay_cores must be a positive int, "
                    f"got {self.replay_cores!r}"
                )
            if not isinstance(self.thermal, bool):
                raise SpecError(
                    f"thermal must be a boolean, got {self.thermal!r}"
                )
        else:
            # Replay-only knobs are meaningless for reliability
            # campaigns; pin them to the defaults so they can never
            # perturb a reliability spec's content address.
            object.__setattr__(self, "workload", "zipfian")
            object.__setattr__(self, "requests", 512)
            object.__setattr__(self, "replay_cores", 4)
            object.__setattr__(self, "thermal", False)
        if self.scheme not in SCHEMES:
            raise SpecError(
                f"unknown scheme {self.scheme!r}; "
                f"expected one of {sorted(SCHEMES)}"
            )
        if not isinstance(self.trials, int) or self.trials < 1:
            raise SpecError(f"trials must be a positive int, got {self.trials!r}")
        if not isinstance(self.scale, int) or self.scale < 1:
            raise SpecError(f"scale must be a positive int, got {self.scale!r}")
        if self.tsv_fit < 0:
            raise SpecError(f"tsv_fit must be >= 0, got {self.tsv_fit!r}")
        if self.tsv_swap is not None and not isinstance(self.tsv_swap, int):
            raise SpecError(
                f"tsv_swap must be an int or null, got {self.tsv_swap!r}"
            )
        if self.scrub_hours <= 0:
            raise SpecError(
                f"scrub_hours must be positive, got {self.scrub_hours!r}"
            )
        if not isinstance(self.seed, int):
            raise SpecError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.shard_size, int) or self.shard_size < 1:
            raise SpecError(
                f"shard_size must be a positive int, got {self.shard_size!r}"
            )
        if self.sampling not in SAMPLING_METHODS:
            raise SpecError(
                f"unknown sampling method {self.sampling!r}; "
                f"expected one of {list(SAMPLING_METHODS)}"
            )
        if self.target_ci_width is not None:
            if isinstance(self.target_ci_width, bool) or not isinstance(
                self.target_ci_width, (int, float)
            ):
                raise SpecError(
                    f"target_ci_width must be a positive number or null, "
                    f"got {self.target_ci_width!r}"
                )
            if not self.target_ci_width > 0:
                raise SpecError(
                    f"target_ci_width must be positive, "
                    f"got {self.target_ci_width!r}"
                )
            object.__setattr__(
                self, "target_ci_width", float(self.target_ci_width)
            )
        for key, value in dict(self.geometry).items():
            if key not in GEOMETRY_FIELDS:
                raise SpecError(
                    f"unknown geometry override {key!r}; "
                    f"expected one of {list(GEOMETRY_FIELDS)}"
                )
            if not isinstance(value, int) or value < 1:
                raise SpecError(
                    f"geometry override {key!r} must be a positive int, "
                    f"got {value!r}"
                )
        # Canonicalize: the citadel scheme *is* 3DP + TSV-Swap + DDS, so
        # bake the implied mitigations into the stored fields — a
        # citadel submission hashes identically however it was phrased.
        if self.scheme == "citadel":
            if self.tsv_swap is None:
                object.__setattr__(
                    self, "tsv_swap", CITADEL_DEFAULT_STANDBY_TSVS
                )
            object.__setattr__(self, "dds", True)
        # Freeze the mapping into a plain sorted dict so canonical_json
        # is insertion-order independent.
        object.__setattr__(
            self,
            "geometry",
            {k: int(v) for k, v in sorted(dict(self.geometry).items())},
        )
        try:
            geometry = self.build_geometry()
        except ConfigurationError as exc:
            raise SpecError(f"geometry: {exc}") from None
        if self.tsv_swap is not None:
            try:
                standby_dtsv_indices(geometry, self.tsv_swap)
            except ConfigurationError as exc:
                raise SpecError(f"tsv_swap: {exc}") from None

    # ------------------------------------------------------------------ #
    # Canonical form / content address
    # ------------------------------------------------------------------ #
    @property
    def effective_trials(self) -> int:
        return max(1, self.trials // self.scale)

    def canonical_dict(self) -> Dict[str, Any]:
        """The canonical JSON-able form; key order is fixed by sorting.

        The ``mode``/``replay`` keys appear **only** for replay specs:
        a reliability spec's canonical document (and therefore its
        content address) is byte-identical to what it was before the
        replay mode existed, so no stored result is orphaned.
        """
        data: Dict[str, Any] = {
            "schema": SPEC_SCHEMA_VERSION,
            "scheme": self.scheme,
            "trials": self.trials,
            "scale": self.scale,
            "tsv_fit": float(self.tsv_fit),
            "tsv_swap": self.tsv_swap,
            "dds": bool(self.dds),
            "scrub_hours": float(self.scrub_hours),
            "seed": self.seed,
            "shard_size": self.shard_size,
            "modes": bool(self.modes),
            "telemetry": bool(self.telemetry),
            "sampling": self.sampling,
            "target_ci_width": self.target_ci_width,
            "geometry": dict(self.geometry),
        }
        if self.mode == "replay":
            data["mode"] = self.mode
            data["replay"] = {
                "workload": self.workload,
                "requests": self.requests,
                "replay_cores": self.replay_cores,
                "thermal": bool(self.thermal),
            }
        return data

    def canonical_json(self) -> str:
        """Byte-stable serialization: sorted keys, no whitespace."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )

    def spec_hash(self) -> str:
        """Content address of this campaign (sha256 of canonical JSON)."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Parse and validate an untrusted spec document."""
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a JSON object, got {type(data).__name__}")
        payload = dict(data)
        schema = payload.pop("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise SpecError(
                f"unsupported spec schema {schema!r} "
                f"(expected {SPEC_SCHEMA_VERSION})"
            )
        # canonical_dict() nests the replay-only knobs under "replay";
        # flatten them back so round-tripping a stored spec works.
        replay_block = payload.pop("replay", None)
        if replay_block is not None:
            if not isinstance(replay_block, Mapping):
                raise SpecError(
                    f"replay block must be a JSON object, "
                    f"got {type(replay_block).__name__}"
                )
            for name, value in dict(replay_block).items():
                if name not in ("workload", "requests", "replay_cores",
                                "thermal"):
                    raise SpecError(f"unknown replay field {name!r}")
                payload.setdefault(name, value)
        unknown = set(payload) - set(_SPEC_FIELDS)
        if unknown:
            raise SpecError(f"unknown spec field(s): {sorted(unknown)}")
        try:
            kwargs: Dict[str, Any] = {}
            for name in _SPEC_FIELDS:
                if name in payload:
                    kwargs[name] = payload[name]
            if "tsv_fit" in kwargs:
                kwargs["tsv_fit"] = float(kwargs["tsv_fit"])
            if "scrub_hours" in kwargs:
                kwargs["scrub_hours"] = float(kwargs["scrub_hours"])
            for boolean in ("dds", "modes", "telemetry"):
                if boolean in kwargs and not isinstance(kwargs[boolean], bool):
                    raise SpecError(
                        f"{boolean} must be a boolean, got {kwargs[boolean]!r}"
                    )
            # sampling / target_ci_width validation (including the typed
            # rejection of unknown methods) lives in __post_init__ so it
            # covers direct construction too.
            return cls(**kwargs)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"malformed campaign spec: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Execution (shared by service and CLI paths)
    # ------------------------------------------------------------------ #
    def runner(
        self, workers: int = 1, **execution: Any
    ) -> Union[ParallelLifetimeRunner, ReplayCampaignRunner]:
        """The runner for this campaign — the only place campaign runners
        are built from a spec (``repro reliability``/``replay``/``profile``
        and the service scheduler all call it).

        ``execution`` takes the shared execution keywords
        (``checkpoint_path``, ``resume``, ``cancel_hook``,
        ``time_budget_s``, ``progress``, ``trace_path``, ...); like
        ``workers``, none of them changes the merged result.  Run it with
        ``runner.run(trials=spec.effective_trials)``.
        """
        geometry = self.build_geometry()
        rates = FailureRates.paper_baseline(tsv_device_fit=self.tsv_fit)
        model = SCHEMES[self.scheme](geometry)
        execution.update(
            root_seed=self.seed, workers=workers, shard_size=self.shard_size
        )
        if self.mode == "replay":
            return ReplayCampaignRunner(
                geometry,
                rates,
                model,
                EngineConfig(
                    tsv_swap_standby=self.tsv_swap,
                    use_dds=self.dds,
                    scrub_interval_hours=self.scrub_hours,
                ),
                self.replay_config(),
                collect_metrics=self.telemetry,
                **execution,
            )
        return ParallelLifetimeRunner(
            geometry, rates, model, self.engine_config(), **execution
        )

    def build_geometry(self) -> StackGeometry:
        return StackGeometry(**dict(self.geometry))

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            tsv_swap_standby=self.tsv_swap,
            use_dds=self.dds,
            scrub_interval_hours=self.scrub_hours,
            collect_failure_modes=self.modes,
            collect_metrics=self.telemetry,
            sampling=self.sampling,
            target_ci_width=self.target_ci_width,
        )

    def replay_config(self) -> ReplayConfig:
        contracts.require(
            self.mode == "replay",
            "replay_config() is only meaningful for replay specs",
        )
        return ReplayConfig(
            workload=self.workload,
            cores=self.replay_cores,
            requests_per_core=self.requests,
            thermal=self.thermal,
        )


class JobState(str, Enum):
    """Lifecycle states of a submitted campaign job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One submission of a :class:`CampaignSpec` and its lifecycle."""

    id: str
    spec: CampaignSpec
    priority: int = 0
    #: Requested worker processes; the scheduler may allot fewer under
    #: its fair-share process budget (results are identical either way).
    workers: int = 1
    max_retries: int = 2
    state: JobState = JobState.QUEUED
    attempts: int = 0
    error: Optional[str] = None
    #: True when the result came from the store or an identical
    #: in-flight job rather than a fresh execution.
    cache_hit: bool = False
    #: Wall-clock seconds the job spent executing (volatile bookkeeping;
    #: never part of the result).
    elapsed_seconds: float = 0.0
    #: Monotonic creation timestamp feeding the scheduler's
    #: oldest-job-age gauge (volatile bookkeeping; never serialized).
    enqueued_at: float = field(default_factory=time.monotonic, repr=False)
    #: Cooperative cancellation flag polled by the runner between shards.
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    def __post_init__(self) -> None:
        contracts.require(bool(self.id), "job id must be non-empty")
        contracts.require(
            self.workers >= 1, "workers must be >= 1, got %r", self.workers
        )
        contracts.check_non_negative(self.max_retries, "max_retries")

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    def to_dict(self) -> Dict[str, Any]:
        """JSON document served by ``GET /jobs/{id}``."""
        return {
            "id": self.id,
            "state": self.state.value,
            "spec": self.spec.canonical_dict(),
            "spec_hash": self.spec_hash,
            "priority": self.priority,
            "workers": self.workers,
            "max_retries": self.max_retries,
            "attempts": self.attempts,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "elapsed_seconds": self.elapsed_seconds,
        }


def clone_spec(spec: CampaignSpec, **overrides: Any) -> CampaignSpec:
    """A copy of ``spec`` with ``overrides`` applied (re-validated)."""
    return replace(spec, **overrides)
