#!/usr/bin/env python
"""Regenerate the golden Monte-Carlo fixtures under tests/golden/.

Usage: PYTHONPATH=src python tools/regen_goldens.py [FIXTURE.json ...]

With no arguments every fixture is rewritten; naming fixtures (for
example ``perf_small.json``) rewrites only those.

The fixtures pin the exact sharded-campaign outputs of the Figure 14 and
Figure 18 experiments at reduced trial counts, and the exact
performance-simulator and replay outputs of :func:`perf_small` (see
``tests/test_golden_bench.py``).  Regenerate them ONLY when a change to
the trial loop, fault sampling, shard plan or service loop is *intended*
to shift paper numbers — and say so in the commit message.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterator, List

from repro.cli import PERF_CONFIGS
from repro.perf.llc import LRUCache
from repro.perf.system import SystemSimulator
from repro.reliability.experiments import fig14_experiment, fig18_experiment
from repro.replay import ReplayCampaignRunner
from repro.service.jobs import CampaignSpec
from repro.stack.geometry import StackGeometry
from repro.workloads.generator import rate_mode_traces

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

#: Small-but-not-trivial budgets: a couple of seconds total, while still
#: producing nonzero failure counts for every scheme.
FIG14_TRIALS = 2000
FIG18_SYMBOL_TRIALS = 2000
FIG18_CITADEL_TRIALS = 6000
SHARD_SIZE = 500

#: perf_small: the five memory organizations of Figures 5/13/15/16 (the
#: same five as ``benchmarks/conftest.py``) on three benchmarks.
PERF_BENCHMARKS = ("mcf", "tigr", "stream")
PERF_REQUESTS_PER_CORE = 500
PERF_SEED = 1


@contextmanager
def llc_caches() -> Iterator[List[LRUCache]]:
    """Collect every LLC the simulator builds inside the block."""
    built: List[LRUCache] = []
    original = LRUCache.__init__

    def init(self: LRUCache, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        built.append(self)

    LRUCache.__init__ = init  # type: ignore[method-assign]
    try:
        yield built
    finally:
        LRUCache.__init__ = original  # type: ignore[method-assign]


#: Trials of each pinned replay campaign (three shards).
REPLAY_CAMPAIGN_TRIALS = 6


def replay_campaign_runner(thermal: bool = False,
                           **execution: Any) -> ReplayCampaignRunner:
    """The pinned replay campaign on the baseline geometry: Citadel,
    zipfian, 2 x 64 requests, root seed 42, shards of 2 trials.
    ``execution`` takes :meth:`CampaignSpec.runner`'s keywords."""
    spec = CampaignSpec(
        mode="replay", scheme="citadel", tsv_fit=500.0, seed=42,
        trials=REPLAY_CAMPAIGN_TRIALS, shard_size=2, workload="zipfian",
        replay_cores=2, requests=64, thermal=thermal,
    )
    runner = spec.runner(**execution)
    assert isinstance(runner, ReplayCampaignRunner)
    return runner


def perf_small(geometry: StackGeometry) -> Dict[str, Any]:
    """Service-loop outputs that do not depend on the LLC set mapping.

    Every run here must make zero LLC evictions: with no evictions a
    line hits exactly when it was touched before, whatever set it maps
    to, so this fixture pins any correct service loop.
    """
    with llc_caches() as caches:
        perf: Dict[str, Dict[str, Any]] = {}
        for name in PERF_BENCHMARKS:
            traces = rate_mode_traces(
                name, geometry, requests_per_core=PERF_REQUESTS_PER_CORE,
                seed=PERF_SEED,
            )
            for config_name, config in PERF_CONFIGS.items():
                result = SystemSimulator(geometry, config).run(traces)
                perf.setdefault(config_name, {})[name] = asdict(result)
        engine = replay_campaign_runner().engine
        shard = engine.run_shard(7, 4, engine.build_workload(123)).to_dict()
        campaigns = {
            key: replay_campaign_runner(thermal=thermal)
            .run(REPLAY_CAMPAIGN_TRIALS).to_dict()
            for key, thermal in (("plain", False), ("thermal", True))
        }
    evictions = sum(cache.evictions for cache in caches)
    assert evictions == 0, f"perf_small made {evictions} LLC evictions"
    payload = {
        "requests_per_core": PERF_REQUESTS_PER_CORE,
        "seed": PERF_SEED,
        "perf": perf,
        "replay_shard": shard,
        "replay_campaigns": campaigns,
    }
    # The JSON form (tuples become lists) is what the fixture stores.
    return json.loads(json.dumps(payload, sort_keys=True))


def fig14_small(geometry: StackGeometry) -> Dict[str, Any]:
    return {
        "trials": FIG14_TRIALS,
        "shard_size": SHARD_SIZE,
        "results": {
            key: result.to_dict()
            for key, result in fig14_experiment(
                geometry, FIG14_TRIALS, shard_size=SHARD_SIZE
            ).items()
        },
    }


def fig18_small(geometry: StackGeometry) -> Dict[str, Any]:
    return {
        "symbol_trials": FIG18_SYMBOL_TRIALS,
        "citadel_trials": FIG18_CITADEL_TRIALS,
        "shard_size": SHARD_SIZE,
        "results": {
            key: result.to_dict()
            for key, result in fig18_experiment(
                geometry,
                FIG18_SYMBOL_TRIALS,
                FIG18_CITADEL_TRIALS,
                shard_size=SHARD_SIZE,
            ).items()
        },
    }


FIXTURES = {
    "fig14_small.json": fig14_small,
    "fig18_small.json": fig18_small,
    "perf_small.json": perf_small,
}


def main(argv: List[str]) -> int:
    unknown = sorted(set(argv) - set(FIXTURES))
    if unknown:
        print(f"unknown fixture(s): {', '.join(unknown)}; "
              f"choose from {', '.join(FIXTURES)}", file=sys.stderr)
        return 2
    geometry = StackGeometry()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in argv or list(FIXTURES):
        payload = FIXTURES[name](geometry)
        path = GOLDEN_DIR / name
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
