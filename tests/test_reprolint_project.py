"""Tests for reprolint's project-wide pass: REPRO008/009/010, reporters,
baseline ratchet, schema lockfile, and CLI exit codes.

Rule fixtures are synthetic trees mirroring the repository layout.  The
acceptance tests at the bottom mutate *copies of the real sources*
(scheduler lock removal, RNG injection into a snapshot path, checkpoint
dataclass field addition) and assert the lint reproducibly fails —
these are the exact regressions the project pass exists to catch.
"""

import io
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import lint_paths  # noqa: E402
from tools.reprolint.cli import main as reprolint_main  # noqa: E402
from tools.reprolint.engine import (  # noqa: E402
    LintRunner,
    apply_baseline,
    baseline_key,
    load_baseline,
    write_baseline,
)
from tools.reprolint.project import ProjectContext, module_name_for  # noqa: E402
from tools.reprolint.reporters import SarifReporter  # noqa: E402
from tools.reprolint.rules import (  # noqa: E402
    ALL_PROJECT_CHECKERS,
    DeterminismTaintChecker,
    checker_by_code,
)


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def lint_tree(tmp_path, codes, options=None):
    checkers = [checker_by_code(code)() for code in codes]
    return lint_paths(
        [tmp_path], checkers=checkers, root=tmp_path, options=options
    )


def build_project(tmp_path, options=None):
    runner = LintRunner([], root=tmp_path, options=options)
    return runner.build_project([tmp_path])


def codes_of(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------- #
# ProjectContext: symbol table, imports, attribute types, call graph
# ---------------------------------------------------------------------- #
class TestProjectContext:
    def test_module_names_strip_src_and_init(self):
        assert module_name_for("src/repro/service/http.py") == (
            "repro.service.http"
        )
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert module_name_for("tests/test_x.py") == "tests.test_x"

    def test_symbols_and_cross_module_call_resolution(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/a.py": (
                    "def helper():\n"
                    "    return 1\n"
                ),
                "src/repro/b.py": (
                    "from repro.a import helper\n"
                    "class Wrapper:\n"
                    "    def go(self):\n"
                    "        return helper()\n"
                ),
            },
        )
        project = build_project(tmp_path)
        assert "repro.a.helper" in project.functions
        edges = project.call_graph["repro.b.Wrapper.go"]
        assert "repro.a.helper" in edges

    def test_self_attr_method_resolution_via_init_annotation(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/c.py": (
                    "class Inner:\n"
                    "    def poke(self):\n"
                    "        return 1\n"
                    "class Outer:\n"
                    "    def __init__(self, inner: Inner):\n"
                    "        self.inner = inner\n"
                    "    def run(self):\n"
                    "        return self.inner.poke()\n"
                ),
            },
        )
        project = build_project(tmp_path)
        outer = project.classes["repro.c.Outer"]
        assert outer.attr_types["inner"] == "repro.c.Inner"
        assert "repro.c.Inner.poke" in project.call_graph["repro.c.Outer.run"]

    def test_call_path_is_shortest_chain(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/d.py": (
                    "def z():\n    return 0\n"
                    "def y():\n    return z()\n"
                    "def x():\n    return y() + z()\n"
                ),
            },
        )
        project = build_project(tmp_path)
        assert project.call_path("repro.d.x", "repro.d.z") == [
            "repro.d.x",
            "repro.d.z",
        ]

    def test_lock_and_thread_detection(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/e.py": (
                    "import threading\n"
                    "class S:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.RLock()\n"
                    "        self._stop = threading.Event()\n"
                    "    def start(self):\n"
                    "        threading.Thread(target=self.run).start()\n"
                    "    def run(self):\n"
                    "        pass\n"
                ),
            },
        )
        project = build_project(tmp_path)
        cls = project.classes["repro.e.S"]
        assert cls.lock_attrs == {"_lock"}
        assert cls.event_attrs == {"_stop"}
        assert cls.spawns_threads


# ---------------------------------------------------------------------- #
# REPRO008: determinism taint
# ---------------------------------------------------------------------- #
class TestRepro008:
    def test_taint_reaches_sink_through_call_chain(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/leak.py": (
                    "import random\n"
                    "def jitter():\n"
                    "    return random.random()\n"
                    "def helper():\n"
                    "    return jitter()\n"
                    "class Thing:\n"
                    "    def to_dict(self):\n"
                    "        return {'x': helper()}\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO008"])
        assert codes_of(findings) == ["REPRO008"]
        assert "random.random" in findings[0].message
        assert "Thing.to_dict" in findings[0].message
        assert "leak.jitter" in findings[0].message  # chain is reported

    def test_sink_raising_a_plain_exception_class_is_clean(self, tmp_path):
        """A sink whose call path constructs a class without its own
        ``__init__`` (an exception) is scanned without crashing."""
        write_tree(
            tmp_path,
            {
                "src/repro/errs.py": "class BadCheckpoint(Exception):\n    pass\n",
                "src/repro/seg.py": (
                    "from repro.errs import BadCheckpoint\n"
                    "def helper(ok):\n"
                    "    if not ok:\n"
                    "        raise BadCheckpoint('torn')\n"
                    "    return ok\n"
                    "class Shard:\n"
                    "    def to_dict(self):\n"
                    "        return {'ok': helper(True)}\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO008"]) == []

    def test_wall_clock_in_checkpoint_writer_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/cp.py": (
                    "import time\n"
                    "class Runner:\n"
                    "    def _write_checkpoint(self):\n"
                    "        return {'at': time.time()}\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO008"])
        assert codes_of(findings) == ["REPRO008"]
        assert "time.time" in findings[0].message

    def test_sanitizer_module_is_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/rng.py": (
                    "import random\n"
                    "def make_rng(seed):\n"
                    "    return random.Random(seed)\n"
                ),
                "src/repro/user.py": (
                    "from repro.rng import make_rng\n"
                    "class Snap:\n"
                    "    def to_dict(self):\n"
                    "        return {'rng': make_rng(0)}\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO008"]) == []

    def test_monotonic_clock_is_not_a_source(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/mono.py": (
                    "import time\n"
                    "class Snap:\n"
                    "    def to_dict(self):\n"
                    "        return {'t': time.monotonic()}\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO008"]) == []

    def test_set_iteration_on_sink_path_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/it.py": (
                    "class Snap:\n"
                    "    def to_dict(self):\n"
                    "        return [x for x in {1, 2, 3}]\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO008"])
        assert codes_of(findings) == ["REPRO008"]
        assert "sorted" in findings[0].message

    def test_sorted_set_iteration_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/it2.py": (
                    "class Snap:\n"
                    "    def to_dict(self):\n"
                    "        return [x for x in sorted({1, 2, 3})]\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO008"]) == []

    def test_counter_attr_serialization_flagged_and_sorted_ok(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/cnt.py": (
                    "from collections import Counter\n"
                    "from dataclasses import dataclass, field\n"
                    "@dataclass\n"
                    "class R:\n"
                    "    modes: Counter[str] = field(default_factory=Counter)\n"
                    "    def to_dict(self):\n"
                    "        return {'modes': dict(self.modes)}\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO008"])
        assert codes_of(findings) == ["REPRO008"]
        assert "merge-order" in findings[0].message

    def test_suppression_comment_silences_taint(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/sup.py": (
                    "import random\n"
                    "class Thing:\n"
                    "    def to_dict(self):  # reprolint: disable=REPRO008\n"
                    "        return {'x': random.random()}\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO008"])
        # The sink-level finding (anchored at the def) is suppressed.
        assert findings == []

    def test_tests_tree_is_out_of_scope(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "tests/test_x.py": (
                    "import random\n"
                    "class Fake:\n"
                    "    def to_dict(self):\n"
                    "        return random.random()\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO008"]) == []


# ---------------------------------------------------------------------- #
# REPRO009: lock discipline
# ---------------------------------------------------------------------- #
_BOX_HEADER = (
    "import threading\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._items = []\n"
)


class TestRepro009:
    def test_unguarded_mutation_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/box.py": _BOX_HEADER + (
                    "    def bad(self, x):\n"
                    "        self._items.append(x)\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO009"])
        assert codes_of(findings) == ["REPRO009"]
        assert "_items" in findings[0].message
        assert "Box.bad" in findings[0].message

    def test_with_lock_guard_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/box.py": _BOX_HEADER + (
                    "    def good(self, x):\n"
                    "        with self._lock:\n"
                    "            self._items.append(x)\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO009"]) == []

    def test_locked_suffix_methods_trusted(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/box.py": _BOX_HEADER + (
                    "    def _drain_locked(self):\n"
                    "        self._items.clear()\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO009"]) == []

    def test_helper_guarded_at_every_callsite_is_lock_held(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/box.py": _BOX_HEADER + (
                    "    def pop_all(self):\n"
                    "        with self._lock:\n"
                    "            return self._helper()\n"
                    "    def _helper(self):\n"
                    "        return self._items.pop()\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO009"]) == []

    def test_helper_with_one_unguarded_callsite_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/box.py": _BOX_HEADER + (
                    "    def pop_all(self):\n"
                    "        with self._lock:\n"
                    "            return self._helper()\n"
                    "    def sneaky(self):\n"
                    "        return self._helper()\n"
                    "    def _helper(self):\n"
                    "        return self._items.pop()\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO009"])
        assert codes_of(findings) == ["REPRO009"]
        assert "Box._helper" in findings[0].message

    def test_closure_resets_lock_context(self, tmp_path):
        # A closure defined under the lock runs later, off-thread.
        write_tree(
            tmp_path,
            {
                "src/repro/box.py": _BOX_HEADER + (
                    "    def schedule(self):\n"
                    "        with self._lock:\n"
                    "            def later():\n"
                    "                self._items.append(1)\n"
                    "            return later\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO009"])
        assert codes_of(findings) == ["REPRO009"]

    def test_init_mutations_exempt_and_event_attrs_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/box.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._stop = threading.Event()\n"
                    "        self._items = []\n"
                    "    def halt(self):\n"
                    "        self._stop = threading.Event()\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO009"]) == []

    def test_external_mutation_of_disciplined_class_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/box.py": _BOX_HEADER,
                "src/repro/poke.py": (
                    "from repro.box import Box\n"
                    "def poke(box: Box):\n"
                    "    box._items = []\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO009"])
        assert codes_of(findings) == ["REPRO009"]
        assert "Box" in findings[0].message
        assert findings[0].path == "src/repro/poke.py"

    def test_locally_constructed_object_mutation_is_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/box.py": _BOX_HEADER,
                "src/repro/make.py": (
                    "from repro.box import Box\n"
                    "def make():\n"
                    "    box = Box()\n"
                    "    box._items = [1]\n"
                    "    return box\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO009"]) == []

    def test_delegation_to_disciplined_member_is_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/q.py": (
                    "import threading\n"
                    "class Q:\n"
                    "    def __init__(self):\n"
                    "        self._cond = threading.Condition()\n"
                    "        self._items = []\n"
                    "    def pop(self):\n"
                    "        with self._cond:\n"
                    "            return self._items.pop()\n"
                    "class User:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.queue = Q()\n"
                    "    def take(self):\n"
                    "        return self.queue.pop()\n"
                ),
            },
        )
        assert lint_tree(tmp_path, ["REPRO009"]) == []

    def test_thread_spawner_without_lock_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/spawn.py": (
                    "import threading\n"
                    "class Spawner:\n"
                    "    def __init__(self):\n"
                    "        self.n = 0\n"
                    "    def start(self):\n"
                    "        threading.Thread(target=self._run).start()\n"
                    "    def _run(self):\n"
                    "        self.n += 1\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO009"])
        assert codes_of(findings) == ["REPRO009"]
        assert "declares no lock" in findings[0].message


# ---------------------------------------------------------------------- #
# REPRO010: checkpoint-schema drift
# ---------------------------------------------------------------------- #
_CK_SOURCE = (
    "from dataclasses import dataclass\n"
    "CHECKPOINT_VERSION = 1\n"
    "@dataclass\n"
    "class State:\n"
    "    a: int\n"
    "    b: str\n"
    "    def to_dict(self):\n"
    "        return {}\n"
)


def _lock_options(tmp_path):
    return {"schema_lockfile": tmp_path / "schema_lock.json"}


def _write_lock(tmp_path):
    rc = reprolint_main(
        [
            str(tmp_path),
            "--root",
            str(tmp_path),
            "--schema-lockfile",
            str(tmp_path / "schema_lock.json"),
            "--write-lockfile",
        ]
    )
    assert rc == 0


class TestRepro010:
    def test_missing_lockfile_with_reachable_dataclasses(self, tmp_path):
        write_tree(tmp_path, {"src/repro/ck.py": _CK_SOURCE})
        findings = lint_tree(
            tmp_path, ["REPRO010"], options=_lock_options(tmp_path)
        )
        assert codes_of(findings) == ["REPRO010"]
        assert "missing" in findings[0].message

    def test_no_reachable_dataclasses_no_lockfile_needed(self, tmp_path):
        write_tree(tmp_path, {"src/repro/plain.py": "x = 1\n"})
        assert (
            lint_tree(tmp_path, ["REPRO010"], options=_lock_options(tmp_path))
            == []
        )

    def test_in_sync_lockfile_clean(self, tmp_path):
        write_tree(tmp_path, {"src/repro/ck.py": _CK_SOURCE})
        _write_lock(tmp_path)
        assert (
            lint_tree(tmp_path, ["REPRO010"], options=_lock_options(tmp_path))
            == []
        )

    def test_field_added_without_version_bump_fails(self, tmp_path):
        write_tree(tmp_path, {"src/repro/ck.py": _CK_SOURCE})
        _write_lock(tmp_path)
        (tmp_path / "src/repro/ck.py").write_text(
            _CK_SOURCE.replace("    b: str\n", "    b: str\n    c: float\n")
        )
        findings = lint_tree(
            tmp_path, ["REPRO010"], options=_lock_options(tmp_path)
        )
        assert codes_of(findings) == ["REPRO010"]
        assert "bump CHECKPOINT_VERSION" in findings[0].message
        assert "c: float" in findings[0].message

    def test_field_added_with_version_bump_asks_for_regeneration(
        self, tmp_path
    ):
        write_tree(tmp_path, {"src/repro/ck.py": _CK_SOURCE})
        _write_lock(tmp_path)
        (tmp_path / "src/repro/ck.py").write_text(
            _CK_SOURCE.replace("    b: str\n", "    b: str\n    c: float\n")
            .replace("CHECKPOINT_VERSION = 1", "CHECKPOINT_VERSION = 2")
        )
        findings = lint_tree(
            tmp_path, ["REPRO010"], options=_lock_options(tmp_path)
        )
        assert codes_of(findings) == ["REPRO010"]
        assert "regenerate" in findings[0].message
        assert "bump" not in findings[0].message

    def test_version_bump_alone_requires_regeneration(self, tmp_path):
        write_tree(tmp_path, {"src/repro/ck.py": _CK_SOURCE})
        _write_lock(tmp_path)
        (tmp_path / "src/repro/ck.py").write_text(
            _CK_SOURCE.replace(
                "CHECKPOINT_VERSION = 1", "CHECKPOINT_VERSION = 2"
            )
        )
        findings = lint_tree(
            tmp_path, ["REPRO010"], options=_lock_options(tmp_path)
        )
        assert codes_of(findings) == ["REPRO010"]
        assert "regenerate" in findings[0].message

    def test_regeneration_after_bump_is_clean(self, tmp_path):
        write_tree(tmp_path, {"src/repro/ck.py": _CK_SOURCE})
        _write_lock(tmp_path)
        (tmp_path / "src/repro/ck.py").write_text(
            _CK_SOURCE.replace("    b: str\n", "    b: str\n    c: float\n")
            .replace("CHECKPOINT_VERSION = 1", "CHECKPOINT_VERSION = 2")
        )
        _write_lock(tmp_path)
        assert (
            lint_tree(tmp_path, ["REPRO010"], options=_lock_options(tmp_path))
            == []
        )

    def test_nested_dataclass_fields_are_fingerprinted(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Inner:\n"
            "    x: int\n"
            "@dataclass\n"
            "class Outer:\n"
            "    inner: Inner\n"
            "    def to_dict(self):\n"
            "        return {}\n"
        )
        write_tree(tmp_path, {"src/repro/nest.py": source})
        _write_lock(tmp_path)
        locked = json.loads((tmp_path / "schema_lock.json").read_text())
        assert "repro.nest.Inner" in locked["classes"]
        # Drifting the *nested* class alone is caught.
        (tmp_path / "src/repro/nest.py").write_text(
            source.replace("    x: int\n", "    x: int\n    y: int\n")
        )
        findings = lint_tree(
            tmp_path, ["REPRO010"], options=_lock_options(tmp_path)
        )
        assert codes_of(findings) == ["REPRO010"]
        assert "Inner" in findings[0].message

    def test_asdict_target_is_a_schema_root(self, tmp_path):
        source = (
            "from dataclasses import dataclass, asdict\n"
            "@dataclass\n"
            "class Config:\n"
            "    n: int\n"
            "class Runner:\n"
            "    def __init__(self, config: Config):\n"
            "        self.config = config\n"
            "    def _write_checkpoint(self):\n"
            "        return asdict(self.config)\n"
        )
        write_tree(tmp_path, {"src/repro/run.py": source})
        _write_lock(tmp_path)
        locked = json.loads((tmp_path / "schema_lock.json").read_text())
        assert "repro.run.Config" in locked["classes"]

    def test_sampling_field_drift_without_bump_fails(self, tmp_path):
        """ISSUE 7 regression: growing an engine-config dataclass a
        ``sampling`` knob without bumping CHECKPOINT_VERSION must fail
        lint against the existing lockfile."""
        write_tree(tmp_path, {"src/repro/ck.py": _CK_SOURCE})
        _write_lock(tmp_path)
        (tmp_path / "src/repro/ck.py").write_text(
            _CK_SOURCE.replace(
                "    b: str\n", "    b: str\n    sampling: str\n"
            )
        )
        findings = lint_tree(
            tmp_path, ["REPRO010"], options=_lock_options(tmp_path)
        )
        assert codes_of(findings) == ["REPRO010"]
        assert "bump CHECKPOINT_VERSION" in findings[0].message
        assert "sampling: str" in findings[0].message


class TestProjectLockfileCurrent:
    """The checked-in lockfile must reflect the current schema surface:
    CHECKPOINT_VERSION 10 (the batch path on by default and no spec
    ``batch`` field, after v9's one correctability path and v8's
    append-only checkpoint segments) plus the sampling, run-provenance,
    replay, and batch schema growth."""

    LOCKFILE = (
        Path(__file__).resolve().parent.parent
        / "tools"
        / "reprolint"
        / "schema_lock.json"
    )

    def test_lockfile_records_checkpoint_version_10(self):
        locked = json.loads(self.LOCKFILE.read_text())
        assert locked["checkpoint_version"] == 10

    def test_lockfile_covers_batch_schema_surface(self):
        locked = json.loads(self.LOCKFILE.read_text())
        classes = locked["classes"]
        engine = classes["repro.reliability.montecarlo.EngineConfig"]
        assert any(f.startswith("batch_trials:") for f in engine)
        spec = classes["repro.service.jobs.CampaignSpec"]
        assert not any(f.startswith("batch:") for f in spec)

    def test_lockfile_covers_sampling_schema_surface(self):
        locked = json.loads(self.LOCKFILE.read_text())
        classes = locked["classes"]
        engine = classes["repro.reliability.montecarlo.EngineConfig"]
        assert any(f.startswith("sampling:") for f in engine)
        assert any(f.startswith("target_ci_width:") for f in engine)
        assert "repro.reliability.results.StratumStats" in classes
        spec = classes["repro.service.jobs.CampaignSpec"]
        assert any(f.startswith("sampling:") for f in spec)

    def test_lockfile_covers_manifest_schema_surface(self):
        locked = json.loads(self.LOCKFILE.read_text())
        classes = locked["classes"]
        result = classes["repro.reliability.results.ReliabilityResult"]
        assert any(f.startswith("manifest:") for f in result)
        manifest = classes["repro.telemetry.manifest.RunManifest"]
        assert any(f.startswith("schemes_hash:") for f in manifest)
        assert any(f.startswith("spec_hash:") for f in manifest)

    def test_lockfile_covers_replay_schema_surface(self):
        locked = json.loads(self.LOCKFILE.read_text())
        classes = locked["classes"]
        engine = classes["repro.reliability.montecarlo.EngineConfig"]
        assert any(f.startswith("thermal_bank_fit:") for f in engine)
        assert "repro.replay.engine.ReplayConfig" in classes
        assert "repro.replay.results.ReplayResult" in classes
        spec = classes["repro.service.jobs.CampaignSpec"]
        assert any(f.startswith("mode:") for f in spec)
        assert any(f.startswith("workload:") for f in spec)

    def test_checked_in_lockfile_is_in_sync(self):
        root = self.LOCKFILE.parent.parent.parent
        rc = reprolint_main(
            [
                str(root / "src"),
                str(root / "tests"),
                str(root / "benchmarks"),
                "--root",
                str(root),
                "--schema-lockfile",
                str(self.LOCKFILE),
                "--check-lockfile",
            ]
        )
        assert rc == 0


# ---------------------------------------------------------------------- #
# Baseline ratchet
# ---------------------------------------------------------------------- #
class TestBaseline:
    def _dirty_tree(self, tmp_path):
        return write_tree(
            tmp_path,
            {
                "src/repro/leak.py": (
                    "import random\n"
                    "class Thing:\n"
                    "    def to_dict(self):\n"
                    "        return random.random()\n"
                ),
            },
        )

    def test_roundtrip_filters_recorded_findings(self, tmp_path):
        self._dirty_tree(tmp_path)
        findings = lint_tree(tmp_path, ["REPRO008"])
        assert len(findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        baseline = load_baseline(baseline_path)
        assert apply_baseline(findings, baseline) == []

    def test_new_findings_survive_the_filter(self, tmp_path):
        self._dirty_tree(tmp_path)
        findings = lint_tree(tmp_path, ["REPRO008"])
        assert apply_baseline(findings, {}) == findings

    def test_counts_ratchet_per_key(self, tmp_path):
        self._dirty_tree(tmp_path)
        findings = lint_tree(tmp_path, ["REPRO008"])
        key = baseline_key(findings[0])
        # Two identical findings against an allowance of one: one leaks.
        doubled = findings + findings
        assert apply_baseline(doubled, {key: 1}) == findings

    def test_cli_write_then_apply(self, tmp_path, capsys):
        self._dirty_tree(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        args = [str(tmp_path), "--root", str(tmp_path), "--select", "REPRO008"]
        assert reprolint_main(args) == 1
        assert (
            reprolint_main(
                args + ["--baseline", str(baseline_path), "--write-baseline"]
            )
            == 0
        )
        assert reprolint_main(args + ["--baseline", str(baseline_path)]) == 0
        capsys.readouterr()

    def test_cli_unreadable_baseline_is_usage_error(self, tmp_path, capsys):
        self._dirty_tree(tmp_path)
        assert (
            reprolint_main(
                [
                    str(tmp_path),
                    "--root",
                    str(tmp_path),
                    "--baseline",
                    str(tmp_path / "missing.json"),
                ]
            )
            == 2
        )
        capsys.readouterr()


# ---------------------------------------------------------------------- #
# Reporters and CLI
# ---------------------------------------------------------------------- #
class TestSarifReporter:
    def test_valid_minimal_sarif(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/leak.py": (
                    "import random\n"
                    "class Thing:\n"
                    "    def to_dict(self):\n"
                    "        return random.random()\n"
                ),
            },
        )
        findings = lint_tree(tmp_path, ["REPRO008"])
        stream = io.StringIO()
        SarifReporter(stream, [DeterminismTaintChecker()]).report(findings)
        payload = json.loads(stream.getvalue())
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "REPRO008" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "REPRO008"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/leak.py"
        assert location["region"]["startLine"] == findings[0].line

    def test_empty_report_still_valid(self):
        stream = io.StringIO()
        SarifReporter(stream).report([])
        payload = json.loads(stream.getvalue())
        assert payload["runs"][0]["results"] == []


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/ok.py": "x = 1\n"})
        assert reprolint_main([str(tmp_path), "--root", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            {
                "src/repro/leak.py": (
                    "import random\n"
                    "class Thing:\n"
                    "    def to_dict(self):\n"
                    "        return random.random()\n"
                ),
            },
        )
        assert (
            reprolint_main(
                [str(tmp_path), "--root", str(tmp_path), "--select", "REPRO008"]
            )
            == 1
        )
        assert "REPRO008" in capsys.readouterr().out

    def test_unknown_code_exits_two(self, capsys):
        assert reprolint_main(["--select", "REPRO999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert reprolint_main([str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_write_baseline_without_path_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/ok.py": "x = 1\n"})
        assert (
            reprolint_main(
                [str(tmp_path), "--root", str(tmp_path), "--write-baseline"]
            )
            == 2
        )
        capsys.readouterr()

    def test_sarif_format_end_to_end(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/ok.py": "x = 1\n"})
        assert (
            reprolint_main(
                [str(tmp_path), "--root", str(tmp_path), "--format", "sarif"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"

    def test_output_file(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/ok.py": "x = 1\n"})
        out = tmp_path / "report.json"
        assert (
            reprolint_main(
                [
                    str(tmp_path),
                    "--root",
                    str(tmp_path),
                    "--format",
                    "json",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        assert json.loads(out.read_text())["count"] == 0
        capsys.readouterr()

    def test_list_rules_includes_project_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REPRO008", "REPRO009", "REPRO010"):
            assert code in out

    def test_check_lockfile_stale_and_sync(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/ck.py": _CK_SOURCE})
        lock = tmp_path / "schema_lock.json"
        base = [
            str(tmp_path),
            "--root",
            str(tmp_path),
            "--schema-lockfile",
            str(lock),
        ]
        assert reprolint_main(base + ["--check-lockfile"]) == 1  # missing
        assert reprolint_main(base + ["--write-lockfile"]) == 0
        assert reprolint_main(base + ["--check-lockfile"]) == 0
        (tmp_path / "src/repro/ck.py").write_text(
            _CK_SOURCE.replace("    b: str\n", "    b: str\n    c: float\n")
        )
        assert reprolint_main(base + ["--check-lockfile"]) == 1  # stale
        capsys.readouterr()


# ---------------------------------------------------------------------- #
# Acceptance: injected regressions against copies of the real sources
# ---------------------------------------------------------------------- #
def _copy_real(tmp_path, relpaths):
    for relpath in relpaths:
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((REPO_ROOT / relpath).read_text())


class TestAcceptanceInjections:
    def test_removing_scheduler_lock_acquisition_fails_lint(self, tmp_path):
        files = [
            "src/repro/service/scheduler.py",
            "src/repro/service/queue.py",
            "src/repro/service/store.py",
        ]
        _copy_real(tmp_path, files)
        assert lint_tree(tmp_path, ["REPRO009"]) == []  # pristine copy
        scheduler = tmp_path / "src/repro/service/scheduler.py"
        source = scheduler.read_text()
        assert source.count("with self._lock:") > 1
        # Neutralize one lock acquisition without disturbing indentation.
        scheduler.write_text(
            source.replace("with self._lock:", "if True:", 1)
        )
        findings = lint_tree(tmp_path, ["REPRO009"])
        assert findings, "deleting a lock acquisition must fail the lint"
        assert all(f.code == "REPRO009" for f in findings)
        assert all(f.path == "src/repro/service/scheduler.py" for f in findings)

    def test_injecting_rng_into_snapshot_path_fails_lint(self, tmp_path):
        _copy_real(tmp_path, ["src/repro/telemetry/registry.py"])
        assert lint_tree(tmp_path, ["REPRO008"]) == []  # pristine copy
        registry = tmp_path / "src/repro/telemetry/registry.py"
        source = registry.read_text()
        anchor = "snap = MetricsRegistry()"
        assert anchor in source
        registry.write_text(
            source.replace("import bisect", "import bisect\nimport random")
            .replace(anchor, anchor + "\n        _jitter = random.random()")
        )
        findings = lint_tree(tmp_path, ["REPRO008"])
        assert findings, "random.random() on a snapshot path must fail"
        assert any(
            "deterministic_snapshot" in f.message and "random.random" in f.message
            for f in findings
        )

    def test_adding_checkpoint_field_without_bump_fails_lint(self, tmp_path):
        _copy_real(tmp_path, ["src/repro/reliability/results.py"])
        lock = tmp_path / "schema_lock.json"
        _write_lock(tmp_path)
        options = {"schema_lockfile": lock}
        assert lint_tree(tmp_path, ["REPRO010"], options=options) == []
        results = tmp_path / "src/repro/reliability/results.py"
        source = results.read_text()
        anchor = "    min_faults: int"
        assert anchor in source
        results.write_text(
            source.replace(anchor, anchor + "\n    new_field: int = 0", 1)
        )
        findings = lint_tree(tmp_path, ["REPRO010"], options=options)
        assert findings, "unversioned schema drift must fail the lint"
        assert any("ReliabilityResult" in f.message for f in findings)
        assert any("CHECKPOINT_VERSION" in f.message for f in findings)


# ---------------------------------------------------------------------- #
# The real repository must lint clean under the project rules
# ---------------------------------------------------------------------- #
class TestRepositoryIsClean:
    def test_project_rules_clean_on_real_tree(self):
        checkers = [cls() for cls in ALL_PROJECT_CHECKERS]
        findings = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            checkers=checkers,
            root=REPO_ROOT,
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_schema_lockfile_in_sync(self, capsys):
        rc = reprolint_main(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
                "--root",
                str(REPO_ROOT),
                "--check-lockfile",
            ]
        )
        capsys.readouterr()
        assert rc == 0
