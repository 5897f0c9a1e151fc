"""REPRO008 — determinism taint: nondeterminism must not reach snapshots.

The reproduction's headline guarantee is that serialized artifacts —
``deterministic_snapshot()`` output, ``ReliabilityResult``/``CampaignSpec``
serialization, checkpoint payloads — are byte-identical across runs and
worker counts.  This project rule walks the approximate call graph from
each *determinism sink* and flags two ways nondeterminism can leak in:

1. **Source taint** — a sink transitively reaches a call that draws on
   ambient state: module-level ``random.*``, unseeded
   ``random.Random()`` / ``numpy.random.default_rng()``, wall-clock
   reads (``time.time``, ``datetime.now``), ``os.urandom``,
   ``uuid.uuid1/uuid4``, or ``secrets.*``.  The seeded constructors in
   ``repro.rng`` are the sanctioned entry points and are exempt
   (sanitizer module), as are CLI files where user seeds legitimately
   enter.

2. **Unordered iteration** — a function on a sink's call path iterates a
   ``set`` (hash-ordered across processes when str keys are involved and
   ``PYTHONHASHSEED`` varies) or serializes a ``Counter``/set-typed
   attribute without ``sorted(...)``.  ``Counter`` is insertion-ordered,
   which makes the serialized order depend on *merge order* — exactly
   what differs between workers=1 and workers=4.

Only functions defined under ``src/`` are treated as sinks or scanned
for iteration hazards; tests may be as nondeterministic as they like.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.reprolint.engine import Finding, ProjectChecker
from tools.reprolint.project import FunctionInfo, ProjectContext
from tools.reprolint.rules.common import dotted_name

#: Function names that serialize or persist deterministic artifacts.
SINK_NAMES = frozenset(
    {
        "deterministic_snapshot",
        "to_dict",
        "canonical_dict",
        "canonical_json",
        "spec_hash",
        "_write_checkpoint",
        "open_checkpoint",
        "jsonl_line",
        "write_json_atomic",
        "atomic_write_text",
    }
)

#: Modules whose functions are trusted to produce seeded determinism.
SANITIZER_MODULES = frozenset({"repro.rng"})

#: Wall-clock reads (monotonic/perf_counter are fine: never serialized
#: as ordering-relevant values by convention, and REPRO007 polices their
#: use separately).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.asctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_NUMPY_CONSTRUCTORS = frozenset(
    {"default_rng", "RandomState", "Generator", "SeedSequence"}
)

#: Annotation tokens marking an attribute as unordered / merge-ordered.
_UNORDERED_ANN_TOKENS = ("Set[", "FrozenSet[", "set[", "frozenset[", "Counter[")

_SERIALIZING_CASTS = frozenset({"dict", "list", "tuple"})


def _fully_qualify(fn: FunctionInfo, raw: str) -> str:
    """Rewrite a raw dotted callee through the module's import map."""
    parts = raw.split(".")
    target = fn.module.imports.get(parts[0])
    if target is None:
        return raw
    return ".".join([target, *parts[1:]])


def _classify_source(fn: FunctionInfo, call: ast.Call, raw: str) -> Optional[str]:
    """Human-readable description if this call is a nondeterminism source."""
    fq = _fully_qualify(fn, raw)
    has_args = bool(call.args or call.keywords)
    if fq == "random" or fq.startswith("random."):
        attr = fq.split(".", 1)[1] if "." in fq else fq
        if attr == "SystemRandom":
            return "random.SystemRandom() (OS entropy)"
        if attr == "Random":
            return None if has_args else "unseeded random.Random()"
        return f"module-level random.{attr}() (hidden global state)"
    if fq in _WALL_CLOCK:
        return f"wall-clock read {fq}()"
    if fq == "os.urandom":
        return "os.urandom() (OS entropy)"
    if fq in ("uuid.uuid1", "uuid.uuid4"):
        return f"{fq}() (random identifier)"
    if fq == "secrets" or fq.startswith("secrets."):
        return f"{fq}() (OS entropy)"
    if fq.startswith("numpy.random."):
        attr = fq.rsplit(".", 1)[1]
        if attr in _NUMPY_CONSTRUCTORS:
            return None if has_args else f"unseeded numpy.random.{attr}()"
        return f"global-state numpy.random.{attr}()"
    return None


def _short(qualname: str) -> str:
    return ".".join(qualname.split(".")[-2:])


class DeterminismTaintChecker(ProjectChecker):
    code = "REPRO008"
    name = "determinism-taint"
    description = (
        "nondeterministic sources (random.*, wall clock, os.urandom, "
        "unordered set/Counter iteration) must not reach deterministic "
        "snapshot/serialization sinks"
    )
    include = ("src/*",)
    exclude = ("*cli.py", "*__main__.py")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        sinks = [
            fn
            for fn in project.iter_functions()
            if fn.name in SINK_NAMES
            and self.applies_to(fn.ctx.relpath)
            and fn.module.name not in SANITIZER_MODULES
        ]
        sources = self._collect_sources(project)
        yield from self._taint_findings(project, sinks, sources)
        yield from self._iteration_findings(project, sinks)

    # ------------------------------------------------------------------ #
    # Sub-check 1: source taint through the call graph
    # ------------------------------------------------------------------ #
    def _collect_sources(
        self, project: ProjectContext
    ) -> Dict[str, Tuple[str, int]]:
        """qualname -> (source description, line of the offending call)."""
        sources: Dict[str, Tuple[str, int]] = {}
        for fn in project.iter_functions():
            if fn.module.name in SANITIZER_MODULES:
                continue
            if not self.applies_to(fn.ctx.relpath):
                continue
            for call in fn.calls:
                if call.raw is None or call.resolved is not None:
                    continue  # resolved calls are analyzed at their target
                desc = _classify_source(fn, call.node, call.raw)
                if desc is not None:
                    sources.setdefault(fn.qualname, (desc, call.node.lineno))
        return sources

    def _taint_findings(
        self,
        project: ProjectContext,
        sinks: List[FunctionInfo],
        sources: Dict[str, Tuple[str, int]],
    ) -> Iterator[Finding]:
        for sink in sinks:
            reachable = project.transitive_callees([sink.qualname])
            tainted = sorted(q for q in reachable if q in sources)
            for source_qual in tainted:
                desc, line = sources[source_qual]
                chain = project.call_path(sink.qualname, source_qual) or [
                    sink.qualname,
                    source_qual,
                ]
                rendered = " -> ".join(_short(q) for q in chain)
                where = project.functions[source_qual].ctx.relpath
                yield self.finding(
                    sink.ctx,
                    sink.node,
                    f"determinism sink '{_short(sink.qualname)}' reaches "
                    f"{desc} at {where}:{line} via {rendered}",
                )

    # ------------------------------------------------------------------ #
    # Sub-check 2: unordered iteration on sink call paths
    # ------------------------------------------------------------------ #
    def _iteration_findings(
        self, project: ProjectContext, sinks: List[FunctionInfo]
    ) -> Iterator[Finding]:
        reachable: Set[str] = project.transitive_callees(
            [s.qualname for s in sinks]
        )
        for qualname in sorted(reachable):
            fn = project.functions.get(qualname)
            if fn is None:  # a resolved class call with no ``__init__``
                continue
            if fn.module.name in SANITIZER_MODULES:
                continue
            if not self.applies_to(fn.ctx.relpath):
                continue
            yield from self._scan_function(fn)

    def _scan_function(self, fn: FunctionInfo) -> Iterator[Finding]:
        for node in ast.walk(fn.node):
            iter_exprs: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_exprs.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iter_exprs.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                yield from self._scan_call(fn, node)
                continue
            for expr in iter_exprs:
                reason = self._unordered_reason(fn, expr)
                if reason is not None:
                    yield self.finding(
                        fn.ctx,
                        expr,
                        f"iteration over {reason} on the call path of a "
                        f"determinism sink ('{_short(fn.qualname)}'); wrap "
                        "in sorted(...)",
                    )

    def _scan_call(self, fn: FunctionInfo, node: ast.Call) -> Iterator[Finding]:
        """``dict(x)`` / ``list(x)`` / ``tuple(x)`` over unordered state."""
        func = node.func
        if not (isinstance(func, ast.Name) and func.id in _SERIALIZING_CASTS):
            return
        if len(node.args) != 1 or node.keywords:
            return
        reason = self._unordered_reason(fn, node.args[0])
        if reason is not None:
            yield self.finding(
                fn.ctx,
                node,
                f"{func.id}(...) over {reason} in "
                f"'{_short(fn.qualname)}' serializes an unstable order; "
                "wrap in sorted(...)",
            )

    def _unordered_reason(self, fn: FunctionInfo, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Set):
            return "a set literal (hash-ordered)"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension (hash-ordered)"
        if isinstance(expr, ast.Call):
            callee = dotted_name(expr.func)
            if callee in ("set", "frozenset"):
                return f"{callee}(...) (hash-ordered)"
            return None
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            left = self._unordered_reason(fn, expr.left)
            right = self._unordered_reason(fn, expr.right)
            return left or right
        # self.<attr> with a Set/FrozenSet/Counter annotation.
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and fn.cls is not None
        ):
            annotation = fn.cls.attr_annotations.get(expr.attr)
            if annotation is not None and any(
                tok in annotation for tok in _UNORDERED_ANN_TOKENS
            ):
                return (
                    f"'self.{expr.attr}' ({annotation}; unordered or "
                    "merge-order dependent)"
                )
        return None
