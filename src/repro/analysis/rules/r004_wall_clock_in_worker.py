"""R004 ``wall-clock-in-worker`` — worker results must not read the clock.

The resilient pool re-dispatches failed chunks on the promise that *"a
chunk result is a pure function of the chunk payload and the worker
initializer arguments"* — that promise is what makes retried chunks
byte-identical and the whole fault-injection story sound.  A wall-clock
read (``time.time()``, ``perf_counter()``) or an unseeded RNG draw inside
worker-executed code silently breaks it: the first dispatch and the retry
compute different values, and if one leaks into a result the
retry-identity tests only catch it when a fault happens to land on the
poisoned chunk.

This rule follows the call graph from every function handed to
:class:`repro.workerpool.ResilientPool` (chunk fns and initializers — see
:mod:`repro.analysis.callgraph`) and flags, in reachable code:

* ``time.time/perf_counter/monotonic/process_time`` (+ ``_ns`` variants)
  — reads; ``time.sleep`` is fine (it returns nothing);
* ``datetime.now/utcnow/today``;
* module-level ``random.*`` draws (global, unseeded state) and
  ``random.Random()`` / ``np.random.default_rng()`` / ``RandomState()``
  constructed **without a seed argument**;
* ``uuid.uuid1/uuid4``, ``secrets.*``, ``os.urandom``.

Severity is ``warning`` (the one shipped warning-severity rule): timing
reads that feed *observability only* — ``VerifierStats.time_seconds``,
``PerfRecorder`` — are legitimate and deliberately annotated inline, and
a new timing counter should not hard-fail CI the way a determinism break
in canonical output would.  The inline annotations keep the signal clean
enough that any new unannotated finding deserves a look.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["WallClockInWorkerRule"]

_TIME_READS = {
    "time",
    "perf_counter",
    "monotonic",
    "process_time",
    "time_ns",
    "perf_counter_ns",
    "monotonic_ns",
    "process_time_ns",
}
_DATETIME_READS = {"now", "utcnow", "today"}
_SEEDED_FACTORIES = {"default_rng", "RandomState", "Generator", "Random"}
_ALWAYS_BAD_MODULES = {"secrets"}
_UUID_READS = {"uuid1", "uuid4"}


def _has_seed(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(kw.arg in ("seed", "x") for kw in call.keywords)


class _WorkerBodyVisitor(ast.NodeVisitor):
    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.findings: List[Tuple[ast.AST, str]] = []
        self._time_aliases = {
            alias
            for alias, target in module.import_aliases.items()
            if target == "time"
        }
        self._random_aliases = {
            alias
            for alias, target in module.import_aliases.items()
            if target == "random"
        }
        self._numpy_aliases = {
            alias
            for alias, target in module.import_aliases.items()
            if target == "numpy"
        }
        self._datetime_aliases = {
            alias
            for alias, target in module.import_aliases.items()
            if target == "datetime"
        }
        self._os_aliases = {
            alias for alias, target in module.import_aliases.items() if target == "os"
        }
        self._from_time = {
            local
            for local, (mod, orig) in module.from_imports.items()
            if mod == "time" and orig in _TIME_READS
        }
        self._from_datetime = {
            local
            for local, (mod, orig) in module.from_imports.items()
            if mod == "datetime" and orig == "datetime"
        }

    def visit_Call(self, node: ast.Call) -> None:
        message = self._classify(node)
        if message is not None:
            self.findings.append((node, message))
        self.generic_visit(node)

    def _classify(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self._from_time:
                return f"wall-clock read {func.id}() in worker-executed code"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in self._time_aliases and attr in _TIME_READS:
                return f"wall-clock read time.{attr}() in worker-executed code"
            if base.id in self._random_aliases:
                if attr in _SEEDED_FACTORIES:
                    if not _has_seed(node):
                        return (
                            f"unseeded random.{attr}() in worker-executed "
                            "code (retried chunks would draw differently)"
                        )
                    return None
                return (
                    f"global-state random.{attr}() in worker-executed code "
                    "(unseeded across processes)"
                )
            if base.id in self._datetime_aliases or base.id in self._from_datetime:
                if attr in _DATETIME_READS:
                    return f"wall-clock read {base.id}.{attr}() in worker code"
            if base.id in _ALWAYS_BAD_MODULES:
                return f"{base.id}.{attr}() is nondeterministic by design"
            if base.id in self._os_aliases and attr == "urandom":
                return "os.urandom() in worker-executed code"
            if attr in _UUID_READS and base.id == "uuid":
                return f"uuid.{attr}() in worker-executed code"
            return None
        # np.random.<fn>(...)
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in self._numpy_aliases
        ):
            if attr in _SEEDED_FACTORIES:
                if not _has_seed(node):
                    return (
                        f"unseeded np.random.{attr}() in worker-executed code"
                    )
                return None
            return (
                f"global-state np.random.{attr}() in worker-executed code "
                "(use a seeded Generator from the spec instead)"
            )
        # datetime.datetime.now()
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "datetime"
            and isinstance(base.value, ast.Name)
            and base.value.id in self._datetime_aliases
            and attr in _DATETIME_READS
        ):
            return f"wall-clock read datetime.datetime.{attr}() in worker code"
        return None


@register
class WallClockInWorkerRule(Rule):
    id = "R004"
    name = "wall-clock-in-worker"
    severity = "warning"
    description = (
        "time/random reads in code reachable from worker-pool chunk "
        "functions (breaks the pure-chunk retry contract)"
    )

    def check_module(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        reachable_here = [
            project.functions[key]
            for key in sorted(project.worker_reachable())
            if project.functions[key].module is module
        ]
        if not reachable_here:
            return
        visitor = _WorkerBodyVisitor(module)
        seen_lines = set()
        for record in reachable_here:
            visitor.findings = []
            visitor.visit(record.node)
            for node, message in visitor.findings:
                # Nested defs make a function body reachable twice (the
                # parent walk includes the child); report each site once.
                location = (node.lineno, node.col_offset)
                if location in seen_lines:
                    continue
                seen_lines.add(location)
                yield self.finding(
                    module,
                    node,
                    message
                    + f" (reachable from a ResilientPool entry via "
                    f"{record.qualname})",
                )
