"""Best-effort intra-project call graph for worker-reachability rules.

R004 (wall-clock-in-worker) and R007 (mutable-module-global) reason about
*worker-executed* code: the functions a :class:`repro.workerpool.ResilientPool`
chunk function or initializer can reach.  Python being Python, perfect call
resolution is undecidable — this module resolves what the codebase actually
does and deliberately over-approximates the rest:

* ``foo()``            → the module's own ``foo``, else an imported ``foo``;
* ``mod.foo()``        → ``foo`` in the imported project module ``mod``;
* ``Cls.foo()`` / ``Cls()`` → the imported project class's method / ctor;
* ``self.foo()``       → ``foo`` on the enclosing class when known;
* ``obj.foo()``        → **every** project method named ``foo`` (the
  over-approximation: without type inference the receiver is unknown, so
  reachability errs toward inclusion — a missed wall-clock read in a worker
  is worse than an extra line to annotate).

The closure never enters a method of the pool class itself: those run in
the process that holds the pool, and its workers run only the functions
handed to it.  Without that cut, any ``obj.run()`` in worker code would
reach ``ResilientPool.run`` and, through its ``executor.submit()``, the
service's own ``JobManager.submit``.

Builtins and third-party modules are simply absent from the index, so
``.append()`` / ``np.reshape()`` resolve to nothing and cost nothing.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.core import FunctionRecord, ProjectIndex

__all__ = ["find_worker_entries", "call_targets", "reachable_from"]

#: The class whose call sites define worker entry points.  The first two
#: positional arguments of ``ResilientPool(worker_fn, initializer, ...)``
#: are executed in worker processes.
POOL_CLASS = "ResilientPool"
POOL_ENTRY_ARGS = 2


def _called_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def find_worker_entries(project: ProjectIndex) -> List[Tuple[str, str]]:
    """Every function passed to ``ResilientPool`` as chunk fn / initializer."""
    entries: List[Tuple[str, str]] = []
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call) and _called_name(node.func) == POOL_CLASS
            ):
                continue
            for arg in node.args[:POOL_ENTRY_ARGS]:
                if not isinstance(arg, ast.Name):
                    continue
                key = _resolve_name(arg.id, module, project)
                if key is not None and key not in entries:
                    entries.append(key)
    return entries


def _resolve_name(
    name: str, module, project: ProjectIndex
) -> Optional[Tuple[str, str]]:
    """A bare name in ``module`` -> project function key (or class ctor)."""
    local = project.module_functions.get(module.logical, {})
    if name in local:
        return local[name]
    if name in module.from_imports:
        target_module, orig = module.from_imports[name]
        remote = project.module_functions.get(target_module, {})
        if orig in remote:
            return remote[orig]
        ctor = project.class_methods.get((target_module, orig), {})
        if "__init__" in ctor:
            return ctor["__init__"]
    # A class defined in this module, called as a constructor.
    ctor = project.class_methods.get((module.logical, name), {})
    if "__init__" in ctor:
        return ctor["__init__"]
    return None


def call_targets(
    record: FunctionRecord, project: ProjectIndex
) -> Set[Tuple[str, str]]:
    """Project functions the given function's body may call (by name)."""
    module = record.module
    targets: Set[Tuple[str, str]] = set()
    for node in ast.walk(record.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            key = _resolve_name(func.id, module, project)
            if key is not None:
                targets.add(key)
        elif isinstance(func, ast.Attribute):
            targets.update(_attribute_targets(func, record, project))
    return targets


def _attribute_targets(
    func: ast.Attribute, record: FunctionRecord, project: ProjectIndex
) -> Iterable[Tuple[str, str]]:
    module = record.module
    base = func.value
    method = func.attr
    if isinstance(base, ast.Name):
        # mod.foo() on an imported project module.
        if base.id in module.import_aliases:
            target_module = module.import_aliases[base.id]
            remote = project.module_functions.get(target_module, {})
            if method in remote:
                return [remote[method]]
            ctor = project.class_methods.get((target_module, method), {})
            if "__init__" in ctor:
                return [ctor["__init__"]]
            return []
        # Cls.foo() on an imported (or local) project class.
        if base.id in module.from_imports:
            target_module, orig = module.from_imports[base.id]
            methods = project.class_methods.get((target_module, orig), {})
            if method in methods:
                return [methods[method]]
        if (module.logical, base.id) in project.class_methods:
            methods = project.class_methods[(module.logical, base.id)]
            if method in methods:
                return [methods[method]]
        # self.foo() inside a known class.
        if base.id == "self" and record.class_name is not None:
            methods = project.class_methods.get(
                (module.logical, record.class_name), {}
            )
            if method in methods:
                return [methods[method]]
    # Receiver type unknown: over-approximate with every project method of
    # this name (builtins aren't indexed, so .append()/.get() on stdlib
    # types resolve to project classes only, if any).
    return project.methods_by_name.get(method, [])


def reachable_from(
    project: ProjectIndex, entries: Iterable[Tuple[str, str]]
) -> Set[Tuple[str, str]]:
    """BFS closure of :func:`call_targets`, not entering :data:`POOL_CLASS`."""
    seen: Set[Tuple[str, str]] = set()
    frontier = [key for key in entries if key in project.functions]
    seen.update(frontier)
    while frontier:
        next_frontier: List[Tuple[str, str]] = []
        for key in frontier:
            record = project.functions[key]
            for target in call_targets(record, project):
                if target in seen or target not in project.functions:
                    continue
                if project.functions[target].class_name == POOL_CLASS:
                    continue
                seen.add(target)
                next_frontier.append(target)
        frontier = next_frontier
    return seen
