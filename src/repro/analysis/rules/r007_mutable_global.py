"""R007 ``mutable-module-global`` — the fork-pool race detector, lite.

The worker pools fork.  Every module-level object is therefore *copied*
into each worker at spawn time, after which parent and workers diverge
silently: a module-level dict a worker mutates mid-run is invisible to
the parent, differs between workers depending on chunk assignment, and —
the dangerous part — survives into the *next* chunk dispatched to that
worker, making chunk results depend on dispatch history.  That is exactly
the nondeterminism class the "pure function of payload + spec" retry
contract forbids, and it is invisible to the byte-identity tests unless a
fault lands on a poisoned worker.

The sanctioned patterns, for contrast, are:

* worker state set by the pool initializer into a global that starts as
  ``None`` (the service's ``_WORKER_BASE_CONFIG``) — set once per
  process, before any chunk;
* instance-level caches (``FingerprintContext._state_cache``) — owned by
  one object, so divergence cannot leak across processes;
* import-time registries (``GATE_REGISTRY``) — fully populated before
  the fork, hence identical in every process (annotated inline).

Flagged: in any module containing worker-reachable code, a module-level
name bound to a mutable container (list/dict/set display or
comprehension, or a ``list()/dict()/set()/OrderedDict()/defaultdict()/
Counter()/deque()`` call) that function-level code then mutates
(``.append``/``.update``/``[k] = v``/``del``/augmented assignment) or
rebinds through ``global``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["MutableModuleGlobalRule"]

_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "OrderedDict",
    "defaultdict",
    "Counter",
    "deque",
}
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "update",
    "setdefault",
    "extend",
    "insert",
    "remove",
    "discard",
    "pop",
    "popitem",
    "popleft",
    "clear",
}


def _is_mutable_container(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in _MUTABLE_CALLS
    return False


def _module_level_mutables(module: ModuleInfo) -> Dict[str, int]:
    """name -> definition line for module-level mutable container bindings."""
    result: Dict[str, int] = {}
    for node in getattr(module.tree, "body", []):
        value = None
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None or not _is_mutable_container(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id not in result:
                result[target.id] = node.lineno
    return result


def _function_mutations(
    module: ModuleInfo, names: Set[str]
) -> List[Tuple[str, ast.AST, str]]:
    """(name, node, how) for every function-level mutation of ``names``."""
    hits: List[Tuple[str, ast.AST, str]] = []
    for top in ast.walk(module.tree):
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared_global: Set[str] = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Global):
                declared_global.update(set(node.names) & names)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        hits.append((target.id, node, "rebound via global"))
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in names
                    ):
                        hits.append(
                            (target.value.id, node, "item assignment")
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in names
                    ):
                        hits.append((target.value.id, node, "item deletion"))
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                base = node.func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in names
                    and node.func.attr in _MUTATING_METHODS
                ):
                    hits.append((base.id, node, f".{node.func.attr}()"))
    return hits


@register
class MutableModuleGlobalRule(Rule):
    id = "R007"
    name = "mutable-module-global"
    severity = "error"
    description = (
        "module-level mutable container mutated from function code in a "
        "worker-executed module (fork-pool state divergence hazard)"
    )

    def check_module(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if not any(
            project.functions[key].module is module
            for key in project.worker_reachable()
        ):
            return
        mutables = _module_level_mutables(module)
        if not mutables:
            return
        reported: Set[Tuple[str, int]] = set()
        for name, node, how in _function_mutations(module, set(mutables)):
            key = (name, node.lineno)
            if key in reported:
                continue
            reported.add(key)
            yield self.finding(
                module,
                node,
                f"module-level mutable {name!r} (defined at line "
                f"{mutables[name]}) mutated from function code ({how}); "
                "under fork pools each process diverges silently — move the "
                "state into the worker spec, or annotate why it is safe "
                "(e.g. populated only at import time)",
            )
