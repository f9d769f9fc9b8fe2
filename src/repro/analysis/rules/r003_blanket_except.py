"""R003 ``blanket-except`` — catch-alls must be contracts, not habits.

PR 6 introduced the typed error taxonomy (:mod:`repro.errors`) precisely
because blanket ``except Exception`` handlers in the pool fallbacks were
swallowing programming errors: a ``TypeError`` in a chunk function looked
exactly like a killed worker, and the round silently degraded to serial
instead of surfacing the bug.  The taxonomy's contract is *"recovery
sites catch exactly what they handle"* — ``except PoolError`` for
degrade-to-serial, ``except CacheCorruption`` for regenerate, and so on.

A blanket handler is still sometimes right (a cache read that must never
raise, a dispatch boundary where any failure is infra by construction) —
but then it is a *documented contract*.  This rule flags every handler
catching ``Exception`` / ``BaseException`` / bare ``except:`` unless one
of these holds:

* the handler line carries the contract comment ``# noqa: BLE001`` (the
  repo's existing convention, with a reason after it) or a
  ``# repro: allow(blanket-except)`` suppression;
* the handler body re-raises through the taxonomy: ``raise XError(...)
  from error`` where ``XError`` is imported from :mod:`repro.errors`;
* the handler body ends the catch with a bare ``raise`` (re-raising the
  original preserves it — nothing is swallowed).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["BlanketExceptRule"]

_NOQA_RE = re.compile(r"#\s*noqa:\s*BLE001", re.IGNORECASE)
_BLANKET_NAMES = {"Exception", "BaseException"}
_ERRORS_MODULE = "repro.errors"

#: Taxonomy class names, accepted even when the import is in a parent
#: package re-export the index cannot see.
_TAXONOMY_NAMES = {
    "ReproError",
    "PoolError",
    "ChunkTimeout",
    "WorkerCrash",
    "RetryExhausted",
    "CacheCorruption",
    "FaultConfigError",
    "FaultInjected",
}


def _is_blanket(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Name):
        names = [handler.type.id]
    elif isinstance(handler.type, ast.Tuple):
        names = [elt.id for elt in handler.type.elts if isinstance(elt, ast.Name)]
    return any(name in _BLANKET_NAMES for name in names)


def _raises_through_taxonomy(handler: ast.ExceptHandler, module: ModuleInfo) -> bool:
    for node in ast.walk(handler):
        if not isinstance(node, ast.Raise):
            continue
        if node.exc is None:
            return True  # bare ``raise``: the original error survives
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name is None:
            continue
        imported = module.from_imports.get(name)
        if imported is not None and imported[0] == _ERRORS_MODULE:
            return True
        if name in _TAXONOMY_NAMES:
            return True
    return False


@register
class BlanketExceptRule(Rule):
    id = "R003"
    name = "blanket-except"
    severity = "error"
    description = (
        "except Exception without a # noqa: BLE001 contract comment or a "
        "typed re-raise through the repro.errors taxonomy"
    )

    def check_module(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_blanket(node):
                continue
            line = module.lines[node.lineno - 1] if node.lineno <= len(
                module.lines
            ) else ""
            if _NOQA_RE.search(line):
                continue
            if _raises_through_taxonomy(node, module):
                continue
            caught = "bare except" if node.type is None else "except Exception"
            yield self.finding(
                module,
                node,
                f"{caught} swallows programming errors; catch a class from "
                "the repro.errors taxonomy, re-raise through it, or state "
                "the contract with '# noqa: BLE001 — <reason>'",
            )
