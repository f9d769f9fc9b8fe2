"""R002 ``env-centralization`` — all environment access goes through envconfig.

PR 3 centralized every ``REPRO_*`` knob in :mod:`repro.envconfig` for a
reason that bit twice before: when two call sites parse the same variable
themselves, their semantics drift (the historical example being
``REPRO_CACHE_DISABLE=0`` *disabling* the cache at one site and enabling
it at another).  ``RunConfig.from_env`` additionally promises a *single
snapshot* of the environment per run — a stray ``os.environ`` read
mid-run would see later mutations and break that promise.

Flagged anywhere outside the allowlist:

* any use of ``os.environ`` (read, write, ``in``, ``.get`` — the access
  itself is the violation);
* ``os.getenv`` / ``os.putenv`` / ``os.unsetenv`` calls;
* ``from os import environ/getenv/...`` (flagged at the import, plus any
  use of the imported name).

Allowlist: ``repro.envconfig`` alone, the one place variables are read
and parsed.  Nothing writes the environment either: the experiments CLI
turns its flags into a :class:`~repro.api.RunConfig` and passes it down.

Scope: every scanned file (``src``, ``scripts``, ``benchmarks``) — the
benchmark harness's knobs (``REPRO_MICROBENCH*``) are knobs like any
other and parse in envconfig too.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["EnvCentralizationRule"]

_OS_ENV_FUNCS = {"getenv", "putenv", "unsetenv"}
_OS_ENV_NAMES = {"environ"} | _OS_ENV_FUNCS


@register
class EnvCentralizationRule(Rule):
    id = "R002"
    name = "env-centralization"
    severity = "error"
    description = (
        "os.environ/os.getenv access outside repro.envconfig (knob "
        "semantics drift and break the one-snapshot config contract)"
    )

    ALLOWED_MODULES = frozenset({"repro.envconfig"})

    def check_module(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if module.logical in self.ALLOWED_MODULES:
            return
        os_aliases = {
            alias
            for alias, target in module.import_aliases.items()
            if target == "os"
        }
        env_names: Set[str] = {
            local
            for local, (target_module, orig) in module.from_imports.items()
            if target_module == "os" and orig in _OS_ENV_NAMES
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                flagged = [
                    alias.name
                    for alias in node.names
                    if alias.name in _OS_ENV_NAMES
                ]
                if flagged:
                    yield self.finding(
                        module,
                        node,
                        f"importing {', '.join(flagged)} from os; parse "
                        "environment knobs in repro.envconfig instead",
                    )
            elif isinstance(node, ast.Attribute) and node.attr in _OS_ENV_NAMES:
                if isinstance(node.value, ast.Name) and node.value.id in os_aliases:
                    yield self.finding(
                        module,
                        node,
                        f"os.{node.attr} accessed outside repro.envconfig; "
                        "add an accessor there so every knob is parsed one "
                        "way (and snapshotted by RunConfig.from_env)",
                    )
            elif isinstance(node, ast.Name) and node.id in env_names:
                if isinstance(node.ctx, ast.Load):
                    yield self.finding(
                        module,
                        node,
                        f"{node.id} (imported from os) used outside "
                        "repro.envconfig; route through an envconfig accessor",
                    )
