"""Core machinery of the determinism-invariant linter (``reprolint``).

The guarantees this reproduction ships — byte-identical ``ECCSet.to_json``
across processes and reruns, every ``REPRO_*`` knob parsed in
one place, a typed error taxonomy where only ``PoolError`` is retried —
are *properties of the source code*, yet until this package they
were enforced only by runtime tests that sample a handful of
configurations.  This module provides the framework those properties are
checked with statically, on every file, on every push:

* :class:`Finding` — one diagnostic: rule, location, severity, message;
* :class:`Rule` — base class; concrete rules live in
  :mod:`repro.analysis.rules` and register themselves via
  :func:`register`;
* :class:`ModuleInfo` — a parsed source file: AST, source lines, import
  maps and the ``# repro: allow(<rule>)`` suppression table;
* :class:`ProjectIndex` — the cross-file view (function/class/method
  indexes and the worker-reachability call graph) that lets rules such as
  R004 (wall-clock-in-worker) follow calls across modules;
* :func:`run_analysis` — parse once, run every selected rule, drop
  suppressed findings, return a deterministic, sorted report.

Suppression syntax
------------------

A finding is suppressed by a comment on the same line, or on a
comment-only line immediately above, naming the rule by id or name::

    folded = [b for b in set(terms)]  # repro: allow(R001): feeds a sorted()
    # repro: allow(unordered-iteration): order-insensitive parity count
    folded = [b for b in set(terms) if terms.count(b) % 2]

Several rules may be named at once (``# repro: allow(R001, R003)``).
Suppressions are for *justified* exceptions and should carry a reason
after the closing parenthesis; wholesale grandfathering of existing debt
belongs in the baseline file instead (:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "Rule",
    "ModuleInfo",
    "ProjectIndex",
    "AnalysisResult",
    "register",
    "registered_rules",
    "get_rule",
    "run_analysis",
    "collect_files",
    "SEVERITIES",
    "PARSE_ERROR_RULE",
]

#: Recognized severities, most severe first.  ``error`` findings gate CI
#: (unless baselined), ``warning`` findings are reported but never fail a
#: run — each rule picks one (ISSUE 7's "per-rule severity").
SEVERITIES = ("error", "warning")

#: Pseudo-rule id attached to files that do not parse.
PARSE_ERROR_RULE = "P000"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)", re.IGNORECASE)
_COMMENT_ONLY_RE = re.compile(r"^\s*#")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule at a source location."""

    path: str  # repo-root-relative, posix separators
    line: int  # 1-based
    col: int  # 0-based (ast convention)
    rule: str  # "R001"
    name: str  # "unordered-iteration"
    severity: str  # one of SEVERITIES
    message: str
    #: Set by the driver after baseline matching; not part of identity.
    baselined: bool = field(default=False, compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
            "baselined": self.baselined,
        }


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement
    :meth:`check_module`; registration happens via the :func:`register`
    decorator so importing :mod:`repro.analysis.rules` populates the
    registry.
    """

    id: str = ""
    name: str = ""
    severity: str = "error"
    #: One-line rationale shown by ``--list-rules`` and the README table.
    description: str = ""

    def check_module(
        self, module: "ModuleInfo", project: "ProjectIndex"
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: "ModuleInfo", node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            name=self.name,
            severity=self.severity,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding a rule (one shared instance) to the registry."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} must define id and name")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"rule {rule.id}: unknown severity {rule.severity!r}")
    if rule.id in _REGISTRY:
        raise ValueError(f"rule id {rule.id} registered twice")
    # repro: allow(mutable-module-global): rule registry populated by the @register decorator at import time only
    _REGISTRY[rule.id] = rule
    return cls


def registered_rules() -> List[Rule]:
    """Every registered rule, in id order (deterministic report order)."""
    _load_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(token: str) -> Optional[Rule]:
    """Look a rule up by id (``R001``) or name (``unordered-iteration``)."""
    _load_rules()
    upper = token.strip().upper()
    if upper in _REGISTRY:
        return _REGISTRY[upper]
    lower = token.strip().lower()
    for rule in _REGISTRY.values():
        if rule.name == lower:
            return rule
    return None


def _load_rules() -> None:
    # Imported lazily: the rules package imports this module back.
    from repro.analysis import rules as _rules  # noqa: F401


class ModuleInfo:
    """A parsed source file plus the per-line facts rules keep asking for."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.rel_path = path.relative_to(root).as_posix()
        self.logical = self._logical_name(self.rel_path)
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree: ast.AST = ast.parse(self.source, filename=str(path))
        except SyntaxError as error:
            self.parse_error = error
            self.tree = ast.Module(body=[], type_ignores=[])
        #: alias -> imported module logical name ("np" -> "numpy",
        #: "faults" -> "repro.faults" for ``from repro import faults``).
        self.import_aliases: Dict[str, str] = {}
        #: local name -> (module logical name, original name) for
        #: ``from x import y [as z]``.
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        self._collect_imports()
        self._suppressions = self._collect_suppressions()

    @staticmethod
    def _logical_name(rel_path: str) -> str:
        parts = rel_path.split("/")
        if parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def in_package(self, prefix: str) -> bool:
        """Whether this module lives under the given logical package."""
        return self.logical == prefix or self.logical.startswith(prefix + ".")

    # -- imports -------------------------------------------------------------

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    self.import_aliases[name] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                # Relative imports are resolved against this module's package.
                base = node.module
                if node.level:
                    package = self.logical.split(".")
                    package = package[: len(package) - node.level]
                    base = ".".join(package + [node.module])
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.from_imports[local] = (base, alias.name)

    # -- suppressions --------------------------------------------------------

    def _collect_suppressions(self) -> Dict[int, Set[str]]:
        table: Dict[int, Set[str]] = {}
        pending: Set[str] = set()  # from comment-only lines above
        for lineno, text in enumerate(self.lines, start=1):
            match = _ALLOW_RE.search(text)
            tokens: Set[str] = set()
            if match:
                tokens = {
                    token.strip().lower()
                    for token in match.group(1).split(",")
                    if token.strip()
                }
            if _COMMENT_ONLY_RE.match(text) and tokens:
                pending |= tokens
                continue
            effective = tokens | pending
            if effective:
                table[lineno] = table.get(lineno, set()) | effective
            if text.strip():
                pending = set()
        return table

    def is_suppressed(self, finding: Finding) -> bool:
        tokens = self._suppressions.get(finding.line)
        if not tokens:
            return False
        return finding.rule.lower() in tokens or finding.name.lower() in tokens

    def suppression_lines(self) -> Dict[int, Set[str]]:
        """The effective per-line suppression table (for tests/reporting)."""
        return {line: set(tokens) for line, tokens in self._suppressions.items()}


@dataclass
class FunctionRecord:
    """One function or method definition, addressable across the project."""

    module: ModuleInfo
    qualname: str  # "foo" or "Class.foo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module.logical, self.qualname)


class ProjectIndex:
    """Cross-module indexes shared by every rule of one analysis run."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        self.by_logical: Dict[str, ModuleInfo] = {
            module.logical: module for module in self.modules
        }
        #: (module logical, qualname) -> FunctionRecord
        self.functions: Dict[Tuple[str, str], FunctionRecord] = {}
        #: module logical -> {top-level function name -> key}
        self.module_functions: Dict[str, Dict[str, Tuple[str, str]]] = {}
        #: method name -> [keys of every project method with that name]
        self.methods_by_name: Dict[str, List[Tuple[str, str]]] = {}
        #: (module logical, class name) -> {method name -> key}
        self.class_methods: Dict[Tuple[str, str], Dict[str, Tuple[str, str]]] = {}
        for module in self.modules:
            self._index_module(module)
        self._worker_reachable: Optional[Set[Tuple[str, str]]] = None
        self._worker_entries: Optional[List[Tuple[str, str]]] = None

    def _index_module(self, module: ModuleInfo) -> None:
        functions = self.module_functions.setdefault(module.logical, {})
        for node in module.tree.body if hasattr(module.tree, "body") else []:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                record = FunctionRecord(module, node.name, node)
                self.functions[record.key] = record
                functions[node.name] = record.key
            elif isinstance(node, ast.ClassDef):
                methods = self.class_methods.setdefault(
                    (module.logical, node.name), {}
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        record = FunctionRecord(
                            module,
                            f"{node.name}.{item.name}",
                            item,
                            class_name=node.name,
                        )
                        self.functions[record.key] = record
                        methods[item.name] = record.key
                        self.methods_by_name.setdefault(item.name, []).append(
                            record.key
                        )

    # -- worker reachability (computed once, shared by R004/R007) ------------

    def worker_entries(self) -> List[Tuple[str, str]]:
        """Functions handed to ``ResilientPool`` as chunk fn or initializer."""
        if self._worker_entries is None:
            from repro.analysis.callgraph import find_worker_entries

            self._worker_entries = find_worker_entries(self)
        return self._worker_entries

    def worker_reachable(self) -> Set[Tuple[str, str]]:
        """Every project function reachable (by name) from a worker entry."""
        if self._worker_reachable is None:
            from repro.analysis.callgraph import reachable_from

            self._worker_reachable = reachable_from(self, self.worker_entries())
        return self._worker_reachable


@dataclass
class AnalysisResult:
    """What one :func:`run_analysis` call produced."""

    findings: List[Finding]
    files_scanned: int
    suppressed: int

    def by_severity(self, severity: str) -> List[Finding]:
        return [finding for finding in self.findings if finding.severity == severity]


_SKIP_DIR_PARTS = {
    "__pycache__",
    ".git",
    ".repro_cache",
    ".benchmarks",
    ".venv",
    "node_modules",
}


def collect_files(paths: Iterable[Path], root: Path) -> List[Path]:
    """Expand the CLI path arguments into a sorted list of python files."""
    files: Set[Path] = set()
    for path in paths:
        path = path if path.is_absolute() else root / path
        if path.is_file() and path.suffix == ".py":
            files.add(path.resolve())
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIR_PARTS.intersection(candidate.parts):
                    files.add(candidate.resolve())
    return sorted(files)


def run_analysis(
    paths: Sequence[Path],
    root: Path,
    *,
    select: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Parse every file once, run the selected rules, drop suppressions.

    ``select`` narrows the run to specific rule ids/names; the default is
    every registered rule.  Findings come back sorted by location then rule
    id, which makes reports (and baseline files) deterministic.
    """
    root = root.resolve()
    files = collect_files(paths, root)
    modules = [ModuleInfo(root, path) for path in files]
    project = ProjectIndex(modules)
    rules: List[Rule]
    if select:
        rules = []
        for token in select:
            rule = get_rule(token)
            if rule is None:
                raise ValueError(f"unknown rule {token!r}")
            rules.append(rule)
    else:
        rules = registered_rules()
    findings: List[Finding] = []
    suppressed = 0
    for module in modules:
        if module.parse_error is not None:
            findings.append(
                Finding(
                    path=module.rel_path,
                    line=module.parse_error.lineno or 1,
                    col=(module.parse_error.offset or 1) - 1,
                    rule=PARSE_ERROR_RULE,
                    name="parse-error",
                    severity="error",
                    message=f"file does not parse: {module.parse_error.msg}",
                )
            )
            continue
        for rule in rules:
            for finding in rule.check_module(module, project):
                if module.is_suppressed(finding):
                    suppressed += 1
                else:
                    findings.append(finding)
    findings.sort()
    return AnalysisResult(
        findings=findings, files_scanned=len(modules), suppressed=suppressed
    )
