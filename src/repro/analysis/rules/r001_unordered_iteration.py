"""R001 ``unordered-iteration`` — sets must not feed ordered output.

The repo's headline guarantee is byte-identical ``ECCSet.to_json`` across
processes and reruns.  Everything between a gate set
and that JSON — circuit construction, fingerprint bucketing, ECC inserts,
canonical serialization — is therefore order-sensitive code, and iterating
a ``set`` (or ``frozenset``) inside it is a latent nondeterminism bug:
CPython's set iteration order depends on insertion history and on element
hashes, and **string hashing is randomized per process** (PEP 456), so the
same run can emit differently ordered output on the next invocation.  PRs
2–6 each caught one of these by hand in review (most recently the
``set(terms)`` parity folds in ``benchmarks_suite/gf2.py``); this rule
catches them mechanically.

What is flagged — iterating a *known-set* expression in an order-sensitive
context without ``sorted()``:

* ``for x in set(...)`` / set displays / set comprehensions / unions and
  intersections of known sets / ``s.union(...)``-style results;
* the same expressions as the iterable of a comprehension;
* ``list()/tuple()/enumerate()/iter()/reversed()/"".join()`` over them,
  and ``something.extend(<set>)``;
* local names whose every assignment in the enclosing scope is a known-set
  expression.

What is deliberately **not** flagged:

* ``sorted(<set>)`` / ``min`` / ``max`` / ``sum`` / ``any`` / ``all`` /
  ``len`` — order-insensitive or order-restoring consumers;
* membership tests (``x in s``) — no iteration order involved;
* ``dict`` iteration: CPython dicts preserve insertion order (guaranteed
  since 3.7), and the generator's merge logic *relies* on enumeration
  order being deterministic — flagging dicts would bury the signal.

Scope: ``src/repro`` (the library — everything there ultimately feeds
canonical output: ``ir/``, ``generator/``, ``verifier/``, ``semantics/``,
and the benchmark-circuit constructors in ``benchmarks_suite/``).
Scripts and pytest files iterate sets for reporting, which is harmless.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["UnorderedIterationRule"]

#: Calls producing a set regardless of argument types.
_SET_CALLS = {"set", "frozenset"}
#: Set methods returning a set when the receiver is a known set.
_SET_RETURNING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
#: Binary operators that combine two sets into a set.
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
#: Order-sensitive consumers: calling these on a set leaks its order.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "reversed"}
#: Order-sensitive methods: ``lst.extend(s)``, ``", ".join(s)``.
_ORDER_SENSITIVE_METHODS = {"extend", "join"}
#: Order-insensitive consumers: a generator expression fed straight into
#: one of these may iterate a set freely (``all(q == c for q in shared)``).
_ORDER_INSENSITIVE_CALLS = {
    "sorted",
    "min",
    "max",
    "sum",
    "any",
    "all",
    "len",
    "set",
    "frozenset",
}


class _ScopeVisitor(ast.NodeVisitor):
    """Walks one scope (module body or one function), tracking set names.

    Nested functions and lambdas start fresh scopes (handled by the rule,
    not recursed into here) so a name's set-ness is never guessed across
    scope boundaries.
    """

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.set_names: Set[str] = set()
        self.findings: List[Tuple[ast.AST, str]] = []
        self._order_insensitive: Set[ast.AST] = set()

    # -- set-ness ------------------------------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CALLS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_RETURNING_METHODS
                and self._is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_set_expr(node.left) and self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        return False

    def _describe(self, node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return f"the set {node.id!r}"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set display"
        return "a set expression"

    # -- assignments ---------------------------------------------------------

    def _record_assignment(self, target: ast.AST, value: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        if self._is_set_expr(value):
            self.set_names.add(target.id)
        else:
            # A later non-set rebind clears the mark: one linear pass over
            # the scope tracks the common straight-line pattern; anything
            # fancier conservatively stops being "known set".
            self.set_names.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._record_assignment(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._record_assignment(node.target, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)
        # ``s |= other`` keeps a known set a set; anything else clears it.
        if isinstance(node.target, ast.Name) and not (
            isinstance(node.op, _SET_BINOPS) and node.target.id in self.set_names
        ):
            self.set_names.discard(node.target.id)

    # -- iteration contexts --------------------------------------------------

    def _check_iterable(self, node: ast.AST) -> None:
        if self._is_set_expr(node):
            self.findings.append((node, self._describe(node)))

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        if node not in self._order_insensitive:
            for generator in node.generators:  # type: ignore[attr-defined]
                self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE_CALLS:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    self._order_insensitive.add(arg)
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_CALLS
            and node.args
        ):
            self._check_iterable(node.args[0])
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _ORDER_SENSITIVE_METHODS
            and node.args
        ):
            self._check_iterable(node.args[0])
        self.generic_visit(node)

    # -- scope boundaries ----------------------------------------------------
    # A def/lambda's body is a separate scope (yielded independently by
    # ``_scopes``), so the enclosing scope does not descend into it.

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _scopes(tree: ast.AST) -> Iterator[List[ast.stmt]]:
    """The module body and every (nested) function body, each one scope."""
    yield tree.body  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


@register
class UnorderedIterationRule(Rule):
    id = "R001"
    name = "unordered-iteration"
    severity = "error"
    description = (
        "iterating a set without sorted() in library code that feeds "
        "canonical output (set order is process-dependent)"
    )

    SCOPE_PACKAGE = "repro"

    def check_module(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if not module.in_package(self.SCOPE_PACKAGE):
            return
        for body in _scopes(module.tree):
            visitor = _ScopeVisitor(module)
            for stmt in body:
                visitor.visit(stmt)
            for node, described in visitor.findings:
                yield self.finding(
                    module,
                    node,
                    f"iterating {described} leaks process-dependent set "
                    "order into library output; wrap in sorted() or use an "
                    "order-preserving dedup (e.g. dict.fromkeys)",
                )
