"""R005 ``spec-pickle-completeness`` — worker specs must capture the ctor.

A process pool that rebuilds worker-side state from a picklable *spec*
(a ``spec()`` method returning a plain dict from which ``from_spec``
constructs a bit-identical twin in another process) relies on the spec
being **complete** — every constructor parameter that can influence
results must be represented, or a worker rebuilt from the spec silently
diverges from its parent.  This happened once already: a ``batched``
flag was added to ``__init__`` but not (at first) to ``spec()``, and
multi-worker runs stopped being byte-identical to serial until review
caught it.

The rule: for every class defining both ``__init__`` and ``spec``, the
string keys of the dict(s) ``spec`` returns must cover every ``__init__``
parameter (positional, keyword-only; ``self``/``*args``/``**kwargs``
excluded).  Deliberately *per-process* parameters — perf recorders,
caches — are the annotated exception::

    # repro: allow(spec-pickle-completeness): perf recorders are per-process
    def spec(self) -> dict:
        ...

Only classes whose ``spec`` returns dict literals are checked; a ``spec``
built dynamically is outside static reach and stays silent (the runtime
round-trip tests still cover it).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["SpecPickleCompletenessRule"]


def _init_params(init: ast.FunctionDef) -> List[str]:
    args = init.args
    names = [arg.arg for arg in args.posonlyargs + args.args if arg.arg != "self"]
    names.extend(arg.arg for arg in args.kwonlyargs)
    return names


def _spec_dict_keys(spec: ast.FunctionDef) -> Optional[Set[str]]:
    """String keys of every dict display ``spec`` can return, or None.

    Follows one level of indirection: ``return payload`` where ``payload``
    was assigned a dict display in the same body.
    """
    assigned: dict = {}
    for node in ast.walk(spec):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned[target.id] = node.value
    keys: Set[str] = set()
    saw_dict = False
    for node in ast.walk(spec):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in assigned:
            value = assigned[value.id]
        if not isinstance(value, ast.Dict):
            return None  # dynamically built; out of static reach
        saw_dict = True
        for key in value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
    return keys if saw_dict else None


@register
class SpecPickleCompletenessRule(Rule):
    id = "R005"
    name = "spec-pickle-completeness"
    severity = "error"
    description = (
        "a class's spec() dict omits __init__ parameters, so workers "
        "rebuilt from the spec can diverge from the parent"
    )

    def check_module(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            init = spec = None
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    if item.name == "__init__":
                        init = item
                    elif item.name == "spec":
                        spec = item
            if init is None or spec is None:
                continue
            keys = _spec_dict_keys(spec)
            if keys is None:
                continue
            missing = [name for name in _init_params(init) if name not in keys]
            if missing:
                yield self.finding(
                    module,
                    spec,
                    f"{node.name}.spec() omits __init__ parameter(s) "
                    f"{', '.join(missing)}; a worker rebuilt from this spec "
                    "may not be bit-identical to its parent (annotate "
                    "deliberately per-process params with a suppression)",
                )
