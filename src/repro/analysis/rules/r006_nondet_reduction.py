"""R006 ``nondeterministic-reduction`` — the fingerprint path stays exact.

Fingerprint hash keys are a *declared theorem*: a candidate's key, computed
incrementally on its parent's cached state and batched with every other
candidate sharing its instruction, is bit-for-bit the key a full replay
of the candidate gives.  That is what lets the sampling cross-check demand
exact equality and what keeps ``ECCSet.to_json`` independent of how a
round's candidates were grouped.  The proof is delicate — the batched
matmul is bit-identical only because each per-state slice has the *exact
shapes* of the per-state kernel, and the amplitudes stay a per-row
``np.vdot`` because a BLAS gemv would reorder the accumulation
(floating-point addition is not associative; BLAS picks its own summation
order per shape, thread count and CPU).

Any *new* reduction-flavored numpy call in the modules that compute those
floats therefore needs the same scrutiny, mechanically: this rule flags,
in :mod:`repro.semantics.simulator` (the kernels) and
:mod:`repro.semantics.fingerprint` (the incremental, batched path), calls
to ``np.sum`` / ``np.dot`` / ``np.matmul`` / ``np.einsum`` /
``np.tensordot`` / ``np.inner`` / ``np.prod`` / ``np.trace``,
``.sum()``/``.dot()``/``.prod()``/``.trace()`` method calls, and the ``@``
matmul operator.  Sites whose bit-identity has been argued (and
property-tested) carry an inline
``# repro: allow(nondeterministic-reduction): <why it is exact>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, ProjectIndex, Rule, register

__all__ = ["NondeterministicReductionRule"]

_NP_REDUCTIONS = {
    "sum",
    "dot",
    "matmul",
    "einsum",
    "tensordot",
    "inner",
    "prod",
    "trace",
}
_METHOD_REDUCTIONS = {"sum", "dot", "prod", "trace"}


@register
class NondeterministicReductionRule(Rule):
    id = "R006"
    name = "nondeterministic-reduction"
    severity = "error"
    description = (
        "BLAS-flavored reduction added to a module that computes fingerprint "
        "floats (accumulation order must be proven exact)"
    )

    #: The modules whose floats fingerprint hash keys are made of: the
    #: kernels and the incremental, batched path over them.
    MODULES = frozenset(
        {"repro.semantics.simulator", "repro.semantics.fingerprint"}
    )

    def check_module(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if module.logical not in self.MODULES:
            return
        numpy_aliases = {
            alias
            for alias, target in module.import_aliases.items()
            if target == "numpy"
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield self.finding(
                    module,
                    node,
                    "matmul (@) in a fingerprint module: prove the "
                    "per-state accumulation order is unchanged (exact "
                    "per-slice shapes) or annotate",
                )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                attr = node.func.attr
                base = node.func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in numpy_aliases
                    and attr in _NP_REDUCTIONS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"np.{attr}() in a fingerprint module: BLAS "
                        "reductions reorder floating-point accumulation; "
                        "prove exactness or annotate",
                    )
                elif attr in _METHOD_REDUCTIONS and not isinstance(
                    base, ast.Name
                ):
                    yield self.finding(
                        module,
                        node,
                        f".{attr}() reduction in a fingerprint module: "
                        "prove the accumulation order or annotate",
                    )
                elif (
                    attr in _METHOD_REDUCTIONS
                    and isinstance(base, ast.Name)
                    and base.id not in numpy_aliases
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{base.id}.{attr}() reduction in a fingerprint "
                        "module: prove the accumulation order or annotate",
                    )
