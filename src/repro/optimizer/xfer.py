"""Circuit transformations extracted from an ECC set (Section 6).

The optimizer converts each ECC with circuits ``C_1 ... C_x`` (``C_1`` the
representative) into the 2(x-1) transformations ``C_1 -> C_i`` and
``C_i -> C_1``; these suffice to reach any member of the class from any
other.  Transformations whose source is the empty circuit are dropped — they
cannot be matched against anything and only ever increase cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List

from repro.generator.ecc import ECCSet
from repro.ir.circuit import Circuit
from repro.optimizer.matcher import (
    MatchPlan,
    TargetTemplate,
    compile_match_plan,
    compile_target_template,
)


@dataclass(frozen=True)
class Transformation:
    """A rewrite rule: replace a match of ``source`` by ``target``.

    Both circuits are symbolic (their angles may mention pattern parameters)
    and are expressed over the same local qubits; the matcher translates
    them to the qubits of the circuit being optimized.
    """

    source: Circuit
    target: Circuit
    name: str = ""

    @property
    def gate_delta(self) -> int:
        """Change in gate count when the transformation is applied."""
        return len(self.target) - len(self.source)

    @cached_property
    def source_key(self) -> tuple:
        """Identity of the source pattern; transformations extracted from the
        same ECC share sources, so the match trie holds one pattern per key."""
        return self.source.sequence_key()

    @cached_property
    def match_plan(self) -> MatchPlan:
        """The source pattern compiled for the matcher (once per rule)."""
        return compile_match_plan(self.source)

    @cached_property
    def target_template(self) -> TargetTemplate:
        """The target compiled for instantiation at a match (once per rule):
        its instructions and the qubits and params the source lacks."""
        return compile_target_template(self.source, self.target)

    def __repr__(self) -> str:
        return (
            f"Transformation({self.name or 'unnamed'}: "
            f"{len(self.source)} gates -> {len(self.target)} gates)"
        )


def transformations_from_ecc_set(ecc_set: ECCSet) -> List[Transformation]:
    """Expand an ECC set (the generator's, usually pruned) into explicit
    transformations."""
    transformations: List[Transformation] = []
    for ecc_index, ecc in enumerate(ecc_set):
        representative = ecc.representative
        for other_index, other in enumerate(ecc.others()):
            pairs = [
                (other, representative),  # usually cost-decreasing
                (representative, other),  # usually cost-increasing
            ]
            for source, target in pairs:
                if len(source) == 0:
                    continue
                transformations.append(
                    Transformation(
                        source=source,
                        target=target,
                        name=f"ecc{ecc_index}.{other_index}"
                        + (".fwd" if source is other else ".bwd"),
                    )
                )
    return transformations
