"""Table 6: how many circuits each stage of the generator considers.

Columns: the number of all possible circuits with at most n gates (counted,
not enumerated), the number RepGen actually examines, and the number of
circuits remaining in the ECC set after ECC simplification and after
common-subcircuit pruning.  The ratios (reduction factors) are what the
paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.api import RunConfig, run_generation
from repro.generator.brute import count_possible_circuits
from repro.generator.pruning import prune_common_subcircuits, simplify_ecc_set
from repro.ir.gatesets import get_gate_set


@dataclass
class PruningRow:
    """One line of Table 6."""

    gate_set: str
    n: int
    q: int
    possible_circuits: int
    repgen_circuits: int
    after_simplification: int
    after_common_subcircuit: int

    def reduction_factors(self) -> Dict[str, float]:
        def factor(value: int) -> float:
            return self.possible_circuits / value if value else float("inf")

        return {
            "repgen": factor(self.repgen_circuits),
            "simplification": factor(self.after_simplification),
            "common_subcircuit": factor(self.after_common_subcircuit),
        }

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "gate_set": self.gate_set,
            "n": self.n,
            "q": self.q,
            "possible": self.possible_circuits,
            "repgen": self.repgen_circuits,
            "+ecc_simplification": self.after_simplification,
            "+common_subcircuit": self.after_common_subcircuit,
        }
        row.update(
            {f"x_{k}": round(v, 1) for k, v in self.reduction_factors().items()}
        )
        return row


def run_pruning_table(
    gate_set_name: str, n_values: Sequence[int], q: int = 3
) -> List[PruningRow]:
    """Produce the Table 6 rows for one gate set."""
    gate_set = get_gate_set(gate_set_name)
    rows: List[PruningRow] = []
    for n in n_values:
        possible = count_possible_circuits(gate_set, n, q)
        result = run_generation(
            gate_set_name, RunConfig.from_env(n=n, q=q).generation
        )
        simplified = simplify_ecc_set(result.ecc_set)
        pruned = prune_common_subcircuits(simplified)
        rows.append(
            PruningRow(
                gate_set=gate_set_name,
                n=n,
                q=q,
                possible_circuits=possible,
                repgen_circuits=result.stats.circuits_considered,
                after_simplification=simplified.num_circuits(),
                after_common_subcircuit=pruned.num_circuits(),
            )
        )
    return rows


def format_table(rows: Sequence[PruningRow]) -> str:
    header = [
        "gate set",
        "n",
        "possible",
        "RepGen",
        "+ECC simpl.",
        "+common sub.",
    ]
    lines = ["  ".join(f"{h:>13s}" for h in header)]
    for row in rows:
        factors = row.reduction_factors()
        cells = [
            row.gate_set,
            str(row.n),
            str(row.possible_circuits),
            f"{row.repgen_circuits} ({factors['repgen']:.0f}x)",
            f"{row.after_simplification} ({factors['simplification']:.0f}x)",
            f"{row.after_common_subcircuit} ({factors['common_subcircuit']:.0f}x)",
        ]
        lines.append("  ".join(f"{c:>13s}" for c in cells))
    return "\n".join(lines)
