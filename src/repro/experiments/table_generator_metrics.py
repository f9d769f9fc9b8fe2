"""Tables 5 and 8: generator and verifier metrics.

For a gate set and a range of n (at fixed q, Table 5) or a grid of (n, q)
(Table 8), report the number of transformations |T| in the pruned ECC set,
the number of representatives |R_n|, the verification time and the total
generation time, plus the characteristic ch(G, Sigma, q, m).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.api import GenerationConfig, run_generation
from repro.generator.brute import characteristic
from repro.generator.pruning import prune_common_subcircuits, simplify_ecc_set
from repro.ir.gatesets import get_gate_set


@dataclass
class GeneratorMetricsRow:
    """One line of Table 5 / Table 8."""

    gate_set: str
    n: int
    q: int
    characteristic: int
    num_transformations: int
    num_representatives: int
    verification_time: float
    total_time: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "gate_set": self.gate_set,
            "n": self.n,
            "q": self.q,
            "ch": self.characteristic,
            "|T|": self.num_transformations,
            "|R_n|": self.num_representatives,
            "verification_time_s": round(self.verification_time, 3),
            "total_time_s": round(self.total_time, 3),
        }


def run_generator_metrics(
    gate_set_name: str,
    n_values: Sequence[int],
    q_values: Sequence[int] = (3,),
    generation: Optional[GenerationConfig] = None,
) -> List[GeneratorMetricsRow]:
    """Generate ECC sets for each (n, q) and collect the Table 5/8 metrics.

    ``generation`` carries every other generation knob (cache, resume,
    seed, ...); each row replaces only its n and q.
    """
    generation = generation or GenerationConfig()
    gate_set = get_gate_set(gate_set_name)
    rows: List[GeneratorMetricsRow] = []
    for q in q_values:
        ch = characteristic(gate_set, q)
        for n in n_values:
            result = run_generation(
                gate_set_name, dataclasses.replace(generation, n=n, q=q)
            )
            pruned = prune_common_subcircuits(simplify_ecc_set(result.ecc_set))
            rows.append(
                GeneratorMetricsRow(
                    gate_set=gate_set_name,
                    n=n,
                    q=q,
                    characteristic=ch,
                    num_transformations=pruned.num_transformations(),
                    num_representatives=result.stats.num_representatives,
                    verification_time=result.stats.verification_time,
                    total_time=result.stats.total_time,
                )
            )
    return rows


def format_table(rows: Sequence[GeneratorMetricsRow]) -> str:
    header = ["gate set", "q", "n", "ch", "|T|", "|R_n|", "verif (s)", "total (s)"]
    lines = ["  ".join(f"{h:>10s}" for h in header)]
    for row in rows:
        cells = [
            row.gate_set,
            str(row.q),
            str(row.n),
            str(row.characteristic),
            str(row.num_transformations),
            str(row.num_representatives),
            f"{row.verification_time:.2f}",
            f"{row.total_time:.2f}",
        ]
        lines.append("  ".join(f"{c:>10s}" for c in cells))
    return "\n".join(lines)
