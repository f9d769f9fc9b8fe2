"""Figure 7: optimization effectiveness versus (n, q).

Effectiveness is the reduction in geometric-mean gate count over the
benchmark circuits when optimizing with an (n, q)-complete ECC set under a
fixed search budget.  The paper's shape: effectiveness rises with n up to a
point and then falls as the growing number of transformations slows each
search iteration; larger q shifts the curve.  This harness computes the same
series at reproduction scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Superoptimizer
from repro.benchmarks_suite import benchmark_circuit
from repro.experiments.table_gate_counts import naive_transpile, table_config


@dataclass
class EffectivenessPoint:
    """One point of the Figure 7 curves."""

    n: int
    q: int
    effectiveness: float  # reduction in geometric-mean gate count
    per_circuit: Dict[str, int]

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "q": self.q,
            "effectiveness": round(self.effectiveness, 4),
            "per_circuit": dict(self.per_circuit),
        }


def run_effectiveness_figure(
    circuit_names: Sequence[str],
    n_values: Sequence[int],
    q_values: Sequence[int],
    *,
    gate_set_name: str = "nam",
    gamma: float = 1.0001,
    max_iterations: Optional[int] = 30,
    timeout_seconds: Optional[float] = 15.0,
) -> List[EffectivenessPoint]:
    """Compute the Figure 7 series: one point per (n, q)."""
    originals = {
        name: naive_transpile(benchmark_circuit(name), gate_set_name).gate_count
        for name in circuit_names
    }
    points: List[EffectivenessPoint] = []
    for q in q_values:
        for n in n_values:
            quartz = Superoptimizer(
                table_config(
                    gate_set_name,
                    n,
                    q,
                    gamma=gamma,
                    max_iterations=max_iterations,
                    timeout_seconds=timeout_seconds,
                )
            )
            per_circuit: Dict[str, int] = {
                name: quartz.optimize(benchmark_circuit(name)).circuit.gate_count
                for name in circuit_names
            }
            ratios = [
                per_circuit[name] / originals[name]
                for name in circuit_names
                if originals[name] > 0
            ]
            geo_mean = math.exp(
                sum(math.log(max(r, 1e-12)) for r in ratios) / len(ratios)
            )
            points.append(
                EffectivenessPoint(
                    n=n, q=q, effectiveness=1.0 - geo_mean, per_circuit=per_circuit
                )
            )
    return points


def format_series(points: Sequence[EffectivenessPoint]) -> str:
    lines = [f"{'q':>3s} {'n':>3s} {'effectiveness':>15s}"]
    for point in points:
        lines.append(f"{point.q:>3d} {point.n:>3d} {point.effectiveness * 100:>14.1f}%")
    return "\n".join(lines)
