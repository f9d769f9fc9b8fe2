"""Figure 8: optimization effectiveness as a function of search time.

The paper plots, for q = 3 and several values of n, how the geometric-mean
gate-count reduction evolves over 24 hours of search, plus a "best" curve
that picks the best n per circuit at every time point.  This harness runs the
backtracking search with a (much smaller) wall-clock budget, samples the
best-cost trace the optimizer records, and assembles the same series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import GenerationConfig, build_ecc_set
from repro.benchmarks_suite import benchmark_circuit
from repro.experiments.table_gate_counts import naive_transpile
from repro.optimizer import BacktrackingOptimizer, transformations_from_ecc_set
from repro.preprocess import preprocess


@dataclass
class TimeCurve:
    """Effectiveness-over-time series for one value of n."""

    n: int
    q: int
    # Sample times (seconds) and the geometric-mean reduction at each sample.
    times: List[float] = field(default_factory=list)
    effectiveness: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "q": self.q,
            "times": [round(t, 3) for t in self.times],
            "effectiveness": [round(e, 4) for e in self.effectiveness],
        }


def run_time_curves(
    circuit_names: Sequence[str],
    n_values: Sequence[int],
    *,
    q: int = 3,
    gate_set_name: str = "nam",
    gamma: float = 1.0001,
    time_budget_seconds: float = 10.0,
    num_samples: int = 8,
    include_best_curve: bool = True,
) -> List[TimeCurve]:
    """Compute the Figure 8 series (one curve per n, plus "best")."""
    originals = {
        name: naive_transpile(benchmark_circuit(name), gate_set_name).gate_count
        for name in circuit_names
    }
    sample_times = [
        time_budget_seconds * (index + 1) / num_samples for index in range(num_samples)
    ]

    # cost_at[(n, circuit)] = function sampling best cost at a given time.
    traces: Dict[Tuple[int, str], List[Tuple[float, float]]] = {}
    for n in n_values:
        transformations = transformations_from_ecc_set(
            build_ecc_set(gate_set_name, GenerationConfig(n=n, q=q))
        )
        for name in circuit_names:
            preprocessed = preprocess(benchmark_circuit(name), gate_set_name)
            optimizer = BacktrackingOptimizer(transformations, gamma=gamma)
            result = optimizer.optimize(
                preprocessed, timeout_seconds=time_budget_seconds
            )
            traces[(n, name)] = result.cost_trace

    def best_cost_at(trace: List[Tuple[float, float]], when: float) -> float:
        best = trace[0][1]
        for timestamp, cost in trace:
            if timestamp <= when:
                best = cost
            else:
                break
        return best

    curves: List[TimeCurve] = []
    for n in n_values:
        curve = TimeCurve(n=n, q=q)
        for when in sample_times:
            ratios = [
                best_cost_at(traces[(n, name)], when) / originals[name]
                for name in circuit_names
            ]
            geo_mean = math.exp(sum(math.log(max(r, 1e-12)) for r in ratios) / len(ratios))
            curve.times.append(when)
            curve.effectiveness.append(1.0 - geo_mean)
        curves.append(curve)

    if include_best_curve and len(n_values) > 1:
        best_curve = TimeCurve(n=-1, q=q)  # n = -1 marks the "best" curve
        for when in sample_times:
            ratios = []
            for name in circuit_names:
                best = min(
                    best_cost_at(traces[(n, name)], when) for n in n_values
                )
                ratios.append(best / originals[name])
            geo_mean = math.exp(sum(math.log(max(r, 1e-12)) for r in ratios) / len(ratios))
            best_curve.times.append(when)
            best_curve.effectiveness.append(1.0 - geo_mean)
        curves.append(best_curve)
    return curves


def format_curves(curves: Sequence[TimeCurve]) -> str:
    lines = []
    for curve in curves:
        label = "best" if curve.n < 0 else f"n={curve.n}"
        series = ", ".join(
            f"{t:.1f}s:{e * 100:.1f}%" for t, e in zip(curve.times, curve.effectiveness)
        )
        lines.append(f"{label:>6s}  {series}")
    return "\n".join(lines)
