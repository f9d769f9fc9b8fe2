"""Table 7: per-circuit gate counts for varying (n, q) ECC sets (Nam gate set).

For every benchmark circuit and every (n, q) pair, run the end-to-end Quartz
flow with the corresponding ECC set under a fixed search budget and record
the resulting gate count.  The paper's observation — small circuits benefit
from larger n, large circuits from smaller n (under a fixed budget) — is the
shape this harness reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Superoptimizer
from repro.benchmarks_suite import benchmark_circuit
from repro.experiments.table_gate_counts import naive_transpile, table_config
from repro.preprocess import preprocess


@dataclass
class NQSweepRow:
    """Gate counts for one circuit across the (n, q) grid."""

    circuit: str
    original: int
    preprocessed: int
    # (n, q) -> optimized gate count
    results: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "circuit": self.circuit,
            "orig": self.original,
            "preprocess": self.preprocessed,
        }
        for (n, q), count in sorted(self.results.items()):
            row[f"n={n},q={q}"] = count
        return row


def run_nq_sweep(
    circuit_names: Sequence[str],
    nq_pairs: Sequence[Tuple[int, int]],
    *,
    gate_set_name: str = "nam",
    gamma: float = 1.0001,
    max_iterations: Optional[int] = 30,
    timeout_seconds: Optional[float] = 15.0,
) -> List[NQSweepRow]:
    """Produce the Table 7 grid (restricted to the requested circuits/pairs)."""
    quartz = {
        (n, q): Superoptimizer(
            table_config(
                gate_set_name,
                n,
                q,
                gamma=gamma,
                max_iterations=max_iterations,
                timeout_seconds=timeout_seconds,
            )
        )
        for n, q in nq_pairs
    }
    rows: List[NQSweepRow] = []
    for name in circuit_names:
        high_level = benchmark_circuit(name)
        preprocessed = preprocess(high_level, gate_set_name)
        row = NQSweepRow(
            circuit=name,
            original=naive_transpile(high_level, gate_set_name).gate_count,
            preprocessed=preprocessed.gate_count,
        )
        for pair, optimizer in quartz.items():
            row.results[pair] = optimizer.optimize(high_level).circuit.gate_count
        rows.append(row)
    return rows


def format_table(rows: Sequence[NQSweepRow]) -> str:
    if not rows:
        return "(empty table)"
    pairs = sorted(rows[0].results)
    header = ["Circuit", "Orig.", "Pre."] + [f"n={n},q={q}" for n, q in pairs]
    lines = ["  ".join(f"{h:>12s}" for h in header)]
    for row in rows:
        cells = [row.circuit, str(row.original), str(row.preprocessed)]
        cells += [str(row.results[pair]) for pair in pairs]
        lines.append("  ".join(f"{c:>12s}" for c in cells))
    return "\n".join(lines)
