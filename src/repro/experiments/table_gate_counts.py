"""Tables 2, 3 and 4: gate-count comparison on the benchmark suite.

For every benchmark circuit and a target gate set, the harness reports the
gate count of: the naively transpiled circuit ("Orig."), each rule-based
baseline, the Quartz preprocessor alone, and the Quartz end-to-end flow
(preprocess + backtracking search, one :class:`~repro.api.Superoptimizer`
run per circuit).  The bottom line is the geometric-mean reduction relative
to "Orig.", the paper's summary statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import RunConfig, Superoptimizer
from repro.baselines import run_baseline
from repro.benchmarks_suite import benchmark_circuit
from repro.ir.circuit import Circuit
from repro.preprocess import clifford_t_to_nam, decompose_toffolis
from repro.preprocess.transpile import nam_to_ibm, nam_to_rigetti

# Which baselines are reported for each gate set (mirrors the table columns).
_BASELINES_PER_GATE_SET: Dict[str, List[str]] = {
    "nam": ["qiskit", "nam", "voqc"],
    "ibm": ["qiskit", "tket", "voqc"],
    "rigetti": ["quilc", "tket"],
}


@dataclass
class GateCountRow:
    """One line of a gate-count table."""

    circuit: str
    original: int
    baselines: Dict[str, int] = field(default_factory=dict)
    quartz_preprocess: int = 0
    quartz_end_to_end: int = 0

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {"circuit": self.circuit, "orig": self.original}
        row.update(self.baselines)
        row["quartz_preprocess"] = self.quartz_preprocess
        row["quartz"] = self.quartz_end_to_end
        return row


def table_config(
    gate_set_name: str,
    n: int,
    q: int,
    *,
    gamma: float,
    max_iterations: Optional[int],
    timeout_seconds: Optional[float],
) -> RunConfig:
    """The run config of a table cell (Tables 2-4 and 7, Figure 7).

    A cell is the search's own result, so the facade's output screen stays
    off and a table's cost and cells do not depend on it.
    """
    return RunConfig(gate_set=gate_set_name, verify_output=False).with_overrides(
        n=n,
        q=q,
        gamma=gamma,
        max_iterations=max_iterations,
        timeout_seconds=timeout_seconds,
    )


def naive_transpile(circuit: Circuit, gate_set_name: str) -> Circuit:
    """The "Orig." circuit: Toffolis decomposed (fixed polarity), translated
    to the target gate set, with no optimization at all."""
    nam = clifford_t_to_nam(decompose_toffolis(circuit, greedy=False))
    if gate_set_name == "nam":
        return nam
    if gate_set_name == "ibm":
        return nam_to_ibm(nam)
    if gate_set_name == "rigetti":
        return nam_to_rigetti(nam)
    raise ValueError(f"unknown gate set {gate_set_name!r}")


def run_gate_count_table(
    gate_set_name: str,
    circuit_names: Sequence[str],
    *,
    n: int,
    q: int = 3,
    gamma: float = 1.0001,
    max_iterations: Optional[int] = 30,
    timeout_seconds: Optional[float] = 20.0,
    baselines: Optional[Sequence[str]] = None,
) -> List[GateCountRow]:
    """Produce the rows of Table 2 (nam), Table 3 (ibm) or Table 4 (rigetti)."""
    gate_set_name = gate_set_name.lower()
    baseline_names = list(
        baselines if baselines is not None else _BASELINES_PER_GATE_SET[gate_set_name]
    )
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
    rows: List[GateCountRow] = []
    for name in circuit_names:
        high_level = benchmark_circuit(name)
        original = naive_transpile(high_level, gate_set_name)
        row = GateCountRow(circuit=name, original=original.gate_count)
        for baseline in baseline_names:
            optimized = run_baseline(baseline, original, gate_set_name)
            row.baselines[baseline] = optimized.gate_count
        report = quartz.optimize(high_level)
        row.quartz_preprocess = report.preprocessed_circuit.gate_count
        row.quartz_end_to_end = report.circuit.gate_count
        rows.append(row)
    return rows


def geometric_mean_reduction(rows: Sequence[GateCountRow], column: str) -> float:
    """The paper's summary metric: reduction in geometric-mean gate count.

    ``column`` is either a baseline name, ``"quartz_preprocess"`` or
    ``"quartz"``.
    """
    ratios: List[float] = []
    for row in rows:
        if column == "quartz_preprocess":
            value = row.quartz_preprocess
        elif column == "quartz":
            value = row.quartz_end_to_end
        else:
            value = row.baselines[column]
        if row.original <= 0:
            continue
        ratios.append(value / row.original)
    if not ratios:
        return 0.0
    geo_mean = math.exp(sum(math.log(max(r, 1e-12)) for r in ratios) / len(ratios))
    return 1.0 - geo_mean


def format_table(rows: Sequence[GateCountRow]) -> str:
    """Render the rows as an aligned text table (the shape of Tables 2-4)."""
    if not rows:
        return "(empty table)"
    baseline_names = list(rows[0].baselines)
    header = (
        ["Circuit", "Orig."]
        + [name.capitalize() for name in baseline_names]
        + ["Quartz Pre.", "Quartz"]
    )
    lines = ["  ".join(f"{h:>14s}" for h in header)]
    for row in rows:
        cells = [row.circuit, str(row.original)]
        cells += [str(row.baselines[name]) for name in baseline_names]
        cells += [str(row.quartz_preprocess), str(row.quartz_end_to_end)]
        lines.append("  ".join(f"{c:>14s}" for c in cells))
    summary = ["Geo.Mean Red.", "-"]
    summary += [
        f"{geometric_mean_reduction(rows, name) * 100:.1f}%" for name in baseline_names
    ]
    summary += [
        f"{geometric_mean_reduction(rows, 'quartz_preprocess') * 100:.1f}%",
        f"{geometric_mean_reduction(rows, 'quartz') * 100:.1f}%",
    ]
    lines.append("  ".join(f"{c:>14s}" for c in summary))
    return "\n".join(lines)
