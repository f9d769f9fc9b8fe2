"""The 26-circuit benchmark suite of the paper's evaluation (Section 7.2).

The original circuits come from Amy et al. and Nam et al. and are
distributed as OpenQASM files which are not available offline; this package
rebuilds the same circuit *families* programmatically in the Clifford+T gate
set (Toffoli networks for multiply-controlled gates, ripple-carry /
carry-lookahead / carry-select adders, GF(2^n) multipliers, modular
arithmetic).  Gate counts are in the same ballpark as the originals but not
identical — see README.md, "Reproduction scope".
"""

from repro.benchmarks_suite.suite import (
    BENCHMARK_BUILDERS,
    SMALL_BENCHMARKS,
    MEDIUM_BENCHMARKS,
    benchmark_circuit,
    benchmark_names,
)

__all__ = [
    "BENCHMARK_BUILDERS",
    "SMALL_BENCHMARKS",
    "MEDIUM_BENCHMARKS",
    "benchmark_circuit",
    "benchmark_names",
]
