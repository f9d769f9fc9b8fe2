"""repro — a from-scratch reproduction of Quartz (PLDI 2022).

Quartz is a quantum-circuit superoptimizer: for an arbitrary gate set it
*generates* candidate circuit transformations by enumerating small circuits
(the RepGen algorithm), *verifies* them symbolically (equivalence up to a
global phase, for all parameter values), *prunes* redundant ones, and then
*optimizes* input circuits with a cost-based backtracking search over the
verified transformations.

Typical usage — the :class:`~repro.api.Superoptimizer` facade composes the
whole pipeline (preprocess → cached ECC generation → transformation
extraction → search → verification)::

    from repro import Superoptimizer

    report = Superoptimizer(gate_set="nam", n=3, q=3).optimize(my_circuit)
    print(report.summary())
    optimized = report.circuit

The stages remain individually scriptable for callers that need to
hand-wire them::

    from repro import (
        Circuit, get_gate_set, RepGen, simplify_ecc_set,
        prune_common_subcircuits, transformations_from_ecc_set,
        BacktrackingOptimizer, preprocess,
    )

    gate_set = get_gate_set("nam")
    generator = RepGen(gate_set, num_qubits=3)
    ecc_set = prune_common_subcircuits(
        simplify_ecc_set(generator.generate(3).ecc_set)
    )
    transformations = transformations_from_ecc_set(ecc_set)

    circuit = preprocess(my_clifford_t_circuit, "nam")
    optimizer = BacktrackingOptimizer(transformations)
    result = optimizer.optimize(circuit, max_iterations=100)
    print(result.initial_cost, "->", result.final_cost)

See README.md: "Public API" for the facade, "Search strategies" and
"Configuration" for the search and configuration rules, "Reproduction
scope" for the table-by-table harnesses and the substitutions, and
"Layout" for the package inventory.
"""

from repro.ir import (
    Angle,
    Circuit,
    CircuitDAG,
    CLIFFORD_T,
    GateSet,
    IBM,
    Instruction,
    NAM,
    ParamSpec,
    RIGETTI,
    get_gate,
    get_gate_set,
)
from repro.generator import (
    ECC,
    ECCSet,
    GeneratorResult,
    RepGen,
    count_possible_circuits,
    prune_common_subcircuits,
    simplify_ecc_set,
)
from repro.optimizer import (
    BacktrackingOptimizer,
    CostModel,
    GateCountCost,
    OptimizationResult,
    Transformation,
    transformations_from_ecc_set,
)
from repro.preprocess import preprocess
from repro.verifier import EquivalenceVerifier
from repro.semantics import circuit_unitary
from repro.semantics.fingerprint import fingerprint
from repro.benchmarks_suite import benchmark_circuit, benchmark_names
from repro.api import (
    GenerationConfig,
    RunConfig,
    RunReport,
    SearchConfig,
    Superoptimizer,
)

__version__ = "0.2.0"

__all__ = [
    "Angle",
    "Circuit",
    "CircuitDAG",
    "CLIFFORD_T",
    "GateSet",
    "IBM",
    "Instruction",
    "NAM",
    "ParamSpec",
    "RIGETTI",
    "get_gate",
    "get_gate_set",
    "ECC",
    "ECCSet",
    "GeneratorResult",
    "RepGen",
    "count_possible_circuits",
    "prune_common_subcircuits",
    "simplify_ecc_set",
    "BacktrackingOptimizer",
    "CostModel",
    "GateCountCost",
    "OptimizationResult",
    "Transformation",
    "transformations_from_ecc_set",
    "preprocess",
    "EquivalenceVerifier",
    "circuit_unitary",
    "fingerprint",
    "benchmark_circuit",
    "benchmark_names",
    "GenerationConfig",
    "RunConfig",
    "RunReport",
    "SearchConfig",
    "Superoptimizer",
    "__version__",
]
