"""Why backtracking beats greedy: the Figure 6 story.

The paper's Figure 6 shows a sequence of transformations on gf2^4_mult where
the first three rewrites do not reduce the gate count at all, but enable a
later cancellation.  A greedy optimizer (gamma = 1) never takes those
cost-preserving steps; the backtracking search (gamma = 1.0001) does.  This
example builds a small circuit with the same character — Hadamard-wrapped
CNOTs whose flips unlock cancellations — and compares the three search
strategies a ``SearchConfig`` can name (greedy, backtracking, beam) through
the Superoptimizer facade.

Run with:  python examples/backtracking_vs_greedy.py
"""

from repro import Circuit, Superoptimizer
from repro.semantics.simulator import circuits_equivalent_numeric


def build_circuit() -> Circuit:
    """H-wrapped CNOTs: flipping them (cost-preserving) exposes H H pairs."""
    circuit = Circuit(3)
    circuit.h(1)
    circuit.cx(0, 1)
    circuit.h(1)
    circuit.h(1)
    circuit.cx(2, 1)
    circuit.h(1)
    return circuit


def main() -> None:
    circuit = build_circuit()
    print(f"Input circuit ({circuit.gate_count} gates):")
    print(circuit)

    # The search strategy is one config field; everything else — gate set,
    # ECC generation — is shared, and the facades share one in-process
    # generation memo, so the ECC set is generated only once.  Preprocessing
    # is disabled to compare the *searches* on the raw circuit.
    print("\nGenerating a (3, 2)-complete ECC set for the Nam gate set ...")
    results = {}
    for strategy in ("greedy", "backtracking", "beam"):
        facade = Superoptimizer(
            gate_set="nam",
            n=3,
            q=2,
            strategy=strategy,
            max_iterations=300,
            preprocess=False,
        )
        results[strategy] = facade.optimize(circuit)

    print(f"\ngreedy search (gamma = 1):        {results['greedy'].final_cost:.0f} gates")
    print(f"backtracking search (gamma > 1):  {results['backtracking'].final_cost:.0f} gates")
    print(f"beam search (width 16):           {results['beam'].final_cost:.0f} gates")
    backtracking = results["backtracking"]
    print("\nBacktracking result:")
    print(backtracking.circuit)

    assert circuits_equivalent_numeric(circuit, backtracking.circuit)
    assert backtracking.final_cost <= results["greedy"].final_cost
    print("\nNumeric equivalence check: OK")


if __name__ == "__main__":
    main()
