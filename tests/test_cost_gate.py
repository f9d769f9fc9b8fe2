"""The search's cost gate before the splice.

Under a cost model that knows a rule's exact cost change
(:meth:`CostModel.rule_delta`), :class:`BacktrackingOptimizer` skips a
matched rule whose successors would cost at least ``gamma`` times the best,
without splicing them.  ``best`` only falls, so a skipped successor would
be turned away at any later point too, and the search's output must be
what it is when every successor is spliced and checked afterwards.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_suite import benchmark_circuit
from repro.ir import Circuit
from repro.ir.params import Angle
from repro.ir.qasm import to_qasm
from repro.optimizer import (
    BacktrackingOptimizer,
    DepthCost,
    GateCountCost,
    TCountCost,
    TwoQubitCountCost,
)
from repro.preprocess import preprocess
from test_search_golden import GOLDEN


class UngatedGateCount(GateCountCost):
    """Gate count without a rule delta: every successor is spliced."""

    def rule_delta(self, transformation):
        return None


# Per gate set, its one-qubit gates, its rotation and its two-qubit gate.
GATES = {
    "nam": (("h", "x"), "rz", "cx"),
    "rigetti": (("rx90", "rx90dg", "x"), "rz", "cz"),
}


@st.composite
def gate_set_circuits(draw, gate_set, max_qubits=4, max_gates=30):
    fixed, rotation, two_qubit = GATES[gate_set]
    num_qubits = draw(st.integers(2, max_qubits))
    circuit = Circuit(num_qubits)
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(("fixed", "rotation", "two_qubit")))
        qubit = draw(st.integers(0, num_qubits - 1))
        if kind == "fixed":
            circuit.append(draw(st.sampled_from(fixed)), qubit)
        elif kind == "rotation":
            quarters = draw(st.integers(1, 7))
            circuit.append(rotation, qubit, [Angle.pi(Fraction(quarters, 4))])
        else:
            other = (qubit + draw(st.integers(1, num_qubits - 1))) % num_qubits
            circuit.append(two_qubit, (qubit, other))
    return circuit


def _outcome(result):
    return (
        to_qasm(result.circuit),
        result.final_cost,
        result.iterations,
        result.circuits_explored,
        [cost for _, cost in result.cost_trace],
    )


@pytest.mark.parametrize("gamma", [1.0, 1.0001, 1.5])
@pytest.mark.parametrize("gate_set", ["nam", "rigetti"])
def test_gate_leaves_search_output_unchanged(request, gate_set, gamma):
    transformations = request.getfixturevalue(f"{gate_set}_transformations_n3_q3")

    @settings(max_examples=15, deadline=None)
    @given(gate_set_circuits(gate_set))
    def check(circuit):
        gated = BacktrackingOptimizer(transformations, gamma=gamma).optimize(
            circuit, max_iterations=20
        )
        ungated = BacktrackingOptimizer(
            transformations, UngatedGateCount(), gamma=gamma
        ).optimize(circuit, max_iterations=20)
        assert _outcome(gated) == _outcome(ungated)

    check()


def _rejects(result):
    return result.perf.get("search.seen_rejects", 0) + result.perf.get(
        "search.cost_rejects", 0
    )


@pytest.mark.parametrize(
    "gate_set, name",
    [row[:2] for row in GOLDEN],
    ids=[f"{row[0]}-{row[1]}" for row in GOLDEN],
)
def test_golden_searches_skip_splices_and_conserve_successors(request, gate_set, name):
    transformations = request.getfixturevalue(f"{gate_set}_transformations_n3_q3")
    circuit = preprocess(benchmark_circuit(name), gate_set)
    gated = BacktrackingOptimizer(transformations).optimize(circuit, max_iterations=30)
    ungated = BacktrackingOptimizer(transformations, UngatedGateCount()).optimize(
        circuit, max_iterations=30
    )
    assert _outcome(gated) == _outcome(ungated)
    skipped = gated.perf.get("search.splices_skipped", 0)
    assert skipped > 0
    assert "search.splices_skipped" not in ungated.perf
    # Every successor the ungated search turned away is either skipped
    # or spliced and turned away by the gated one.
    assert _rejects(gated) + skipped == _rejects(ungated)


@pytest.mark.parametrize(
    "cost_model",
    [TCountCost(), DepthCost(), TwoQubitCountCost()],
    ids=lambda model: model.name,
)
def test_models_without_a_rule_delta_skip_no_splices(
    nam_transformations_n3_q3, cost_model
):
    circuit = preprocess(benchmark_circuit("barenco_tof_3"), "nam")
    result = BacktrackingOptimizer(nam_transformations_n3_q3, cost_model).optimize(
        circuit, max_iterations=10
    )
    assert result.perf.get("search.splices_skipped", 0) == 0
    assert _rejects(result) > 0
