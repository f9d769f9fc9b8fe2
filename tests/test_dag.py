"""Tests for the DAG representation: convexity and splicing."""

import pytest

from repro.ir.circuit import Circuit, Instruction
from repro.ir.dag import CircuitDAG
from repro.semantics.simulator import circuits_equivalent_numeric


def figure2_circuit():
    """The running example of Figure 2a/5: X, H, H, U-ish gates and CNOTs."""
    circuit = Circuit(3)
    circuit.x(2)
    circuit.h(1)
    circuit.h(2)  # stand-in for the parametric gates of the figure
    circuit.cx(1, 2)
    circuit.cx(0, 1)
    return circuit


class TestConstruction:
    def test_roundtrip(self):
        circuit = figure2_circuit()
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.to_circuit() == circuit
        assert len(dag) == circuit.gate_count

    def test_wire_order(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(0)
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.wires[0] == [0, 1, 2]
        assert dag.wires[1] == [1]
        assert dag.next_on_wire(0, 0) == 1
        assert dag.prev_on_wire(2, 0) == 1
        assert dag.next_on_wire(2, 0) is None
        assert dag.prev_on_wire(0, 0) is None

    def test_predecessors_successors(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(1)
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.predecessors[1] == {0}
        assert dag.successors[1] == {2}
        assert dag.predecessors[0] == set()

    def test_ancestors_descendants(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(1).h(0)
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.descendants([0]) == {1, 2, 3}
        assert dag.ancestors([2]) == {0, 1}


class TestConvexity:
    def test_convex_subcircuit(self):
        # The green box of Figure 2a: the H and CNOT acting on qubits 1, 2.
        circuit = figure2_circuit()
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.is_convex({1, 3})  # h(1) and cx(1,2)

    def test_non_convex_subset(self):
        # Two gates with an unmatched gate between them on the same wire.
        circuit = Circuit(1).h(0).x(0).h(0)
        dag = CircuitDAG.from_circuit(circuit)
        assert not dag.is_convex({0, 2})
        assert dag.is_convex({0, 1})
        assert dag.is_convex({0})

    def test_empty_set_is_convex(self):
        dag = CircuitDAG.from_circuit(figure2_circuit())
        assert dag.is_convex(set())


class TestSplice:
    def test_splice_replaces_gates(self):
        circuit = Circuit(2).h(0).h(0).cx(0, 1)
        dag = CircuitDAG.from_circuit(circuit)
        new_circuit = dag.splice([0, 1], [])  # remove the H H pair
        assert new_circuit.gate_count == 1
        assert new_circuit[0].gate.name == "cx"
        assert circuits_equivalent_numeric(circuit, new_circuit)

    def test_splice_preserves_order_of_context(self):
        circuit = Circuit(2).x(1).h(0).h(0).cx(0, 1).x(1)
        dag = CircuitDAG.from_circuit(circuit)
        new_circuit = dag.splice([1, 2], [Instruction("z", (0,)), Instruction("z", (0,))])
        assert new_circuit.gate_count == 5
        assert circuits_equivalent_numeric(circuit, new_circuit)

    def test_splice_rejects_non_convex(self):
        circuit = Circuit(1).h(0).x(0).h(0)
        dag = CircuitDAG.from_circuit(circuit)
        with pytest.raises(ValueError):
            dag.splice([0, 2], [])

    @pytest.mark.parametrize("qubit", [-1, 2])
    def test_splice_rejects_out_of_range_replacement(self, qubit):
        dag = CircuitDAG.from_circuit(Circuit(2).h(0).h(0).cx(0, 1))
        with pytest.raises(ValueError, match="out of range"):
            dag.splice([0, 1], [Instruction("z", (qubit,))])

    def test_splice_gate_counts(self):
        # The counts come from the DAG's, not from a recount of the result:
        # matched gates leave, replacement gates arrive, zeros are dropped.
        circuit = Circuit(2).x(1).h(0).h(0).cx(0, 1).x(1)
        dag = CircuitDAG.from_circuit(circuit)
        new_circuit = dag.splice([1, 2], [Instruction("z", (0,)), Instruction("z", (0,))])
        assert new_circuit.gate_counts() == {"x": 2, "z": 2, "cx": 1}
        assert dag.splice([1, 2], []).gate_counts() == {"x": 2, "cx": 1}

    def test_splice_keeps_ancestors_before_replacement(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(1)
        dag = CircuitDAG.from_circuit(circuit)
        new_circuit = dag.splice([2], [Instruction("z", (1,))])
        names = [inst.gate.name for inst in new_circuit.instructions]
        assert names == ["h", "cx", "z"]
