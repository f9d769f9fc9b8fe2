"""Tests for the DAG representation: convexity, splicing and wire keys."""

import pickle

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
        assert dag.next_on_wire(1, 1) is None
        assert dag.wire_positions == [[0, -1], [1, 0], [2, -1]]

    @pytest.mark.parametrize("node_id", [2, 3, -1])
    def test_node_off_the_wire(self, node_id):
        # Node 2 is on wire 0 only; 3 and -1 are not nodes.
        dag = CircuitDAG.from_circuit(Circuit(2).h(0).cx(0, 1).x(0))
        with pytest.raises(ValueError, match="not on wire 1"):
            dag.next_on_wire(node_id, 1)
        with pytest.raises(ValueError, match="not on wire 1"):
            dag.prev_on_wire(node_id, 1)

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
        # The histogram is counted from the instruction list when first
        # read: matched gates leave, replacement gates arrive, and no name
        # keeps a zero count.
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


def _key(*instructions):
    return tuple(inst.sort_key() for inst in instructions)


def _rebuilt_wire_key(circuit):
    """The wire key of a validating rebuild, computed from scratch."""
    return Circuit(
        circuit.num_qubits, list(circuit.instructions), circuit.num_params
    ).wire_key()


class TestSpliceWireKey:
    def test_empty_replacement_removes_the_run(self):
        circuit = Circuit(3).x(2).h(0).cx(0, 1).cx(0, 1).h(1).x(0)
        x2, h0, h1, x0 = circuit[0], circuit[1], circuit[4], circuit[5]
        new_circuit = CircuitDAG.from_circuit(circuit).splice([2, 3], [])
        assert new_circuit.wire_key() == (_key(h0, x0), _key(h1), _key(x2))
        assert new_circuit.wire_key() == _rebuilt_wire_key(new_circuit)

    def test_replacement_on_the_match_wires(self):
        circuit = Circuit(2).x(1).h(0).h(0).cx(0, 1).x(1)
        z0 = Instruction("z", (0,))
        new_circuit = CircuitDAG.from_circuit(circuit).splice([1, 2], [z0, z0])
        assert new_circuit.wire_key()[0] == _key(z0, z0, Instruction("cx", (0, 1)))
        assert new_circuit.wire_key() == _rebuilt_wire_key(new_circuit)

    def test_replacement_wire_after_the_match_ancestors(self):
        # Wire 2 holds h and cx (ancestors of the matched h h on wire 0) and
        # then x (not one); a gate only the replacement puts on wire 2 goes
        # between them, as it does in the instruction list.
        circuit = Circuit(3).h(2).cx(2, 0).x(2).h(0).h(0).x(1)
        h2, cx, x2, x1 = circuit[0], circuit[1], circuit[2], circuit[5]
        z2 = Instruction("z", (2,))
        new_circuit = CircuitDAG.from_circuit(circuit).splice([3, 4], [z2])
        assert new_circuit.instructions == [h2, cx, z2, x2, x1]
        assert new_circuit.wire_key()[2] == _key(h2, cx, z2, x2)
        assert new_circuit.wire_key()[0] == _key(cx)
        assert new_circuit.wire_key() == _rebuilt_wire_key(new_circuit)

    def test_replacement_wire_without_match_ancestors(self):
        circuit = Circuit(3).h(0).h(0).x(2).cx(2, 1)
        z2 = Instruction("z", (2,))
        new_circuit = CircuitDAG.from_circuit(circuit).splice([0, 1], [z2])
        assert new_circuit.wire_key()[2] == _key(
            z2, Instruction("x", (2,)), Instruction("cx", (2, 1))
        )
        assert new_circuit.wire_key() == _rebuilt_wire_key(new_circuit)

    def test_untouched_wires_are_shared(self):
        circuit = Circuit(3).x(2).h(0).h(0).cx(0, 1).h(2)
        parent_key = circuit.wire_key()
        new_circuit = circuit.to_dag().splice([1, 2], [])
        assert new_circuit.wire_key()[2] is parent_key[2]
        assert new_circuit.wire_key()[1] is parent_key[1]
        assert new_circuit.wire_key()[0] == _key(Instruction("cx", (0, 1)))

    def test_successor_is_born_keyed(self):
        circuit = Circuit(2).h(0).h(0).cx(0, 1)
        new_circuit = circuit.to_dag().splice([0, 1], [])
        assert new_circuit.is_frozen
        with pytest.raises(RuntimeError):
            new_circuit.x(0)

    def test_dag_without_a_circuit(self):
        dag = CircuitDAG(3)
        for inst in Circuit(3).h(1).cx(1, 2).x(0).h(1).h(1).x(2):
            dag.add_instruction(inst)
        z0 = Instruction("z", (0,))
        first = dag.splice([3, 4], [z0])
        assert first.wire_key() == _rebuilt_wire_key(first)
        # Adding a node drops the key splice computed and cached.
        dag.add_instruction(Instruction("cx", (2, 0)))
        second = dag.splice([3, 4], [z0])
        assert second.wire_key() == _rebuilt_wire_key(second)
        assert second.wire_key()[2][-1] == Instruction("cx", (2, 0)).sort_key()


class TestLazySuccessor:
    """A spliced circuit lists its gates only when something reads them."""

    def test_length_and_wire_key_build_nothing(self, successor_builds):
        circuit = Circuit(2).x(1).h(0).h(0).cx(0, 1).x(1)
        x1, cx = circuit[0], circuit[3]
        z0 = Instruction("z", (0,))
        new_circuit = circuit.to_dag().splice([1, 2], [z0])
        assert new_circuit.gate_count == len(new_circuit) == 4
        assert new_circuit.wire_key() == (_key(z0, cx), _key(x1, cx, x1))
        assert new_circuit.is_frozen
        assert successor_builds[0] == 0
        assert new_circuit.instructions == [z0, x1, cx, x1]
        assert new_circuit.gate_counts() == {"z": 1, "x": 2, "cx": 1}
        assert new_circuit.instructions is new_circuit.instructions
        assert successor_builds[0] == 1

    def test_later_nodes_do_not_reach_an_earlier_successor(self):
        dag = CircuitDAG(3)
        for inst in Circuit(3).h(1).cx(1, 2).x(0).h(1).h(1).x(2):
            dag.add_instruction(inst)
        z0 = Instruction("z", (0,))
        lazy = dag.splice([3, 4], [z0])
        # The same splice, built before the DAG grows.
        expected = list(dag.splice([3, 4], [z0]).instructions)
        dag.add_instruction(Instruction("cx", (2, 0)))
        assert lazy.instructions == expected
        assert lazy.gate_count == len(expected) == 5
        assert lazy.wire_key() == _rebuilt_wire_key(lazy)

    def test_pickles_as_a_plain_circuit(self):
        circuit = Circuit(2).x(1).h(0).h(0).cx(0, 1).x(1)
        new_circuit = circuit.to_dag().splice([1, 2], [Instruction("z", (0,))])
        restored = pickle.loads(pickle.dumps(new_circuit))
        assert type(restored) is Circuit
        rebuild = Circuit(2, list(new_circuit.instructions))
        assert restored == rebuild
        assert restored.wire_key() == new_circuit.wire_key() == rebuild.wire_key()
        assert restored.gate_counts() == rebuild.gate_counts()

    def test_successor_rejects_mutation(self):
        new_circuit = Circuit(2).h(0).h(0).cx(0, 1).to_dag().splice([0, 1], [])
        with pytest.raises(RuntimeError):
            new_circuit.append("x", 0)
        with pytest.raises(RuntimeError):
            new_circuit.extend([Instruction("x", (0,))])
        assert new_circuit.gate_count == len(new_circuit.instructions) == 1
        copy = new_circuit.copy()
        assert type(copy) is Circuit
        assert copy.x(0).gate_count == 2
