"""Tests for the circuit sequence representation."""

from fractions import Fraction

import pytest

from repro.ir.circuit import Circuit, Instruction, empty_circuit
from repro.ir.params import Angle


def small_circuit():
    return Circuit(3).h(0).cx(0, 1).t(2).rz(1, Angle.pi(Fraction(1, 4)))


class TestInstruction:
    def test_validation_qubit_count(self):
        with pytest.raises(ValueError):
            Instruction("cx", (0,))

    def test_validation_duplicate_qubits(self):
        with pytest.raises(ValueError):
            Instruction("cx", (1, 1))

    def test_validation_param_count(self):
        with pytest.raises(ValueError):
            Instruction("rz", (0,), [])

    def test_angle_coercion_fraction_means_pi_multiple(self):
        inst = Instruction("rz", (0,), [Fraction(1, 2)])
        assert inst.params[0] == Angle.pi(Fraction(1, 2))

    def test_remap_qubits(self):
        inst = Instruction("cx", (0, 1)).remap_qubits({0: 2, 1: 0})
        assert inst.qubits == (2, 0)

    def test_sort_key_orders_by_name_then_qubits(self):
        a = Instruction("cx", (0, 1))
        b = Instruction("h", (0,))
        assert b.sort_key() > a.sort_key() or a.sort_key() > b.sort_key()

    def test_repr(self):
        assert "cx" in repr(Instruction("cx", (0, 1)))


class TestCircuitConstruction:
    def test_builders(self):
        circuit = small_circuit()
        assert circuit.gate_count == 4
        assert circuit.gate_counts() == {"h": 1, "cx": 1, "t": 1, "rz": 1}
        assert circuit.count_gate("cx") == 1
        assert circuit.two_qubit_count() == 1

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            Circuit(1).cx(0, 1)

    def test_depth(self):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0)
        assert circuit.depth() == 3
        assert empty_circuit(2).depth() == 0

    def test_used_qubits_and_params(self):
        circuit = Circuit(3, num_params=2).rz(1, Angle.param(1))
        assert circuit.used_qubits() == {1}
        assert circuit.used_params() == {1}

    def test_copy_is_independent(self):
        circuit = small_circuit()
        copy = circuit.copy()
        copy.x(0)
        assert circuit.gate_count == 4
        assert copy.gate_count == 5

    def test_iteration_and_indexing(self):
        circuit = small_circuit()
        assert len(list(circuit)) == 4
        assert circuit[0].gate.name == "h"


class TestRepGenOperations:
    def test_drop_first_and_last(self):
        circuit = small_circuit()
        assert circuit.drop_first().gate_count == 3
        assert circuit.drop_first()[0].gate.name == "cx"
        assert circuit.drop_last().gate_count == 3
        assert circuit.drop_last()[-1].gate.name == "t"

    def test_appended_is_non_mutating(self):
        circuit = small_circuit()
        extended = circuit.appended(Instruction("x", (0,)))
        assert circuit.gate_count == 4
        assert extended.gate_count == 5

    def test_precedence_by_size_first(self):
        small = Circuit(1).h(0)
        large = Circuit(1).h(0).h(0)
        assert small.precedes(large)
        assert not large.precedes(small)
        assert small < large

    def test_precedence_lexicographic_for_equal_size(self):
        a = Circuit(2).cx(0, 1)
        b = Circuit(2).h(0)
        # 'cx' < 'h' lexicographically, so a precedes b.
        assert a.precedes(b)


class TestCanonicalization:
    def test_canonical_key_invariant_under_independent_reordering(self):
        a = Circuit(2).h(0).x(1).cx(0, 1)
        b = Circuit(2).x(1).h(0).cx(0, 1)
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_distinguishes_dependent_order(self):
        a = Circuit(1).h(0).x(0)
        b = Circuit(1).x(0).h(0)
        assert a.canonical_key() != b.canonical_key()

    def test_sequence_key_is_order_sensitive(self):
        a = Circuit(2).h(0).x(1)
        b = Circuit(2).x(1).h(0)
        assert a.sequence_key() != b.sequence_key()


class TestKeyCachingAndImmutability:
    def test_canonical_key_is_cached(self):
        circuit = small_circuit()
        first = circuit.canonical_key()
        assert circuit.canonical_key() is first

    def test_wire_key_is_cached_and_freezes(self):
        circuit = small_circuit()
        first = circuit.wire_key()
        assert circuit.wire_key() is first
        assert circuit.is_frozen
        with pytest.raises(RuntimeError):
            circuit.x(0)
        copy = circuit.copy()
        assert not copy.is_frozen
        copy.x(0)
        assert copy.wire_key() != first

    def test_sequence_key_is_cached(self):
        circuit = small_circuit()
        assert circuit.sequence_key() is circuit.sequence_key()

    def test_hash_consistent_with_canonical_key(self):
        a = Circuit(2).h(0).x(1).cx(0, 1)
        b = Circuit(2).x(1).h(0).cx(0, 1)
        assert a.canonical_key() == b.canonical_key()
        assert hash(a) == hash(b)

    def test_hash_consistent_with_equality(self):
        assert hash(small_circuit()) == hash(small_circuit())

    def test_keyed_circuit_is_frozen(self):
        circuit = small_circuit()
        assert not circuit.is_frozen
        circuit.canonical_key()
        assert circuit.is_frozen
        with pytest.raises(RuntimeError):
            circuit.x(0)
        with pytest.raises(RuntimeError):
            circuit.extend([Instruction("x", (0,))])
        # The instruction list was not mutated by the failed appends.
        assert circuit.gate_count == 4

    def test_hashing_freezes(self):
        circuit = small_circuit()
        hash(circuit)
        with pytest.raises(RuntimeError):
            circuit.h(0)

    def test_copy_of_frozen_circuit_is_mutable(self):
        circuit = small_circuit()
        circuit.sequence_key()
        copy = circuit.copy()
        copy.x(0)
        assert copy.gate_count == 5
        assert circuit.gate_count == 4

    def test_appended_on_frozen_circuit(self):
        circuit = small_circuit()
        circuit.canonical_key()
        extended = circuit.appended(Instruction("x", (0,)))
        assert extended.gate_count == 5

    def test_gate_counts_maintained_incrementally(self):
        circuit = Circuit(2)
        assert circuit.gate_counts() == {}
        circuit.h(0).cx(0, 1).h(1)
        assert circuit.gate_counts() == {"h": 2, "cx": 1}
        assert circuit.count_gate("h") == 2
        assert circuit.count_gate("x") == 0
        assert circuit.drop_first().gate_counts() == {"h": 1, "cx": 1}


class TestRewritingHelpers:
    def test_remap_qubits(self):
        circuit = Circuit(2).cx(0, 1)
        remapped = circuit.remap_qubits({0: 1, 1: 0})
        assert remapped[0].qubits == (1, 0)

    def test_substitute_params(self):
        circuit = Circuit(1, num_params=1).rz(0, Angle.param(0))
        concrete = circuit.substitute_params({0: Angle.pi(Fraction(1, 2))})
        assert concrete[0].params[0] == Angle.pi(Fraction(1, 2))

    def test_with_num_qubits(self):
        circuit = Circuit(2).cx(0, 1)
        widened = circuit.with_num_qubits(4)
        assert widened.num_qubits == 4
        with pytest.raises(ValueError):
            circuit.with_num_qubits(1)

    def test_to_dag_roundtrip(self):
        circuit = small_circuit()
        assert circuit.to_dag().to_circuit() == circuit

    def test_equality_and_hash(self):
        assert small_circuit() == small_circuit()
        assert hash(small_circuit()) == hash(small_circuit())
        assert small_circuit() != empty_circuit(3)

    def test_str_and_repr(self):
        assert "Circuit" in repr(small_circuit())
        assert "h" in str(small_circuit())
