"""Invariants of the search's cheap successor path.

* **Exact angle keys.**  Angle sort keys hold a float in place of a Fraction
  when the float equals it exactly.  Every key built from them must equal
  the all-Fraction key, hash alike and sort alike.
* **Trusted, lazy successors.**  ``CircuitDAG.splice`` derives each
  successor's wire key from the parent's and its gate count from the
  match, and builds its instruction list and gate histogram from the
  parent's unvalidated instructions only when first read.  Every successor
  must equal a validating rebuild, before and after the build, and must
  pickle as one.
* **Wire keys.**  The search's seen-sets key circuits by their per-qubit
  gate sequences.  Two circuits must share a wire key iff they share a
  canonical key, and keying must never happen behind a caller's back.
"""

from __future__ import annotations

import itertools
import pickle
from fractions import Fraction

from repro.ir.circuit import Circuit, Instruction
from repro.ir.params import Angle, exact_key
from repro.ir.qasm import to_qasm
from repro.optimizer.matcher import PatternMatcher
from repro.optimizer.xfer import Transformation
from repro.preprocess import preprocess

# Rationals a float equals exactly, and rationals no float equals (not
# dyadic, too many significant bits, overflow, underflow).
FLOAT_EXACT = [
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 4),
    Fraction(-3, 8),
    Fraction(7, 4),
    Fraction(2**53),
    Fraction(2**60),
    Fraction(2**53 - 1, 2**60),
    Fraction(1, 2**1074),
]
NOT_FLOAT_EXACT = [
    Fraction(1, 3),
    Fraction(-2, 3),
    Fraction(5, 12),
    Fraction(2**53 + 1),
    Fraction(-(2**60) - 1),
    Fraction(2**1100),
    Fraction(1, 2**1100),
    Fraction(-3, 2**1100),
]
RATIONALS = FLOAT_EXACT + NOT_FLOAT_EXACT


def _angles():
    angles = [Angle(value) for value in RATIONALS]
    angles += [Angle.param(0), Angle.param(1, 2), Angle.param(0) + Angle.param(1)]
    angles += [
        Angle(Fraction(1, 4), {0: 1, 1: Fraction(1, 3)}),
        Angle(Fraction(1, 3), {2: Fraction(2**53 + 1)}),
        Angle(-1, {0: Fraction(-5, 4), 3: Fraction(1, 2**1100)}),
        Angle(0, {1: Fraction(2**1100), 0: Fraction(-1, 2)}),
    ]
    return angles


def _fraction_angle_key(angle):
    """The all-Fraction sort key of an angle."""
    return (angle.pi_multiple, tuple(sorted(angle.coefficients.items())))


def _fraction_instruction_key(inst):
    params = tuple(_fraction_angle_key(p) for p in inst.params)
    return (inst.gate.name, inst.qubits, params)


def _fraction_canonical_key(circuit):
    """The canonical key by the quadratic min-over-ready scan, all-Fraction."""
    instructions = circuit.instructions
    predecessors = []
    for index, inst in enumerate(instructions):
        predecessors.append(
            {j for j in range(index) if set(instructions[j].qubits) & set(inst.qubits)}
        )
    emitted = []
    done = set()
    while len(done) < len(instructions):
        ready = [
            i
            for i in range(len(instructions))
            if i not in done and predecessors[i] <= done
        ]
        chosen = min(ready, key=lambda i: _fraction_instruction_key(instructions[i]))
        done.add(chosen)
        emitted.append(_fraction_instruction_key(instructions[chosen]))
    return (circuit.num_qubits, tuple(emitted))


def _assert_same_keys(keys, references):
    for key, reference in zip(keys, references):
        assert key == reference
        assert hash(key) == hash(reference)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    assert order == sorted(range(len(references)), key=references.__getitem__)


class TestExactAngleKeys:
    def test_exact_key_is_a_float_only_when_exact(self):
        for value in RATIONALS:
            key = exact_key(value)
            assert key == value and hash(key) == hash(value)
            assert isinstance(key, float) == (value in FLOAT_EXACT), value

    def test_angle_keys_equal_fraction_keys(self):
        angles = _angles()
        _assert_same_keys(
            [angle.sort_key() for angle in angles],
            [_fraction_angle_key(angle) for angle in angles],
        )
        for angle in angles:
            assert hash(angle) == hash(_fraction_angle_key(angle))

    def test_instruction_keys_equal_fraction_keys(self):
        angles = _angles()
        instructions = [
            Instruction("rz", [index % 3], [angle]) for index, angle in enumerate(angles)
        ]
        instructions += [
            Instruction("u3", [1], [a, b, c])
            for a, b, c in zip(angles, angles[5:], angles[11:])
        ]
        _assert_same_keys(
            [inst.sort_key() for inst in instructions],
            [_fraction_instruction_key(inst) for inst in instructions],
        )

    def test_canonical_keys_equal_fraction_keys(self, random_circuit_factory):
        angles = _angles()
        circuits = []
        for offset in range(len(angles)):
            circuit = Circuit(3)
            for step in range(6):
                angle = angles[(offset + 5 * step) % len(angles)]
                circuit.rz(step % 3, angle).cx(step % 3, (step + 1) % 3)
                circuit.rz((step + 2) % 3, angles[(offset + step) % len(angles)])
            circuits.append(circuit)
        for seed in range(8):
            circuits.append(
                preprocess(random_circuit_factory(3, 14, seed, include_ccx=True), "nam")
            )
        keys = [circuit.canonical_key() for circuit in circuits]
        _assert_same_keys(keys, [_fraction_canonical_key(c) for c in circuits])
        for circuit in circuits:
            assert hash(circuit) == hash(_fraction_canonical_key(circuit))
            assert circuit.sequence_key() == tuple(
                _fraction_instruction_key(inst) for inst in circuit.instructions
            )


class TestTrustedSuccessors:
    def test_successors_equal_validating_rebuild(
        self, nam_transformations_small, random_circuit_factory, successor_builds
    ):
        # No generated rule has a qubit only its target touches, so one is
        # built by hand: splice puts it after the match's ancestors.
        target_only = Transformation(Circuit(2).h(0), Circuit(2).x(1).h(0).x(1))
        transformations = list(nam_transformations_small) + [target_only]
        compared = 0
        for seed in range(10):
            circuit = preprocess(random_circuit_factory(3, 20, seed), "nam")
            matcher = PatternMatcher(circuit)
            for transformation in transformations:
                for successor in matcher.apply_all(transformation, max_matches=16):
                    # What a search reads, before anything builds the list.
                    built = successor_builds[0]
                    unbuilt = (successor.gate_count, len(successor), successor.wire_key())
                    assert successor_builds[0] == built
                    rebuild = Circuit(
                        successor.num_qubits,
                        list(successor.instructions),
                        successor.num_params,
                    )
                    assert successor_builds[0] == built + 1
                    assert unbuilt == (
                        rebuild.gate_count, len(rebuild), rebuild.wire_key()
                    )
                    assert successor == rebuild
                    assert successor.num_qubits == circuit.num_qubits
                    assert successor.num_params == circuit.num_params
                    counts = successor.gate_counts()
                    assert counts == rebuild.gate_counts()
                    assert all(count > 0 for count in counts.values())
                    assert successor.canonical_key() == rebuild.canonical_key()
                    assert successor.sequence_key() == rebuild.sequence_key()
                    assert hash(successor) == hash(rebuild)
                    assert to_qasm(successor) == to_qasm(rebuild)
                    assert successor.copy() == rebuild
                    assert successor.wire_key() == rebuild.wire_key()
                    restored = pickle.loads(pickle.dumps(successor))
                    assert type(restored) is Circuit
                    assert restored == rebuild
                    assert restored.wire_key() == rebuild.wire_key()
                    assert restored.gate_counts() == counts
                    compared += 1
        # Every list was built once, by the rebuild.
        assert successor_builds[0] == compared > 300

    def test_apply_does_not_rebuild_the_target(
        self, nam_transformations_small, random_circuit_factory, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("apply must instantiate the compiled template")

        monkeypatch.setattr(Circuit, "substitute_params", forbidden)
        monkeypatch.setattr(Circuit, "remap_qubits", forbidden)
        monkeypatch.setattr(Instruction, "substitute_params", forbidden)
        monkeypatch.setattr(Instruction, "remap_qubits", forbidden)
        circuit = preprocess(random_circuit_factory(3, 16, 1), "nam")
        matcher = PatternMatcher(circuit)
        produced = sum(len(matcher.apply_all(t)) for t in nam_transformations_small)
        assert produced > 0

    def test_template_substitutes_symbolic_params(self):
        merge = Transformation(
            Circuit(1).rz(0, Angle.param(0)).rz(0, Angle.param(1)),
            Circuit(1)
            .rz(0, Angle.param(0) + Angle.param(1))
            .rz(0, Angle.pi(1))
            .rz(0, Angle.param(2, 2)),
        )
        circuit = Circuit(2).h(1).rz(1, Fraction(1, 4)).rz(1, Fraction(1, 2)).x(1)
        (successor,) = PatternMatcher(circuit).apply_all(merge)
        # p0 + p1 = pi/4 + pi/2; p2 appears only in the target and is zero.
        assert successor == Circuit(2).h(1).rz(1, Fraction(3, 4)).rz(1, 1).rz(1, 0).x(1)
        assert successor.gate_counts() == {"h": 1, "rz": 3, "x": 1}


def _alphabet():
    """16 instructions on 3 qubits: h, x and rz(pi/4) per qubit, every cx
    and one ccx."""
    instructions = []
    for qubit in range(3):
        instructions.append(Instruction("h", (qubit,)))
        instructions.append(Instruction("x", (qubit,)))
        instructions.append(Instruction("rz", (qubit,), [Angle.pi(Fraction(1, 4))]))
    for control, target in itertools.permutations(range(3), 2):
        instructions.append(Instruction("cx", (control, target)))
    instructions.append(Instruction("ccx", (0, 1, 2)))
    return instructions


class TestWireKey:
    def test_classes_equal_canonical_key_classes(self):
        # Every three-gate circuit over the alphabet: the wire key must
        # induce exactly the canonical key's partition.
        alphabet = _alphabet()
        assert len(alphabet) == 16
        canonical_of_wire = {}
        wire_of_canonical = {}
        circuits = 0
        for word in itertools.product(alphabet, repeat=3):
            circuit = Circuit(3, word)
            wire = circuit.wire_key()
            canonical = circuit.canonical_key()
            assert canonical_of_wire.setdefault(wire, canonical) == canonical
            assert wire_of_canonical.setdefault(canonical, wire) == wire
            circuits += 1
        assert circuits == 4096
        assert len(canonical_of_wire) == len(wire_of_canonical)
        # Reordering does merge circuits (h0 x1 == x1 h0), so the classes
        # are not all singletons.
        assert len(canonical_of_wire) < circuits

    def test_adjacent_swaps(self, random_circuit_factory):
        circuit = preprocess(random_circuit_factory(4, 40, 7, include_ccx=True), "nam")
        key = circuit.wire_key()
        instructions = circuit.instructions
        disjoint = dependent = 0
        for index in range(len(instructions) - 1):
            first, second = instructions[index], instructions[index + 1]
            swapped = list(instructions)
            swapped[index], swapped[index + 1] = second, first
            other = Circuit(circuit.num_qubits, swapped)
            if not set(first.qubits) & set(second.qubits):
                assert other.wire_key() == key
                disjoint += 1
            elif first.sort_key() != second.sort_key():
                assert other.wire_key() != key
                assert other.canonical_key() != circuit.canonical_key()
                dependent += 1
        assert disjoint > 5 and dependent > 5

    def test_length_is_the_qubit_count(self):
        h1 = Instruction("h", (1,))
        assert Circuit(4, [h1]).wire_key() == ((), (h1.sort_key(),), (), ())
        assert Circuit(2).wire_key() != Circuit(3).wire_key()

    def test_dag_and_matcher_do_not_freeze(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(0).cx(0, 1).x(1)
        circuit.to_dag()
        assert not circuit.is_frozen
        matcher = PatternMatcher(circuit)
        produced = sum(len(matcher.apply_all(t)) for t in nam_transformations_small)
        assert produced > 0
        assert not circuit.is_frozen
        circuit.h(1)
        assert circuit.gate_count == 5
