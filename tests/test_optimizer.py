"""Tests for transformations, the pattern matcher and the backtracking search."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from repro.api import SearchConfig
from repro.ir import Circuit
from repro.ir.circuit import Instruction
from repro.ir.params import Angle
from repro.ir.qasm import to_qasm
from repro.optimizer import (
    BacktrackingOptimizer,
    DepthCost,
    GateCountCost,
    TCountCost,
    Transformation,
    TwoQubitCountCost,
    transformations_from_ecc_set,
)
from repro.optimizer.matcher import PatternMatcher, compile_match_trie
from repro.semantics.simulator import circuits_equivalent_numeric


class TestCostModels:
    def test_gate_count(self):
        assert GateCountCost()(Circuit(2).h(0).cx(0, 1)) == 2

    def test_two_qubit_count(self):
        assert TwoQubitCountCost()(Circuit(2).h(0).cx(0, 1).cz(1, 0)) == 2

    def test_t_count_counts_t_like_rotations(self):
        circuit = (
            Circuit(1).t(0).tdg(0).s(0).rz(0, Angle.pi(Fraction(1, 4))).rz(0, Angle.pi(1))
        )
        assert TCountCost()(circuit) == 3

    def test_depth_cost(self):
        assert DepthCost()(Circuit(2).h(0).h(1).cx(0, 1)) == 2


class TestTransformations:
    def test_extraction_counts(self, nam_ecc_q2_n2):
        transformations = transformations_from_ecc_set(nam_ecc_q2_n2)
        # Every non-representative circuit contributes at most two directions,
        # minus the ones whose source would be the empty circuit.
        assert transformations
        assert all(len(t.source) > 0 for t in transformations)

    def test_gate_delta(self):
        t = Transformation(Circuit(1).h(0).h(0), Circuit(1))
        assert t.gate_delta == -2


class TestPatternMatcher:
    def test_simple_match_and_apply(self):
        circuit = Circuit(2).h(0).h(0).cx(0, 1)
        transformation = Transformation(Circuit(1).h(0).h(0), Circuit(1))
        matcher = PatternMatcher(circuit)
        results = matcher.apply_all(transformation)
        assert len(results) == 1
        assert results[0].gate_count == 1
        assert circuits_equivalent_numeric(circuit, results[0])

    def test_match_respects_wire_order(self):
        # Pattern H X must not match a circuit containing X H.
        circuit = Circuit(1).x(0).h(0)
        transformation = Transformation(Circuit(1).h(0).x(0), Circuit(1).z(0))
        assert PatternMatcher(circuit).find_matches(transformation.source) == []

    def test_match_rejects_non_convex(self):
        # H ... H with an X in between on the same wire is not a subcircuit.
        circuit = Circuit(1).h(0).x(0).h(0)
        matches = PatternMatcher(circuit).find_matches(Circuit(1).h(0).h(0))
        assert matches == []

    def test_equal_successors_are_all_returned(self):
        # h h h has two matches of h h, and both leave h: apply_all gives
        # one successor per match, in match order, and callers dedupe.
        circuit = Circuit(1).h(0).h(0).h(0)
        transformation = Transformation(Circuit(1).h(0).h(0), Circuit(1))
        first, second = PatternMatcher(circuit).apply_all(transformation)
        assert first == second == Circuit(1).h(0)
        assert first.wire_key() == second.wire_key()

    def test_successor_count_needs_no_splice(self):
        # The target uses a qubit the source does not, so a match applies
        # only where the circuit has a qubit to spare.
        transformation = Transformation(
            Circuit(2).h(0).h(0), Circuit(2).cx(0, 1).cx(0, 1)
        )
        for num_qubits, successors in ((1, 0), (2, 2)):
            matcher = PatternMatcher(Circuit(num_qubits).h(0).h(0).h(0))
            assert len(matcher.apply_all(transformation)) == successors
            assert matcher.successor_count(transformation) == successors

    def test_match_on_different_qubits(self):
        circuit = Circuit(3).h(2).h(2)
        transformation = Transformation(Circuit(1).h(0).h(0), Circuit(1))
        results = PatternMatcher(circuit).apply_all(transformation)
        assert len(results) == 1
        assert results[0].gate_count == 0

    def test_qubit_mapping_respects_operand_roles(self):
        # Pattern cx(0,1) must map control to control.
        circuit = Circuit(2).cx(1, 0)
        matches = PatternMatcher(circuit).find_matches(Circuit(2).cx(0, 1))
        assert len(matches) == 1
        assert matches[0].qubit_map == {0: 1, 1: 0}

    def test_parameter_unification_simple(self):
        circuit = Circuit(1).rz(0, Angle.pi(Fraction(1, 4))).rz(0, Angle.pi(Fraction(1, 2)))
        pattern = (
            Circuit(1, num_params=2).rz(0, Angle.param(0)).rz(0, Angle.param(1))
        )
        rewrite = Circuit(1, num_params=2).rz(0, Angle.param(0) + Angle.param(1))
        transformation = Transformation(pattern, rewrite)
        results = PatternMatcher(circuit).apply_all(transformation)
        assert len(results) == 1
        merged = results[0]
        assert merged.gate_count == 1
        assert merged[0].params[0] == Angle.pi(Fraction(3, 4))
        assert circuits_equivalent_numeric(circuit, merged)

    def test_parameter_unification_underdetermined(self):
        # Source rz(p0+p1) matched against a concrete rz: p1 defaults to 0.
        circuit = Circuit(1).rz(0, Angle.pi(Fraction(1, 2)))
        pattern = Circuit(1, num_params=2).rz(0, Angle.param(0) + Angle.param(1))
        rewrite = Circuit(1, num_params=2).rz(0, Angle.param(0)).rz(0, Angle.param(1))
        results = PatternMatcher(circuit).apply_all(Transformation(pattern, rewrite))
        assert results
        assert circuits_equivalent_numeric(circuit, results[0])

    def test_parameter_mismatch_rejected(self):
        # Pattern rz(2 p0) cannot match rz(pi/4) with p0 = pi/8?  It can
        # (p0 = pi/8), but pattern rz(p0) rz(p0) requires equal angles.
        circuit = Circuit(1).rz(0, Angle.pi(Fraction(1, 4))).rz(0, Angle.pi(Fraction(1, 2)))
        pattern = Circuit(1, num_params=1).rz(0, Angle.param(0)).rz(0, Angle.param(0))
        matches = PatternMatcher(circuit).find_matches(pattern)
        assert matches == []

    def test_max_matches_limit(self):
        circuit = Circuit(1)
        for _ in range(6):
            circuit.h(0)
        matcher = PatternMatcher(circuit)
        limited = matcher.find_matches(Circuit(1).h(0).h(0), max_matches=2)
        assert len(limited) == 2

    def test_empty_pattern_has_no_matches(self):
        assert PatternMatcher(Circuit(1).h(0)).find_matches(Circuit(1)) == []

    def test_matches_equal_exhaustive_reference(self):
        # The matcher follows only the next node on a shared wire; on random
        # circuits it must still return exactly the matches, in the same
        # order, of an exhaustive scan over every node assignment.
        rng = random.Random(20220433)
        compared = 0
        for _ in range(200):
            circuit = _random_circuit(rng, num_qubits=3, length=rng.randint(5, 9))
            matcher = PatternMatcher(circuit)
            patterns = [_random_pattern(rng) for _ in range(6)]
            start = rng.randrange(len(circuit) - 1)
            patterns.append(_window_pattern(circuit, start, rng.randint(2, 3)))
            for pattern in patterns:
                expected = _reference_matches(circuit, pattern)
                found = [
                    (m.node_ids, m.qubit_map, m.param_assignment)
                    for m in matcher.find_matches(pattern)
                ]
                assert found == expected
                limited = matcher.find_matches(pattern, max_matches=1)
                assert [m.node_ids for m in limited] == [e[0] for e in expected[:1]]
                compared += len(expected)
        assert compared > 100

    def test_shared_pass_equals_reference_per_pattern(self):
        # One pass over the trie of a whole rule set must give every
        # pattern exactly the matches of the exhaustive scan, in order and
        # under each cap, with its own qubit labels in bind order.
        rng = random.Random(20221115)
        compared = 0
        for _ in range(30):
            circuit = _random_circuit(rng, num_qubits=3, length=rng.randint(6, 8))
            transformations = [
                Transformation(source, target)
                for source in _rule_set_sources(rng, circuit)
                # Two rules per source, as an ECC's C_1 -> C_i rules share one.
                for target in (Circuit(source.num_qubits), source)
            ]
            trie = compile_match_trie(transformations)
            assert len(trie.patterns) < len(transformations)
            assert len(trie.children) - 1 < sum(len(p) for p in trie.patterns)
            expected = {}
            for transformation in transformations:
                if transformation.source_key not in expected:
                    expected[transformation.source_key] = [
                        (node_ids, list(qubit_map.items()), params)
                        for node_ids, qubit_map, params in _reference_matches(
                            circuit, transformation.source
                        )
                    ]
            for cap in (None, 1, 2):
                matcher = PatternMatcher(circuit, trie=trie)
                for transformation in transformations:
                    found = [
                        (m.node_ids, list(m.qubit_map.items()), m.param_assignment)
                        for m in matcher.matches_for(transformation, max_matches=cap)
                    ]
                    assert found == expected[transformation.source_key][:cap]
                    compared += len(found)
        assert compared > 1000


def _random_instruction(rng, num_qubits, concrete):
    gate = rng.choice(["h", "x", "cx", "rz"])
    if gate == "cx":
        return Instruction("cx", rng.sample(range(num_qubits), 2))
    qubit = rng.randrange(num_qubits)
    if gate == "rz":
        angle = Angle.pi(Fraction(rng.randint(1, 3), 4)) if concrete else Angle.param(0)
        return Instruction("rz", [qubit], [angle])
    return Instruction(gate, [qubit])


def _random_circuit(rng, num_qubits, length):
    return Circuit(
        num_qubits, [_random_instruction(rng, num_qubits, True) for _ in range(length)]
    )


def _random_pattern(rng):
    length = rng.randint(2, 3)
    return Circuit(
        2, [_random_instruction(rng, 2, False) for _ in range(length)], num_params=1
    )


def _window_pattern(circuit, start, length):
    """Consecutive instructions of ``circuit`` relabelled onto qubits 0..k-1,
    with every angle replaced by its own parameter."""
    window = circuit.instructions[start : start + length]
    relabel = {}
    for inst in window:
        for qubit in inst.qubits:
            relabel.setdefault(qubit, len(relabel))
    instructions = []
    num_params = 0
    for inst in window:
        params = [Angle.param(num_params + i) for i in range(len(inst.params))]
        num_params += len(params)
        instructions.append(
            Instruction(inst.gate, [relabel[q] for q in inst.qubits], params)
        )
    return Circuit(len(relabel), instructions, num_params=num_params)


def _mirrored(pattern, width):
    """``pattern`` on ``width`` qubits with qubit ``q`` renamed ``width - 1 - q``."""
    return Circuit(
        width,
        [
            Instruction(inst.gate, [width - 1 - q for q in inst.qubits], inst.params)
            for inst in pattern.instructions
        ],
        num_params=pattern.num_params,
    )


def _rule_set_sources(rng, circuit):
    """Source patterns for one shared pass: random ones and a window of
    ``circuit``, each with a qubit-renumbered twin, a one-gate extension
    and its two-gate prefix; patterns that differ only in their params;
    and disconnected patterns."""
    bases = [_random_pattern(rng) for _ in range(4)]
    bases.append(_window_pattern(circuit, rng.randrange(len(circuit) - 1), 3))
    sources = []
    for base in bases:
        width = max(base.num_qubits, 2)
        extension = base.instructions + [_random_instruction(rng, width, False)]
        sources += [
            base,
            _mirrored(base, width),
            Circuit(width, extension, num_params=max(base.num_params, 1)),
            Circuit(width, base.instructions[:2], num_params=base.num_params),
        ]
    p0, p1, quarter = Angle.param(0), Angle.param(1), Angle.pi(Fraction(1, 4))
    for first, second in [(p0, p1), (p0, p0), (p0, p0 + quarter), (quarter, p0)]:
        sources.append(Circuit(2, num_params=2).rz(0, first).cx(0, 1).rz(0, second))
    sources += [
        Circuit(2).h(0).h(1),
        Circuit(3).cx(0, 1).x(2),
        Circuit(3).x(2).cx(1, 0).h(1),
        Circuit(3).cx(2, 0).h(1).cx(1, 0),
    ]
    return sources


def _reference_matches(circuit, pattern):
    """Every injective node assignment in lexicographic order, filtered by
    gate names, an injective operand-preserving qubit map, the pattern's
    wire order, set-based convexity and parameter unification."""
    matcher = PatternMatcher(circuit)
    dag = matcher.dag
    found = []
    for node_ids in itertools.permutations(sorted(dag.nodes), len(pattern)):
        qubit_map = {}
        consistent = True
        for pattern_inst, node_id in zip(pattern.instructions, node_ids):
            node_inst = dag.nodes[node_id]
            if node_inst.gate.name != pattern_inst.gate.name:
                consistent = False
                break
            for pattern_qubit, circuit_qubit in zip(pattern_inst.qubits, node_inst.qubits):
                if qubit_map.setdefault(pattern_qubit, circuit_qubit) != circuit_qubit:
                    consistent = False
        if not consistent or len(set(qubit_map.values())) != len(qubit_map):
            continue
        # Node ids follow program order, so on one wire they give its order.
        last_on_qubit = {}
        for pattern_inst, node_id in zip(pattern.instructions, node_ids):
            for pattern_qubit in pattern_inst.qubits:
                if last_on_qubit.get(pattern_qubit, -1) >= node_id:
                    consistent = False
                last_on_qubit[pattern_qubit] = node_id
        if not consistent or not dag.is_convex(node_ids):
            continue
        params = matcher._solve_params(pattern, node_ids)
        if params is not None:
            found.append((node_ids, qubit_map, params))
    return found


# (strategy, final cost, circuits explored, sha256 of the best circuit's
# QASM) on h h h under the one rule h h -> nothing, 30 iterations.  Recorded
# while apply_all still dropped a rule's equal successors itself; the
# strategies' seen-sets drop the second now, so none of these may move.
EQUAL_SUCCESSORS_GOLDEN = [
    (
        "backtracking", 1, 2,
        "2d8c5174f82b6554bdc2d41833de5f16ec408e75948d357c21d984a938003288",
    ),
    (
        "greedy", 1, 2,
        "2d8c5174f82b6554bdc2d41833de5f16ec408e75948d357c21d984a938003288",
    ),
    (
        "beam", 1, 2,
        "2d8c5174f82b6554bdc2d41833de5f16ec408e75948d357c21d984a938003288",
    ),
]


@pytest.mark.parametrize(
    "strategy, final, explored, digest",
    EQUAL_SUCCESSORS_GOLDEN,
    ids=[row[0] for row in EQUAL_SUCCESSORS_GOLDEN],
)
def test_equal_successors_are_deduped_by_the_search(strategy, final, explored, digest):
    rule = Transformation(Circuit(1).h(0).h(0), Circuit(1))
    result = SearchConfig(strategy=strategy).runner().run(
        Circuit(1).h(0).h(0).h(0), [rule], max_iterations=30
    )
    assert (result.initial_cost, result.final_cost) == (3, final)
    assert result.circuits_explored == explored
    assert hashlib.sha256(to_qasm(result.circuit).encode()).hexdigest() == digest
    # The second h reached the seen-set, which turned it away.
    assert result.perf["search.seen_rejects"] == 1


class TestBacktrackingSearch:
    def test_hadamard_cnot_example(self, nam_transformations_small):
        """Figure 3a: H H CX H H reduces to a flipped CNOT."""
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, max_iterations=60)
        assert result.final_cost == 1
        assert circuits_equivalent_numeric(circuit, result.circuit)
        assert result.initial_cost == 5
        assert result.reduction == pytest.approx(0.8)

    def test_greedy_never_increases_cost(self, nam_transformations_small):
        circuit = Circuit(2).h(0).x(0).h(0).cx(0, 1).cx(0, 1)
        result = SearchConfig(strategy="greedy").runner().run(
            circuit, nam_transformations_small, max_iterations=40
        )
        assert result.final_cost <= result.initial_cost
        assert circuits_equivalent_numeric(circuit, result.circuit)

    def test_optimized_circuit_is_always_equivalent(self, nam_transformations_small):
        circuit = (
            Circuit(2)
            .h(0)
            .t(0)
            .cx(0, 1)
            .rz(1, Angle.pi(Fraction(1, 2)))
            .cx(0, 1)
            .h(0)
            .x(1)
            .x(1)
        )
        from repro.preprocess import clifford_t_to_nam

        nam_circuit = clifford_t_to_nam(circuit)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(nam_circuit, max_iterations=40)
        assert circuits_equivalent_numeric(nam_circuit, result.circuit)
        assert result.final_cost <= result.initial_cost

    def test_iteration_budget_respected(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, max_iterations=1)
        assert result.iterations <= 1

    def test_timeout_respected(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, timeout_seconds=0.0)
        assert result.timed_out or result.iterations <= 1

    def test_tiny_timeout_reports_flag_elapsed_and_best_so_far(
        self, nam_transformations_small
    ):
        """A timed-out run must say so, report its real elapsed time, and
        still hand back the best circuit found so far."""
        circuit = Circuit(2)
        for _ in range(6):
            circuit.h(0).h(1).cx(0, 1).h(0).h(1).x(0).x(0)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, timeout_seconds=1e-9)
        assert result.timed_out
        assert result.time_seconds > 0.0
        # The strided check (transformation and match granularity) bounds the
        # overshoot to a sliver of work, far below a full sweep.
        assert result.time_seconds < 5.0
        assert result.final_cost <= result.initial_cost
        assert result.circuit.num_qubits == circuit.num_qubits

    def test_no_timeout_leaves_flag_unset(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(0)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, max_iterations=5)
        assert not result.timed_out

    def test_cost_trace_is_monotone(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1).x(0).x(0)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, max_iterations=60)
        costs = [cost for _time, cost in result.cost_trace]
        assert costs == sorted(costs, reverse=True)
        assert costs[-1] == result.final_cost

    def test_gamma_one_is_greedy(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        greedy = BacktrackingOptimizer(nam_transformations_small, gamma=1.0)
        backtracking = BacktrackingOptimizer(nam_transformations_small, gamma=1.0001)
        greedy_result = greedy.optimize(circuit, max_iterations=60)
        backtracking_result = backtracking.optimize(circuit, max_iterations=60)
        # The cost-preserving H-pushing moves are unavailable at gamma = 1, so
        # greedy cannot beat the backtracking search on this circuit.
        assert backtracking_result.final_cost <= greedy_result.final_cost
