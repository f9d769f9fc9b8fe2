"""The shared matching pass: one trie over every rule's match steps.

* **Sharing.**  Patterns are merged on their renumbered steps, so patterns
  that differ only in qubit labels or params end at one node, a pattern
  that extends another continues its path, and rules with one source
  share one pattern.
* **Search tables.**  On the real rule sets, every matcher a search builds
  must hold, for every rule whose gate multiset the circuit contains, the
  matches a pass over that rule's pattern alone returns.
  ``tests/test_optimizer.py`` checks the one-pattern pass, and shared
  passes over random rule sets, against an exhaustive scan.
* **Memos.**  Every solution the trie's memo hands a match equals a fresh
  ``_solve_params`` of it, and every successor equals one instantiated
  without the memos (each target param through ``Angle.substitute``).
* **Loop order.**  Visiting only the rules whose source matched gives the
  same successors, in the same order, as visiting every rule whose gate
  multiset the circuit contains.
* **Laziness.**  A search builds the instruction lists of the circuits it
  pops, and of no other successor.
"""

from __future__ import annotations

import pytest

from fractions import Fraction
from typing import NamedTuple

from repro.benchmarks_suite import benchmark_circuit
from repro.ir import Circuit
from repro.ir import dag as dag_module
from repro.ir.circuit import Instruction
from repro.ir.params import Angle
from repro.optimizer import BacktrackingOptimizer, Transformation
from repro.optimizer.matcher import PatternMatcher, compile_match_trie
from repro.preprocess import preprocess


def _rows(matches):
    return [(m.node_ids, list(m.qubit_map.items()), m.param_assignment) for m in matches]


def _contains_source_gates(circuit, transformation):
    """The multiset check searches used before the trie said which sources
    matched: the circuit has at least the source's gates of each name."""
    counts = circuit.gate_counts()
    return all(
        counts.get(name, 0) >= needed
        for name, needed in transformation.source.gate_counts().items()
    )


def _memo_free_successor(matcher, transformation, match):
    """``matcher.apply`` without the trie's memos: every target param goes
    through ``Angle.substitute``, then the replacement is spliced in."""
    source, target = transformation.source, transformation.target
    qubit_map = dict(match.qubit_map)
    extra_qubits = sorted(target.used_qubits() - source.used_qubits())
    free = [q for q in range(matcher.circuit.num_qubits) if q not in qubit_map.values()]
    if len(free) < len(extra_qubits):
        return None
    qubit_map.update(zip(extra_qubits, free))
    assignment = dict(match.param_assignment)
    for index in target.used_params() - source.used_params():
        assignment.setdefault(index, Angle.zero())
    replacement = [
        Instruction(
            inst.gate,
            [qubit_map[q] for q in inst.qubits],
            [param.substitute(assignment) for param in inst.params],
        )
        for inst in target.instructions
    ]
    return matcher.dag.splice(match.node_ids, replacement)


def _assert_same_circuit(produced, expected):
    assert produced.instructions == expected.instructions
    assert produced.gate_counts() == expected.gate_counts()
    assert produced.wire_key() == expected.wire_key()


class TestSharing:
    def test_renumbered_twins_share_every_node(self):
        twins = [
            Transformation(Circuit(2).cx(0, 1).h(0), Circuit(2)),
            Transformation(Circuit(2).cx(1, 0).h(1), Circuit(2)),
            Transformation(Circuit(3).cx(2, 0).h(2), Circuit(3)),
        ]
        trie = compile_match_trie(twins)
        assert len(trie.children) == 3  # the root and one node per step
        assert trie.terminals[2] == (0, 1, 2)
        assert trie.paths == ((0, 1, 2),) * 3
        assert trie.bound_qubits == ((0, 1), (1, 0), (2, 0))

    def test_prefixes_params_and_duplicate_sources(self):
        rz_cx = Circuit(2, num_params=1).rz(0, Angle.param(0)).cx(0, 1)
        rules = [
            Transformation(Circuit(1).h(0).h(0), Circuit(1)),
            Transformation(Circuit(1).h(0).h(0).x(0), Circuit(1).x(0)),
            Transformation(Circuit(1).h(0).h(0), Circuit(1).x(0).x(0)),
            Transformation(rz_cx, Circuit(2).cx(0, 1)),
            Transformation(
                Circuit(2, num_params=1).rz(0, Angle.param(0) + Angle.pi(1)).cx(0, 1),
                Circuit(2).cx(0, 1),
            ),
            Transformation(Circuit(2).h(0).h(1), Circuit(2)),
        ]
        trie = compile_match_trie(rules)
        assert len(trie.patterns) == 5
        assert trie.index[rules[0].source_key] == trie.index[rules[2].source_key] == 0
        # h h x continues h h's path; the two rz cx patterns end at one
        # node; h(0) h(1) starts with h and then scans for a second h.
        assert trie.paths[1][:-1] == trie.paths[0]
        assert trie.paths[2] == trie.paths[3]
        assert trie.terminals[trie.paths[2][-1]] == (2, 3)
        assert trie.paths[4][1] == trie.paths[0][1]
        assert len(trie.children[0]) == 2
        assert trie.subtree_patterns[0] == 5
        assert trie.subtree_patterns[trie.paths[0][1]] == 3

    def test_matches_keep_each_patterns_qubit_labels(self):
        circuit = Circuit(3).cx(2, 1).h(2).cx(0, 1).h(0)
        twins = [
            Transformation(Circuit(2).cx(0, 1).h(0), Circuit(2)),
            Transformation(Circuit(2).cx(1, 0).h(1), Circuit(2)),
        ]
        matcher = PatternMatcher(circuit, trie=compile_match_trie(twins))
        assert _rows(matcher.matches_for(twins[0])) == [
            ((0, 1), [(0, 2), (1, 1)], {}),
            ((2, 3), [(0, 0), (1, 1)], {}),
        ]
        assert _rows(matcher.matches_for(twins[1])) == [
            ((0, 1), [(1, 2), (0, 1)], {}),
            ((2, 3), [(1, 0), (0, 1)], {}),
        ]
        assert _rows(matcher.matches_for(twins[1], max_matches=1)) == [
            ((0, 1), [(1, 2), (0, 1)], {}),
        ]


class TestMemos:
    def test_solution_key_is_the_pattern_and_its_angles_in_step_order(self):
        quarter, half = Angle.pi(Fraction(1, 4)), Angle.pi(Fraction(1, 2))
        circuit = Circuit(6)
        # The same angles on wires (0, 1) and (2, 3), swapped on (4, 5).
        for qubit, (first, second) in zip(
            (0, 2, 4), [(quarter, half), (quarter, half), (half, quarter)]
        ):
            circuit.rz(qubit, first).cx(qubit, qubit + 1).rz(qubit + 1, second)
        p0, p1 = Angle.param(0), Angle.param(1)
        source = Circuit(2, num_params=2).rz(0, p0).cx(0, 1).rz(1, p1)
        doubled = Circuit(2, num_params=2).rz(0, p0.scale(2)).cx(0, 1).rz(1, p1)
        rules = [
            # Two rules with one source, and a pattern that differs in a
            # param only.
            Transformation(source, Circuit(2, num_params=2).cx(0, 1).rz(0, p0).rz(1, p1)),
            Transformation(source, Circuit(2, num_params=2).cx(0, 1).rz(0, p1).rz(1, p0)),
            Transformation(doubled, Circuit(2, num_params=2).rz(0, p0 + p1).cx(0, 1)),
        ]
        trie = compile_match_trie(rules)
        matcher = PatternMatcher(circuit, trie=trie)

        first, second, swapped = matcher.matches_for(rules[0])
        # Equal angles on other qubits: one solve, shared by both matches.
        assert first.solution_key == second.solution_key
        assert first.param_assignment is second.param_assignment
        # The same angles in swapped step order are another system.
        assert swapped.solution_key != first.solution_key
        assert swapped.param_assignment == {0: half, 1: quarter}
        # Another pattern over the same angles has its own solutions.
        halved = matcher.matches_for(rules[2])
        assert halved[0].param_assignment == {0: Angle.pi(Fraction(1, 8)), 1: half}
        assert len(trie.solutions) == 4

        for rule in rules:
            for match in matcher.matches_for(rule):
                assert match.param_assignment == matcher._solve_params(
                    rule.source, match.node_ids
                )
                _assert_same_circuit(
                    matcher.apply(rule, match),
                    _memo_free_successor(matcher, rule, match),
                )
        # Per rule, one instantiation per solution key.
        assert len(trie.instantiations) == 6

    def test_failed_solves_are_memoized(self):
        # rz(p0) rz(p0) unifies only with two equal angles.
        quarter, half = Angle.pi(Fraction(1, 4)), Angle.pi(Fraction(1, 2))
        circuit = Circuit(3).rz(0, quarter).rz(0, half).rz(1, quarter).rz(1, half)
        circuit.rz(2, half).rz(2, half)
        p0 = Angle.param(0)
        rule = Transformation(
            Circuit(1, num_params=1).rz(0, p0).rz(0, p0),
            Circuit(1, num_params=1).rz(0, p0.scale(2)),
        )
        trie = compile_match_trie([rule])
        (match,) = PatternMatcher(circuit, trie=trie).matches_for(rule)
        assert match.node_ids == (4, 5)
        assert list(trie.solutions.values()) == [None, {0: half}]


class SearchRun(NamedTuple):
    transformations: list
    cap: int
    #: Every matcher the search built, in pop order.
    matchers: list
    #: ``(matcher, transformation, successors)`` per rule the search
    #: visits: its ``apply_all`` call, or for a rule the cost gate skips,
    #: what ``apply_all`` would have returned.
    calls: list
    #: The search's result.
    result: object
    #: Instruction lists of spliced circuits built during the search.
    builds: int


# Three 30-iteration searches: Nam gains (barenco_tof_3, mod5_4) and
# rewrite-heavy Rigetti tof_3.
SEARCHES = [("nam", "barenco_tof_3"), ("nam", "mod5_4"), ("rigetti", "tof_3")]


@pytest.fixture(
    scope="module", params=SEARCHES, ids=[f"{g}-{n}" for g, n in SEARCHES]
)
def search_run(request):
    """One search per circuit, recording its matchers and the rules it
    visits for the tests below to replay."""
    gate_set, name = request.param
    transformations = request.getfixturevalue(f"{gate_set}_transformations_n3_q3")
    matchers = []
    calls = []
    builds = [0]
    build = PatternMatcher.__init__
    apply_all = PatternMatcher.apply_all
    successor_count = PatternMatcher.successor_count
    build_instructions = dag_module._spliced_instructions

    def recording_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        matchers.append(self)

    def recording_apply_all(self, transformation, max_matches=None):
        successors = apply_all(self, transformation, max_matches)
        calls.append((self, transformation, successors))
        return successors

    def recording_successor_count(self, transformation, max_matches=None):
        # The cost gate skips this rule's splices; record the successors
        # they would have made, which the count must agree with.
        successors = apply_all(self, transformation, max_matches)
        calls.append((self, transformation, successors))
        count = successor_count(self, transformation, max_matches)
        assert count == len(successors)
        return count

    def counting_build(*args):
        builds[0] += 1
        return build_instructions(*args)

    optimizer = BacktrackingOptimizer(transformations)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PatternMatcher, "__init__", recording_init)
        patch.setattr(PatternMatcher, "apply_all", recording_apply_all)
        patch.setattr(PatternMatcher, "successor_count", recording_successor_count)
        patch.setattr(dag_module, "_spliced_instructions", counting_build)
        result = optimizer.optimize(
            preprocess(benchmark_circuit(name), gate_set), max_iterations=30
        )
        # Later reads of the recorded successors build through the same
        # wrapper; only the search's own builds are counted.
        search_builds = builds[0]
    assert len(matchers) == 30
    return SearchRun(
        transformations,
        optimizer.max_matches_per_transformation,
        matchers,
        calls,
        result,
        search_builds,
    )


def test_search_tables_equal_per_pattern_matches(search_run):
    transformations, cap, matchers, *_ = search_run
    trie = matchers[0].trie
    assert trie is not None
    # Renumbering merges prefixes that differ only in qubit labels.
    unrenumbered = {
        transformation.match_plan.steps[:length]
        for transformation in transformations
        for length in range(1, len(transformation.source) + 1)
    }
    assert len(trie.children) - 1 < len(unrenumbered)
    compared = 0
    for matcher in matchers:
        assert matcher.trie is trie
        for transformation in transformations:
            if not _contains_source_gates(matcher.circuit, transformation):
                continue
            expected = matcher.find_matches(
                transformation.source, cap, transformation.match_plan
            )
            assert _rows(matcher.matches_for(transformation, cap)) == _rows(expected)
            compared += len(expected)
    assert compared > 1000


def test_search_solutions_equal_fresh_solves(search_run):
    transformations, cap, matchers, *_ = search_run
    trie = matchers[0].trie
    solved = 0
    for matcher in matchers:
        for transformation in matcher.matched_rules(cap):
            has_params = trie.has_params[trie.index[transformation.source_key]]
            for match in matcher.matches_for(transformation, cap):
                assert match.param_assignment == matcher._solve_params(
                    transformation.source, match.node_ids
                )
                solved += has_params
    # Most matches of parametrized patterns reuse a memoized solution.
    assert 0 < len(trie.solutions) < solved / 2


def test_search_successors_equal_memo_free_instantiation(search_run):
    _, cap, matchers, calls, *_ = search_run
    applied = 0
    for matcher, transformation, _ in calls:
        for match in matcher.matches_for(transformation, cap):
            produced = matcher.apply(transformation, match)
            expected = _memo_free_successor(matcher, transformation, match)
            if expected is None:
                assert produced is None
                continue
            _assert_same_circuit(produced, expected)
            applied += 1
    assert applied > 1000
    assert len(matchers[0].trie.instantiations) < applied / 2


def test_search_visits_rules_in_the_old_loop_order(search_run):
    # The old loop visited every rule whose gate multiset the circuit
    # contains and applied it; the new one visits only rules whose source
    # matched.  Both must hand the queue the same successors in the same
    # order, so the heap's insertion counter numbers them alike.
    transformations, cap, matchers, calls, *_ = search_run
    position = {id(rule): index for index, rule in enumerate(transformations)}
    visited = {id(matcher): [] for matcher in matchers}
    for matcher, transformation, successors in calls:
        visited[id(matcher)].extend(
            (position[id(transformation)], successor.wire_key())
            for successor in successors
        )
    compared = 0
    for matcher in matchers:
        reference = PatternMatcher(matcher.circuit)
        old_loop = [
            (index, successor.wire_key())
            for index, transformation in enumerate(transformations)
            if _contains_source_gates(matcher.circuit, transformation)
            for successor in reference.apply_all(transformation, cap)
        ]
        assert visited[id(matcher)] == old_loop
        compared += len(old_loop)
    # Rules without a match on the circuit are never applied.
    for matcher, transformation, _ in calls:
        assert matcher.matches_for(transformation, cap)
    assert compared > 1000


def test_search_builds_only_what_it_pops(search_run):
    # The seen-set reads a successor's wire key and the cost gate its gate
    # count; neither builds its instruction list.  A popped circuit is
    # built when its matcher reads it, and the returned one at the latest
    # when the caller reads it.
    _, _, matchers, calls, result, builds = search_run
    successors = sum(len(successors) for _, _, successors in calls)
    assert builds <= result.iterations + 1
    # Every popped circuit but the input was spliced.
    assert builds == len(matchers) - 1
    assert successors > 10 * builds
