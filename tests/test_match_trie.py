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
"""

from __future__ import annotations

import pytest

from repro.benchmarks_suite import benchmark_circuit
from repro.ir import Circuit
from repro.ir.params import Angle
from repro.optimizer import BacktrackingOptimizer, Transformation
from repro.optimizer.matcher import PatternMatcher, compile_match_trie
from repro.preprocess import preprocess


def _rows(matches):
    return [(m.node_ids, list(m.qubit_map.items()), m.param_assignment) for m in matches]


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


# Three 30-iteration searches: Nam gains (barenco_tof_3, mod5_4) and
# rewrite-heavy Rigetti tof_3.
SEARCHES = [("nam", "barenco_tof_3"), ("nam", "mod5_4"), ("rigetti", "tof_3")]


@pytest.mark.parametrize(
    "gate_set, name", SEARCHES, ids=[f"{g}-{n}" for g, n in SEARCHES]
)
def test_search_tables_equal_per_pattern_matches(request, monkeypatch, gate_set, name):
    transformations = request.getfixturevalue(f"{gate_set}_transformations_n3_q3")
    matchers = []
    build = PatternMatcher.__init__

    def recording_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        matchers.append(self)

    monkeypatch.setattr(PatternMatcher, "__init__", recording_init)
    optimizer = BacktrackingOptimizer(transformations)
    optimizer.optimize(preprocess(benchmark_circuit(name), gate_set), max_iterations=30)
    monkeypatch.undo()

    assert len(matchers) == 30
    cap = optimizer.max_matches_per_transformation
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
            if not matcher.circuit.contains_gate_counts(
                transformation.source_gate_counts
            ):
                continue
            expected = matcher.find_matches(
                transformation.source, cap, transformation.match_plan
            )
            assert _rows(matcher.matches_for(transformation, cap)) == _rows(expected)
            compared += len(expected)
    assert compared > 1000
