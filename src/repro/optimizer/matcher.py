"""Pattern matching of transformations against circuits (Section 6).

A transformation's source circuit is matched against *convex* subsets of the
target circuit's DAG — the graph counterpart of the subcircuit notion — with
three families of constraints:

* **structure** — gate names and operand positions must agree, the qubit
  mapping must be injective, and matched gates must appear on each wire in
  the same order as in the pattern;
* **convexity** — no unmatched gate may lie on a path between matched gates;
* **parameters** — the pattern's symbolic angle expressions must unify with
  the concrete angles of the matched gates.  Matching yields a system of
  linear equations over the pattern parameters which is solved exactly by
  elimination; free parameters (possible when e.g. the pattern contains
  ``rz(p0 + p1)``) are set to zero, which is sound because the
  transformation is valid for every parameter value.

Applying a match instantiates the transformation's target circuit with the
solved parameters and the match's qubit mapping, and splices it into the
circuit in place of the matched gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.circuit import Circuit, Instruction
from repro.ir.dag import CircuitDAG
from repro.ir.params import Angle
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.optimizer.xfer import Transformation


@dataclass
class Match:
    """One occurrence of a pattern inside a circuit."""

    node_ids: Tuple[int, ...]
    qubit_map: Dict[int, int]
    param_assignment: Dict[int, Angle]


class PatternMatcher:
    """Finds and applies transformation matches on a fixed circuit."""

    def __init__(self, circuit: Circuit, perf: Optional[PerfRecorder] = None) -> None:
        self.circuit = circuit
        self.perf = perf if perf is not None else NULL_RECORDER
        self.dag = CircuitDAG.from_circuit(circuit)
        # Index DAG nodes by gate name for fast candidate lookup.
        self._nodes_by_gate: Dict[str, List[int]] = {}
        for node_id, inst in self.dag.nodes.items():
            self._nodes_by_gate.setdefault(inst.gate.name, []).append(node_id)
        # Position of each node on each of its wires (-1 when the node does
        # not touch the wire); indexed as [node_id][qubit] — node ids are
        # consecutive integers, so flat lists beat tuple-keyed dicts here.
        self._wire_pos: List[List[int]] = [
            [-1] * circuit.num_qubits for _ in range(len(self.dag.nodes))
        ]
        for qubit, wire in enumerate(self.dag.wires):
            for position, node_id in enumerate(wire):
                self._wire_pos[node_id][qubit] = position
        # Matches keyed by (pattern identity, match limit): many
        # transformations extracted from one ECC share a source pattern, so
        # the backtracking search runs once per distinct pattern.
        self._match_cache: Dict[tuple, List[Match]] = {}
        # Bitmask reachability for O(pattern-size) convexity checks.
        self._descendants_mask, self._ancestors_mask = self.dag.reachability_masks()

    # -- matching -----------------------------------------------------------

    def find_matches(
        self, pattern: Circuit, max_matches: Optional[int] = None
    ) -> List[Match]:
        """Return matches of ``pattern`` as convex subcircuits of the circuit."""
        if len(pattern) == 0 or len(pattern) > len(self.circuit):
            return []
        plan = _match_plan(pattern)
        num_pattern = len(plan)
        matches: List[Match] = []
        assignment: List[int] = []
        qubit_map: Dict[int, int] = {}
        used_circuit_qubits: set[int] = set()
        used_nodes: set[int] = set()
        nodes = self.dag.nodes
        wires = self.dag.wires
        wire_pos = self._wire_pos
        nodes_by_gate = self._nodes_by_gate

        def backtrack(position: int) -> bool:
            """Returns True when the match limit has been reached."""
            if max_matches is not None and len(matches) >= max_matches:
                return True
            if position == num_pattern:
                match = self._finalize(pattern, assignment, dict(qubit_map))
                if match is not None:
                    matches.append(match)
                return max_matches is not None and len(matches) >= max_matches
            gate_name, pattern_qubits, anchor, order_checks = plan[position]
            candidates: Sequence[int]
            if anchor is None:
                candidates = nodes_by_gate.get(gate_name, ())
            else:
                # The instruction shares a wire with an earlier matched one,
                # and the only candidate is the *next* node on that wire: a
                # gate in between would either sit unmatched on a path
                # between two matched gates (not convex) or be matched out
                # of the pattern's wire order.
                anchor_qubit, earlier = anchor
                circuit_qubit = qubit_map[anchor_qubit]
                wire = wires[circuit_qubit]
                next_position = wire_pos[assignment[earlier]][circuit_qubit] + 1
                if next_position >= len(wire):
                    return False
                candidates = (wire[next_position],)
                if nodes[candidates[0]].gate.name != gate_name:
                    return False
            for node_id in candidates:
                if node_id in used_nodes:
                    continue
                node_inst = nodes[node_id]
                # Bind qubits eagerly (rolled back below): the mapping must
                # stay injective and agree with previous bindings.
                new_bindings: List[int] = []
                compatible = True
                for pattern_qubit, circuit_qubit in zip(
                    pattern_qubits, node_inst.qubits
                ):
                    bound = qubit_map.get(pattern_qubit)
                    if bound is not None:
                        if bound != circuit_qubit:
                            compatible = False
                            break
                    elif circuit_qubit in used_circuit_qubits:
                        compatible = False
                        break
                    else:
                        qubit_map[pattern_qubit] = circuit_qubit
                        used_circuit_qubits.add(circuit_qubit)
                        new_bindings.append(pattern_qubit)
                if compatible:
                    # Matched gates must appear on every shared wire in
                    # pattern order (the anchor wire holds by construction).
                    node_positions = wire_pos[node_id]
                    for pattern_qubit, earlier in order_checks:
                        circuit_qubit = qubit_map[pattern_qubit]
                        earlier_position = wire_pos[assignment[earlier]][circuit_qubit]
                        if not 0 <= earlier_position < node_positions[circuit_qubit]:
                            compatible = False
                            break
                if not compatible:
                    for pattern_qubit in new_bindings:
                        used_circuit_qubits.remove(qubit_map.pop(pattern_qubit))
                    continue
                assignment.append(node_id)
                used_nodes.add(node_id)
                stop = backtrack(position + 1)
                used_nodes.remove(node_id)
                assignment.pop()
                for pattern_qubit in new_bindings:
                    used_circuit_qubits.remove(qubit_map.pop(pattern_qubit))
                if stop:
                    return True
            return False

        backtrack(0)
        return matches

    def _finalize(
        self,
        pattern: Circuit,
        assignment: Sequence[int],
        qubit_map: Dict[int, int],
    ) -> Optional[Match]:
        node_ids = tuple(assignment)
        if not self.dag.is_convex_masked(
            node_ids, self._descendants_mask, self._ancestors_mask
        ):
            return None
        param_assignment = self._solve_params(pattern, node_ids)
        if param_assignment is None:
            return None
        return Match(node_ids, qubit_map, param_assignment)

    # -- parameter unification -------------------------------------------------

    def _solve_params(
        self, pattern: Circuit, node_ids: Sequence[int]
    ) -> Optional[Dict[int, Angle]]:
        """Solve the linear system "pattern angle = matched concrete angle"."""
        equations: List[Tuple[Dict[int, Fraction], Angle]] = []
        for pattern_inst, node_id in zip(pattern.instructions, node_ids):
            node_inst = self.dag.nodes[node_id]
            for pattern_angle, concrete_angle in zip(
                pattern_inst.params, node_inst.params
            ):
                coefficients = dict(pattern_angle.coefficients)
                rhs = concrete_angle - Angle(pattern_angle.pi_multiple)
                equations.append((coefficients, rhs))

        solution: Dict[int, Angle] = {}
        pending = equations
        progress = True
        while progress:
            progress = False
            remaining: List[Tuple[Dict[int, Fraction], Angle]] = []
            for coefficients, rhs in pending:
                # Substitute already-solved parameters.
                coefficients = dict(coefficients)
                for index in list(coefficients):
                    if index in solution:
                        rhs = rhs - solution[index].scale(coefficients.pop(index))
                unknowns = [i for i, c in coefficients.items() if c != 0]
                if not unknowns:
                    if not rhs.is_zero():
                        return None
                    continue
                if len(unknowns) == 1:
                    index = unknowns[0]
                    solution[index] = rhs.scale(Fraction(1) / coefficients[index])
                    progress = True
                else:
                    remaining.append((coefficients, rhs))
            pending = remaining

        # Resolve underdetermined equations by fixing all but one unknown to 0.
        for coefficients, rhs in pending:
            coefficients = dict(coefficients)
            adjusted_rhs = rhs
            for index in list(coefficients):
                if index in solution:
                    adjusted_rhs = adjusted_rhs - solution[index].scale(coefficients.pop(index))
            unknowns = [i for i, c in coefficients.items() if c != 0]
            if not unknowns:
                if not adjusted_rhs.is_zero():
                    return None
                continue
            for index in unknowns[1:]:
                solution.setdefault(index, Angle.zero())
                adjusted_rhs = adjusted_rhs - solution[index].scale(coefficients[index])
            pivot = unknowns[0]
            if pivot in solution:
                if not (solution[pivot].scale(coefficients[pivot]) - adjusted_rhs).is_zero():
                    return None
            else:
                solution[pivot] = adjusted_rhs.scale(Fraction(1) / coefficients[pivot])
        return solution

    # -- application -------------------------------------------------------------

    def apply(self, transformation: Transformation, match: Match) -> Optional[Circuit]:
        """Instantiate the transformation at ``match`` and splice it in."""
        target = transformation.target
        qubit_map = dict(match.qubit_map)

        # The target may touch pattern qubits the source never mentions; map
        # them to circuit qubits that are not already claimed by the match.
        unmapped = sorted(target.used_qubits() - set(qubit_map))
        if unmapped:
            available = [
                q for q in range(self.circuit.num_qubits) if q not in qubit_map.values()
            ]
            if len(available) < len(unmapped):
                return None
            for pattern_qubit, circuit_qubit in zip(unmapped, available):
                qubit_map[pattern_qubit] = circuit_qubit

        # Likewise, parameters used only by the target default to zero.
        assignment = dict(match.param_assignment)
        for index in target.used_params():
            assignment.setdefault(index, Angle.zero())

        instantiated = target.substitute_params(assignment)
        replacement = [
            inst.remap_qubits(qubit_map) for inst in instantiated.instructions
        ]
        return self.dag.splice(match.node_ids, replacement)

    def matches_for(
        self,
        transformation: Transformation,
        max_matches: Optional[int] = None,
    ) -> List[Match]:
        """Matches of the transformation's source pattern, cached by pattern.

        Matches depend only on the source circuit, so transformations that
        share a source (every ``C_1 -> C_i`` of one ECC) reuse one search.
        """
        cache_key = (transformation.source_key, max_matches)
        cached = self._match_cache.get(cache_key)
        if cached is not None:
            self.perf.count("matcher.match_cache.hits")
            return cached
        self.perf.count("matcher.match_cache.misses")
        matches = self.find_matches(transformation.source, max_matches=max_matches)
        self._match_cache[cache_key] = matches
        return matches

    def apply_all(
        self,
        transformation: Transformation,
        max_matches: Optional[int] = None,
    ) -> List[Circuit]:
        """All distinct circuits obtainable by applying ``transformation``."""
        results: List[Circuit] = []
        seen_keys: set = set()
        for match in self.matches_for(transformation, max_matches=max_matches):
            new_circuit = self.apply(transformation, match)
            if new_circuit is None:
                continue
            # One hash per key: canonical keys nest Fractions, whose hash
            # is computed in Python on every lookup.
            seen_before = len(seen_keys)
            seen_keys.add(new_circuit.canonical_key())
            if len(seen_keys) == seen_before:
                continue
            results.append(new_circuit)
        return results


def _match_plan(pattern: Circuit) -> List[tuple]:
    """Per-instruction matching steps of ``pattern``, in pattern order.

    Step ``i`` is ``(gate_name, qubits, anchor, order_checks)``.  For each
    pattern qubit the most recent earlier instruction on it is fixed by the
    pattern alone, and so is whether the qubit is already bound when step
    ``i`` runs (bindings come from earlier instructions).  ``anchor`` is
    ``(pattern_qubit, earlier_step)`` for the first operand that has an
    earlier instruction — its wire yields the only candidate — or ``None``
    when the instruction starts a disconnected part of the pattern and the
    gate index is scanned instead.  ``order_checks`` lists the same pair for
    every other such operand; the matched nodes must keep that wire order.
    """
    plan: List[tuple] = []
    last_on_qubit: Dict[int, int] = {}
    for position, inst in enumerate(pattern.instructions):
        anchor = None
        order_checks = []
        for pattern_qubit in inst.qubits:
            earlier = last_on_qubit.get(pattern_qubit)
            if earlier is None:
                continue
            if anchor is None:
                anchor = (pattern_qubit, earlier)
            else:
                order_checks.append((pattern_qubit, earlier))
        for pattern_qubit in inst.qubits:
            last_on_qubit[pattern_qubit] = position
        plan.append((inst.gate.name, inst.qubits, anchor, tuple(order_checks)))
    return plan
