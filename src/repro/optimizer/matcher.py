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
circuit in place of the matched gates.  The successor carries its wire key
and gate count; its instruction list is built only when something reads it,
which in a search means the circuits it pops or returns.

Both halves are compiled once per transformation and cached on it: the
source pattern into a :class:`MatchPlan` (which operands each step checks
against earlier bindings and which it binds), the target into a
:class:`TargetTemplate` (which gates need their parameters substituted).

A search matches every rule against every circuit it pops, and many rules
begin with the same gates.  :func:`compile_match_trie` merges the plans of
all distinct source patterns into one :class:`MatchTrie`, keyed by step,
after renumbering each pattern's qubits in the order its steps bind them,
so patterns that differ only in qubit labels share their prefixes too.
:class:`PatternMatcher` walks the trie in one backtracking pass per
circuit, and each pattern's matches come out exactly as a search for that
pattern alone would return them.  The pass also tells which sources
matched at all, so a search visits only their rules
(:meth:`PatternMatcher.matched_rules`), in rule order.

A search meets the same few angle combinations over and over, so the
trie carries two memos for the run it is compiled for.  ``solutions``
maps (pattern index, the matched gates' angle sort keys in step order)
to the unification result, failures included, and each :class:`Match`
carries that key.  ``instantiations`` maps (rule position, solution key)
to the target's instantiated params.  Both are keyed by exact values and
each entry is a pure function of its key, so a memo carried from one
circuit to the next cannot change what a match or a successor is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.ir.circuit import Circuit, Instruction
from repro.ir.dag import CircuitDAG
from repro.ir.gates import Gate
from repro.ir.params import Angle

if TYPE_CHECKING:
    from repro.optimizer.xfer import Transformation


@dataclass
class Match:
    """One occurrence of a pattern inside a circuit."""

    node_ids: Tuple[int, ...]
    qubit_map: Dict[int, int]
    #: Shared by every match solved under the same key; never mutated.
    param_assignment: Dict[int, Angle]
    #: ``(pattern index, matched angle sort keys in step order)`` in the
    #: trie that found the match.
    solution_key: tuple = field(compare=False, repr=False)


class MatchPlan(NamedTuple):
    """A source pattern compiled into the steps of a :class:`MatchTrie`.

    Step ``i`` is ``(gate_name, anchor, checks, binds, order_checks)`` for
    pattern instruction ``i``.  Whether a pattern qubit is already bound
    when a step runs is fixed by the pattern alone (bindings come from
    earlier instructions), so each step lists its operands as ``checks``,
    ``(operand, pattern_qubit)`` pairs whose circuit qubit must equal the
    binding, and ``binds``, pairs whose circuit qubit must still be unused
    and is bound here.  ``anchor`` is ``(pattern_qubit, earlier_step)`` for
    the first bound operand — the next node on its wire after the node
    matched at ``earlier_step`` is the only candidate — or ``None`` when the
    instruction starts a disconnected part of the pattern and the gate
    index is scanned instead.  ``order_checks`` lists the same pair for
    every other bound operand; the matched nodes must keep that wire order.
    """

    steps: Tuple[tuple, ...]
    #: Pattern qubits in the order the steps bind them.
    bound_qubits: Tuple[int, ...]
    #: False when no pattern gate takes a parameter: every match then has
    #: the empty assignment, and unification is skipped.
    has_params: bool


def compile_match_plan(pattern: Circuit) -> MatchPlan:
    """Compile ``pattern`` into the steps the matcher runs."""
    steps: List[tuple] = []
    bound_qubits: List[int] = []
    last_on_qubit: Dict[int, int] = {}
    for position, inst in enumerate(pattern.instructions):
        anchor = None
        checks = []
        binds = []
        order_checks = []
        for operand, pattern_qubit in enumerate(inst.qubits):
            earlier = last_on_qubit.get(pattern_qubit)
            if earlier is None:
                binds.append((operand, pattern_qubit))
                bound_qubits.append(pattern_qubit)
                continue
            checks.append((operand, pattern_qubit))
            if anchor is None:
                anchor = (pattern_qubit, earlier)
            else:
                order_checks.append((pattern_qubit, earlier))
        for pattern_qubit in inst.qubits:
            last_on_qubit[pattern_qubit] = position
        steps.append(
            (inst.gate.name, anchor, tuple(checks), tuple(binds), tuple(order_checks))
        )
    return MatchPlan(
        tuple(steps),
        tuple(bound_qubits),
        any(inst.params for inst in pattern.instructions),
    )


class MatchTrie(NamedTuple):
    """The match plans of many source patterns, merged on shared prefixes.

    Node 0 is the root.  ``children[node]`` holds ``(step, child)`` pairs,
    a step being a :class:`MatchPlan` step whose pattern qubits are
    renumbered in the order the pattern binds them, so step ``i`` means
    the same thing in every pattern whose first ``i`` steps agree.
    ``terminals[node]`` lists the patterns whose last step leads to
    ``node``.  Pattern ``p`` is ``patterns[p]``; its renumbered qubit
    ``i`` is its qubit ``bound_qubits[p][i]``, and ``paths[p]`` lists the
    nodes from the root to its terminal.  ``subtree_patterns[node]``
    counts the patterns that end at or below ``node``.
    """

    children: Tuple[Tuple[Tuple[tuple, int], ...], ...]
    terminals: Tuple[Tuple[int, ...], ...]
    subtree_patterns: Tuple[int, ...]
    patterns: Tuple[Circuit, ...]
    bound_qubits: Tuple[Tuple[int, ...], ...]
    has_params: Tuple[bool, ...]
    paths: Tuple[Tuple[int, ...], ...]
    #: Renumbered qubits of the widest pattern.
    num_qubits: int
    #: ``Transformation.source_key`` -> pattern index.
    index: Dict[tuple, int]
    #: The rules the trie was compiled from.  Holding them keeps each
    #: ``id`` in ``rule_positions`` theirs for as long as the trie lives.
    rules: Tuple[Transformation, ...]
    #: ``id(rule)`` -> the rule's first position in ``rules``.
    rule_positions: Dict[int, int]
    #: Per pattern, the positions of the rules with that source.
    pattern_rules: Tuple[Tuple[int, ...], ...]
    #: Solution key -> :meth:`PatternMatcher._solve_params` of it, ``None``
    #: when the angles do not unify.
    solutions: Dict[tuple, Optional[Dict[int, Angle]]]
    #: ``(rule position, solution key)`` -> the rule's target params.
    instantiations: Dict[tuple, Tuple[Tuple[Angle, ...], ...]]


def _renumbered_steps(plan: MatchPlan) -> List[tuple]:
    """``plan.steps`` with pattern qubit ``plan.bound_qubits[i]`` renamed ``i``."""
    number = {qubit: i for i, qubit in enumerate(plan.bound_qubits)}
    return [
        (
            gate_name,
            None if anchor is None else (number[anchor[0]], anchor[1]),
            tuple((operand, number[qubit]) for operand, qubit in checks),
            tuple((operand, number[qubit]) for operand, qubit in binds),
            tuple((number[qubit], earlier) for qubit, earlier in order_checks),
        )
        for gate_name, anchor, checks, binds, order_checks in plan.steps
    ]


def _build_trie(
    patterns: Dict[tuple, Tuple[Circuit, MatchPlan]],
    rules: Sequence[Transformation] = (),
) -> MatchTrie:
    """Merge ``{key: (pattern, plan)}``; pattern ``p`` is the ``p``-th entry.

    ``rules`` are the transformations whose sources are the patterns.
    """
    entries = list(patterns.values())
    index = {key: pattern_index for pattern_index, key in enumerate(patterns)}
    pattern_rules: List[List[int]] = [[] for _ in entries]
    rule_positions: Dict[int, int] = {}
    for position, rule in enumerate(rules):
        pattern_rules[index[rule.source_key]].append(position)
        rule_positions.setdefault(id(rule), position)
    children: List[Dict[tuple, int]] = [{}]
    terminals: List[List[int]] = [[]]
    subtree_patterns = [0]
    paths = []
    for pattern_index, (_, plan) in enumerate(entries):
        node = 0
        path = [node]
        for step in _renumbered_steps(plan):
            child = children[node].get(step)
            if child is None:
                child = children[node][step] = len(children)
                children.append({})
                terminals.append([])
                subtree_patterns.append(0)
            node = child
            path.append(node)
        terminals[node].append(pattern_index)
        for path_node in path:
            subtree_patterns[path_node] += 1
        paths.append(tuple(path))
    return MatchTrie(
        tuple(tuple(steps.items()) for steps in children),
        tuple(tuple(ends) for ends in terminals),
        tuple(subtree_patterns),
        tuple(pattern for pattern, _ in entries),
        tuple(plan.bound_qubits for _, plan in entries),
        tuple(plan.has_params for _, plan in entries),
        tuple(paths),
        max((len(plan.bound_qubits) for _, plan in entries), default=0),
        index,
        tuple(rules),
        rule_positions,
        tuple(tuple(positions) for positions in pattern_rules),
        {},
        {},
    )


def compile_match_trie(transformations: Sequence[Transformation]) -> MatchTrie:
    """One trie over the match plans of every distinct source pattern.

    Transformations that share a source (every ``C_1 -> C_i`` of one ECC)
    share one pattern, in the order the sources first appear.  The trie's
    memos start empty; a search compiles it once per run, so they live as
    long as the run.
    """
    patterns: Dict[tuple, Tuple[Circuit, MatchPlan]] = {}
    for transformation in transformations:
        if transformation.source_key not in patterns:
            patterns[transformation.source_key] = (
                transformation.source,
                transformation.match_plan,
            )
    return _build_trie(patterns, transformations)


class TargetTemplate(NamedTuple):
    """A transformation's target compiled for :meth:`PatternMatcher.apply`.

    ``instructions`` holds ``(gate, pattern_qubits, params, constant)`` per
    target gate; ``constant`` is True when no param mentions a pattern
    parameter, so the params are reused as they are.  ``extra_qubits`` and
    ``extra_params`` are the target's pattern qubits and parameters that
    the source does not mention (no match binds them).
    """

    instructions: Tuple[Tuple[Gate, Tuple[int, ...], Tuple[Angle, ...], bool], ...]
    extra_qubits: Tuple[int, ...]
    extra_params: Tuple[int, ...]

    def instantiate_params(
        self, assignment: Dict[int, Angle]
    ) -> Tuple[Tuple[Angle, ...], ...]:
        """Per target gate, its params under ``assignment``.

        Target-only parameters are set to zero in a copy, so ``assignment``
        itself is never changed.
        """
        if self.extra_params:
            assignment = dict(assignment)
            for index in self.extra_params:
                assignment.setdefault(index, Angle.zero())
        return tuple(
            params
            if constant
            else tuple(
                param if param.is_constant() else param.substitute(assignment)
                for param in params
            )
            for _, _, params, constant in self.instructions
        )


def compile_target_template(source: Circuit, target: Circuit) -> TargetTemplate:
    """Compile the target of the rewrite ``source -> target``."""
    return TargetTemplate(
        tuple(
            (
                inst.gate,
                inst.qubits,
                inst.params,
                all(param.is_constant() for param in inst.params),
            )
            for inst in target.instructions
        ),
        tuple(sorted(target.used_qubits() - source.used_qubits())),
        tuple(sorted(target.used_params() - source.used_params())),
    )


class PatternMatcher:
    """Finds and applies transformation matches on a fixed circuit.

    ``trie`` is :func:`compile_match_trie` of the rules the caller will
    match; a search compiles it once per run and hands it to the matcher
    of every circuit it pops, whose matches and successors then share the
    trie's memos.
    """

    def __init__(self, circuit: Circuit, trie: Optional[MatchTrie] = None) -> None:
        self.circuit = circuit
        self.trie = trie
        # Per trie pattern, its matches: filled by the first matches_for
        # call under the cap it passes.
        self._table: Optional[List[List[Match]]] = None
        self._table_cap: Optional[int] = None
        self.dag = CircuitDAG.from_circuit(circuit)
        # Node ids are consecutive integers in program order, so per-node
        # facts live in flat lists indexed by node id.
        self._node_names: List[str] = []
        self._node_qubits: List[Tuple[int, ...]] = []
        self._node_params: List[Tuple[Angle, ...]] = []
        # Index DAG nodes by gate name for fast candidate lookup.
        self._nodes_by_gate: Dict[str, List[int]] = {}
        for node_id, inst in self.dag.nodes.items():
            name = inst.gate.name
            self._node_names.append(name)
            self._node_qubits.append(inst.qubits)
            self._node_params.append(inst.params)
            self._nodes_by_gate.setdefault(name, []).append(node_id)
        # Bitmask reachability for O(pattern-size) convexity checks.
        self._descendants_mask, self._ancestors_mask = self.dag.reachability_masks()

    # -- matching -----------------------------------------------------------

    def find_matches(
        self,
        pattern: Circuit,
        max_matches: Optional[int] = None,
        plan: Optional[MatchPlan] = None,
    ) -> List[Match]:
        """Return matches of ``pattern`` as convex subcircuits of the circuit.

        ``plan`` is ``pattern`` compiled by :func:`compile_match_plan`, and
        it is compiled here when not given.  This is :meth:`match_trie` on
        a trie of the one pattern.
        """
        if plan is None:
            plan = compile_match_plan(pattern)
        return self.match_trie(_build_trie({(): (pattern, plan)}), max_matches)[0]

    def match_trie(
        self, trie: MatchTrie, max_matches: Optional[int] = None
    ) -> List[List[Match]]:
        """Per pattern of ``trie``, its first ``max_matches`` matches.

        One depth-first pass over the trie: each node's step is tried on
        the candidates its anchor allows, with every earlier step of the
        path bound.  A pattern's matches therefore come out in the order
        a pass over its own steps alone would find them, and each pattern
        stops at its own cap; a subtree is skipped once every pattern in
        it has reached its cap.  Parameters are solved once per solution
        key through ``trie.solutions``.
        """
        results: List[List[Match]] = [[] for _ in trie.patterns]
        if max_matches is not None and max_matches <= 0:
            return results
        children = trie.children
        terminals = trie.terminals
        patterns = trie.patterns
        bound_qubits = trie.bound_qubits
        has_params = trie.has_params
        paths = trie.paths
        # Patterns per subtree still short of their cap.
        open_patterns = list(trie.subtree_patterns)
        assignment: List[int] = []
        qubit_map = [-1] * trie.num_qubits
        used_qubits = [False] * self.circuit.num_qubits
        used_nodes: set[int] = set()
        node_names = self._node_names
        node_qubits = self._node_qubits
        wires = self.dag.wires
        wire_pos = self.dag.wire_positions
        nodes_by_gate = self._nodes_by_gate
        is_convex = self.dag.is_convex_masked
        descendants_mask = self._descendants_mask
        ancestors_mask = self._ancestors_mask
        solve_params = self._solve_params
        solutions = trie.solutions
        node_params = self._node_params

        def finalize(trie_node: int) -> None:
            """Record the current assignment for each pattern ending here."""
            node_ids: Optional[Tuple[int, ...]] = None
            angle_keys: Optional[tuple] = None
            for pattern_index in terminals[trie_node]:
                found = results[pattern_index]
                if max_matches is not None and len(found) >= max_matches:
                    continue
                if node_ids is None:
                    node_ids = tuple(assignment)
                    if not is_convex(node_ids, descendants_mask, ancestors_mask):
                        return
                if has_params[pattern_index]:
                    # The solution depends on the pattern and on the
                    # matched angles in step order, nothing else.
                    if angle_keys is None:
                        angle_keys = tuple(
                            [
                                angle.sort_key()
                                for node_id in node_ids
                                for angle in node_params[node_id]
                            ]
                        )
                    solution_key = (pattern_index, angle_keys)
                    if solution_key in solutions:
                        param_assignment = solutions[solution_key]
                    else:
                        param_assignment = solutions[solution_key] = solve_params(
                            patterns[pattern_index], node_ids
                        )
                    if param_assignment is None:
                        continue
                else:
                    solution_key = (pattern_index, ())
                    param_assignment = {}
                # Renumbered qubit i is the pattern's bound_qubits[i].
                found.append(
                    Match(
                        node_ids,
                        dict(zip(bound_qubits[pattern_index], qubit_map)),
                        param_assignment,
                        solution_key,
                    )
                )
                if max_matches is not None and len(found) >= max_matches:
                    for path_node in paths[pattern_index]:
                        open_patterns[path_node] -= 1

        def descend(trie_node: int) -> None:
            for step, child in children[trie_node]:
                if not open_patterns[child]:
                    continue
                gate_name, anchor, checks, binds, order_checks = step
                candidates: Sequence[int]
                if anchor is None:
                    candidates = nodes_by_gate.get(gate_name, ())
                else:
                    # The instruction shares a wire with an earlier matched
                    # one, and the only candidate is the *next* node on that
                    # wire: a gate in between would either sit unmatched on
                    # a path between two matched gates (not convex) or be
                    # matched out of the pattern's wire order.
                    anchor_qubit, earlier = anchor
                    circuit_qubit = qubit_map[anchor_qubit]
                    wire = wires[circuit_qubit]
                    next_position = wire_pos[assignment[earlier]][circuit_qubit] + 1
                    if next_position >= len(wire):
                        continue
                    node_id = wire[next_position]
                    if node_names[node_id] != gate_name:
                        continue
                    candidates = (node_id,)
                for node_id in candidates:
                    if node_id in used_nodes:
                        continue
                    qubits = node_qubits[node_id]
                    # Operands bound by earlier steps must agree, and the
                    # ones bound here must keep the qubit mapping injective.
                    compatible = True
                    for operand, pattern_qubit in checks:
                        if qubits[operand] != qubit_map[pattern_qubit]:
                            compatible = False
                            break
                    if not compatible:
                        continue
                    for operand, _ in binds:
                        if used_qubits[qubits[operand]]:
                            compatible = False
                            break
                    if not compatible:
                        continue
                    # Matched gates must appear on every shared wire in
                    # pattern order (the anchor wire holds by construction).
                    if order_checks:
                        node_positions = wire_pos[node_id]
                        for pattern_qubit, earlier in order_checks:
                            circuit_qubit = qubit_map[pattern_qubit]
                            earlier_position = wire_pos[assignment[earlier]][circuit_qubit]
                            if not 0 <= earlier_position < node_positions[circuit_qubit]:
                                compatible = False
                                break
                        if not compatible:
                            continue
                    for operand, pattern_qubit in binds:
                        circuit_qubit = qubits[operand]
                        qubit_map[pattern_qubit] = circuit_qubit
                        used_qubits[circuit_qubit] = True
                    assignment.append(node_id)
                    if terminals[child]:
                        finalize(child)
                    if children[child] and open_patterns[child]:
                        used_nodes.add(node_id)
                        descend(child)
                        used_nodes.remove(node_id)
                    assignment.pop()
                    for operand, _ in binds:
                        used_qubits[qubits[operand]] = False
                    if not open_patterns[child]:
                        break

        descend(0)
        return results

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
        """Instantiate the transformation at ``match`` and splice it in.

        The target is instantiated from its compiled template: qubits are
        mapped, and only parameters that mention a pattern parameter are
        substituted; the splice keeps every other gate of the circuit.
        With a trie, a rule's params are substituted once per solution key
        and reused from ``trie.instantiations``.
        """
        template = transformation.target_template
        qubit_map = match.qubit_map

        # The target may touch pattern qubits the source never mentions; map
        # them to circuit qubits that are not already claimed by the match.
        if template.extra_qubits:
            claimed = set(qubit_map.values())
            available = [
                q for q in range(self.circuit.num_qubits) if q not in claimed
            ]
            if len(available) < len(template.extra_qubits):
                return None
            qubit_map = dict(qubit_map)
            for pattern_qubit, circuit_qubit in zip(template.extra_qubits, available):
                qubit_map[pattern_qubit] = circuit_qubit

        # The rule and the solution key fix the target's params.  The trie
        # holds its rules, so an id found in rule_positions is that rule's.
        trie = self.trie
        rule = None if trie is None else trie.rule_positions.get(id(transformation))
        if rule is None:
            target_params = template.instantiate_params(match.param_assignment)
        else:
            key = (rule, match.solution_key)
            target_params = trie.instantiations.get(key)
            if target_params is None:
                target_params = trie.instantiations[key] = template.instantiate_params(
                    match.param_assignment
                )

        trusted = Instruction._trusted
        replacement = [
            trusted(gate, tuple([qubit_map[q] for q in pattern_qubits]), params)
            for (gate, pattern_qubits, _, _), params in zip(
                template.instructions, target_params
            )
        ]
        return self.dag.splice(match.node_ids, replacement)

    def matches_for(
        self,
        transformation: Transformation,
        max_matches: Optional[int] = None,
    ) -> List[Match]:
        """Matches of the transformation's source pattern.

        With a trie, the first call matches every pattern of the trie in
        one pass (:meth:`match_trie`) and fills the table every later call
        reads; transformations that share a source (every ``C_1 -> C_i``
        of one ECC) share its entry.  The transformation must be one the
        trie was compiled from, and a call with another ``max_matches``
        than the table's runs the pass again.  Without a trie, the one
        source is matched on each call.
        """
        trie = self.trie
        if trie is None:
            return self.find_matches(
                transformation.source, max_matches, transformation.match_plan
            )
        table = self._match_table(trie, max_matches)
        return table[trie.index[transformation.source_key]]

    def matched_rules(self, max_matches: Optional[int] = None) -> List[Transformation]:
        """The trie's rules whose source has a match here, in rule order.

        Reads the table :meth:`matches_for` reads (filling it if needed).
        A rule left out has no match, so :meth:`apply_all` would return
        nothing for it; a search visits these rules alone.
        """
        trie = self.trie
        if trie is None:
            raise ValueError("matched_rules needs a matcher built with a trie")
        table = self._match_table(trie, max_matches)
        pattern_rules = trie.pattern_rules
        positions = [
            position
            for pattern_index, found in enumerate(table)
            if found
            for position in pattern_rules[pattern_index]
        ]
        positions.sort()
        rules = trie.rules
        return [rules[position] for position in positions]

    def successor_count(
        self,
        transformation: Transformation,
        max_matches: Optional[int] = None,
    ) -> int:
        """``len(self.apply_all(transformation, max_matches))``, without
        splicing.

        :meth:`apply` fails only when the target needs more qubits outside
        the match than the circuit has, and every match of a source claims
        as many qubits as the source uses, so it fails at all of a rule's
        matches or at none.
        """
        matches = self.matches_for(transformation, max_matches=max_matches)
        extra_qubits = len(transformation.target_template.extra_qubits)
        if matches and self.circuit.num_qubits - len(matches[0].qubit_map) < extra_qubits:
            return 0
        return len(matches)

    def _match_table(
        self, trie: MatchTrie, max_matches: Optional[int]
    ) -> List[List[Match]]:
        """The table of :meth:`match_trie` under ``max_matches``, run once
        per cap."""
        if self._table is None or self._table_cap != max_matches:
            self._table = self.match_trie(trie, max_matches)
            self._table_cap = max_matches
        return self._table

    def apply_all(
        self,
        transformation: Transformation,
        max_matches: Optional[int] = None,
    ) -> List[Circuit]:
        """One successor per applicable match of ``transformation``, in
        match order.

        Two matches may give equal successors (``h h h`` under
        ``h h -> nothing`` gives ``h`` twice), and both are returned.
        Callers dedupe: each search's seen-set keeps the first of equal
        keys (:meth:`Circuit.wire_key`) in this order, so each successor's
        key is hashed once.  Each successor comes from :meth:`CircuitDAG.splice`: born
        with its wire key and gate count, its instruction list built on
        first read.
        """
        results: List[Circuit] = []
        for match in self.matches_for(transformation, max_matches=max_matches):
            new_circuit = self.apply(transformation, match)
            if new_circuit is not None:
                results.append(new_circuit)
        return results

