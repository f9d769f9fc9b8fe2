"""Graph (DAG) representation of circuits and convex-subgraph utilities.

This is the representation the optimizer works with (Section 6 of the
paper): each gate is a vertex, and edges follow the per-qubit wire order.
Subcircuits correspond exactly to *convex* subgraphs — sets of vertices such
that every path between two members stays inside the set — so the pattern
matcher checks convexity before rewriting, and the splice operation relies
on the fact that a convex set can be made contiguous in some topological
order.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.ir.circuit import Circuit, Instruction, _SplicedCircuit, wire_key_of


def _spliced_instructions(
    order: List[Instruction],
    length: int,
    last: int,
    before: int,
    placed: int,
    replacement: Tuple[Instruction, ...],
) -> List[Instruction]:
    """The instruction list of a :meth:`CircuitDAG.splice` result.

    ``order`` is the DAG's instruction list, of which only the first
    ``length`` entries existed at splice time.  ``before`` masks the
    match's ancestors, ``placed`` those and the match, and ``last`` is the
    last matched node.  Node ids follow a topological order, so no node
    after ``last`` is an ancestor of the match: that suffix stays as is.
    """
    head = order[: last + 1]
    instructions = [inst for node_id, inst in enumerate(head) if before >> node_id & 1]
    instructions += replacement
    instructions += [
        inst for node_id, inst in enumerate(head) if not placed >> node_id & 1
    ]
    instructions += order[last + 1 : length]
    return instructions


class CircuitDAG:
    """Directed acyclic graph view of a circuit.

    Nodes are integer ids in original program order; edges connect each gate
    to the next gate on every qubit it touches.
    """

    def __init__(self, num_qubits: int, num_params: int = 0) -> None:
        self.num_qubits = num_qubits
        self.num_params = num_params
        self.nodes: Dict[int, Instruction] = {}
        self.successors: Dict[int, Set[int]] = {}
        self.predecessors: Dict[int, Set[int]] = {}
        # For each qubit, node ids in wire order.
        self.wires: List[List[int]] = [[] for _ in range(num_qubits)]
        # For each node, its position on each wire (-1 when the node does
        # not touch the wire); indexed as [node_id][qubit].
        self.wire_positions: List[List[int]] = []
        self._next_id = 0
        # Instructions in node-id order: splice builds successors from
        # them without re-validating them.
        self._instructions: List[Instruction] = []
        # Reachability bitmasks, computed on first use (see
        # reachability_masks) and dropped whenever a node is added.
        self._masks: Optional[Tuple[Dict[int, int], Dict[int, int]]] = None
        # Circuit.wire_key of the instructions, which splice derives every
        # successor's from; computed on first use (or taken from the
        # circuit) and dropped whenever a node is added.
        self._wire_key: Optional[tuple] = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_circuit(circuit: Circuit) -> "CircuitDAG":
        dag = CircuitDAG(circuit.num_qubits, circuit.num_params)
        for inst in circuit.instructions:
            dag.add_instruction(inst)
        # Only a key the circuit already caches: computing one here would
        # freeze the circuit.
        dag._wire_key = circuit._wire_key
        return dag

    def add_instruction(self, inst: Instruction) -> int:
        node_id = self._next_id
        self._next_id += 1
        self._masks = None
        self._wire_key = None
        self.nodes[node_id] = inst
        self._instructions.append(inst)
        self.successors[node_id] = set()
        self.predecessors[node_id] = set()
        positions = [-1] * self.num_qubits
        for qubit in inst.qubits:
            wire = self.wires[qubit]
            if wire:
                prev = wire[-1]
                self.successors[prev].add(node_id)
                self.predecessors[node_id].add(prev)
            positions[qubit] = len(wire)
            wire.append(node_id)
        self.wire_positions.append(positions)
        return node_id

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> List[int]:
        return sorted(self.nodes)

    def topological_order(self) -> List[int]:
        """Node ids in a topological order (original order is one)."""
        return sorted(self.nodes)

    def to_circuit(self) -> Circuit:
        return Circuit(
            self.num_qubits,
            [self.nodes[i] for i in self.topological_order()],
            self.num_params,
        )

    def _wire_position(self, node_id: int, qubit: int) -> int:
        """``node_id``'s index on ``qubit``'s wire; ValueError when it is not on it."""
        if node_id in self.nodes:
            position = self.wire_positions[node_id][qubit]
            if position >= 0:
                return position
        raise ValueError(f"node {node_id} is not on wire {qubit}")

    def next_on_wire(self, node_id: int, qubit: int) -> int | None:
        """Return the node that follows ``node_id`` on ``qubit``'s wire."""
        wire = self.wires[qubit]
        index = self._wire_position(node_id, qubit)
        if index + 1 < len(wire):
            return wire[index + 1]
        return None

    def prev_on_wire(self, node_id: int, qubit: int) -> int | None:
        """Return the node that precedes ``node_id`` on ``qubit``'s wire."""
        wire = self.wires[qubit]
        index = self._wire_position(node_id, qubit)
        if index > 0:
            return wire[index - 1]
        return None

    def descendants(self, sources: Iterable[int]) -> Set[int]:
        """All nodes reachable from ``sources`` (excluding the sources)."""
        seen: Set[int] = set()
        stack = list(sources)
        roots = set(stack)
        while stack:
            node = stack.pop()
            for succ in self.successors[node]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen - roots

    def ancestors(self, sources: Iterable[int]) -> Set[int]:
        """All nodes that can reach ``sources`` (excluding the sources)."""
        seen: Set[int] = set()
        stack = list(sources)
        roots = set(stack)
        while stack:
            node = stack.pop()
            for pred in self.predecessors[node]:
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        return seen - roots

    def is_convex(self, node_set: Iterable[int]) -> bool:
        """Check whether ``node_set`` induces a convex subgraph.

        A set is convex iff no node outside the set lies on a path between
        two nodes of the set; equivalently, no outside node is simultaneously
        a descendant and an ancestor of the set.
        """
        members = set(node_set)
        if not members:
            return True
        below = self.descendants(members) - members
        above = self.ancestors(members) - members
        return not (below & above)

    def reachability_masks(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Per-node descendant and ancestor sets as integer bitmasks.

        Bit ``i`` of ``descendants_mask[n]`` is set iff node ``i`` is a
        (strict) descendant of ``n``.  Node ids are used as bit positions,
        which is valid because ids are small consecutive integers.  The
        matcher uses these to run thousands of convexity checks per circuit
        as a handful of integer operations each.  The masks are cached
        until the next :meth:`add_instruction`.
        """
        if self._masks is not None:
            return self._masks
        order = self.topological_order()
        descendants_mask: Dict[int, int] = {}
        for node_id in reversed(order):
            mask = 0
            for successor in self.successors[node_id]:
                mask |= (1 << successor) | descendants_mask[successor]
            descendants_mask[node_id] = mask
        ancestors_mask: Dict[int, int] = {}
        for node_id in order:
            mask = 0
            for predecessor in self.predecessors[node_id]:
                mask |= (1 << predecessor) | ancestors_mask[predecessor]
            ancestors_mask[node_id] = mask
        self._masks = (descendants_mask, ancestors_mask)
        return self._masks

    def is_convex_masked(
        self,
        node_ids: Sequence[int],
        descendants_mask: Dict[int, int],
        ancestors_mask: Dict[int, int],
    ) -> bool:
        """Bitmask variant of :meth:`is_convex` using precomputed masks."""
        members = 0
        below = 0
        above = 0
        for node_id in node_ids:
            members |= 1 << node_id
            below |= descendants_mask[node_id]
            above |= ancestors_mask[node_id]
        return not (below & above & ~members)

    # -- rewriting ------------------------------------------------------------

    def splice(
        self, matched: Sequence[int], replacement: Sequence[Instruction]
    ) -> Circuit:
        """Return a new circuit with the convex set ``matched`` replaced.

        The replacement instructions must already be expressed over this
        DAG's qubits (the matcher performs the qubit/parameter translation).
        Nodes that must come before the matched set (its ancestors) keep
        their relative order and are emitted first, then the replacement,
        then everything else — valid because the matched set is convex.
        The unchanged instructions were validated when the circuit was
        built, so only the replacement's qubits are range-checked.  Both
        checks run here: an out-of-range qubit or a non-convex set raises
        ``ValueError`` now, never when the result is first read.

        The new circuit is born with its :meth:`Circuit.wire_key`, derived
        from this DAG's.  On each wire the match touches, its nodes form
        one contiguous run (a gate between two matched gates on a wire lies
        on a path between them), which the replacement's gates on that
        wire take the place of.  On a wire only the replacement touches,
        they follow the match's ancestors on it, which are a prefix of the
        wire.  This is the order the instruction list is built in, and
        every other wire's tuple is shared with this DAG's key.

        Its instruction list and gate histogram are built when first read
        (most search successors are dropped after their wire key and gate
        count are): the builder holds this DAG's instruction list and its
        length now, the match's masks and the replacement, never the DAG,
        so instructions added later do not reach it.
        """
        num_qubits = self.num_qubits
        replacement = tuple(replacement)
        for inst in replacement:
            for qubit in inst.qubits:
                if not 0 <= qubit < num_qubits:
                    raise ValueError(
                        f"qubit {qubit} out of range for circuit with {num_qubits} qubits"
                    )
        descendants_mask, ancestors_mask = self.reachability_masks()
        if not self.is_convex_masked(matched, descendants_mask, ancestors_mask):
            raise ValueError("cannot splice a non-convex node set")
        nodes = self.nodes
        wire_positions = self.wire_positions
        members = 0
        above = 0
        last = -1
        # qubit -> [start, stop) of the matched run on its wire.
        runs: Dict[int, List[int]] = {}
        for node_id in matched:
            members |= 1 << node_id
            above |= ancestors_mask[node_id]
            if node_id > last:
                last = node_id
            positions = wire_positions[node_id]
            for qubit in nodes[node_id].qubits:
                position = positions[qubit]
                run = runs.get(qubit)
                if run is None:
                    runs[qubit] = [position, position + 1]
                elif position < run[0]:
                    run[0] = position
                elif position >= run[1]:
                    run[1] = position + 1
        order = self._instructions
        length = len(order)
        before = above & ~members

        parent_key = self._wire_key
        if parent_key is None:
            parent_key = self._wire_key = wire_key_of(num_qubits, order)
        inserted: Dict[int, List[tuple]] = {}
        for inst in replacement:
            sort_key = inst.sort_key()
            for qubit in inst.qubits:
                inserted.setdefault(qubit, []).append(sort_key)
        wire_key = list(parent_key)
        for qubit, (start, stop) in runs.items():
            keys = inserted.pop(qubit, None)
            wire = parent_key[qubit]
            if keys is None:
                wire_key[qubit] = wire[:start] + wire[stop:]
            else:
                wire_key[qubit] = wire[:start] + tuple(keys) + wire[stop:]
        for qubit, keys in inserted.items():
            # A wire the match does not touch: count its leading ancestors
            # of the match.
            wire_nodes = self.wires[qubit]
            start = 0
            while start < len(wire_nodes) and before >> wire_nodes[start] & 1:
                start += 1
            wire = parent_key[qubit]
            wire_key[qubit] = wire[:start] + tuple(keys) + wire[start:]
        return _SplicedCircuit(
            num_qubits,
            self.num_params,
            length - members.bit_count() + len(replacement),
            tuple(wire_key),
            partial(
                _spliced_instructions,
                order,
                length,
                last,
                before,
                before | members,
                replacement,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"CircuitDAG(num_qubits={self.num_qubits}, nodes={len(self.nodes)})"
        )
