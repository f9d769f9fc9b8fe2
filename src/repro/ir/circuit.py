"""Sequence representation of (symbolic) quantum circuits.

A :class:`Circuit` is a list of :class:`Instruction` values over a fixed
number of qubits, i.e. the *sequence representation* of Section 3.1 of the
paper.  It supports the operations RepGen needs (``drop_first``,
``drop_last``, the precedence order of Definition 3), the operations the
optimizer needs (canonical hashing that is invariant under reordering of
independent gates), and a convenient builder API used by the benchmark
circuit constructors.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.ir.gates import Gate, get_gate
from repro.ir.params import Angle

AngleLike = Union[Angle, int, float, Fraction]


def _coerce_angle(value: AngleLike) -> Angle:
    if isinstance(value, Angle):
        return value
    if isinstance(value, (int, Fraction)):
        # Integers/fractions passed as raw angles are interpreted as
        # multiples of pi, which is the convention of the benchmark builders
        # (e.g. ``circuit.rz(q, Fraction(1, 4))`` is Rz(pi/4)).
        return Angle.pi(value)
    if isinstance(value, float):
        from repro.ir.params import angle_from_float

        return angle_from_float(value)
    raise TypeError(f"cannot interpret {value!r} as an angle")


class Instruction:
    """One gate application: a gate, its qubit operands, and its angles."""

    __slots__ = ("gate", "qubits", "params", "_sort_key")

    def __init__(
        self,
        gate: Gate | str,
        qubits: Sequence[int],
        params: Sequence[AngleLike] = (),
    ) -> None:
        self.gate = gate if isinstance(gate, Gate) else get_gate(gate)
        self.qubits: Tuple[int, ...] = tuple(int(q) for q in qubits)
        self.params: Tuple[Angle, ...] = tuple(_coerce_angle(p) for p in params)
        self._sort_key: Optional[tuple] = None
        if len(self.qubits) != self.gate.num_qubits:
            raise ValueError(
                f"gate {self.gate.name} acts on {self.gate.num_qubits} qubits, "
                f"got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in {self.gate.name} {self.qubits}")
        if len(self.params) != self.gate.num_params:
            raise ValueError(
                f"gate {self.gate.name} takes {self.gate.num_params} parameters, "
                f"got {len(self.params)}"
            )

    @classmethod
    def _trusted(
        cls, gate: Gate, qubits: Tuple[int, ...], params: Tuple[Angle, ...]
    ) -> "Instruction":
        """An instruction built without the checks of ``__init__``.

        The caller guarantees them: ``qubits`` is a tuple of distinct ints of
        the gate's arity and ``params`` a tuple of the gate's number of
        :class:`Angle` values.  The matcher instantiates replacement gates
        this way from a validated target circuit through an injective qubit
        map.
        """
        inst = cls.__new__(cls)
        inst.gate = gate
        inst.qubits = qubits
        inst.params = params
        inst._sort_key = None
        return inst

    def sort_key(self) -> tuple:
        """A total order on instructions used by Definition 3 and hashing.

        Instructions are immutable, so the key is computed once and cached.
        """
        key = self._sort_key
        if key is None:
            key = (
                self.gate.name,
                self.qubits,
                tuple(p.sort_key() for p in self.params),
            )
            self._sort_key = key
        return key

    def params_used(self) -> set[int]:
        used: set[int] = set()
        for param in self.params:
            used |= param.params_used()
        return used

    def remap_qubits(self, mapping: Mapping[int, int]) -> "Instruction":
        return Instruction(
            self.gate, tuple(mapping[q] for q in self.qubits), self.params
        )

    def substitute_params(self, assignment: Mapping[int, Angle]) -> "Instruction":
        return Instruction(
            self.gate,
            self.qubits,
            tuple(p.substitute(assignment) for p in self.params),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.gate == other.gate
            and self.qubits == other.qubits
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.gate, self.qubits, self.params))

    def __repr__(self) -> str:
        if self.params:
            params = ", ".join(str(p) for p in self.params)
            return f"{self.gate.name}({params}) {list(self.qubits)}"
        return f"{self.gate.name} {list(self.qubits)}"


def wire_key_of(num_qubits: int, instructions: Iterable[Instruction]) -> tuple:
    """The :meth:`Circuit.wire_key` of ``instructions`` over ``num_qubits``."""
    wires: List[List[tuple]] = [[] for _ in range(num_qubits)]
    for inst in instructions:
        sort_key = inst.sort_key()
        for qubit in inst.qubits:
            wires[qubit].append(sort_key)
    return tuple(map(tuple, wires))


class Circuit:
    """A symbolic quantum circuit in sequence representation.

    Circuits follow a build-then-freeze discipline: the builder API
    (``append`` and friends) may mutate the instruction list freely, but as
    soon as a hash key is computed (``sequence_key``, ``wire_key``,
    ``canonical_key`` or ``hash()``) the key is cached on the circuit and
    the circuit becomes *logically immutable* — further mutation would
    silently corrupt every hash table the circuit sits in, so it raises
    instead.
    """

    def __init__(
        self,
        num_qubits: int,
        instructions: Iterable[Instruction] = (),
        num_params: int = 0,
    ) -> None:
        if num_qubits < 0:
            raise ValueError("num_qubits must be nonnegative")
        self.num_qubits = num_qubits
        self.num_params = num_params
        self.instructions: List[Instruction] = []
        self._gate_counts: Dict[str, int] = {}
        self._sequence_key: Optional[tuple] = None
        self._wire_key: Optional[tuple] = None
        self._canonical_key: Optional[tuple] = None
        self._hash: Optional[int] = None
        for inst in instructions:
            self._check_instruction(inst)
            self.instructions.append(inst)
            self._count_gate(inst)

    # -- construction -------------------------------------------------------

    def _check_instruction(self, inst: Instruction) -> None:
        for qubit in inst.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for circuit with {self.num_qubits} qubits"
                )

    def _count_gate(self, inst: Instruction) -> None:
        counts = self._gate_counts
        name = inst.gate.name
        counts[name] = counts.get(name, 0) + 1

    def _assert_mutable(self) -> None:
        if self.is_frozen:
            raise RuntimeError(
                "circuit has been hashed/keyed and is frozen; build a new "
                "circuit (e.g. with appended() or copy()) instead of mutating"
            )

    @property
    def is_frozen(self) -> bool:
        """True once a hash key has been computed and cached."""
        return (
            self._sequence_key is not None
            or self._wire_key is not None
            or self._canonical_key is not None
            or self._hash is not None
        )

    def append(
        self,
        gate: Gate | str,
        qubits: Sequence[int] | int,
        params: Sequence[AngleLike] = (),
    ) -> "Circuit":
        """Append a gate application; returns ``self`` for chaining."""
        self._assert_mutable()
        if isinstance(qubits, int):
            qubits = (qubits,)
        inst = Instruction(gate, qubits, params)
        self._check_instruction(inst)
        self.instructions.append(inst)
        self._count_gate(inst)
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "Circuit":
        self._assert_mutable()
        for inst in instructions:
            self._check_instruction(inst)
            self.instructions.append(inst)
            self._count_gate(inst)
        return self

    def copy(self) -> "Circuit":
        return Circuit(self.num_qubits, list(self.instructions), self.num_params)

    # Convenience builders used heavily by the benchmark suite --------------

    def h(self, qubit: int) -> "Circuit":
        return self.append("h", qubit)

    def x(self, qubit: int) -> "Circuit":
        return self.append("x", qubit)

    def y(self, qubit: int) -> "Circuit":
        return self.append("y", qubit)

    def z(self, qubit: int) -> "Circuit":
        return self.append("z", qubit)

    def s(self, qubit: int) -> "Circuit":
        return self.append("s", qubit)

    def sdg(self, qubit: int) -> "Circuit":
        return self.append("sdg", qubit)

    def t(self, qubit: int) -> "Circuit":
        return self.append("t", qubit)

    def tdg(self, qubit: int) -> "Circuit":
        return self.append("tdg", qubit)

    def rx(self, qubit: int, angle: AngleLike) -> "Circuit":
        return self.append("rx", qubit, [angle])

    def ry(self, qubit: int, angle: AngleLike) -> "Circuit":
        return self.append("ry", qubit, [angle])

    def rz(self, qubit: int, angle: AngleLike) -> "Circuit":
        return self.append("rz", qubit, [angle])

    def u1(self, qubit: int, angle: AngleLike) -> "Circuit":
        return self.append("u1", qubit, [angle])

    def u2(self, qubit: int, phi: AngleLike, lam: AngleLike) -> "Circuit":
        return self.append("u2", qubit, [phi, lam])

    def u3(self, qubit: int, theta: AngleLike, phi: AngleLike, lam: AngleLike) -> "Circuit":
        return self.append("u3", qubit, [theta, phi, lam])

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append("cx", (control, target))

    def cz(self, control: int, target: int) -> "Circuit":
        return self.append("cz", (control, target))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.append("swap", (a, b))

    def ccx(self, control1: int, control2: int, target: int) -> "Circuit":
        return self.append("ccx", (control1, control2, target))

    def ccz(self, control1: int, control2: int, target: int) -> "Circuit":
        return self.append("ccz", (control1, control2, target))

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    @property
    def gate_count(self) -> int:
        return len(self.instructions)

    def gate_counts(self) -> Dict[str, int]:
        """Return a histogram of gate names (maintained incrementally)."""
        return dict(self._gate_counts)

    def count_gate(self, name: str) -> int:
        return self._gate_counts.get(name, 0)

    def two_qubit_count(self) -> int:
        return sum(1 for inst in self.instructions if inst.gate.num_qubits >= 2)

    def depth(self) -> int:
        """Circuit depth: the length of the longest qubit-dependency chain."""
        frontier = [0] * self.num_qubits
        for inst in self.instructions:
            level = max(frontier[q] for q in inst.qubits) + 1
            for q in inst.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    def used_qubits(self) -> set[int]:
        used: set[int] = set()
        for inst in self.instructions:
            used |= set(inst.qubits)
        return used

    def used_params(self) -> set[int]:
        used: set[int] = set()
        for inst in self.instructions:
            used |= inst.params_used()
        return used

    # -- RepGen operations ----------------------------------------------------

    def drop_first(self) -> "Circuit":
        """Return the circuit without its first instruction (a subcircuit)."""
        return Circuit(self.num_qubits, self.instructions[1:], self.num_params)

    def drop_last(self) -> "Circuit":
        """Return the circuit without its last instruction (a subcircuit)."""
        return Circuit(self.num_qubits, self.instructions[:-1], self.num_params)

    def appended(self, inst: Instruction) -> "Circuit":
        """Return a new circuit with ``inst`` appended (non-mutating)."""
        new = self.copy()
        new._check_instruction(inst)
        new.instructions.append(inst)
        new._count_gate(inst)
        return new

    def sequence_key(self) -> tuple:
        """The literal sequence as a hashable key (order-sensitive).

        Computed once and cached; computing it freezes the circuit (see the
        class docstring).
        """
        key = self._sequence_key
        if key is None:
            key = tuple(inst.sort_key() for inst in self.instructions)
            self._sequence_key = key
        return key

    def precedes(self, other: "Circuit") -> bool:
        """The precedence order of Definition 3: fewer gates first, then
        lexicographic order of the instruction sequences."""
        if len(self) != len(other):
            return len(self) < len(other)
        return self.sequence_key() < other.sequence_key()

    def __lt__(self, other: "Circuit") -> bool:
        return self.precedes(other)

    # -- canonicalization ------------------------------------------------------

    def wire_key(self) -> tuple:
        """A hashable key invariant under reordering of independent gates.

        One tuple per qubit: the :meth:`Instruction.sort_key` of every
        instruction on that qubit, in program order.  Reordering gates on
        disjoint qubits leaves every wire's sequence as it is, and by the
        projection lemma of trace theory two circuits whose wires all agree
        differ only by such reorderings, so two circuits share a wire key
        iff they share a :meth:`canonical_key`.  The search's seen-sets use
        this key because :meth:`CircuitDAG.splice` derives a successor's
        from its parent's by re-slicing only the wires the rewrite touches.

        Cached on the circuit; computing it freezes the circuit.
        """
        key = self._wire_key
        if key is None:
            key = wire_key_of(self.num_qubits, self.instructions)
            self._wire_key = key
        return key

    def canonical_key(self) -> tuple:
        """A hashable, ordered key invariant under reordering of independent gates.

        The key is the sequence key of the canonical topological order: among
        all instructions whose qubit predecessors have already been emitted,
        the one with the smallest :meth:`Instruction.sort_key` is emitted
        first.  Two circuits that differ only by commuting *independent*
        (disjoint-qubit) gates therefore share a key, and keys of distinct
        classes compare in a fixed total order.  Circuits hash by it too.
        The search's seen-sets use the cheaper :meth:`wire_key`, which has
        the same classes.

        Implemented as heap-based Kahn topological sorting (O(n log n + E)
        instead of the quadratic min-over-ready scan) and cached on the
        circuit; computing it freezes the circuit.  Ties in ``sort_key``
        cannot occur among simultaneously-ready instructions (equal keys
        imply equal qubit operands, which are wire-ordered), so the heap
        emits exactly the sequence the quadratic algorithm did.
        """
        cached = self._canonical_key
        if cached is not None:
            return cached
        instructions = self.instructions
        count = len(instructions)
        indegree = [0] * count
        successors: List[List[int]] = [[] for _ in range(count)]
        last_on_qubit: Dict[int, int] = {}
        for index, inst in enumerate(instructions):
            for qubit in inst.qubits:
                prev = last_on_qubit.get(qubit)
                if prev is not None:
                    successors[prev].append(index)
                    indegree[index] += 1
                last_on_qubit[qubit] = index
        sort_keys = [inst.sort_key() for inst in instructions]
        heap = [(sort_keys[i], i) for i in range(count) if indegree[i] == 0]
        heapq.heapify(heap)
        emitted: List[tuple] = []
        while heap:
            key, index = heapq.heappop(heap)
            emitted.append(key)
            for successor in successors[index]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    heapq.heappush(heap, (sort_keys[successor], successor))
        result = (self.num_qubits, tuple(emitted))
        self._canonical_key = result
        return result

    # -- rewriting helpers -------------------------------------------------------

    def remap_qubits(self, mapping: Mapping[int, int], num_qubits: int | None = None) -> "Circuit":
        """Return a circuit with qubits renamed according to ``mapping``."""
        target_count = num_qubits if num_qubits is not None else self.num_qubits
        return Circuit(
            target_count,
            [inst.remap_qubits(mapping) for inst in self.instructions],
            self.num_params,
        )

    def substitute_params(self, assignment: Mapping[int, Angle]) -> "Circuit":
        """Return a circuit with symbolic parameters replaced by angles."""
        return Circuit(
            self.num_qubits,
            [inst.substitute_params(assignment) for inst in self.instructions],
            self.num_params,
        )

    def with_num_qubits(self, num_qubits: int) -> "Circuit":
        """Return a copy widened (or narrowed, if safe) to ``num_qubits``."""
        max_used = max(self.used_qubits(), default=-1)
        if num_qubits <= max_used:
            raise ValueError(
                f"cannot narrow to {num_qubits} qubits; qubit {max_used} is used"
            )
        return Circuit(num_qubits, list(self.instructions), self.num_params)

    def to_dag(self):
        """Convert to the graph representation (imported lazily)."""
        from repro.ir.dag import CircuitDAG

        return CircuitDAG.from_circuit(self)

    # -- equality ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.instructions == other.instructions
        )

    def __hash__(self) -> int:
        """Hash consistent with :meth:`canonical_key` (and with ``__eq__``:
        equal circuits share a canonical key).  Cached; computing it freezes
        the circuit."""
        cached = self._hash
        if cached is None:
            cached = hash(self.canonical_key())
            self._hash = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"Circuit(num_qubits={self.num_qubits}, gates={self.gate_count})"
        )

    def __str__(self) -> str:
        lines = [f"Circuit on {self.num_qubits} qubits, {self.gate_count} gates:"]
        for inst in self.instructions:
            lines.append(f"  {inst!r}")
        return "\n".join(lines)


class _SplicedCircuit(Circuit):
    """A search successor whose gates are listed the first time they are read.

    :meth:`CircuitDAG.splice` is the only code that creates one.  It holds
    the qubit and param counts, the gate count, the :meth:`wire_key` splice
    derived from the parent's (so it is born frozen) and ``build``, which
    returns the instruction list from state splice froze.  A search reads
    only the wire key and the gate count of most successors before it drops
    them, so only the circuits it pops or returns ever list their gates.

    ``instructions`` and the gate histogram are built on first read and
    cached.  Every other method is :class:`Circuit`'s and reads them, so it
    answers exactly what an eagerly built circuit would.  Building is
    idempotent: two threads racing on the first read at worst build equal
    lists twice.  A pickled one unpickles as a plain :class:`Circuit`.
    """

    def __init__(
        self,
        num_qubits: int,
        num_params: int,
        length: int,
        wire_key: tuple,
        build: Callable[[], List[Instruction]],
    ) -> None:
        self.num_qubits = num_qubits
        self.num_params = num_params
        self._length = length
        self._build = build
        self._built: Optional[List[Instruction]] = None
        self._counts: Optional[Dict[str, int]] = None
        self._sequence_key = None
        self._wire_key = wire_key
        self._canonical_key = None
        self._hash = None

    @property
    def instructions(self) -> List[Instruction]:
        built = self._built
        if built is None:
            built = self._built = self._build()
        return built

    @property
    def _gate_counts(self) -> Dict[str, int]:
        counts = self._counts
        if counts is None:
            counts = {}
            for inst in self.instructions:
                name = inst.gate.name
                counts[name] = counts.get(name, 0) + 1
            self._counts = counts
        return counts

    @property
    def gate_count(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    def __reduce__(self):
        return (Circuit, (self.num_qubits, self.instructions, self.num_params))


def empty_circuit(num_qubits: int, num_params: int = 0) -> Circuit:
    """Return the empty circuit over ``num_qubits`` qubits."""
    return Circuit(num_qubits, (), num_params)
