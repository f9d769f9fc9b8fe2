"""Transformation pruning (Section 5 of the paper).

Two passes run after RepGen and preserve (n, q)-completeness:

* **ECC simplification** removes qubits and parameters that no circuit of a
  class touches, then de-duplicates classes that became identical (also up to
  a permutation of the parameters).
* **Common-subcircuit pruning** drops from each class the circuits that share
  a first or last gate with the class representative: the transformation
  between them is subsumed by the smaller transformation obtained by removing
  the shared gate (Theorem 4), which the (n, q)-complete set already
  contains.  Classes reduced below two circuits are dropped.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set, Tuple

from repro.generator.ecc import ECC, ECCSet
from repro.ir.circuit import Circuit, Instruction
from repro.ir.params import Angle


# ---------------------------------------------------------------------------
# ECC simplification
# ---------------------------------------------------------------------------


def simplify_ecc_set(ecc_set: ECCSet) -> ECCSet:
    """Remove unused qubits/parameters and merge classes that become equal."""
    simplified: Dict[tuple, ECC] = {}
    # Remapped instructions by (used qubits, used params), then by the
    # original's sort key: the classes of a set share most instructions.
    remapped: Dict[tuple, Dict[tuple, Instruction]] = {}
    for ecc in ecc_set:
        new_ecc = _simplify_ecc(ecc, remapped)
        key = _ecc_key_up_to_param_permutation(new_ecc, ecc_set.num_params)
        if key not in simplified:
            simplified[key] = new_ecc
    return ECCSet(list(simplified.values()), ecc_set.num_qubits, ecc_set.num_params)


def _simplify_ecc(
    ecc: ECC, remapped: Dict[tuple, Dict[tuple, Instruction]]
) -> ECC:
    used_qubits: Set[int] = set()
    used_params: Set[int] = set()
    for circuit in ecc:
        used_qubits |= circuit.used_qubits()
        used_params |= circuit.used_params()
    qubits = tuple(sorted(used_qubits))
    params = tuple(sorted(used_params))
    qubit_map = {old: new for new, old in enumerate(qubits)}
    assignment = {
        old: Angle.param(new) for new, old in enumerate(params) if old != new
    }
    memo = remapped.setdefault((qubits, params), {})

    new_circuits = []
    for circuit in ecc:
        instructions = []
        for inst in circuit.instructions:
            sort_key = inst.sort_key()
            new_inst = memo.get(sort_key)
            if new_inst is None:
                new_inst = inst.remap_qubits(qubit_map)
                if assignment:
                    new_inst = new_inst.substitute_params(assignment)
                memo[sort_key] = new_inst
            instructions.append(new_inst)
        new_circuits.append(Circuit(len(qubits), instructions, circuit.num_params))
    return ECC(new_circuits)


def _ecc_key_up_to_param_permutation(ecc: ECC, num_params: int) -> tuple:
    """Canonical key of a class, minimized over permutations of parameters.

    Parameters carry no inherent order (Section 5.1), so classes that differ
    only by renaming p_0 <-> p_1 are duplicates; the canonical key is the
    lexicographically smallest circuit-key tuple over all permutations of the
    parameters actually used.

    Each permutation renames the parameter indices inside the members'
    sequence keys, which is exactly the key of the renamed circuits: a
    bijective renaming with coefficient 1 merges or cancels no term, so
    only the index order of each angle's ``(index, coefficient)`` pairs
    changes, and re-sorting restores :meth:`Angle.sort_key`'s order.
    """
    used_params: Set[int] = set()
    for circuit in ecc:
        used_params |= circuit.used_params()
    used = sorted(used_params)
    if len(used) <= 1:
        return ecc.canonical_key()

    sequence_keys = [circuit.sequence_key() for circuit in ecc]
    best: tuple | None = None
    for permutation in itertools.permutations(used):
        rename = dict(zip(used, permutation))
        key = tuple(
            sorted(_renamed_sequence_key(seq, rename) for seq in sequence_keys)
        )
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def _renamed_sequence_key(sequence_key: tuple, rename: Dict[int, int]) -> tuple:
    """``sequence_key`` with every parameter ``i`` renamed to ``rename[i]``."""
    return tuple(
        (
            name,
            qubits,
            tuple((pi, _renamed_pairs(pairs, rename)) for pi, pairs in angle_keys),
        )
        for name, qubits, angle_keys in sequence_key
    )


def _renamed_pairs(pairs: tuple, rename: Dict[int, int]) -> tuple:
    """An angle key's ``(index, coefficient)`` pairs, renamed, in index order."""
    if len(pairs) == 1:  # p_i or 2·p_i: nothing to re-sort
        ((index, coefficient),) = pairs
        return ((rename[index], coefficient),)
    return tuple(sorted((rename[index], c) for index, c in pairs))


# ---------------------------------------------------------------------------
# Common-subcircuit pruning
# ---------------------------------------------------------------------------


def prune_common_subcircuits(ecc_set: ECCSet) -> ECCSet:
    """Drop circuits whose transformation with the representative shares a
    first or last gate, then drop classes with fewer than two circuits."""
    pruned_eccs: List[ECC] = []
    for ecc in ecc_set:
        representative = ecc.representative
        kept = [representative]
        for circuit in ecc.others():
            if _share_boundary_gate(representative, circuit):
                continue
            kept.append(circuit)
        if len(kept) >= 2:
            pruned_eccs.append(ECC(kept))
    return ECCSet(pruned_eccs, ecc_set.num_qubits, ecc_set.num_params)


def _share_boundary_gate(circuit_a: Circuit, circuit_b: Circuit) -> bool:
    """True when the circuits share an initial or final gate (Section 5.2)."""
    first_a = _boundary_instructions(circuit_a, initial=True)
    first_b = _boundary_instructions(circuit_b, initial=True)
    if first_a & first_b:
        return True
    last_a = _boundary_instructions(circuit_a, initial=False)
    last_b = _boundary_instructions(circuit_b, initial=False)
    return bool(last_a & last_b)


def _boundary_instructions(circuit: Circuit, initial: bool) -> Set[tuple]:
    """The gates at the beginning (or end) of a circuit, as hashable keys.

    A gate is at the beginning if no earlier gate touches any of its qubits
    (and symmetrically for the end).
    """
    instructions = (
        list(circuit.instructions) if initial else list(reversed(circuit.instructions))
    )
    blocked: Set[int] = set()
    boundary: Set[tuple] = set()
    for inst in instructions:
        if not (set(inst.qubits) & blocked):
            boundary.add(inst.sort_key())
        blocked |= set(inst.qubits)
    return boundary
