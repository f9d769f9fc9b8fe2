"""Equivalent circuit classes (ECCs) and ECC sets (Section 2 of the paper).

An ECC is a set of mutually equivalent circuits; an ECC with x circuits
compactly represents x(x-1) transformations.  An ECC set is the output of
the generator and the input of the optimizer: the optimizer turns each ECC
into the 2(x-1) transformations between its representative and every other
member.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional

from repro.ir.circuit import Circuit, Instruction
from repro.ir.params import Angle


# -- payload helpers ---------------------------------------------------------
#
# The JSON-friendly payload form of angles, instructions and circuits.
# ECCSet serialization writes circuit payloads; the persistent
# .repro_cache/ store writes only instruction payloads, each distinct one
# once in a table its circuits index into (see repro.generator.cache).
# Fractions are rendered as strings ("-3/4"), which round-trips exactly.


def angle_to_payload(angle: Angle) -> dict:
    """Exact, canonical payload of an angle.

    Coefficients are emitted in sorted parameter order so that equal angles
    always serialize to identical bytes — a requirement for content-hashed
    cache keys and for the golden ``ECCSet.to_json`` digests.
    """
    return {
        "pi": str(angle.pi_multiple),
        "coeffs": {str(k): str(v) for k, v in sorted(angle.coefficients.items())},
    }


def angle_from_payload(data: dict) -> Angle:
    return Angle(
        Fraction(data["pi"]),
        {int(k): Fraction(v) for k, v in data["coeffs"].items()},
    )


def instruction_to_payload(inst: Instruction) -> dict:
    return {
        "gate": inst.gate.name,
        "qubits": list(inst.qubits),
        "params": [angle_to_payload(p) for p in inst.params],
    }


def instruction_from_payload(data: dict) -> Instruction:
    """The instruction of a payload, through the checking constructor.

    An unknown gate name, a wrong qubit or parameter count and repeated
    qubits raise here, as they do when a circuit is built by hand.
    """
    return Instruction(
        data["gate"],
        data["qubits"],
        [angle_from_payload(p) for p in data["params"]],
    )


def circuit_to_payload(circuit: Circuit) -> dict:
    return {
        "num_qubits": circuit.num_qubits,
        "instructions": [
            instruction_to_payload(inst) for inst in circuit.instructions
        ],
    }


def circuit_from_payload(data: dict, num_params: int = 0) -> Circuit:
    return Circuit(
        data["num_qubits"],
        [instruction_from_payload(inst) for inst in data["instructions"]],
        num_params,
    )


class ECC:
    """One equivalence class of circuits.

    The *representative* is the minimum circuit under the precedence order of
    Definition 3 (fewest gates first, then lexicographic order on the
    instruction sequence).
    """

    def __init__(self, circuits: Iterable[Circuit] = ()) -> None:
        self.circuits: List[Circuit] = []
        self._keys: set = set()
        for circuit in circuits:
            self.add(circuit)

    def add(self, circuit: Circuit) -> bool:
        """Add a circuit; returns False if an identical sequence was present."""
        key = circuit.sequence_key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.circuits.append(circuit)
        return True

    def __len__(self) -> int:
        return len(self.circuits)

    def __iter__(self) -> Iterator[Circuit]:
        return iter(self.circuits)

    def __contains__(self, circuit: Circuit) -> bool:
        return circuit.sequence_key() in self._keys

    @property
    def representative(self) -> Circuit:
        """The precedence-minimal circuit of the class."""
        if not self.circuits:
            raise ValueError("empty ECC has no representative")
        return min(self.circuits, key=lambda c: (len(c), c.sequence_key()))

    def others(self) -> List[Circuit]:
        """All circuits except the representative."""
        rep_key = self.representative.sequence_key()
        return [c for c in self.circuits if c.sequence_key() != rep_key]

    def num_transformations(self) -> int:
        """Number of (ordered) transformations the class represents."""
        x = len(self.circuits)
        return x * (x - 1)

    def is_singleton(self) -> bool:
        return len(self.circuits) <= 1

    def canonical_key(self) -> tuple:
        """A hashable identity for the class, independent of insertion order."""
        return tuple(sorted(c.sequence_key() for c in self.circuits))

    def __repr__(self) -> str:
        return f"ECC(size={len(self.circuits)}, rep={self.representative!r})"


class ECCSet:
    """A set of ECCs, the unit the generator produces and the optimizer uses."""

    def __init__(self, eccs: Iterable[ECC] = (), num_qubits: int = 0, num_params: int = 0) -> None:
        self.eccs: List[ECC] = list(eccs)
        self.num_qubits = num_qubits
        self.num_params = num_params

    def __len__(self) -> int:
        return len(self.eccs)

    def __iter__(self) -> Iterator[ECC]:
        return iter(self.eccs)

    def add(self, ecc: ECC) -> None:
        self.eccs.append(ecc)

    def non_singleton(self) -> "ECCSet":
        """Drop singleton classes (they yield no transformations)."""
        return ECCSet(
            [ecc for ecc in self.eccs if not ecc.is_singleton()],
            self.num_qubits,
            self.num_params,
        )

    def num_circuits(self) -> int:
        return sum(len(ecc) for ecc in self.eccs)

    def num_transformations(self) -> int:
        """Total number of transformations represented (|T| in Table 5)."""
        return sum(ecc.num_transformations() for ecc in self.eccs)

    def representatives(self) -> List[Circuit]:
        return [ecc.representative for ecc in self.eccs]

    def __repr__(self) -> str:
        return (
            f"ECCSet(classes={len(self.eccs)}, circuits={self.num_circuits()}, "
            f"transformations={self.num_transformations()})"
        )

    # -- serialization (useful for caching generated sets in experiments) -----

    def to_payload(self) -> dict:
        """The JSON-friendly payload form (exact angles as strings)."""
        return {
            "num_qubits": self.num_qubits,
            "num_params": self.num_params,
            "eccs": [
                [circuit_to_payload(circuit) for circuit in ecc]
                for ecc in self.eccs
            ],
        }

    @staticmethod
    def from_payload(payload: dict) -> "ECCSet":
        num_params = payload["num_params"]
        eccs = [
            ECC(
                circuit_from_payload(circuit_payload, num_params=num_params)
                for circuit_payload in ecc_payload
            )
            for ecc_payload in payload["eccs"]
        ]
        return ECCSet(eccs, payload["num_qubits"], num_params)

    def to_json(self) -> str:
        """Serialize to JSON (circuit sequences with exact angles as strings)."""
        return json.dumps(self.to_payload())

    @staticmethod
    def from_json(text: str) -> "ECCSet":
        return ECCSet.from_payload(json.loads(text))
