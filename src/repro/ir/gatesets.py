"""Gate sets (Table 1 of the paper) and a registry for custom ones.

A :class:`GateSet` bundles the gates available on a target device with the
number m of symbolic parameters used when generating transformations for
it (the parameter-expression specification Sigma is always
``ParamSpec(m)``).  The three evaluation gate sets are:

* **Nam**    — H, X, Rz(lambda), CNOT                      (m = 2)
* **IBM**    — U1(theta), U2(phi, lambda), U3(...), CNOT   (m = 4)
* **Rigetti**— Rx(+-pi/2), Rx(pi)=X, Rz(lambda), CZ        (m = 2)

plus the **Clifford+T** set in which the benchmark circuits are written.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.ir.gates import Gate, get_gate


class GateSet:
    """A named collection of gates with a parameter count m."""

    def __init__(
        self,
        name: str,
        gate_names: Sequence[str],
        num_params: int = 2,
    ) -> None:
        self.name = name
        self.gates: List[Gate] = [get_gate(g) for g in gate_names]
        self.num_params = num_params

    def gate_names(self) -> List[str]:
        return [gate.name for gate in self.gates]

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Gate):
            return item in self.gates
        if isinstance(item, str):
            return item in self.gate_names()
        return False

    def __iter__(self):
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def contains_circuit(self, circuit) -> bool:
        """Return True when every instruction of ``circuit`` uses a gate from
        this set (used to validate transpilation results)."""
        names = set(self.gate_names())
        return all(inst.gate.name in names for inst in circuit.instructions)

    def __repr__(self) -> str:
        return f"GateSet({self.name!r}, {self.gate_names()})"


NAM = GateSet("nam", ["h", "x", "rz", "cx"], num_params=2)
IBM = GateSet("ibm", ["u1", "u2", "u3", "cx"], num_params=4)
RIGETTI = GateSet("rigetti", ["rx90", "rx90dg", "x", "rz", "cz"], num_params=2)
CLIFFORD_T = GateSet("clifford_t", ["h", "t", "tdg", "s", "sdg", "x", "cx", "ccx", "z", "ccz"], num_params=0)

_GATE_SET_REGISTRY: Dict[str, GateSet] = {
    "nam": NAM,
    "ibm": IBM,
    "rigetti": RIGETTI,
    "clifford_t": CLIFFORD_T,
}


def get_gate_set(name: str) -> GateSet:
    """Look up a registered gate set by name.

    Raises:
        KeyError: if no gate set with that name has been registered.
    """
    key = name.lower()
    if key not in _GATE_SET_REGISTRY:
        raise KeyError(
            f"unknown gate set {name!r}; known: {sorted(_GATE_SET_REGISTRY)}"
        )
    return _GATE_SET_REGISTRY[key]


def register_gate_set(gate_set: GateSet) -> GateSet:
    """Register a custom gate set so it can be retrieved by name."""
    # repro: allow(mutable-module-global): registry populated by register_gate_set at import time; workers re-register identically when they import the defining module
    _GATE_SET_REGISTRY[gate_set.name.lower()] = gate_set
    return gate_set


def available_gate_sets() -> List[str]:
    return sorted(_GATE_SET_REGISTRY)
