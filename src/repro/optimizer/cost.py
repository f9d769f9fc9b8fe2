"""Cost models for the circuit optimizer.

The paper's evaluation measures circuit cost as total gate count
(Section 7.2), but notes that other metrics — CNOT count, T count, depth —
are equally valid.  The optimizer takes any :class:`CostModel`, so all of
these are provided and exercised by the ablation benches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.ir.circuit import Circuit

if TYPE_CHECKING:
    from repro.optimizer.xfer import Transformation


class CostModel:
    """Maps circuits to a real-valued cost; lower is better."""

    name = "abstract"

    def cost(self, circuit: Circuit) -> float:
        raise NotImplementedError

    def rule_delta(self, transformation: Transformation) -> Optional[int]:
        """The change in cost ``transformation`` makes at every match, or
        ``None`` when the model cannot tell before the match is spliced.

        A model that returns a number promises that
        ``cost(successor) == cost(parent) + delta`` holds bit for bit for
        every successor the rule splices, so a search may compare
        ``cost(parent) + delta`` with its bound and skip the splice.
        """
        return None

    def __call__(self, circuit: Circuit) -> float:
        return self.cost(circuit)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GateCountCost(CostModel):
    """Total number of gates — the paper's default cost function."""

    name = "gate_count"

    def cost(self, circuit: Circuit) -> float:
        return float(circuit.gate_count)

    def rule_delta(self, transformation: Transformation) -> Optional[int]:
        # A splice removes the matched source gates and inserts the
        # target's, and float sums of integers this small are exact.
        return transformation.gate_delta


class TwoQubitCountCost(CostModel):
    """Number of two-or-more-qubit gates (CNOT/CZ dominate device error)."""

    name = "two_qubit_count"

    def cost(self, circuit: Circuit) -> float:
        return float(circuit.two_qubit_count())


class TCountCost(CostModel):
    """Number of T/Tdg gates (the expensive gates in fault-tolerant settings).

    Rz gates with angle an odd multiple of pi/4 are counted as T-equivalent,
    which keeps the metric meaningful after transpiling Clifford+T circuits
    to the Nam gate set.
    """

    name = "t_count"

    def cost(self, circuit: Circuit) -> float:
        count = 0
        for inst in circuit.instructions:
            if inst.gate.name in ("t", "tdg"):
                count += 1
            elif inst.gate.name in ("rz", "u1") and inst.params and inst.params[0].is_constant():
                multiple = inst.params[0].normalized_2pi().pi_multiple
                if multiple.denominator == 4:
                    count += 1
        return float(count)


class DepthCost(CostModel):
    """Circuit depth (longest dependency chain)."""

    name = "depth"

    def cost(self, circuit: Circuit) -> float:
        return float(circuit.depth())

