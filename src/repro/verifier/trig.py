"""Trigonometric elimination: from symbolic angles to Laurent polynomials.

The paper's reduction (Section 4) halves angles so every trig argument is a
linear combination with integer coefficients and then expands the trig
functions.  This module expands in the exponential basis ``z_k =
e^{i*atom_k}``, where a product of trig terms is a product of monomials and
no Pythagorean constraint is needed (see :mod:`repro.linalg.trigpoly`):

* :class:`SymbolicContext` fixes, for every parameter, the *atom*
  ``p_i / denominator_i`` fine enough that every angle occurring in the
  circuits (after the gates' internal half-angles) is an integer multiple of
  the atom.
* :class:`AtomTrigBuilder` implements the :class:`repro.ir.gates.TrigBuilder`
  protocol on top of a context: ``e^{i angle}`` is one term (a monomial in
  the ``z_k`` times the exact Q[sqrt(2)] value of the angle's constant
  part), and ``cos(angle)``/``sin(angle)`` are two terms each.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence

from repro.ir.circuit import Circuit, Instruction
from repro.ir.params import Angle
from repro.linalg.cnumber import CNumber
from repro.linalg.qsqrt2 import QSqrt2
from repro.linalg.symmatrix import SymMatrix
from repro.linalg.trigpoly import TrigPoly, exp_i_multiple


class UnrepresentableAngleError(ValueError):
    """Raised when an angle's constant part is finer than pi/4 after halving.

    Constants outside Q[sqrt(2)] (e.g. cos(pi/8)) cannot be represented
    exactly; callers should either lift concrete angles to symbolic
    parameters or fall back to numeric checking.
    """


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


class SymbolicContext:
    """Atom granularity for each symbolic parameter.

    ``denominators[i] = d`` means the atom for parameter ``i`` is ``p_i / d``;
    an angle coefficient ``c`` on ``p_i`` is representable iff ``c * d`` is an
    integer.  The context is computed from the circuits being compared (and
    the phase-factor space) with an extra factor of 2 to absorb the half
    angles the rotation gates introduce internally.
    """

    def __init__(self, num_params: int, denominators: Sequence[int] | None = None) -> None:
        self.num_params = num_params
        if denominators is None:
            denominators = [2] * num_params
        if len(denominators) != num_params:
            raise ValueError("one denominator per parameter is required")
        self.denominators: List[int] = [int(d) for d in denominators]

    @staticmethod
    def for_circuits(
        circuits: Iterable[Circuit],
        num_params: int,
        extra_angles: Iterable[Angle] = (),
    ) -> "SymbolicContext":
        """Choose atom denominators covering every angle in ``circuits``.

        Every coefficient denominator found is doubled once to account for
        the half-angle the rotation gates apply to their arguments.
        """
        denominators = [1] * num_params
        all_angles: List[Angle] = list(extra_angles)
        for circuit in circuits:
            for inst in circuit.instructions:
                all_angles.extend(inst.params)
        for angle in all_angles:
            for index, coefficient in angle.coefficients.items():
                if index >= num_params:
                    raise ValueError(
                        f"angle {angle} uses parameter p{index} but the context "
                        f"only has {num_params} parameters"
                    )
                denominators[index] = _lcm(
                    denominators[index], coefficient.denominator
                )
        # Absorb the half-angles of rx/ry/rz/u3.
        return SymbolicContext(num_params, [2 * d for d in denominators])

    def atom_coefficients(self, angle: Angle) -> Dict[int, int]:
        """Express the symbolic part of ``angle`` in integer atom multiples."""
        result: Dict[int, int] = {}
        for index, coefficient in angle.coefficients.items():
            scaled = coefficient * self.denominators[index]
            if scaled.denominator != 1:
                raise UnrepresentableAngleError(
                    f"coefficient {coefficient} of p{index} is finer than the "
                    f"atom p{index}/{self.denominators[index]}"
                )
            result[index] = int(scaled)
        return result


class AtomTrigBuilder:
    """Builds trig polynomials over the atoms of a :class:`SymbolicContext`."""

    def __init__(self, context: SymbolicContext) -> None:
        self.context = context
        self._half = TrigPoly.constant(CNumber(QSqrt2(Fraction(1, 2))))
        self._minus_half_i = TrigPoly.constant(CNumber(QSqrt2(0), QSqrt2(Fraction(-1, 2))))

    def exp_i(self, angle: Angle) -> TrigPoly:
        """Return ``e^{i * angle}`` as a trig polynomial."""
        constant = _exact_exp_i_pi(angle.pi_multiple)
        result = TrigPoly.constant(constant)
        for index, multiple in self.context.atom_coefficients(angle).items():
            if multiple:
                result = result * exp_i_multiple(multiple, index)
        return result

    def cos(self, angle: Angle) -> TrigPoly:
        """Return ``cos(angle) = (e^{i a} + e^{-i a}) / 2``."""
        plus = self.exp_i(angle)
        minus = self.exp_i(-angle)
        return self._half * (plus + minus)

    def sin(self, angle: Angle) -> TrigPoly:
        """Return ``sin(angle) = (e^{i a} - e^{-i a}) / (2i)``."""
        plus = self.exp_i(angle)
        minus = self.exp_i(-angle)
        return self._minus_half_i * (plus - minus)


def _exact_exp_i_pi(multiple: Fraction) -> CNumber:
    try:
        return CNumber.from_exp_i_pi_multiple(multiple)
    except ValueError as exc:
        raise UnrepresentableAngleError(str(exc)) from exc


def embed_symbolic(matrix: SymMatrix, qubits: Sequence[int], num_qubits: int) -> SymMatrix:
    """Embed a gate's symbolic matrix into the full ``2^q``-dimensional space.

    Mirrors :func:`repro.semantics.simulator.expand_to_qubits` but over trig
    polynomials.
    """
    num_targets = len(qubits)
    if matrix.shape() != (1 << num_targets, 1 << num_targets):
        raise ValueError("matrix shape does not match number of target qubits")
    dim = 1 << num_qubits
    rows = [[TrigPoly.zero() for _ in range(dim)] for _ in range(dim)]
    other_qubits = [q for q in range(num_qubits) if q not in qubits]
    num_other = len(other_qubits)

    for other_bits in range(1 << num_other):
        base_index = 0
        for position, qubit in enumerate(other_qubits):
            if (other_bits >> (num_other - 1 - position)) & 1:
                base_index |= 1 << (num_qubits - 1 - qubit)
        for row_bits in range(1 << num_targets):
            row_index = base_index
            for position, qubit in enumerate(qubits):
                if (row_bits >> (num_targets - 1 - position)) & 1:
                    row_index |= 1 << (num_qubits - 1 - qubit)
            for col_bits in range(1 << num_targets):
                entry = matrix[row_bits, col_bits]
                if entry.is_zero():
                    continue
                col_index = base_index
                for position, qubit in enumerate(qubits):
                    if (col_bits >> (num_targets - 1 - position)) & 1:
                        col_index |= 1 << (num_qubits - 1 - qubit)
                rows[row_index][col_index] = entry
    return SymMatrix(rows)


def symbolic_instruction_matrix(
    inst: Instruction, builder: AtomTrigBuilder, num_qubits: int
) -> SymMatrix:
    """The full-space symbolic matrix of a single instruction."""
    gate_matrix = inst.gate.symbolic(builder, inst.params)
    return embed_symbolic(gate_matrix, inst.qubits, num_qubits)

