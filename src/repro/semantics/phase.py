"""Phase-factor candidate search (Section 4 of the paper).

Circuit equivalence allows a global phase ``e^{i beta}`` where ``beta`` may
depend on the parameters.  To eliminate the existential quantifier over
``beta``, Quartz searches a finite space of linear phase functions

    ``beta(p) = a . p + b``,   a in {-2,...,2}^m,  b in {0, pi/4, ..., 7pi/4}

by evaluating both circuits on random parameter values and states and
keeping the (a, b) combinations that match numerically; the verifier then
proves the surviving candidate symbolically.  The paper notes that for the
evaluated gate sets ``a = 0`` always suffices, so the search tries constant
phases first and only widens to parameter-dependent ones on demand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.params import Angle
from repro.semantics.fingerprint import FingerprintContext


@dataclass(frozen=True)
class PhaseFactor:
    """A candidate global phase ``beta(p) = sum_i coefficients[i]*p_i + b``.

    ``constant_pi_multiple`` is b expressed as a multiple of pi, and the
    coefficients are small integers as in the paper's search space.
    """

    coefficients: Tuple[int, ...]
    constant_pi_multiple: Fraction

    def as_angle(self) -> Angle:
        return Angle(
            self.constant_pi_multiple,
            {i: c for i, c in enumerate(self.coefficients) if c != 0},
        )

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def evaluate(self, param_values: Sequence[float]) -> float:
        total = float(self.constant_pi_multiple) * math.pi
        for index, coefficient in enumerate(self.coefficients):
            if coefficient:
                total += coefficient * param_values[index]
        return total

    def __str__(self) -> str:
        return str(self.as_angle())


def find_phase_candidates(
    circuit_a: Circuit,
    circuit_b: Circuit,
    context: FingerprintContext,
    *,
    max_coefficient: int = 2,
    search_linear: bool = True,
    tol: float = 1e-7,
) -> List[PhaseFactor]:
    """Return phase factors consistent with the circuits on the random inputs.

    The returned list is ordered from simplest (constant, small b) to more
    complex; an empty list means the circuits already disagree numerically
    and cannot be equivalent.
    """
    amp_a = context.amplitude(circuit_a)
    amp_b = context.amplitude(circuit_b)
    num_params = context.num_params

    if abs(amp_b) < tol or abs(amp_a) < tol:
        # The random amplitude is (numerically) zero; fall back to comparing
        # full unitaries on the random parameters to extract a phase.
        return _candidates_from_unitaries(
            circuit_a, circuit_b, context, max_coefficient, search_linear, tol
        )

    if abs(abs(amp_a) - abs(amp_b)) > max(tol, tol * abs(amp_a)):
        return []

    required_phase = math.atan2((amp_a / amp_b).imag, (amp_a / amp_b).real)
    return _match_phase(
        required_phase, context.param_values, num_params, max_coefficient, search_linear, tol
    )


def _candidates_from_unitaries(
    circuit_a: Circuit,
    circuit_b: Circuit,
    context: FingerprintContext,
    max_coefficient: int,
    search_linear: bool,
    tol: float,
) -> List[PhaseFactor]:
    from repro.semantics.simulator import circuit_unitary

    left = circuit_unitary(circuit_a, context.param_values)
    right = circuit_unitary(circuit_b, context.param_values)
    index = np.unravel_index(np.argmax(np.abs(right)), right.shape)
    if abs(right[index]) < tol:
        return []
    ratio = left[index] / right[index]
    if abs(abs(ratio) - 1.0) > tol:
        return []
    if not np.allclose(left, ratio * right, atol=1e-6):
        return []
    required_phase = math.atan2(ratio.imag, ratio.real)
    return _match_phase(
        required_phase,
        context.param_values,
        context.num_params,
        max_coefficient,
        search_linear,
        tol,
    )


def _match_phase(
    required_phase: float,
    param_values: Sequence[float],
    num_params: int,
    max_coefficient: int,
    search_linear: bool,
    tol: float,
) -> List[PhaseFactor]:
    candidates: List[PhaseFactor] = []
    coefficient_choices: Iterable[Tuple[int, ...]]
    if search_linear and num_params > 0:
        values = range(-max_coefficient, max_coefficient + 1)
        coefficient_choices = sorted(
            itertools.product(values, repeat=num_params),
            key=lambda combo: sum(abs(c) for c in combo),
        )
    else:
        coefficient_choices = [tuple([0] * num_params)]

    for coefficients in coefficient_choices:
        linear_part = sum(
            coefficient * param_values[index]
            for index, coefficient in enumerate(coefficients)
        )
        remainder = required_phase - linear_part
        eighth = remainder / (math.pi / 4.0)
        nearest = round(eighth)
        if abs(eighth - nearest) * (math.pi / 4.0) <= max(tol, 1e-6):
            constant = Fraction(int(nearest) % 8, 4)
            candidates.append(PhaseFactor(tuple(coefficients), constant))
    return candidates
