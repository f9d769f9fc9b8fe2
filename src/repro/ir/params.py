"""Exact angles and symbolic parameter expressions.

An :class:`Angle` is an exact representation of the value

    ``pi_multiple * pi  +  sum_i  coefficients[i] * p_i``

where ``pi_multiple`` and each coefficient are rationals and ``p_i`` are the
free symbolic parameters of a circuit.  This single class covers both

* concrete angles appearing in benchmark circuits (pure multiples of pi —
  every gate in the Clifford+T benchmark suite and everything produced by
  rotation merging stays a multiple of pi/4), and
* the symbolic parameter expressions of the paper's specification Sigma
  (``p_i``, ``2*p_i`` and ``p_i + p_j``).

Keeping angles exact is what allows the preprocessing passes, the pattern
matcher's parameter unification, and the verifier to avoid floating-point
tolerances entirely; floats only appear when a circuit is handed to the
numeric simulator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

RationalLike = Union[int, Fraction]


def exact_key(value: Fraction) -> Union[float, Fraction]:
    """``value`` as a float when that float equals it exactly, else ``value``.

    Only dyadic rationals can be floats, and only those whose numerator and
    exponent fit a double: ``Fraction(1, 2**1100)`` would underflow to
    ``0.0`` and ``Fraction(2**53 + 1)`` would round, so both stay
    Fractions.  Python guarantees that a float and a Fraction of equal value
    compare equal, order exactly against each other and hash alike, so a
    key built from either is the same key; the float just hashes and
    compares in C instead of in ``fractions.py``.
    """
    denominator = value.denominator
    if denominator & (denominator - 1):
        return value
    try:
        as_float = float(value)
    except OverflowError:
        return value
    # ``float(value) == value``, compared without building a Fraction.
    if as_float.as_integer_ratio() == (value.numerator, denominator):
        return as_float
    return value


class Angle:
    """An exact angle: a rational multiple of pi plus a rational combination
    of symbolic parameters.

    Angles are immutable values: their sort key is computed once and
    cached.
    """

    __slots__ = ("pi_multiple", "coefficients", "_sort_key")

    def __init__(
        self,
        pi_multiple: RationalLike = 0,
        coefficients: Mapping[int, RationalLike] | None = None,
    ) -> None:
        self.pi_multiple = Fraction(pi_multiple)
        coeffs: Dict[int, Fraction] = {}
        if coefficients:
            for index, value in coefficients.items():
                value = Fraction(value)
                if value != 0:
                    coeffs[int(index)] = value
        self.coefficients: Dict[int, Fraction] = coeffs
        self._sort_key: Optional[tuple] = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "Angle":
        return Angle(0)

    @staticmethod
    def pi(multiple: RationalLike = 1) -> "Angle":
        """Return ``multiple * pi``."""
        return Angle(multiple)

    @staticmethod
    def param(index: int, coefficient: RationalLike = 1) -> "Angle":
        """Return ``coefficient * p_index``."""
        return Angle(0, {index: coefficient})

    # -- predicates --------------------------------------------------------

    def is_constant(self) -> bool:
        """True when the angle mentions no symbolic parameter."""
        return not self.coefficients

    def is_zero(self) -> bool:
        return self.pi_multiple == 0 and not self.coefficients

    def is_symbolic(self) -> bool:
        return bool(self.coefficients)

    def params_used(self) -> set[int]:
        return set(self.coefficients)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Angle") -> "Angle":
        if not isinstance(other, Angle):
            return NotImplemented
        coeffs = dict(self.coefficients)
        for index, value in other.coefficients.items():
            coeffs[index] = coeffs.get(index, Fraction(0)) + value
        return Angle(self.pi_multiple + other.pi_multiple, coeffs)

    def __neg__(self) -> "Angle":
        return Angle(
            -self.pi_multiple, {i: -v for i, v in self.coefficients.items()}
        )

    def __sub__(self, other: "Angle") -> "Angle":
        if not isinstance(other, Angle):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: RationalLike) -> "Angle":
        factor = Fraction(factor)
        return Angle(
            self.pi_multiple * factor,
            {i: v * factor for i, v in self.coefficients.items()},
        )

    def __mul__(self, factor: RationalLike) -> "Angle":
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    __rmul__ = __mul__

    def normalized_2pi(self) -> "Angle":
        """Return an angle with the constant part reduced modulo 2*pi.

        Only the pi-multiple is reduced; symbolic coefficients are left
        untouched (they represent arbitrary reals).
        """
        return Angle(self.pi_multiple % 2, self.coefficients)

    def substitute(self, assignment: Mapping[int, "Angle"]) -> "Angle":
        """Replace parameters by angles (used when instantiating patterns).

        Equal to adding up ``assignment[i].scale(c)`` (or ``c * p_i`` for an
        unassigned ``i``) term by term, coefficient order included, but
        without an intermediate Angle per term.
        """
        pi_multiple = self.pi_multiple
        coefficients: Dict[int, Fraction] = {}
        for index, coefficient in self.coefficients.items():
            value = assignment.get(index)
            if value is None:
                terms: Iterable[Tuple[int, Fraction]] = ((index, coefficient),)
            elif coefficient == 1:
                pi_multiple += value.pi_multiple
                terms = value.coefficients.items()
            else:
                pi_multiple += value.pi_multiple * coefficient
                terms = [(i, c * coefficient) for i, c in value.coefficients.items()]
            for term_index, term in terms:
                total = coefficients.get(term_index, 0) + term
                if total:
                    coefficients[term_index] = total
                else:
                    # A term that cancels leaves the sum; a later one
                    # re-enters it last, as a new key of the sum would.
                    del coefficients[term_index]
        return Angle(pi_multiple, coefficients)

    # -- conversions --------------------------------------------------------

    def to_float(self, param_values: Sequence[float] | Mapping[int, float] = ()) -> float:
        """Evaluate numerically given values (radians) for the parameters."""
        total = float(self.pi_multiple) * math.pi
        for index, coefficient in self.coefficients.items():
            if isinstance(param_values, Mapping):
                value = param_values[index]
            else:
                value = param_values[index]
            total += float(coefficient) * value
        return total

    # -- ordering / hashing ---------------------------------------------------

    def sort_key(self) -> tuple:
        """``(pi multiple, sorted (index, coefficient) pairs)``.

        Each rational goes through :func:`exact_key`, so the key equals the
        all-Fraction key, with the same hash and order, but hashes without
        ``Fraction.__hash__``.
        """
        key = self._sort_key
        if key is None:
            key = (
                exact_key(self.pi_multiple),
                tuple(
                    (index, exact_key(coefficient))
                    for index, coefficient in sorted(self.coefficients.items())
                ),
            )
            self._sort_key = key
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Angle):
            return NotImplemented
        return (
            self.pi_multiple == other.pi_multiple
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash(self.sort_key())

    def __repr__(self) -> str:
        if self.is_constant():
            return f"Angle({self.pi_multiple})"
        return f"Angle({self.pi_multiple}, {self.coefficients})"

    def __str__(self) -> str:
        parts: List[str] = []
        if self.pi_multiple != 0:
            parts.append(f"{self.pi_multiple}*pi")
        for index, coefficient in sorted(self.coefficients.items()):
            if coefficient == 1:
                parts.append(f"p{index}")
            else:
                parts.append(f"{coefficient}*p{index}")
        return " + ".join(parts) if parts else "0"


class ParamSpec:
    """The parameter-expression specification Sigma of the paper.

    The experiments in the paper use the expressions ``p_i``, ``2 p_i`` and
    ``p_i + p_j`` (for ``i < j``), and restrict each parameter to be used at
    most once per circuit.  This class enumerates the allowed expressions and
    exposes the single-use restriction so the circuit generator can enforce
    it while extending circuits.
    """

    def __init__(
        self,
        num_params: int,
        allow_double: bool = True,
        allow_sum: bool = True,
        single_use: bool = True,
    ) -> None:
        if num_params < 0:
            raise ValueError("num_params must be nonnegative")
        self.num_params = num_params
        self.allow_double = allow_double
        self.allow_sum = allow_sum
        self.single_use = single_use

    def expressions(self) -> List[Angle]:
        """Enumerate all allowed parameter expressions."""
        exprs: List[Angle] = []
        for i in range(self.num_params):
            exprs.append(Angle.param(i))
        if self.allow_double:
            for i in range(self.num_params):
                exprs.append(Angle.param(i, 2))
        if self.allow_sum:
            for i in range(self.num_params):
                for j in range(i + 1, self.num_params):
                    exprs.append(Angle.param(i) + Angle.param(j))
        return exprs

    def expressions_avoiding(self, used_params: Iterable[int]) -> List[Angle]:
        """Enumerate allowed expressions that respect the single-use rule.

        When ``single_use`` is set, expressions mentioning any parameter in
        ``used_params`` are excluded; otherwise all expressions are returned.
        """
        if not self.single_use:
            return self.expressions()
        used = set(used_params)
        return [
            expr for expr in self.expressions() if not (expr.params_used() & used)
        ]

    def __repr__(self) -> str:
        return (
            f"ParamSpec(num_params={self.num_params}, allow_double={self.allow_double}, "
            f"allow_sum={self.allow_sum}, single_use={self.single_use})"
        )


def angles_from_floats(values: Sequence[float], tolerance: float = 1e-9) -> List[Angle]:
    """Convert float angles to exact :class:`Angle` values when possible.

    Values that are close (within ``tolerance`` of the ratio to pi) to a
    multiple of pi/64 are snapped to the exact rational multiple; anything
    else raises, because the exact pipeline cannot represent it.  This is
    used by the QASM reader.
    """
    result = []
    for value in values:
        result.append(angle_from_float(value, tolerance))
    return result


def angle_from_float(value: float, tolerance: float = 1e-9) -> Angle:
    """Snap a float (radians) to an exact rational multiple of pi.

    Raises:
        ValueError: if the value is not close to a multiple of pi/2^k for a
        small k (up to pi/64), which would fall outside the exact fragment
        this reproduction supports.
    """
    if not math.isfinite(value):
        # Without this guard, round() below raises OverflowError for
        # infinities and "cannot convert float NaN to integer" for NaN —
        # neither of which callers screening for ValueError would catch.
        raise ValueError(f"angle {value} is not finite")
    ratio = value / math.pi
    for denominator in (1, 2, 4, 8, 16, 32, 64):
        scaled = ratio * denominator
        nearest = round(scaled)
        if abs(scaled - nearest) <= tolerance * denominator:
            return Angle(Fraction(nearest, denominator))
    raise ValueError(
        f"angle {value} is not an exact multiple of pi/64; "
        "supply an Angle explicitly instead"
    )
