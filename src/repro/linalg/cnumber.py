"""Exact complex numbers over the ring Q[sqrt(2)].

A :class:`CNumber` is ``re + i*im`` where both parts are :class:`QSqrt2`
elements.  These are the coefficients of the verifier's Laurent polynomials
in ``z_k = e^{i*atom_k}``: every constant scalar that appears in the symbolic
matrices of the supported gates — 0, 1, -1, i, 1/sqrt(2), e^{i k pi/4} —
lives in this ring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from repro.linalg.qsqrt2 import QSqrt2

Coercible = Union["CNumber", QSqrt2, int, Fraction]


class CNumber:
    """An exact complex number with real and imaginary parts in Q[sqrt(2)]."""

    __slots__ = ("re", "im")

    def __init__(self, re: QSqrt2 | int | Fraction = 0, im: QSqrt2 | int | Fraction = 0) -> None:
        self.re = re if isinstance(re, QSqrt2) else QSqrt2(re)
        self.im = im if isinstance(im, QSqrt2) else QSqrt2(im)

    @staticmethod
    def _make(re: QSqrt2, im: QSqrt2) -> "CNumber":
        """Internal constructor for operands already known to be QSqrt2."""
        out = CNumber.__new__(CNumber)
        out.re = re
        out.im = im
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "CNumber":
        return CNumber(0, 0)

    @staticmethod
    def one() -> "CNumber":
        return CNumber(1, 0)

    @staticmethod
    def i() -> "CNumber":
        return CNumber(0, 1)

    @staticmethod
    def from_exp_i_pi_multiple(multiple: Fraction) -> "CNumber":
        """Return ``e^{i * multiple * pi}`` for ``multiple`` a multiple of 1/4.

        Only eighth roots of unity (angles that are multiples of pi/4) are
        representable exactly in Q[sqrt(2)]; anything finer raises.
        """
        multiple = Fraction(multiple) % 2  # 2*pi periodicity
        eighths = multiple * 4
        if eighths.denominator != 1:
            raise ValueError(
                f"e^(i*{multiple}*pi) is not exactly representable in Q[sqrt(2)]"
            )
        k = int(eighths) % 8
        half = QSqrt2.half_sqrt2()
        table = {
            0: CNumber(1, 0),
            1: CNumber(half, half),
            2: CNumber(0, 1),
            3: CNumber(-half, half),
            4: CNumber(-1, 0),
            5: CNumber(-half, -half),
            6: CNumber(0, -1),
            7: CNumber(half, -half),
        }
        return table[k]

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def is_one(self) -> bool:
        return self.re.is_one() and self.im.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Coercible) -> "CNumber":
        if type(other) is not CNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return CNumber._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "CNumber":
        return CNumber(-self.re, -self.im)

    def __sub__(self, other: Coercible) -> "CNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CNumber(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: Coercible) -> "CNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: Coercible) -> "CNumber":
        if type(other) is not CNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # Purely real values are the overwhelmingly common case in the
        # verifier's polynomials; skip the imaginary cross terms for them.
        sim = self.im
        oim = other.im
        if sim.is_zero():
            if oim.is_zero():
                return CNumber._make(self.re * other.re, sim)
            return CNumber._make(self.re * other.re, self.re * oim)
        if oim.is_zero():
            return CNumber._make(self.re * other.re, sim * other.re)
        return CNumber._make(
            self.re * other.re - sim * oim,
            self.re * oim + sim * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "CNumber":
        return CNumber(self.re, -self.im)

    def inverse(self) -> "CNumber":
        norm = self.re * self.re + self.im * self.im
        if norm.is_zero():
            raise ZeroDivisionError("inverse of zero complex number")
        inv_norm = norm.inverse()
        return CNumber(self.re * inv_norm, -self.im * inv_norm)

    def __truediv__(self, other: Coercible) -> "CNumber":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "CNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CNumber.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- comparisons & conversions ------------------------------------------

    def __eq__(self, other: object) -> bool:
        coerced = _coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return self.re == coerced.re and self.im == coerced.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"CNumber({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im.is_zero():
            return str(self.re)
        if self.re.is_zero():
            return f"({self.im})*i"
        return f"({self.re}) + ({self.im})*i"


def _coerce(value: object) -> "CNumber":
    if isinstance(value, CNumber):
        return value
    if isinstance(value, QSqrt2):
        return CNumber(value, QSqrt2.zero())
    if isinstance(value, (int, Fraction)):
        return CNumber(QSqrt2(value), QSqrt2.zero())
    return NotImplemented
