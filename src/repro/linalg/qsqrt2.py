"""The exact scalar ring Q[sqrt(2)].

Every scalar constant that appears in the gate sets used by the paper (Nam,
IBM, Rigetti and the Clifford+T input set) is of the form ``a + b*sqrt(2)``
with rational ``a`` and ``b``: the Hadamard gate and the fixed Rigetti
rotations contribute ``1/sqrt(2) = sqrt(2)/2`` and the T gate and the
pi/4-granular phase factors contribute ``cos(pi/4) = sin(pi/4) = sqrt(2)/2``.
Representing these exactly lets the verifier decide matrix identities without
any floating-point tolerance.

Q[sqrt(2)] is a field, so division is exact as well; the multiplicative
inverse of ``a + b*sqrt(2)`` is ``(a - b*sqrt(2)) / (a^2 - 2 b^2)``.

An element is stored as three integers ``(p, q, d)`` standing for
``(p + q*sqrt(2)) / d`` with ``d > 0`` and ``gcd(p, q, d) == 1``.  That
normal form is unique, so equality is an integer comparison, and a product
costs a few integer multiplications and at most one ``math.gcd`` — where
two :class:`fractions.Fraction` coefficients would normalize every partial
product on their own.  The verifier's symbolic matrices spend most of their
time in this arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

_gcd = math.gcd
_SQRT2 = math.sqrt(2.0)


class QSqrt2:
    """An element ``a + b*sqrt(2)`` of the field Q[sqrt(2)].

    Instances are immutable and hashable, so they can be used as dictionary
    values inside polynomial coefficient maps and compared structurally.
    ``a`` and ``b`` are exposed as :class:`~fractions.Fraction` views of the
    integer normal form ``(p, q, d)``.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        if type(a) is int and type(b) is int:
            self.p = a
            self.q = b
            self.d = 1
            return
        fa = a if type(a) is Fraction else Fraction(a)
        fb = b if type(b) is Fraction else Fraction(b)
        da = fa.denominator
        db = fb.denominator
        # Over the lcm of two reduced denominators, gcd(p, q, d) is 1.
        d = da if da == db else da * db // _gcd(da, db)
        self.p = fa.numerator * (d // da)
        self.q = fb.numerator * (d // db)
        self.d = d

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient of ``sqrt(2)``."""
        return Fraction(self.q, self.d)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "QSqrt2":
        return QSqrt2(0, 0)

    @staticmethod
    def one() -> "QSqrt2":
        return QSqrt2(1, 0)

    @staticmethod
    def sqrt2() -> "QSqrt2":
        return QSqrt2(0, 1)

    @staticmethod
    def half_sqrt2() -> "QSqrt2":
        """Return ``sqrt(2)/2``, i.e. ``1/sqrt(2)`` — ubiquitous in gates."""
        return QSqrt2(0, Fraction(1, 2))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def is_one(self) -> bool:
        return self.p == 1 and not self.q and self.d == 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "QSqrt2 | RationalLike") -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1 = self.d
        d2 = other.d
        if d1 == d2:
            return _normalized(self.p + other.p, self.q + other.q, d1)
        return _normalized(
            self.p * d2 + other.p * d1, self.q * d2 + other.q * d1, d1 * d2
        )

    __radd__ = __add__

    def __neg__(self) -> "QSqrt2":
        return _raw(-self.p, -self.q, self.d)

    def __sub__(self, other: "QSqrt2 | RationalLike") -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1 = self.d
        d2 = other.d
        if d1 == d2:
            return _normalized(self.p - other.p, self.q - other.q, d1)
        return _normalized(
            self.p * d2 - other.p * d1, self.q * d2 - other.q * d1, d1 * d2
        )

    def __rsub__(self, other: "QSqrt2 | RationalLike") -> "QSqrt2":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: "QSqrt2 | RationalLike") -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # (p1 + q1*s)(p2 + q2*s) = p1*p2 + 2*q1*q2 + (p1*q2 + q1*p2)*s
        # Most values flowing through the verifier are plain rationals
        # (q = 0), so skip the cross terms whenever a sqrt(2) part vanishes.
        p1 = self.p
        q1 = self.q
        p2 = other.p
        q2 = other.q
        d = self.d * other.d
        if not q1:
            if not q2:
                return _normalized(p1 * p2, 0, d)
            return _normalized(p1 * p2, p1 * q2, d)
        if not q2:
            return _normalized(p1 * p2, q1 * p2, d)
        return _normalized(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, d)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        """Return the multiplicative inverse.

        Raises:
            ZeroDivisionError: if the element is zero.
        """
        p = self.p
        q = self.q
        d = self.d
        # d / (p + q*s) = d * (p - q*s) / (p^2 - 2 q^2); the norm vanishes
        # only at zero because sqrt(2) is irrational.
        norm = p * p - 2 * q * q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q[sqrt(2)]")
        if norm < 0:
            return _normalized(-p * d, q * d, -norm)
        return _normalized(p * d, -q * d, norm)

    def __truediv__(self, other: "QSqrt2 | RationalLike") -> "QSqrt2":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: "QSqrt2 | RationalLike") -> "QSqrt2":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "QSqrt2":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QSqrt2.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- comparisons & conversions ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not QSqrt2:
            if isinstance(other, (int, Fraction)):
                other = QSqrt2(other)
            elif not isinstance(other, QSqrt2):
                return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __float__(self) -> float:
        # Integer true division rounds correctly, so this equals
        # float(self.a) + float(self.b) * sqrt(2) bit for bit.
        return self.p / self.d + self.q / self.d * _SQRT2

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if not self.q:
            return f"QSqrt2({self.a})"
        return f"QSqrt2({self.a}, {self.b})"

    def __str__(self) -> str:
        if not self.q:
            return str(self.a)
        if not self.p:
            return f"{self.b}*sqrt2"
        sign = "+" if self.q > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt2"


_new = object.__new__


def _raw(p: int, q: int, d: int) -> QSqrt2:
    """Wrap integers already in normal form."""
    out = _new(QSqrt2)
    out.p = p
    out.q = q
    out.d = d
    return out


def _normalized(p: int, q: int, d: int) -> QSqrt2:
    """Wrap ``(p + q*sqrt(2)) / d`` for ``d > 0``, dividing out the gcd."""
    if d != 1:
        g = _gcd(p, q, d)
        if g != 1:
            return _raw(p // g, q // g, d // g)
    return _raw(p, q, d)


def _coerce(value: object) -> "QSqrt2":
    if isinstance(value, QSqrt2):
        return value
    if isinstance(value, (int, Fraction)):
        return QSqrt2(value)
    return NotImplemented
