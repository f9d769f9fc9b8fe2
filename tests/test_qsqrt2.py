"""Unit and property tests for the exact scalar ring Q[sqrt(2)]."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.qsqrt2 import QSqrt2

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=16
)
elements = st.builds(QSqrt2, rationals, rationals)


class TestBasics:
    def test_zero_and_one(self):
        assert QSqrt2.zero().is_zero()
        assert QSqrt2.one().is_one()
        assert not QSqrt2.one().is_zero()

    def test_float_value_of_sqrt2(self):
        assert math.isclose(float(QSqrt2.sqrt2()), math.sqrt(2.0))

    def test_half_sqrt2_is_inverse_of_sqrt2(self):
        assert QSqrt2.half_sqrt2() * QSqrt2.sqrt2() == QSqrt2.one()

    def test_equality_with_integers(self):
        assert QSqrt2(3) == 3
        assert QSqrt2(3, 1) != 3

    def test_from_rational(self):
        value = QSqrt2(Fraction(1, 3))
        assert value.a == Fraction(1, 3)
        assert value.b == 0

    def test_repr_and_str(self):
        assert "sqrt2" in str(QSqrt2(1, 2))
        assert repr(QSqrt2(1)) == "QSqrt2(1)"

    def test_hash_consistency(self):
        assert hash(QSqrt2(1, 2)) == hash(QSqrt2(1, 2))

    def test_pow(self):
        assert QSqrt2.sqrt2() ** 2 == QSqrt2(2)
        assert QSqrt2.sqrt2() ** -2 == QSqrt2(Fraction(1, 2))
        assert QSqrt2(3) ** 0 == QSqrt2.one()

    def test_division(self):
        assert QSqrt2(1) / QSqrt2.sqrt2() == QSqrt2.half_sqrt2()
        assert 2 / QSqrt2(2) == QSqrt2.one()

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QSqrt2.zero().inverse()

    def test_bool(self):
        assert not bool(QSqrt2.zero())
        assert bool(QSqrt2(0, 1))


class TestFieldProperties:
    @settings(max_examples=50, deadline=None)
    @given(elements, elements)
    def test_addition_commutes(self, x, y):
        assert x + y == y + x

    @settings(max_examples=50, deadline=None)
    @given(elements, elements)
    def test_multiplication_commutes(self, x, y):
        assert x * y == y * x

    @settings(max_examples=50, deadline=None)
    @given(elements, elements, elements)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=50, deadline=None)
    @given(elements)
    def test_additive_inverse(self, x):
        assert x + (-x) == QSqrt2.zero()

    @settings(max_examples=50, deadline=None)
    @given(elements)
    def test_multiplicative_inverse(self, x):
        if not x.is_zero():
            assert x * x.inverse() == QSqrt2.one()

    @settings(max_examples=50, deadline=None)
    @given(elements, elements)
    def test_float_homomorphism(self, x, y):
        assert math.isclose(float(x * y), float(x) * float(y), abs_tol=1e-6)
        assert math.isclose(float(x + y), float(x) + float(y), abs_tol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(elements, elements)
    def test_matches_fraction_reference(self, x, y):
        # The integer normal form must agree with plain Fraction arithmetic
        # on the (a, b) coordinates, and hash and float as that pair did.
        a1, b1, a2, b2 = x.a, x.b, y.a, y.b
        assert ((x + y).a, (x + y).b) == (a1 + a2, b1 + b2)
        assert ((x - y).a, (x - y).b) == (a1 - a2, b1 - b2)
        assert ((x * y).a, (x * y).b) == (a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2)
        if not y.is_zero():
            norm = a2 * a2 - 2 * b2 * b2
            assert (y.inverse().a, y.inverse().b) == (a2 / norm, -b2 / norm)
        assert x == QSqrt2(a1, b1)
        assert hash(x) == hash((a1, b1))
        assert float(x) == float(a1) + float(b1) * math.sqrt(2.0)

    @settings(max_examples=50, deadline=None)
    @given(elements)
    def test_subtraction_roundtrip(self, x):
        assert (x - x).is_zero()
        assert 0 - x == -x
