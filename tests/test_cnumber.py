"""Tests for exact complex numbers over Q[sqrt(2)]."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.cnumber import CNumber
from repro.linalg.qsqrt2 import QSqrt2

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
qsqrt2s = st.builds(QSqrt2, rationals, rationals)
cnumbers = st.builds(CNumber, qsqrt2s, qsqrt2s)


class TestConstruction:
    def test_constants(self):
        assert CNumber.zero().is_zero()
        assert CNumber.one().is_one()
        assert complex(CNumber.i()) == 1j

    def test_eighth_roots_of_unity(self):
        for k in range(8):
            value = CNumber.from_exp_i_pi_multiple(Fraction(k, 4))
            expected = cmath.exp(1j * math.pi * k / 4)
            assert cmath.isclose(complex(value), expected, abs_tol=1e-9)

    def test_exp_periodicity(self):
        assert CNumber.from_exp_i_pi_multiple(Fraction(9, 4)) == CNumber.from_exp_i_pi_multiple(
            Fraction(1, 4)
        )

    def test_unrepresentable_angle_raises(self):
        with pytest.raises(ValueError):
            CNumber.from_exp_i_pi_multiple(Fraction(1, 8))

    def test_cos_sin_pi_multiples(self):
        # cos and sin of a multiple of pi/4 are the parts of e^{i k pi/4}.
        assert CNumber.from_exp_i_pi_multiple(Fraction(1, 2)).re.is_zero()
        assert CNumber.from_exp_i_pi_multiple(Fraction(1, 2)).im == 1
        assert CNumber.from_exp_i_pi_multiple(Fraction(1)) == CNumber(-1)

    def test_str_and_repr(self):
        assert "i" in str(CNumber(0, 1))
        assert "CNumber" in repr(CNumber(1, 1))


class TestArithmetic:
    def test_i_squared(self):
        assert CNumber.i() * CNumber.i() == CNumber(-1)

    def test_conjugate(self):
        value = CNumber(QSqrt2(1, 1), QSqrt2(2))
        assert value.conjugate() == CNumber(QSqrt2(1, 1), QSqrt2(-2))

    def test_division(self):
        value = CNumber(3, 4)
        assert value / value == CNumber.one()

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            CNumber.zero().inverse()

    def test_pow(self):
        assert CNumber.i() ** 4 == CNumber.one()
        assert CNumber.from_exp_i_pi_multiple(Fraction(1, 4)) ** 8 == CNumber.one()

    def test_mixed_arithmetic_with_ints(self):
        assert CNumber(1, 1) + 1 == CNumber(2, 1)
        assert 2 * CNumber(1, 1) == CNumber(2, 2)

    @settings(max_examples=40, deadline=None)
    @given(cnumbers, cnumbers)
    def test_multiplication_matches_python_complex(self, x, y):
        assert cmath.isclose(
            complex(x * y), complex(x) * complex(y), abs_tol=1e-6
        )

    @settings(max_examples=40, deadline=None)
    @given(cnumbers, cnumbers)
    def test_addition_matches_python_complex(self, x, y):
        assert cmath.isclose(
            complex(x + y), complex(x) + complex(y), abs_tol=1e-6
        )

    @settings(max_examples=40, deadline=None)
    @given(cnumbers)
    def test_conjugate_involution(self, x):
        assert x.conjugate().conjugate() == x

    @settings(max_examples=40, deadline=None)
    @given(cnumbers)
    def test_modulus_squared_is_real(self, x):
        norm = x * x.conjugate()
        assert norm.im.is_zero()
