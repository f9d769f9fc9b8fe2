"""Tests for trig polynomials: ring laws, the exponential basis, evaluation."""

import cmath
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.params import Angle
from repro.linalg.cnumber import CNumber
from repro.linalg.trigpoly import TrigPoly, exp_i_multiple
from repro.verifier.trig import AtomTrigBuilder, SymbolicContext

# Atom k is p_k itself, so ``sin(n * p_k)`` is ``sin(n * atom_k)``.
BUILDER = AtomTrigBuilder(SymbolicContext(4, [1, 1, 1, 1]))


def sin_of(n, atom=0):
    return BUILDER.sin(Angle.param(atom, n))


def cos_of(n, atom=0):
    return BUILDER.cos(Angle.param(atom, n))


def sin0():
    return sin_of(1)


def cos0():
    return cos_of(1)


class TestNormalForm:
    def test_pythagorean_identity_is_one(self):
        assert sin0() * sin0() + cos0() * cos0() == TrigPoly.one()

    def test_sin_squared_reduces(self):
        # sin^2 t = (2 - z^2 - z^-2) / 4: three terms, each monomial a sorted
        # tuple of (atom, nonzero integer exponent) pairs.
        poly = sin0() * sin0()
        quarter = CNumber(Fraction(1, 4))
        assert poly.terms == {
            ((0, -2),): -quarter,
            (): CNumber(Fraction(1, 2)),
            ((0, 2),): -quarter,
        }
        for monomial in poly.terms:
            assert list(monomial) == sorted(monomial)
            for _atom, exponent in monomial:
                assert isinstance(exponent, int) and exponent != 0

    def test_sin_fourth_reduces(self):
        poly = sin0() ** 4
        expected = (TrigPoly.one() - cos0() * cos0()) ** 2
        assert poly == expected

    def test_zero_and_constant(self):
        assert TrigPoly.zero().is_zero()
        assert TrigPoly.constant(5).terms == {(): CNumber(5)}
        assert TrigPoly.constant(0).is_zero()
        assert TrigPoly.one().is_constant()
        assert not sin0().is_constant()

    def test_atoms(self):
        poly = sin0() * cos_of(1, atom=3)
        found = {atom for monomial in poly.terms for atom, _exp in monomial}
        assert found == {0, 3}
        # Exponents add per atom and a zero exponent drops out.
        assert exp_i_multiple(2, 3) * exp_i_multiple(1, 0) * exp_i_multiple(-2, 3) == (
            exp_i_multiple(1, 0)
        )

    def test_equality_independent_of_construction_order(self):
        a = sin0() + cos0()
        b = cos0() + sin0()
        assert a == b
        assert hash(a) == hash(b)

    def test_str_contains_variables(self):
        assert str(exp_i_multiple(1, 0)) == "(1)*z0"
        assert "z0^-1" in str(cos0())
        assert "z2^3" in str(exp_i_multiple(3, 2))
        assert str(TrigPoly.zero()) == "0"


class TestRingLaws:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    def test_distributivity_on_small_combinations(self, a, b, c):
        x = TrigPoly.constant(a) + sin0().__mul__(b)
        y = TrigPoly.constant(c) + cos0()
        z = sin0() * cos0()
        assert x * (y + z) == x * y + x * z

    def test_multiplication_commutes(self):
        x = sin0() + cos_of(1, atom=1)
        y = cos0() * sin_of(1, atom=1) + TrigPoly.constant(2)
        assert x * y == y * x

    def test_pow_matches_repeated_multiplication(self):
        x = sin0() + cos0()
        assert x ** 3 == x * x * x


class TestMultipleAngles:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(-5, 5), st.floats(-3.0, 3.0, allow_nan=False))
    def test_sin_of_multiple_matches_numeric(self, n, angle):
        value = sin_of(n).evaluate({0: angle})
        assert cmath.isclose(value, math.sin(n * angle), abs_tol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-5, 5), st.floats(-3.0, 3.0, allow_nan=False))
    def test_cos_of_multiple_matches_numeric(self, n, angle):
        value = cos_of(n).evaluate({0: angle})
        assert cmath.isclose(value, math.cos(n * angle), abs_tol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-4, 4), st.floats(-3.0, 3.0, allow_nan=False))
    def test_exp_of_multiple_matches_numeric(self, n, angle):
        poly = exp_i_multiple(n, 0)
        value = poly.evaluate({0: angle})
        assert cmath.isclose(value, cmath.exp(1j * n * angle), abs_tol=1e-9)

    @given(st.integers(-50, 50).filter(bool), st.integers(0, 3))
    def test_exp_of_multiple_is_one_term(self, n, atom):
        assert exp_i_multiple(n, atom).terms == {((atom, n),): CNumber.one()}
        assert exp_i_multiple(0, atom) == TrigPoly.one()

    def test_cos_and_sin_are_two_terms(self):
        for n in (1, -2, 3):
            assert len(cos_of(n).terms) == 2
            assert len(sin_of(n).terms) == 2

    def test_double_angle_identity(self):
        # sin(2t) = 2 sin t cos t
        assert sin_of(2) == TrigPoly.constant(2) * sin0() * cos0()

    def test_exp_multiples_add(self):
        # e^{i 2t} * e^{i 3t} = e^{i 5t}
        assert exp_i_multiple(2, 0) * exp_i_multiple(3, 0) == exp_i_multiple(5, 0)

    def test_exp_inverse(self):
        assert exp_i_multiple(3, 0) * exp_i_multiple(-3, 0) == TrigPoly.one()


class TestEvaluation:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(-3.0, 3.0, allow_nan=False), st.floats(-3.0, 3.0, allow_nan=False))
    def test_evaluation_is_ring_homomorphism(self, a, b):
        x = sin0() * cos_of(1, atom=1) + TrigPoly.i()
        y = sin_of(1, atom=1) - cos0()
        values = {0: a, 1: b}
        assert cmath.isclose(
            (x * y).evaluate(values), x.evaluate(values) * y.evaluate(values), abs_tol=1e-9
        )
        assert cmath.isclose(
            (x + y).evaluate(values), x.evaluate(values) + y.evaluate(values), abs_tol=1e-9
        )
