"""Tests for exact angles and the parameter-expression specification Sigma."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.params import Angle, ParamSpec, angle_from_float


class TestAngle:
    def test_pi_constructor(self):
        assert Angle.pi(Fraction(1, 2)).to_float() == pytest.approx(math.pi / 2)

    def test_param_constructor(self):
        angle = Angle.param(1, 2)
        assert angle.to_float({1: 0.3}) == pytest.approx(0.6)

    def test_is_constant_and_symbolic(self):
        assert Angle.pi(1).is_constant()
        assert Angle.param(0).is_symbolic()
        assert not Angle.param(0).is_constant()

    def test_zero(self):
        assert Angle.zero().is_zero()
        assert not Angle.pi(1).is_zero()

    def test_addition_and_negation(self):
        total = Angle.pi(Fraction(1, 4)) + Angle.param(0)
        assert total.pi_multiple == Fraction(1, 4)
        assert (-total).coefficients[0] == -1

    def test_zero_coefficients_are_dropped(self):
        angle = Angle.param(0) - Angle.param(0)
        assert angle.is_constant()
        assert not angle.coefficients

    def test_scale(self):
        assert Angle.param(0).scale(Fraction(1, 2)).coefficients[0] == Fraction(1, 2)
        assert (2 * Angle.pi(1)).pi_multiple == 2

    def test_normalized_2pi(self):
        assert Angle.pi(Fraction(9, 4)).normalized_2pi().pi_multiple == Fraction(1, 4)
        assert Angle.pi(-2).normalized_2pi().pi_multiple == 0

    def test_substitute(self):
        expr = Angle.param(0, 2) + Angle.pi(Fraction(1, 2))
        result = expr.substitute({0: Angle.pi(Fraction(1, 4))})
        assert result.is_constant()
        assert result.pi_multiple == Fraction(1)

    def test_substitute_partial(self):
        expr = Angle.param(0) + Angle.param(1)
        result = expr.substitute({0: Angle.pi(1)})
        assert result.coefficients == {1: Fraction(1)}
        assert result.pi_multiple == 1

    def test_substitute_matches_term_by_term_sum(self):
        # Reference: add each substituted term as its own Angle, which drops
        # a cancelled coefficient and appends it again if a later term
        # brings it back; coefficient order is the order to_float sums in.
        def reference(angle, assignment):
            result = Angle(angle.pi_multiple)
            for index, coefficient in angle.coefficients.items():
                if index in assignment:
                    result = result + assignment[index].scale(coefficient)
                else:
                    result = result + Angle.param(index, coefficient)
            return result

        rng = random.Random(7)

        def rational():
            return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 4]))

        def angle():
            return Angle(rational(), {rng.randrange(4): rational() for _ in range(3)})

        for _ in range(2000):
            expr = angle()
            assignment = {i: angle() for i in range(4) if rng.random() < 0.6}
            result = expr.substitute(assignment)
            expected = reference(expr, assignment)
            assert result == expected
            assert list(result.coefficients.items()) == list(expected.coefficients.items())

    def test_equality_and_hash(self):
        assert Angle.pi(1) == Angle.pi(1)
        assert hash(Angle.param(0)) == hash(Angle.param(0))
        assert Angle.pi(1) != Angle.param(0)

    def test_str(self):
        assert str(Angle.zero()) == "0"
        assert "pi" in str(Angle.pi(1))
        assert "p0" in str(Angle.param(0))

    @settings(max_examples=30, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        st.floats(-3, 3, allow_nan=False),
    )
    def test_to_float_linear(self, a, b, value):
        angle = Angle(a, {0: b})
        expected = float(a) * math.pi + float(b) * value
        assert angle.to_float([value]) == pytest.approx(expected)


class TestAngleFromFloat:
    def test_snaps_pi_over_4(self):
        assert angle_from_float(math.pi / 4).pi_multiple == Fraction(1, 4)

    def test_snaps_negative(self):
        assert angle_from_float(-math.pi / 2).pi_multiple == Fraction(-1, 2)

    def test_rejects_irrational_fraction_of_pi(self):
        with pytest.raises(ValueError):
            angle_from_float(1.0)

    @pytest.mark.parametrize(
        "value", [float("inf"), float("-inf"), float("nan")]
    )
    def test_rejects_non_finite_values_with_value_error(self, value):
        # round() would otherwise raise OverflowError (inf) or a confusing
        # "cannot convert float NaN to integer" instead of ValueError.
        with pytest.raises(ValueError, match="finite"):
            angle_from_float(value)

    def test_denominator_64_grid_snaps_exactly_in_both_signs(self):
        for k in range(-128, 129):
            assert angle_from_float(k * math.pi / 64).pi_multiple == Fraction(k, 64)

    def test_near_miss_at_denominator_64_is_rejected(self):
        with pytest.raises(ValueError):
            angle_from_float(math.pi / 64 + 1e-5)


class TestParamSpec:
    def test_expression_count_for_two_params(self):
        # p0, p1, 2p0, 2p1, p0+p1 -> 5 expressions (matches the Nam setup).
        spec = ParamSpec(2)
        assert len(spec.expressions()) == 5

    def test_expression_count_for_four_params(self):
        # 4 + 4 + C(4,2) = 14 expressions (IBM setup).
        spec = ParamSpec(4)
        assert len(spec.expressions()) == 14

    def test_single_use_filtering(self):
        spec = ParamSpec(2)
        remaining = spec.expressions_avoiding({0})
        assert all(0 not in expr.params_used() for expr in remaining)
        assert len(remaining) == 2  # p1 and 2 p1

    def test_single_use_disabled(self):
        spec = ParamSpec(2, single_use=False)
        assert len(spec.expressions_avoiding({0})) == len(spec.expressions())

    def test_no_double_no_sum(self):
        spec = ParamSpec(3, allow_double=False, allow_sum=False)
        assert len(spec.expressions()) == 3

    def test_zero_params(self):
        assert ParamSpec(0).expressions() == []

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            ParamSpec(-1)
