"""Tests for the symbolic equivalence verifier on known (non-)identities."""

import cmath
from fractions import Fraction

import pytest

from repro.ir.circuit import Circuit
from repro.ir.params import Angle
from repro.verifier import EquivalenceVerifier, VerifierStats
from repro.verifier.trig import AtomTrigBuilder, SymbolicContext, UnrepresentableAngleError


@pytest.fixture(scope="module")
def verifier0():
    return EquivalenceVerifier(num_params=0)


@pytest.fixture(scope="module")
def verifier2():
    return EquivalenceVerifier(num_params=2)


class TestFixedGateIdentities:
    def test_hh_is_identity(self, verifier0):
        assert verifier0.verify(Circuit(1).h(0).h(0), Circuit(1)).equivalent

    def test_ss_is_z(self, verifier0):
        assert verifier0.verify(Circuit(1).s(0).s(0), Circuit(1).z(0)).equivalent

    def test_tt_is_s(self, verifier0):
        assert verifier0.verify(Circuit(1).t(0).t(0), Circuit(1).s(0)).equivalent

    def test_hxh_is_z(self, verifier0):
        assert verifier0.verify(
            Circuit(1).h(0).x(0).h(0), Circuit(1).z(0)
        ).equivalent

    def test_hzh_is_x(self, verifier0):
        assert verifier0.verify(
            Circuit(1).h(0).z(0).h(0), Circuit(1).x(0)
        ).equivalent

    def test_cnot_flip_with_hadamards(self, verifier0):
        flipped = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        assert verifier0.verify(flipped, Circuit(2).cx(1, 0)).equivalent

    def test_cz_symmetric(self, verifier0):
        assert verifier0.verify(Circuit(2).cz(0, 1), Circuit(2).cz(1, 0)).equivalent

    def test_cz_from_cnot_and_hadamards(self, verifier0):
        built = Circuit(2).h(1).cx(0, 1).h(1)
        assert verifier0.verify(built, Circuit(2).cz(0, 1)).equivalent

    def test_swap_from_three_cnots(self, verifier0):
        built = Circuit(2).cx(0, 1).cx(1, 0).cx(0, 1)
        assert verifier0.verify(built, Circuit(2).swap(0, 1)).equivalent

    def test_global_phase_identity(self, verifier0):
        # S S Z = e^{i pi} I: equivalent up to phase.
        result = verifier0.verify(Circuit(1).s(0).s(0).z(0), Circuit(1))
        assert result.equivalent
        assert result.phase is not None

    def test_x_is_not_z(self, verifier0):
        assert not verifier0.verify(Circuit(1).x(0), Circuit(1).z(0)).equivalent

    def test_xx_on_different_qubits_not_identity(self, verifier0):
        assert not verifier0.verify(
            Circuit(2).x(0).x(1), Circuit(2)
        ).equivalent

    def test_different_qubit_counts(self, verifier0):
        assert not verifier0.verify(Circuit(1), Circuit(2)).equivalent


class TestParametricIdentities:
    def test_rz_merging(self, verifier2):
        split = Circuit(1, num_params=2).rz(0, Angle.param(0)).rz(0, Angle.param(1))
        merged = Circuit(1, num_params=2).rz(0, Angle.param(0) + Angle.param(1))
        assert verifier2.verify(split, merged).equivalent

    def test_rz_commutes_with_cnot_control(self, verifier2):
        left = Circuit(2, num_params=1).rz(0, Angle.param(0)).cx(0, 1)
        right = Circuit(2, num_params=1).cx(0, 1).rz(0, Angle.param(0))
        assert verifier2.verify(left, right).equivalent

    def test_rz_does_not_commute_with_cnot_target(self, verifier2):
        left = Circuit(2, num_params=1).rz(1, Angle.param(0)).cx(0, 1)
        right = Circuit(2, num_params=1).cx(0, 1).rz(1, Angle.param(0))
        assert not verifier2.verify(left, right).equivalent

    def test_figure_2c_rz_fusion_across_cz_and_x(self):
        """The transformation of Figure 2c: Rz(phi) CZ X Rz(theta) ... fuses
        into Rz(theta - phi) after commuting through X."""
        verifier = EquivalenceVerifier(num_params=2)
        left = (
            Circuit(2, num_params=2)
            .rz(1, Angle.param(0))  # Rz(phi) on q1
            .cz(0, 1)
            .x(1)
            .rz(1, Angle.param(1))  # Rz(theta) on q1
        )
        right = (
            Circuit(2, num_params=2)
            .cz(0, 1)
            .x(1)
            .rz(1, Angle.param(1) - Angle.param(0))  # Rz(theta - phi)
        )
        assert verifier.verify(left, right).equivalent

    def test_u1_vs_rz_requires_parameter_dependent_phase(self):
        verifier = EquivalenceVerifier(num_params=1, search_linear_phase=True)
        u1 = Circuit(1, num_params=1).u1(0, Angle.param(0, 2))
        rz = Circuit(1, num_params=1).rz(0, Angle.param(0, 2))
        result = verifier.verify(u1, rz)
        assert result.equivalent
        assert result.phase is not None and not result.phase.is_constant()

    def test_u3_decomposition_with_parameter_dependent_phase(self):
        # U3(2a, 2b, 2c) = e^{i(b + c)} . Rz(2b) . Ry(2a) . Rz(2c)
        verifier = EquivalenceVerifier(num_params=3, search_linear_phase=True)
        u3 = Circuit(1, num_params=3).u3(
            0, Angle.param(0, 2), Angle.param(1, 2), Angle.param(2, 2)
        )
        decomposed = (
            Circuit(1, num_params=3)
            .rz(0, Angle.param(2, 2))
            .ry(0, Angle.param(0, 2))
            .rz(0, Angle.param(1, 2))
        )
        result = verifier.verify(u3, decomposed)
        assert result.equivalent
        assert result.phase is not None and result.phase.coefficients == (0, 1, 1)

    def test_rz_double_angle_not_single(self, verifier2):
        a = Circuit(1, num_params=2).rz(0, Angle.param(0, 2))
        b = Circuit(1, num_params=2).rz(0, Angle.param(0))
        assert not verifier2.verify(a, b).equivalent

    def test_stats_are_recorded(self):
        verifier = EquivalenceVerifier(num_params=0)
        verifier.verify(Circuit(1).h(0).h(0), Circuit(1))
        verifier.verify(Circuit(1).x(0), Circuit(1).z(0))
        assert verifier.stats.checks == 2
        assert verifier.stats.time_seconds > 0
        assert verifier.stats.symbolic_proofs >= 1
        assert verifier.stats.as_dict()["checks"] == 2


class TestNumericFallback:
    def test_concrete_pi_over_4_rotations_use_fallback(self):
        # rz(pi/4) twice vs rz(pi/2): exact path needs cos(pi/8) which is not
        # in Q[sqrt(2)], so the verifier falls back to the numeric check.
        verifier = EquivalenceVerifier(num_params=0)
        a = Circuit(1).rz(0, Angle.pi(Fraction(1, 4))).rz(0, Angle.pi(Fraction(1, 4)))
        b = Circuit(1).rz(0, Angle.pi(Fraction(1, 2)))
        result = verifier.verify(a, b)
        assert result.equivalent
        assert result.method == "numeric"

    def test_fallback_success_reports_no_phase(self):
        # The randomized check establishes equivalence up to *some* phase;
        # it never validates a specific candidate, so the result must not
        # fabricate provenance by reporting one.
        verifier = EquivalenceVerifier(num_params=0)
        a = Circuit(1).rz(0, Angle.pi(Fraction(1, 4))).rz(0, Angle.pi(Fraction(1, 4)))
        b = Circuit(1).rz(0, Angle.pi(Fraction(1, 2)))
        result = verifier.verify(a, b)
        assert result.equivalent and result.method == "numeric"
        assert result.phase is None

    def test_fallback_rejection_branch(self):
        # Drive the fallback directly with a non-equivalent pair: a numeric
        # mismatch must reject without a phase.
        verifier = EquivalenceVerifier(num_params=0)
        result = verifier._numeric_fallback(
            Circuit(1).x(0), Circuit(1).z(0), "injected"
        )
        assert not result.equivalent
        assert result.method == "numeric"
        assert result.phase is None

    def test_fallback_acceptance_branch_reports_no_phase(self):
        verifier = EquivalenceVerifier(num_params=0)
        result = verifier._numeric_fallback(
            Circuit(1).h(0).h(0), Circuit(1), "injected"
        )
        assert result.equivalent
        assert result.method == "numeric"
        assert result.phase is None

    def test_rz_vs_t_differ_by_unrepresentable_phase(self):
        # rz(pi/4) = e^{-i pi/8} T: the phase pi/8 is outside the candidate
        # space {k pi/4}, so the pair is (correctly) not proven equivalent.
        verifier = EquivalenceVerifier(num_params=0)
        a = Circuit(1).rz(0, Angle.pi(Fraction(1, 4)))
        b = Circuit(1).t(0)
        assert not verifier.verify(a, b).equivalent

    def test_fallback_can_be_disabled(self):
        verifier = EquivalenceVerifier(num_params=0, allow_numeric_fallback=False)
        a = Circuit(1).rz(0, Angle.pi(Fraction(1, 4))).rz(0, Angle.pi(Fraction(1, 4)))
        b = Circuit(1).rz(0, Angle.pi(Fraction(1, 2)))
        with pytest.raises(UnrepresentableAngleError):
            verifier.verify(a, b)


class TestMatrixCacheEviction:
    def test_single_long_circuit_respects_cache_limit(self):
        # One verify call on a long circuit inserts one entry per uncached
        # prefix; the bound must hold at insert granularity, not once per
        # call (which used to let a single call overshoot unboundedly).
        verifier = EquivalenceVerifier(num_params=0)
        verifier.MATRIX_CACHE_LIMIT = 8  # instance override for the test
        long_a = Circuit(1)
        long_b = Circuit(1)
        for _ in range(20):
            long_a.h(0).t(0)
            long_b.t(0).h(0)
        verifier.verify(long_a, long_b)
        assert len(verifier._matrix_cache) <= 8

    def test_eviction_does_not_change_verdicts(self):
        verifier = EquivalenceVerifier(num_params=0)
        verifier.MATRIX_CACHE_LIMIT = 4
        circuit = Circuit(1)
        for _ in range(12):
            circuit.h(0).h(0)  # 24 gates, equal to identity
        assert verifier.verify(circuit, Circuit(1)).equivalent
        assert len(verifier._matrix_cache) <= 4
        # A second pass (now with most prefixes evicted) must agree.
        assert verifier.verify(circuit, Circuit(1)).equivalent
        assert not verifier.verify(Circuit(1).x(0), Circuit(1)).equivalent

    def test_eviction_counter_recorded(self):
        from repro.perf import PerfRecorder

        perf = PerfRecorder()
        verifier = EquivalenceVerifier(num_params=0, perf=perf)
        verifier.MATRIX_CACHE_LIMIT = 4
        circuit = Circuit(1)
        for _ in range(10):
            circuit.h(0).h(0)
        verifier.verify(circuit, Circuit(1))
        assert perf.value("verifier.matrix_cache.evictions") > 0


class TestVerifierStatsMerge:
    def test_as_dict_counter_types_round_trip(self):
        stats = VerifierStats(checks=5, symbolic_proofs=3, time_seconds=1.5)
        data = stats.as_dict()
        for name in VerifierStats.COUNTER_FIELDS:
            assert isinstance(data[name], int), name
        assert isinstance(data["time_seconds"], float)
        assert VerifierStats.from_dict(data) == stats

    def test_from_dict_tolerates_float_counters(self):
        # Old snapshots (and JSON round-trips through float-typed columns)
        # may carry counters as floats; from_dict normalizes them.
        stats = VerifierStats.from_dict(
            {"checks": 2.0, "symbolic_proofs": 1.0, "time_seconds": 0.5}
        )
        assert stats.checks == 2 and isinstance(stats.checks, int)


class TestSymbolicContext:
    def test_denominator_inference(self):
        circuit = Circuit(1, num_params=2).rz(0, Angle.param(0, Fraction(1, 2)))
        context = SymbolicContext.for_circuits([circuit], 2)
        assert context.denominators[0] == 4  # 1/2 coefficient, doubled for halving
        assert context.denominators[1] == 2

    def test_unrepresentable_coefficient(self):
        context = SymbolicContext(1, [2])
        builder = AtomTrigBuilder(context)
        with pytest.raises(UnrepresentableAngleError):
            builder.exp_i(Angle.param(0, Fraction(1, 3)))

    def test_too_many_params_rejected(self):
        circuit = Circuit(1, num_params=1).rz(0, Angle.param(5))
        with pytest.raises(ValueError):
            SymbolicContext.for_circuits([circuit], 1)

    def test_atom_values(self):
        # Atom k is p_k / denominators[k]: e^{i p_1} is z_1^4 when the
        # denominator of p_1 is 4, so it evaluates at atom value p_1 / 4.
        context = SymbolicContext(2, [2, 4])
        poly = AtomTrigBuilder(context).exp_i(Angle.param(1))
        assert cmath.isclose(poly.evaluate({1: 2.0 / 4}), cmath.exp(2.0j), abs_tol=1e-12)
