"""Tests for fingerprinting and the phase-factor candidate search."""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.ir.circuit import Circuit, Instruction
from repro.ir.params import Angle
from repro.semantics.fingerprint import FingerprintContext, fingerprint
from repro.semantics.phase import PhaseFactor, find_phase_candidates


class TestFingerprint:
    def test_equivalent_circuits_share_fingerprint(self):
        context = FingerprintContext(num_qubits=2, num_params=0)
        a = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        b = Circuit(2).cx(1, 0)
        assert context.fingerprint(a) == pytest.approx(context.fingerprint(b), abs=1e-9)
        assert context.hash_key(a) in context.keys_to_probe(b)

    def test_global_phase_does_not_change_fingerprint(self):
        context = FingerprintContext(num_qubits=1, num_params=0)
        a = Circuit(1).t(0).tdg(0)  # identity
        b = Circuit(1).z(0).z(0)  # identity (no phase)
        c = Circuit(1).s(0).s(0).z(0)  # identity up to a -1 phase
        assert context.fingerprint(a) == pytest.approx(context.fingerprint(b), abs=1e-9)
        assert context.fingerprint(a) == pytest.approx(context.fingerprint(c), abs=1e-9)

    def test_different_circuits_have_different_fingerprints(self):
        context = FingerprintContext(num_qubits=1, num_params=0)
        assert context.fingerprint(Circuit(1).x(0)) != pytest.approx(
            context.fingerprint(Circuit(1).h(0)), abs=1e-6
        )

    def test_parametric_fingerprints(self):
        context = FingerprintContext(num_qubits=1, num_params=2)
        a = Circuit(1, num_params=2).rz(0, Angle.param(0)).rz(0, Angle.param(1))
        b = Circuit(1, num_params=2).rz(0, Angle.param(0) + Angle.param(1))
        assert context.fingerprint(a) == pytest.approx(context.fingerprint(b), abs=1e-9)

    def test_wrong_qubit_count_rejected(self):
        context = FingerprintContext(num_qubits=2, num_params=0)
        with pytest.raises(ValueError):
            context.fingerprint(Circuit(3))

    def test_module_level_helper(self):
        assert fingerprint(Circuit(1).h(0)) >= 0.0

    def test_determinism_across_contexts_with_same_seed(self):
        a = FingerprintContext(2, 0, seed=42)
        b = FingerprintContext(2, 0, seed=42)
        circuit = Circuit(2).h(0).cx(0, 1)
        assert a.fingerprint(circuit) == b.fingerprint(circuit)


class TestIncrementalFingerprint:
    """The incremental (cached-parent-state) path must be *bit-identical* to
    the full-replay path: memoizing prefixes does not reorder any floating
    point operation, so hash keys and cached states agree exactly with a
    fresh context's ``hash_key(parent.appended(inst))``.  These are the
    property tests backing that claim."""

    def _random_instruction(self, rng, num_qubits):
        single = ["h", "x", "t", "tdg", "s", "sdg", "z"]
        if num_qubits >= 2 and rng.random() < 0.4:
            control, target = rng.sample(range(num_qubits), 2)
            return Instruction("cx", (control, target))
        return Instruction(rng.choice(single), (rng.randrange(num_qubits),))

    @staticmethod
    def _incremental_key(context, parent, inst):
        return context.hash_keys_batched([(parent, [inst])])[0][0]

    @staticmethod
    def _candidate_state(context, parent, inst):
        return context.cached_state(parent.sequence_key() + (inst.sort_key(),))

    @pytest.mark.parametrize("seed", range(12))
    def test_incremental_matches_full_replay_random_circuits(
        self, seed, random_circuit_factory
    ):
        rng = random.Random(seed)
        num_qubits = rng.choice([1, 2, 3])
        parent = random_circuit_factory(num_qubits, rng.randrange(0, 12), seed)
        inst = self._random_instruction(rng, num_qubits)

        incremental = FingerprintContext(num_qubits, 0)
        full = FingerprintContext(num_qubits, 0)
        candidate = parent.appended(inst)

        assert self._incremental_key(incremental, parent, inst) == full.hash_key(
            candidate
        )
        assert np.array_equal(
            self._candidate_state(incremental, parent, inst),
            full.evolved_state(candidate),
        )

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_incremental_chain_matches_full_replay(self, seed):
        """Grow a circuit one gate at a time through the incremental path and
        compare every intermediate hash key against a fresh full replay."""
        rng = random.Random(seed)
        num_qubits = 3
        incremental = FingerprintContext(num_qubits, 0)
        circuit = Circuit(num_qubits)
        for _ in range(15):
            inst = self._random_instruction(rng, num_qubits)
            key = self._incremental_key(incremental, circuit, inst)
            circuit = circuit.appended(inst)
            fresh = FingerprintContext(num_qubits, 0)
            assert key == fresh.hash_key(circuit)

    def test_parametric_incremental_matches_full_replay(self):
        context = FingerprintContext(1, 2)
        fresh = FingerprintContext(1, 2)
        parent = Circuit(1, num_params=2).rz(0, Angle.param(0))
        inst = Instruction("rz", (0,), [Angle.param(1)])
        candidate = parent.appended(inst)
        assert self._incremental_key(context, parent, inst) == fresh.hash_key(
            candidate
        )
        assert np.array_equal(
            self._candidate_state(context, parent, inst),
            fresh.evolved_state(candidate),
        )

    def test_state_cache_eviction_bound(self):
        context = FingerprintContext(1, 0, state_cache_size=4)
        for index in range(10):
            circuit = Circuit(1)
            for _ in range(index + 1):
                circuit.h(0)
            context.fingerprint(circuit)
        assert len(context._state_cache) <= 4

    def test_eviction_does_not_change_results(self):
        tiny = FingerprintContext(2, 0, state_cache_size=1)
        roomy = FingerprintContext(2, 0)
        parent = Circuit(2).h(0).cx(0, 1)
        inst = Instruction("t", (1,))
        assert self._incremental_key(tiny, parent, inst) == self._incremental_key(
            roomy, parent, inst
        )
        assert self._incremental_key(tiny, parent, inst) == FingerprintContext(
            2, 0
        ).hash_key(parent.appended(inst))

    def test_cross_check_runs_clean(self):
        from repro.perf import PerfRecorder

        perf = PerfRecorder()
        context = FingerprintContext(2, 0, cross_check_interval=1, perf=perf)
        parent = Circuit(2).h(0)
        # interval=1 cross-checks every incremental evaluation; any
        # divergence from full replay would raise RuntimeError.
        for gate in ("x", "z", "s"):
            self._incremental_key(context, parent, Instruction(gate, (1,)))
        assert perf.value("fingerprint.cross_checks") == 3


class TestPhaseFactor:
    def test_as_angle(self):
        phase = PhaseFactor((1, 0), Fraction(1, 4))
        angle = phase.as_angle()
        assert angle.pi_multiple == Fraction(1, 4)
        assert angle.coefficients == {0: 1}

    def test_is_constant(self):
        assert PhaseFactor((0, 0), Fraction(1, 2)).is_constant()
        assert not PhaseFactor((1, 0), Fraction(0)).is_constant()

    def test_evaluate(self):
        import math

        phase = PhaseFactor((2,), Fraction(1, 2))
        assert phase.evaluate([0.3]) == pytest.approx(0.6 + math.pi / 2)


class TestPhaseSearch:
    def test_identity_pair_has_zero_phase(self):
        context = FingerprintContext(2, 0)
        a = Circuit(2).h(0).h(0)
        b = Circuit(2)
        candidates = find_phase_candidates(a, b, context)
        assert any(c.is_constant() and c.constant_pi_multiple == 0 for c in candidates)

    def test_constant_phase_detected(self):
        # S S Z = identity with a global phase of pi (S^2 = Z, Z^2 = I...).
        context = FingerprintContext(1, 0)
        a = Circuit(1).s(0).s(0).z(0)
        b = Circuit(1)
        candidates = find_phase_candidates(a, b, context)
        assert candidates, "a constant phase candidate should be found"

    def test_t_gate_vs_identity_phase(self):
        # T applied to |1> only; vs rz(pi/4): differ by constant phase pi/8 —
        # which is NOT in the candidate space, so with linear search disabled
        # there should still be no *wrong* exact-pi/4 candidate verified here.
        context = FingerprintContext(1, 0)
        a = Circuit(1).t(0)
        b = Circuit(1).rz(0, Angle.pi(Fraction(1, 4)))
        candidates = find_phase_candidates(a, b, context)
        # The true phase is pi/8 which is outside the space; candidates may be
        # empty.  What matters is that no candidate claims phase 0.
        assert all(
            not (c.is_constant() and c.constant_pi_multiple == 0) for c in candidates
        )

    def test_inequivalent_circuits_rejected(self):
        context = FingerprintContext(1, 0)
        assert find_phase_candidates(Circuit(1).x(0), Circuit(1).z(0), context) == []

    def test_parameter_dependent_phase(self):
        # U1(2p) = e^{i p} Rz(2p): requires a linear phase with coefficient 1.
        context = FingerprintContext(1, 1)
        a = Circuit(1, num_params=1).u1(0, Angle.param(0, 2))
        b = Circuit(1, num_params=1).rz(0, Angle.param(0, 2))
        candidates = find_phase_candidates(a, b, context, search_linear=True)
        assert any(c.coefficients == (1,) and c.constant_pi_multiple == 0 for c in candidates)

    def test_zero_amplitude_fallback(self):
        # CX on |psi1> can give near-zero overlap for adversarial states; the
        # unitary-based fallback path must still find the identity phase.
        context = FingerprintContext(2, 0)
        a = Circuit(2).cx(0, 1).cx(0, 1)
        b = Circuit(2)
        candidates = find_phase_candidates(a, b, context)
        assert candidates
