"""Kernel parity, context sharing and the output screen of the simulator.

The numpy kernels of :mod:`repro.semantics.simulator` are checked against
the bit-loop kernels of ``reference_kernels``, which reach the same
amplitudes through different floating-point operations: swapping one for
the other may move floats by ulps but never changes *which circuits are
judged equivalent*.  The facade's batched output screen must likewise give
the verdicts of the per-trial screen.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np
import pytest

from repro.benchmarks_suite import benchmark_circuit
from repro.generator import RepGen
from repro.ir.circuit import Circuit, Instruction
from repro.ir.gatesets import NAM
from repro.preprocess import preprocess
from repro.semantics.simulator import (
    apply_circuit,
    apply_circuit_batch,
    apply_gate,
    circuit_unitary,
    circuits_equivalent_statevector,
    circuits_equivalent_statevector_batched,
    equivalence_trial_inputs,
    instruction_unitary,
    random_state,
    unitaries_equal_up_to_phase,
)
from repro.verifier import EquivalenceVerifier

from reference_kernels import apply_gate_reference

#: Small benchmark circuits whose full unitaries stay cheap to form.
PARITY_BENCHMARKS = ["tof_3", "barenco_tof_3", "mod5_4"]


def _reference_apply_circuit(circuit, state, param_values=()):
    """``apply_circuit`` replayed through the bit-loop kernel."""
    current = np.array(state, dtype=complex)
    for inst in circuit.instructions:
        current = apply_gate_reference(
            current,
            instruction_unitary(inst, param_values),
            inst.qubits,
            circuit.num_qubits,
        )
    return current


def _reference_unitary(circuit):
    """The full unitary, one basis column at a time through the bit loop."""
    basis = np.eye(1 << circuit.num_qubits, dtype=complex)
    return np.stack(
        [_reference_apply_circuit(circuit, column) for column in basis], axis=1
    )


class TestKernelParity:
    """The kernel must agree with numpy on every gate shape (1q/2q/3q)."""

    @pytest.mark.parametrize(
        "gate,qubits,num_qubits",
        [
            ("h", (0,), 1),
            ("h", (2,), 4),
            ("x", (1,), 3),
            ("cx", (0, 1), 2),
            ("cx", (3, 1), 4),
            ("cz", (1, 0), 3),
            ("ccx", (0, 3, 2), 4),
            ("ccx", (4, 0, 2), 5),
        ],
    )
    def test_matches_numpy_on_random_states(self, gate, qubits, num_qubits):
        rng = np.random.default_rng(11)
        matrix = instruction_unitary(Instruction(gate, qubits))
        state = random_state(num_qubits, rng)
        expected = apply_gate(state, matrix, qubits, num_qubits)
        actual = apply_gate_reference(state, matrix, qubits, num_qubits)
        np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_circuit_level_parity_with_the_reference_kernel(self):
        circuit = (
            Circuit(3).h(0).cx(0, 1).t(1).ccx(0, 1, 2).rz(2, Fraction(1, 4))
        )
        rng = np.random.default_rng(5)
        state = random_state(3, rng)
        np.testing.assert_allclose(
            _reference_apply_circuit(circuit, state),
            apply_circuit(circuit, state),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            _reference_unitary(circuit), circuit_unitary(circuit), atol=1e-12
        )


def _parity_verdicts(unitary):
    """Equivalence verdicts over benchmark pairs, with ``unitary`` as semantics."""
    verdicts = []
    for name in PARITY_BENCHMARKS:
        circuit = benchmark_circuit(name)
        preprocessed = preprocess(circuit, "nam")
        # Equivalent pair: the preprocessor preserves semantics up to phase.
        left = unitary(circuit)
        verdicts.append(unitaries_equal_up_to_phase(left, unitary(preprocessed)))
        # Non-equivalent pair: append one extra gate.
        tampered = preprocessed.copy().x(0)
        verdicts.append(unitaries_equal_up_to_phase(left, unitary(tampered)))
    return verdicts


class TestBenchmarkVerdictParity:
    def test_reference_kernel_verdicts_match_numpy(self):
        numpy_verdicts = _parity_verdicts(circuit_unitary)
        assert numpy_verdicts == _parity_verdicts(_reference_unitary)
        # Sanity: the pairs really alternate equivalent / not equivalent.
        assert numpy_verdicts == [True, False] * len(PARITY_BENCHMARKS)


class TestVerifierContextSharing:
    def test_verifier_proves_the_cnot_flip(self):
        verifier = EquivalenceVerifier(num_params=0)
        flipped = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        target = Circuit(2).cx(1, 0)
        assert verifier.verify(flipped, target).equivalent

    def test_repgen_shares_context_only_on_matching_seed(self):
        generator = RepGen(NAM, num_qubits=2, num_params=2)
        # The default verifier inherits the generator's seed, so the
        # evolved-state cache is shared (same object).
        assert generator.verifier.seed == generator.seed
        assert (
            generator.verifier._fingerprint_contexts.get(2)
            is generator.fingerprints
        )
        # A verifier with other random inputs keeps its own contexts.
        foreign = EquivalenceVerifier(num_params=2, seed=999)
        generator2 = RepGen(NAM, num_qubits=2, num_params=2, verifier=foreign)
        assert foreign._fingerprint_contexts.get(2) is not generator2.fingerprints

    @pytest.mark.parametrize("seed", [1, 12345])
    def test_repgen_shares_context_at_a_non_default_seed(self, seed):
        generator = RepGen(NAM, 3, seed=seed)
        assert generator.verifier.seed == seed
        assert (
            generator.verifier._fingerprint_contexts.get(3)
            is generator.fingerprints
        )

    def test_phase_screen_reuses_generation_states_at_a_non_default_seed(
        self, monkeypatch
    ):
        # With the context shared, every full replay is a state-cache miss
        # or a sampled cross-check of the one context; a verifier on other
        # random inputs would replay each circuit it screens.
        replays = []
        module = sys.modules["repro.semantics.fingerprint"]
        replay = module.apply_circuit

        def counting(*args, **kwargs):
            replays.append(1)
            return replay(*args, **kwargs)

        monkeypatch.setattr(module, "apply_circuit", counting)
        perf = RepGen(NAM, 2, seed=12345).generate(3).stats.perf
        assert perf["verifier.matrix_cache.misses"] > 0  # the screen ran
        assert len(replays) == perf["fingerprint.state_cache.misses"] + perf.get(
            "fingerprint.cross_checks", 0
        )
        assert len(replays) <= 5

    def test_repgen_keeps_a_verifier_with_other_num_params_apart(self):
        foreign = EquivalenceVerifier(num_params=1)
        generator = RepGen(NAM, num_qubits=2, num_params=2, verifier=foreign)
        assert foreign._fingerprint_contexts.get(2) is not generator.fingerprints


class TestBatchedVerdictIdentity:
    """The batched verifier path must agree with the per-trial one.

    ``circuits_equivalent_statevector_batched`` is the facade's output
    screen: same trial draws (``equivalence_trial_inputs``), same
    tolerance, one ``apply_circuit_batch`` instead of per-trial calls — so
    its *verdict* must be indistinguishable from the scalar path.
    """

    def _pairs(self):
        for name in PARITY_BENCHMARKS:
            circuit = benchmark_circuit(name)
            preprocessed = preprocess(circuit, "nam")
            yield circuit, preprocessed  # equivalent
            yield circuit, preprocessed.copy().x(0)  # not equivalent

    def test_batched_matches_per_trial_verdicts(self):
        for circuit_a, circuit_b in self._pairs():
            scalar = circuits_equivalent_statevector(circuit_a, circuit_b)
            batched = circuits_equivalent_statevector_batched(circuit_a, circuit_b)
            assert batched == scalar

    def test_qubit_count_mismatch_is_not_equivalent(self):
        assert not circuits_equivalent_statevector_batched(
            Circuit(1).h(0), Circuit(2).h(0)
        )

    def test_shared_draws_come_from_one_seeded_stream(self):
        params_a, states_a = equivalence_trial_inputs(3, 2, num_trials=2, seed=7)
        params_b, states_b = equivalence_trial_inputs(3, 2, num_trials=2, seed=7)
        assert params_a == params_b
        np.testing.assert_array_equal(states_a, states_b)
        assert states_a.shape == (2, 8)
        # A different seed draws different trials.
        _, states_c = equivalence_trial_inputs(3, 2, num_trials=2, seed=8)
        assert not np.array_equal(states_a, states_c)

    def test_circuit_batch_rows_are_per_state_replays(self):
        circuit = benchmark_circuit("tof_3")
        params, states = equivalence_trial_inputs(
            circuit.num_qubits, 1, num_trials=3, seed=11
        )
        images = apply_circuit_batch(circuit, states, params)
        for state, image in zip(states, images):
            assert np.array_equal(image, apply_circuit(circuit, state, params))
        with pytest.raises(ValueError, match="stacked"):
            apply_circuit_batch(circuit, states[0], params)
