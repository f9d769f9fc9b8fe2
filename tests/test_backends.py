"""Tests for the pluggable simulator-backend registry.

The parity property the registry must preserve: swapping the backend may
change *how fast* states evolve but never *which circuits are judged
equivalent*.  A fake backend built on the bit-loop kernel of
``reference_kernels`` (:func:`apply_gate_reference`) stands in for a
second implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmarks_suite import benchmark_circuit
from repro.ir.circuit import Circuit, Instruction
from repro.ir.params import Angle
from repro.preprocess import preprocess
from repro.semantics.backend import (
    BackendUnavailableError,
    NumpyBackend,
    SimulatorBackend,
    available_backends,
    backend_available,
    get_backend,
    register_backend,
    registered_backends,
)
from repro.semantics.fingerprint import FingerprintContext
from repro.semantics.simulator import (
    circuit_unitary,
    instruction_unitary,
    random_state,
    unitaries_equal_up_to_phase,
)

from reference_kernels import apply_gate_reference

#: Small benchmark circuits whose full unitaries stay cheap to form.
PARITY_BENCHMARKS = ["tof_3", "barenco_tof_3", "mod5_4"]


class KernelReferenceBackend(SimulatorBackend):
    """A second backend: the bit-loop kernel instead of numpy's reshape."""

    name = "kernel-reference"

    def apply_gate(self, state, matrix, qubits, num_qubits):
        return apply_gate_reference(state, matrix, qubits, num_qubits)


class TestRegistry:
    def test_numpy_is_the_default_and_always_available(self):
        assert get_backend().name == "numpy"
        assert get_backend("numpy") is get_backend("NumPy")
        assert "numpy" in available_backends()
        assert backend_available("numpy")

    def test_backend_with_missing_dependency_is_registered_not_available(self):
        def missing_dependency():
            raise BackendUnavailableError("needs the 'fake' package")

        register_backend("test-unavailable", missing_dependency)
        try:
            assert "test-unavailable" in registered_backends()
            assert "test-unavailable" not in available_backends()
            assert not backend_available("test-unavailable")
            with pytest.raises(BackendUnavailableError, match="fake"):
                get_backend("test-unavailable")
        finally:
            from repro.semantics import backend as backend_module

            backend_module._FACTORIES.pop("test-unavailable")

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(KeyError, match="numpy"):
            get_backend("tpu")

    def test_instance_passthrough(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_registration_conflicts_and_replacement(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)
        register_backend("test-backend", KernelReferenceBackend)
        try:
            assert get_backend("test-backend").name == "kernel-reference"
        finally:
            from repro.semantics import backend as backend_module

            backend_module._FACTORIES.pop("test-backend")
            backend_module._INSTANCES.pop("test-backend", None)


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
        expected = get_backend("numpy").apply_gate(state, matrix, qubits, num_qubits)
        actual = apply_gate_reference(state, matrix, qubits, num_qubits)
        np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_circuit_level_parity_on_generic_backend(self):
        from fractions import Fraction

        backend = KernelReferenceBackend()
        circuit = (
            Circuit(3).h(0).cx(0, 1).t(1).ccx(0, 1, 2).rz(2, Fraction(1, 4))
        )
        rng = np.random.default_rng(5)
        state = random_state(3, rng)
        np.testing.assert_allclose(
            backend.apply_circuit(circuit, state),
            get_backend("numpy").apply_circuit(circuit, state),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            backend.circuit_unitary(circuit),
            circuit_unitary(circuit),
            atol=1e-12,
        )


def _parity_verdicts(backend: SimulatorBackend):
    """Equivalence verdicts over benchmark pairs, computed on ``backend``."""
    verdicts = []
    for name in PARITY_BENCHMARKS:
        circuit = benchmark_circuit(name)
        preprocessed = preprocess(circuit, "nam")
        # Equivalent pair: the preprocessor preserves semantics up to phase.
        left = backend.circuit_unitary(circuit)
        right = backend.circuit_unitary(preprocessed)
        verdicts.append(unitaries_equal_up_to_phase(left, right))
        # Non-equivalent pair: append one extra gate.
        tampered = preprocessed.copy().x(0)
        verdicts.append(
            unitaries_equal_up_to_phase(left, backend.circuit_unitary(tampered))
        )
    return verdicts


class TestBenchmarkVerdictParity:
    def test_reference_kernel_verdicts_match_numpy(self):
        numpy_verdicts = _parity_verdicts(get_backend("numpy"))
        assert numpy_verdicts == _parity_verdicts(KernelReferenceBackend())
        # Sanity: the pairs really alternate equivalent / not equivalent.
        assert numpy_verdicts == [True, False] * len(PARITY_BENCHMARKS)


class TestFingerprintBackendWiring:
    def test_default_backend_hash_keys_are_bit_identical(self):
        """The backend seam must not perturb the reference fingerprints."""
        circuits = [
            Circuit(2),
            Circuit(2).h(0),
            Circuit(2).h(0).cx(0, 1),
            Circuit(2).cx(1, 0).t(0).tdg(1),
            Circuit(2, num_params=2).rz(0, Angle.param(0)).h(1).cx(0, 1),
        ]
        default = FingerprintContext(2, 2)
        explicit = FingerprintContext(2, 2, backend="numpy")
        assert default.backend_name == "numpy"
        for circuit in circuits:
            assert default.hash_key(circuit) == explicit.hash_key(circuit)
            assert default.fingerprint(circuit) == explicit.fingerprint(circuit)



class TestVerifierBackendWiring:
    def test_verifier_screens_on_the_selected_backend(self):
        from repro.verifier import EquivalenceVerifier

        verifier = EquivalenceVerifier(num_params=0)
        assert verifier.backend_name == "numpy"
        flipped = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        target = Circuit(2).cx(1, 0)
        assert verifier.verify(flipped, target).equivalent
        with pytest.raises(KeyError):
            EquivalenceVerifier(num_params=0, backend="no-such-backend")

    def test_repgen_shares_context_only_on_matching_backend(self):
        from repro.generator import RepGen
        from repro.ir.gatesets import NAM
        from repro.verifier import EquivalenceVerifier

        generator = RepGen(NAM, num_qubits=2, num_params=2)
        # The default verifier inherits the generator's backend, so the
        # evolved-state cache is shared (same object).
        assert generator.verifier.backend_name == generator.backend_name
        assert (
            generator.verifier._fingerprint_contexts.get(2)
            is generator.fingerprints
        )
        # A mismatched verifier keeps its own contexts.
        foreign = EquivalenceVerifier(num_params=2, seed=999)
        generator2 = RepGen(NAM, num_qubits=2, num_params=2, verifier=foreign)
        assert foreign._fingerprint_contexts.get(2) is not generator2.fingerprints


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
        from repro.semantics.backend import (
            circuits_equivalent_statevector,
            circuits_equivalent_statevector_batched,
        )

        backend = get_backend("numpy")
        for circuit_a, circuit_b in self._pairs():
            scalar = circuits_equivalent_statevector(
                circuit_a, circuit_b, backend=backend
            )
            batched = circuits_equivalent_statevector_batched(
                circuit_a, circuit_b, backend=backend
            )
            assert batched == scalar

    def test_qubit_count_mismatch_is_not_equivalent(self):
        from repro.semantics.backend import circuits_equivalent_statevector_batched

        assert not circuits_equivalent_statevector_batched(
            Circuit(1).h(0), Circuit(2).h(0), backend=get_backend("numpy")
        )

    def test_shared_draws_come_from_one_seeded_stream(self):
        from repro.semantics.backend import equivalence_trial_inputs

        params_a, states_a = equivalence_trial_inputs(3, 2, num_trials=2, seed=7)
        params_b, states_b = equivalence_trial_inputs(3, 2, num_trials=2, seed=7)
        assert params_a == params_b
        np.testing.assert_array_equal(states_a, states_b)
        assert states_a.shape == (2, 8)
        # A different seed draws different trials.
        _, states_c = equivalence_trial_inputs(3, 2, num_trials=2, seed=8)
        assert not np.array_equal(states_a, states_c)
