"""Numeric circuit semantics: simulation, fingerprints, phase-factor search."""

from repro.semantics.simulator import (
    apply_circuit,
    circuit_unitary,
    circuits_equivalent_statevector,
    random_state,
)
from repro.semantics.fingerprint import FingerprintContext, fingerprint
from repro.semantics.phase import PhaseFactor, find_phase_candidates

__all__ = [
    "circuit_unitary",
    "apply_circuit",
    "random_state",
    "circuits_equivalent_statevector",
    "FingerprintContext",
    "fingerprint",
    "PhaseFactor",
    "find_phase_candidates",
]
