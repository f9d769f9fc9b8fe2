"""Numeric circuit semantics: simulation, fingerprints, phase-factor search.

The function ``fingerprint`` is not re-exported here: the name belongs to
the :mod:`repro.semantics.fingerprint` submodule (``repro.fingerprint`` is
the function).
"""

from repro.semantics.simulator import (
    apply_circuit,
    circuit_unitary,
    circuits_equivalent_statevector,
    random_state,
)
from repro.semantics.fingerprint import FingerprintContext
from repro.semantics.phase import PhaseFactor, find_phase_candidates

__all__ = [
    "circuit_unitary",
    "apply_circuit",
    "random_state",
    "circuits_equivalent_statevector",
    "FingerprintContext",
    "PhaseFactor",
    "find_phase_candidates",
]
