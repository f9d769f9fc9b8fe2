"""Circuit equivalence verification (Section 4 of the paper).

The verifier checks that two symbolic circuits are equivalent up to a global
phase for *all* parameter values.  Following the paper it (i) eliminates the
existential quantifier over the phase by searching a finite candidate space
numerically, and (ii) eliminates trigonometric functions by half-angle
substitution.  Where the paper then expands with the angle-addition formulas
and calls Z3 on a quantifier-free nonlinear-real-arithmetic formula, this
reproduction expands every entry as a Laurent polynomial in ``z_k =
e^{i*atom_k}`` and compares exact coefficients — see README.md ("Reproduction
scope") and :mod:`repro.linalg.trigpoly` for why this decides the same
verification conditions.  The coefficients live in Z[zeta8][1/2], so the
verifier composes and compares whole unitaries as integer numpy arrays
(:mod:`repro.linalg.laurent`).
"""

from repro.verifier.trig import AtomTrigBuilder, SymbolicContext
from repro.verifier.equivalence import (
    EquivalenceVerifier,
    VerificationResult,
    VerifierStats,
)

__all__ = [
    "AtomTrigBuilder",
    "SymbolicContext",
    "EquivalenceVerifier",
    "VerificationResult",
    "VerifierStats",
]
