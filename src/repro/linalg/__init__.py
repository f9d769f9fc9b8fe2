"""Exact symbolic linear-algebra substrate used by the Quartz verifier.

The verifier reduces circuit equivalence (up to a global phase) to an
identity between matrices whose entries are Laurent polynomials in
``z_k = e^{i*atom_k}`` with coefficients in Q[sqrt(2)] + i*Q[sqrt(2)].  This
package provides that tower:

* :mod:`repro.linalg.qsqrt2`   — the exact scalar ring Q[sqrt(2)].
* :mod:`repro.linalg.cnumber`  — exact complex numbers over Q[sqrt(2)].
* :mod:`repro.linalg.trigpoly` — Laurent polynomials in the ``z_k``, equal
  as functions exactly when their coefficients are equal.
* :mod:`repro.linalg.symmatrix`— dense symbolic matrices over those
  polynomials; gates define their semantics in this form, and its matrix
  product and comparison up to a symbolic scalar are the tests' reference.
* :mod:`repro.linalg.laurent`  — the same matrices as one integer numpy
  array over Z[zeta8] and a power-of-two denominator, which the verifier
  composes and compares (each gate matrix is converted once).
"""

from repro.linalg.qsqrt2 import QSqrt2
from repro.linalg.cnumber import CNumber
from repro.linalg.trigpoly import TrigPoly
from repro.linalg.symmatrix import SymMatrix
from repro.linalg.laurent import LaurentMatrix

__all__ = ["QSqrt2", "CNumber", "TrigPoly", "SymMatrix", "LaurentMatrix"]
