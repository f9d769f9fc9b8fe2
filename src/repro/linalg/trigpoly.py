"""Laurent polynomials in ``z_k = e^{i*atom_k}`` over exact complex coefficients.

The Quartz verifier eliminates trigonometric functions from its verification
conditions by halving angles so that every trig argument is an integer
combination of *atoms* (one atom per symbolic parameter) and then expanding
the trig functions.  This reproduction expands in the exponential basis:
with ``z_k = e^{i*atom_k}``,

    e^{i*n*atom_k} = z_k^n,   cos(t) = (e^{it} + e^{-it}) / 2,
    sin(t) = (e^{it} - e^{-it}) / (2i),

so every symbolic matrix entry is a Laurent polynomial in the ``z_k`` with
coefficients in Q[sqrt(2)] + i*Q[sqrt(2)]
(:class:`repro.linalg.cnumber.CNumber`).  On real atoms the monomials
``z^e = e^{i*(e . atoms)}`` for distinct integer exponent vectors ``e`` are
distinct characters of the torus, hence linearly independent.  So two
polynomials are equal as functions of the atoms exactly when their
coefficient maps are equal: nothing is ever rewritten or reduced, and
comparing coefficient maps is what replaces the Z3 validity check of the
paper.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

from repro.linalg.cnumber import CNumber
from repro.linalg.qsqrt2 import QSqrt2

# A monomial prod_k z_k^{e_k} is the sorted tuple of its (atom, e_k) pairs
# with e_k a nonzero integer; the empty tuple is the constant monomial.
Monomial = Tuple[Tuple[int, int], ...]

CoeffLike = Union[CNumber, QSqrt2, int, Fraction]


class TrigPoly:
    """A Laurent polynomial in the ``z_k`` with exact coefficients.

    ``terms`` maps each monomial to its nonzero coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, CNumber] | None = None) -> None:
        self.terms: Dict[Monomial, CNumber] = {
            m: c for m, c in (terms or {}).items() if not c.is_zero()
        }

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly()

    @staticmethod
    def one() -> "TrigPoly":
        return TrigPoly.constant(CNumber.one())

    @staticmethod
    def constant(value: CoeffLike) -> "TrigPoly":
        return TrigPoly({(): _coerce_coeff(value)})

    @staticmethod
    def i() -> "TrigPoly":
        return TrigPoly.constant(CNumber.i())

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TrigPoly | CoeffLike") -> "TrigPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        result = dict(self.terms)
        for monomial, coeff in other.terms.items():
            existing = result.get(monomial)
            total = coeff if existing is None else existing + coeff
            if total.is_zero():
                result.pop(monomial, None)
            else:
                result[monomial] = total
        out = TrigPoly.__new__(TrigPoly)
        out.terms = result
        return out

    __radd__ = __add__

    def __neg__(self) -> "TrigPoly":
        out = TrigPoly.__new__(TrigPoly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "TrigPoly | CoeffLike") -> "TrigPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "TrigPoly | CoeffLike") -> "TrigPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: "TrigPoly | CoeffLike") -> "TrigPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a_terms = self.terms
        b_terms = other.terms
        # Scaling by a constant polynomial needs no monomial merging (CNumber
        # is a field, so products of nonzero coefficients stay nonzero);
        # this is the dominant case when the verifier applies phase factors
        # and gate constants.
        if len(b_terms) == 1 and () in b_terms:
            scale = b_terms[()]
            out = TrigPoly.__new__(TrigPoly)
            out.terms = {m: c * scale for m, c in a_terms.items()}
            return out
        if len(a_terms) == 1 and () in a_terms:
            scale = a_terms[()]
            out = TrigPoly.__new__(TrigPoly)
            out.terms = {m: scale * c for m, c in b_terms.items()}
            return out
        product: Dict[Monomial, CNumber] = {}
        for mono_a, coeff_a in a_terms.items():
            for mono_b, coeff_b in b_terms.items():
                monomial = _merge_monomials(mono_a, mono_b)
                term = coeff_a * coeff_b
                existing = product.get(monomial)
                product[monomial] = term if existing is None else existing + term
        out = TrigPoly.__new__(TrigPoly)
        out.terms = {m: c for m, c in product.items() if not c.is_zero()}
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TrigPoly":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = TrigPoly.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, atom_values: Mapping[int, float]) -> complex:
        """Numerically evaluate at concrete atom angle values (in radians)."""
        total = 0j
        for monomial, coeff in self.terms.items():
            angle = sum(exponent * atom_values[atom] for atom, exponent in monomial)
            total += complex(coeff) * cmath.exp(1j * angle)
        return total

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        coerced = _coerce_poly(other)
        if coerced is NotImplemented:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"TrigPoly({self.terms!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for monomial in sorted(self.terms):
            factors = [f"({self.terms[monomial]})"]
            for atom, exponent in monomial:
                factors.append(f"z{atom}" + (f"^{exponent}" if exponent != 1 else ""))
            parts.append("*".join(factors))
        return " + ".join(parts)


def exp_i_multiple(n: int, atom: int) -> TrigPoly:
    """Return ``e^{i * n * atom} = z_atom^n``, a single term."""
    if n == 0:
        return TrigPoly.one()
    return TrigPoly({((atom, n),): CNumber.one()})


def _merge_monomials(mono_a: Monomial, mono_b: Monomial) -> Monomial:
    """The monomial ``mono_a * mono_b``: exponents add, zeros drop out."""
    if not mono_a:
        return mono_b
    if not mono_b:
        return mono_a
    merged = dict(mono_a)
    for atom, exponent in mono_b:
        total = merged.get(atom, 0) + exponent
        if total:
            merged[atom] = total
        else:
            del merged[atom]
    return tuple(sorted(merged.items()))


def _coerce_coeff(value: CoeffLike) -> CNumber:
    if isinstance(value, CNumber):
        return value
    if isinstance(value, (QSqrt2, int, Fraction)):
        return CNumber(value) if isinstance(value, QSqrt2) else CNumber(QSqrt2(value))
    raise TypeError(f"cannot coerce {value!r} to a coefficient")


def _coerce_poly(value: object) -> "TrigPoly":
    if isinstance(value, TrigPoly):
        return value
    if isinstance(value, (CNumber, QSqrt2, int, Fraction)):
        return TrigPoly.constant(value)  # type: ignore[arg-type]
    return NotImplemented
