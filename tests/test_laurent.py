"""The integer-array verifier algebra against the SymMatrix reference.

:class:`repro.linalg.laurent.LaurentMatrix` composes and compares the
verifier's exact unitaries.  The :class:`SymMatrix`/:class:`TrigPoly`
algebra it replaced stays the reference here: conversions, products and
phase checks must agree with it exactly, and so must every verdict of a
cold generation run.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import GenerationConfig
from repro.api.facade import clear_memory_caches, run_generation
from repro.ir.circuit import Circuit
from repro.ir.gates import GATE_REGISTRY, Gate
from repro.ir.gatesets import IBM, NAM, RIGETTI
from repro.ir.params import Angle
from repro.linalg.cnumber import CNumber
from repro.linalg.laurent import LaurentMatrix, zeta_coordinates
from repro.linalg.qsqrt2 import QSqrt2
from repro.linalg.symmatrix import SymMatrix
from repro.linalg.trigpoly import TrigPoly
from repro.semantics.phase import find_phase_candidates
from repro.verifier import EquivalenceVerifier
from repro.verifier.trig import (
    AtomTrigBuilder,
    SymbolicContext,
    UnrepresentableAngleError,
    symbolic_instruction_matrix,
)

ZETA = cmath.exp(1j * math.pi / 4)


# -- reference helpers -----------------------------------------------------------


def _evaluate(coordinates, denominator) -> complex:
    return sum(complex(x) * ZETA**c for c, x in enumerate(coordinates)) / denominator


def _cnumber(coordinates, shift) -> CNumber:
    """``sum_c x_c zeta^c / 2^shift`` back in the ``re + i*im`` form."""
    x0, x1, x2, x3 = (Fraction(int(x), 2**shift) for x in coordinates)
    return CNumber(QSqrt2(x0, (x1 - x3) / 2), QSqrt2(x2, (x1 + x3) / 2))


def to_symmatrix(matrix: LaurentMatrix) -> SymMatrix:
    """Read a LaurentMatrix back as a SymMatrix, independently of the module."""
    dim = matrix.dim
    rows = [[{} for _ in range(dim)] for _ in range(dim)]
    for index, exponents in enumerate(matrix.monomials):
        monomial = tuple((atom, e) for atom, e in enumerate(exponents) if e)
        for row in range(dim):
            for col in range(dim):
                coordinates = [
                    matrix.array[4 * row + c, index * dim + col] for c in range(4)
                ]
                if any(coordinates):
                    rows[row][col][monomial] = _cnumber(coordinates, matrix.shift)
    return SymMatrix([[TrigPoly(terms) for terms in row] for row in rows])


def symbolic_product(circuit: Circuit, builder: AtomTrigBuilder) -> SymMatrix:
    matrix = SymMatrix.identity(1 << circuit.num_qubits)
    for inst in circuit.instructions:
        matrix = symbolic_instruction_matrix(inst, builder, circuit.num_qubits) @ matrix
    return matrix


def laurent_product(circuit: Circuit, builder: AtomTrigBuilder, num_atoms: int) -> LaurentMatrix:
    matrix = LaurentMatrix.identity(1 << circuit.num_qubits, num_atoms)
    for inst in circuit.instructions:
        gate = symbolic_instruction_matrix(inst, builder, circuit.num_qubits)
        matrix = LaurentMatrix.from_symbolic(gate, num_atoms) @ matrix
    return matrix


def reference_verdict(verifier: EquivalenceVerifier, circuit_a: Circuit, circuit_b: Circuit):
    """(equivalent, phase, method) as the SymMatrix algebra decides it."""
    candidates = find_phase_candidates(
        circuit_a,
        circuit_b,
        verifier._fingerprint_context(circuit_a.num_qubits),
        search_linear=verifier.search_linear_phase,
    )
    if not candidates:
        return (False, None, "symbolic")
    try:
        context = SymbolicContext.for_circuits(
            (circuit_a, circuit_b),
            verifier.num_params,
            extra_angles=[c.as_angle() for c in candidates],
        )
        builder = AtomTrigBuilder(context)
        matrix_a = symbolic_product(circuit_a, builder)
        matrix_b = symbolic_product(circuit_b, builder)
    except UnrepresentableAngleError:
        return (None, None, "numeric")
    for candidate in candidates:
        if matrix_b.equals_scaled(matrix_a, builder.exp_i(candidate.as_angle())):
            return (True, candidate, "symbolic")
    return (False, None, "symbolic")


# -- coordinates -------------------------------------------------------------------


class TestCoordinates:
    def test_eighth_roots_of_unity(self):
        for k in range(8):
            value = CNumber.from_exp_i_pi_multiple(Fraction(k, 4))
            coordinates = zeta_coordinates(value, 2)
            assert cmath.isclose(_evaluate(coordinates, 2), complex(value), abs_tol=1e-12)
            assert cmath.isclose(_evaluate(coordinates, 2), ZETA**k, abs_tol=1e-12)
            # zeta^k itself: a single +-1 coordinate (over the denominator 2
            # that sqrt(2)/2 needs).
            expected = [0, 0, 0, 0]
            expected[k % 4] = 2 if k < 4 else -2
            assert list(coordinates) == expected

    @pytest.mark.parametrize("name", sorted(GATE_REGISTRY))
    def test_every_gate_entry(self, name):
        gate = GATE_REGISTRY[name]
        num_atoms = max(gate.num_params, 1)
        builder = AtomTrigBuilder(SymbolicContext(num_atoms, [2] * num_atoms))
        angles = [Angle.param(i % num_atoms) for i in range(gate.num_params)]
        matrix = gate.symbolic(builder, angles)
        for row in matrix.rows:
            for entry in row:
                for coefficient in entry.terms.values():
                    denominator = math.lcm(coefficient.re.d, coefficient.im.d)
                    assert cmath.isclose(
                        _evaluate(zeta_coordinates(coefficient, denominator), denominator),
                        complex(coefficient),
                        abs_tol=1e-12,
                    )
        converted = LaurentMatrix.from_symbolic(matrix, num_atoms)
        assert to_symmatrix(converted) == matrix
        if gate.num_params == 0:
            assert len(converted.monomials) == 1

    def test_gates_are_reduced_by_common_powers_of_two(self):
        builder = AtomTrigBuilder(SymbolicContext(0, []))
        t = LaurentMatrix.from_symbolic(GATE_REGISTRY["t"].symbolic(builder), 0)
        h = LaurentMatrix.from_symbolic(GATE_REGISTRY["h"].symbolic(builder), 0)
        assert t.shift == 0 and t.bound == 1
        assert h.shift == 1 and h.bound == 1

    def test_non_dyadic_constant_is_rejected(self):
        third = SymMatrix.from_entries([[CNumber(Fraction(1, 3))]])
        with pytest.raises(ValueError):
            LaurentMatrix.from_symbolic(third, 0)

    def test_non_dyadic_gate_takes_the_numeric_fallback(self):
        entries = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
        rotation = Gate(
            "rot345",
            1,
            0,
            lambda _params: np.array(entries, dtype=float).astype(complex),
            lambda _builder, _angles: SymMatrix.from_entries(
                [[CNumber(x) for x in row] for row in entries]
            ),
        )
        padded = Circuit(1).x(0).x(0).append(rotation, 0)
        result = EquivalenceVerifier(num_params=0).verify(padded, Circuit(1).append(rotation, 0))
        assert result.equivalent and result.method == "numeric"
        strict = EquivalenceVerifier(num_params=0, allow_numeric_fallback=False)
        with pytest.raises(UnrepresentableAngleError):
            strict.verify(Circuit(1).append(rotation, 0), Circuit(1).append(rotation, 0).x(0).x(0))

    def test_identity(self):
        identity = LaurentMatrix.identity(4, 2)
        assert identity.monomials == ((0, 0),)
        assert to_symmatrix(identity) == SymMatrix.identity(4)


# -- random circuits --------------------------------------------------------------

GATE_NAMES = sorted(
    set(NAM.gate_names()) | set(RIGETTI.gate_names()) | set(IBM.gate_names())
)
NUM_ATOMS = 3


@st.composite
def angles(draw, eighths_step):
    """A linear angle whose constant is a multiple of ``eighths_step * pi/4``."""
    coefficients = {
        index: draw(st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)]))
        for index in draw(st.sets(st.integers(0, NUM_ATOMS - 1), max_size=2))
    }
    return Angle(Fraction(draw(st.integers(0, 7)) * eighths_step, 4), coefficients)


@st.composite
def circuits(draw, num_qubits):
    circuit = Circuit(num_qubits, num_params=NUM_ATOMS)
    for _ in range(draw(st.integers(0, 4))):
        gate = GATE_REGISTRY[draw(st.sampled_from(GATE_NAMES))]
        if gate.num_qubits > num_qubits:
            continue
        qubits = draw(
            st.permutations(range(num_qubits)).map(lambda p: p[: gate.num_qubits])
        )
        # Rotations halve their angle: pi/2 steps keep it within pi/4.
        params = [draw(angles(2)) for _ in range(gate.num_params)]
        circuit.append(gate.name, qubits, params)
    return circuit


@st.composite
def circuit_pairs(draw):
    num_qubits = draw(st.integers(1, 3))
    phase = draw(angles(1))
    return draw(circuits(num_qubits)), draw(circuits(num_qubits)), phase


class TestAgainstSymMatrix:
    @settings(max_examples=60, deadline=None)
    @given(circuit_pairs())
    def test_products_and_phase_checks(self, pair):
        circuit_a, circuit_b, phase = pair
        context = SymbolicContext.for_circuits(
            (circuit_a, circuit_b), NUM_ATOMS, extra_angles=[phase]
        )
        builder = AtomTrigBuilder(context)
        sym_a = symbolic_product(circuit_a, builder)
        sym_b = symbolic_product(circuit_b, builder)
        lm_a = laurent_product(circuit_a, builder, NUM_ATOMS)
        lm_b = laurent_product(circuit_b, builder, NUM_ATOMS)
        assert to_symmatrix(lm_a) == sym_a
        assert to_symmatrix(lm_b) == sym_b

        # sym_a scaled by the drawn phase makes the checks below come out
        # true at exactly that phase; sym_b mostly false.
        scale = builder.exp_i(phase)
        scaled = SymMatrix([[scale * entry for entry in row] for row in sym_a.rows])
        atoms = context.atom_coefficients(phase)
        linear = [atoms.get(index, 0) for index in range(NUM_ATOMS)]
        checks = [(k, [0] * NUM_ATOMS) for k in range(8)]
        checks += [(k, linear) for k in range(8)]
        outcomes = []
        for target, lm_target in (
            (sym_b, lm_b),
            (scaled, LaurentMatrix.from_symbolic(scaled, NUM_ATOMS)),
        ):
            for zeta_power, exponents in checks:
                angle = Angle(
                    Fraction(zeta_power, 4),
                    {i: Fraction(e, context.denominators[i]) for i, e in enumerate(exponents) if e},
                )
                expected = sym_a.equals_scaled(target, builder.exp_i(angle))
                assert lm_a.equals_scaled(lm_target, zeta_power, exponents) == expected
                outcomes.append(expected)
        assert any(outcomes)

    def test_products_beyond_int64_use_object_arrays(self):
        # Odd entries far past 2**53: no halving helps, so the product runs
        # on Python ints and stays exact.
        big = CNumber(QSqrt2(2**70 + 1, 3), QSqrt2(-(2**66) - 1, 2**61 + 5))
        operand = SymMatrix.from_entries([[big, CNumber(1)], [CNumber(0, 1), -big]])
        builder = AtomTrigBuilder(SymbolicContext(0, []))
        for name in ("h", "t", "x"):
            gate = GATE_REGISTRY[name].symbolic(builder)
            product = LaurentMatrix.from_symbolic(gate, 0) @ LaurentMatrix.from_symbolic(operand, 0)
            assert product.array.dtype == object
            assert to_symmatrix(product) == gate @ operand

    def test_alignment_past_int64_is_exact(self):
        # The same matrix over denominators 2^0 and 2^70: comparing them
        # doubles the first side seventy times.
        builder = AtomTrigBuilder(SymbolicContext(0, []))
        x = LaurentMatrix.from_symbolic(GATE_REGISTRY["x"].symbolic(builder), 0)
        tiny = SymMatrix.from_entries(
            [[CNumber(0), CNumber(Fraction(1, 2**70))], [CNumber(Fraction(1, 2**70)), CNumber(0)]]
        )
        scaled = LaurentMatrix.from_symbolic(tiny, 0)
        assert scaled.shift == 70
        assert not x.equals_scaled(scaled, 0, [])
        assert not scaled.equals_scaled(x, 0, [])
        unreduced = LaurentMatrix(x.monomials, x.array.astype(object) * 2**70, 70, 2**70)
        assert unreduced.equals_scaled(x, 0, [])
        assert x.equals_scaled(unreduced, 0, [])
        assert not x.equals_scaled(unreduced, 4, [])


# -- every verdict of a cold generation -------------------------------------------


@pytest.mark.parametrize("gate_set, calls", [("nam", 605), ("rigetti", 573)])
def test_generation_verdicts_match_the_symmatrix_reference(monkeypatch, gate_set, calls):
    recorded = []
    verify = EquivalenceVerifier.verify

    def recording(self, circuit_a, circuit_b):
        result = verify(self, circuit_a, circuit_b)
        recorded.append((self, circuit_a, circuit_b, result))
        return result

    monkeypatch.setattr(EquivalenceVerifier, "verify", recording)
    clear_memory_caches()
    try:
        run_generation(gate_set, GenerationConfig(n=3, q=3, cache_enabled=False, prune=False))
    finally:
        clear_memory_caches()
    assert len(recorded) == calls
    for verifier, circuit_a, circuit_b, result in recorded:
        assert (result.equivalent, result.phase, result.method) == reference_verdict(
            verifier, circuit_a, circuit_b
        )


# -- the float64 bound --------------------------------------------------------------


def test_long_circuit_crosses_the_float64_bound():
    ht = Circuit(1)
    for _ in range(60):
        ht.h(0).t(0)
    padded = Circuit(1).x(0).x(0)
    for inst in ht.instructions:
        padded.append(inst.gate.name, inst.qubits)
    verifier = EquivalenceVerifier(num_params=0)
    result = verifier.verify(ht, padded)
    assert (result.equivalent, result.phase, result.method) == reference_verdict(
        verifier, ht, padded
    )
    assert result.equivalent and result.method == "symbolic"
    full = verifier._matrix_cache[(1, ht.sequence_key(), ())]
    # 60 h gates carry 2^-60 unreduced; a product past the bound was halved.
    assert full.shift < 60
    builder = AtomTrigBuilder(SymbolicContext(0, []))
    assert to_symmatrix(full) == symbolic_product(ht, builder)


# -- generation uses no SymMatrix product or comparison -----------------------------


def test_generation_does_not_use_symmatrix_products(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the verifier used the SymMatrix algebra")

    monkeypatch.setattr(SymMatrix, "__matmul__", forbidden)
    monkeypatch.setattr(SymMatrix, "equals_scaled", forbidden)
    clear_memory_caches()
    try:
        raw = run_generation(
            "nam", GenerationConfig(n=2, q=2, cache_enabled=False, prune=False)
        )
    finally:
        clear_memory_caches()
    digest = hashlib.sha256(raw.ecc_set.to_json().encode()).hexdigest()
    assert digest == "7a6500dbbe4374286014bd51281774ff1080aef4c3541da0640d8dc220822243"
