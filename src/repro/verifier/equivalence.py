"""The circuit equivalence verifier.

Given two symbolic circuits over the same number of qubits and parameters,
:class:`EquivalenceVerifier` decides whether they are equivalent up to a
global phase (Definition 1 of the paper):

1. **Numeric screen & phase search.**  Both circuits are evaluated on fixed
   random parameter values and states; if they disagree the pair is rejected
   immediately.  Otherwise the finite space of candidate phase factors
   ``beta(p) = a.p + b`` is searched numerically (Section 4).
2. **Symbolic proof.**  For each surviving candidate, the verifier builds the
   exact unitaries of both circuits, whose entries are Laurent polynomials in
   ``z_k = e^{i*atom_k}`` (half-angle substitution, then cos/sin/e^{i.}
   expanded in the ``z_k``) with coefficients in Z[zeta8][1/2], and checks the
   matrix identity ``[[C1]] = e^{i beta(p)} [[C2]]`` by comparing exact
   coefficients, which decides equality of the entries as functions — the
   step that replaces the Z3 query of the paper.  Gates define their
   semantics as :class:`repro.linalg.symmatrix.SymMatrix` values; each
   embedded instruction is converted once to a
   :class:`repro.linalg.laurent.LaurentMatrix`, and circuits are composed
   and compared on those integer arrays.  The phase ``e^{i*b*pi}`` is the
   power ``zeta^{4b}`` and the linear part a shift of the exponents.

The verifier records how many checks it performed and how much time it spent,
which the generator-metrics experiments (Table 5 / Table 8) report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.circuit import Circuit
from repro.linalg.laurent import LaurentMatrix
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.semantics.fingerprint import FingerprintContext
from repro.semantics.phase import PhaseFactor, find_phase_candidates
from repro.semantics.simulator import circuits_equivalent_numeric
from repro.verifier.trig import (
    AtomTrigBuilder,
    SymbolicContext,
    UnrepresentableAngleError,
    symbolic_instruction_matrix,
)


@dataclass
class VerificationResult:
    """Outcome of one equivalence check."""

    equivalent: bool
    phase: Optional[PhaseFactor] = None
    method: str = "symbolic"
    reason: str = ""

    def __bool__(self) -> bool:
        return self.equivalent


@dataclass
class VerifierStats:
    """Counters the experiments report (Table 5 / Table 8)."""

    #: The integer-valued counter fields, in declaration order.
    #: ``as_dict`` and ``from_dict`` derive from this list so a new counter
    #: cannot be forgotten in one of them.
    COUNTER_FIELDS = (
        "checks",
        "symbolic_proofs",
        "numeric_rejections",
        "numeric_fallbacks",
    )

    checks: int = 0
    symbolic_proofs: int = 0
    numeric_rejections: int = 0
    numeric_fallbacks: int = 0
    time_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """JSON-friendly view; counters stay ``int``, only the time is float."""
        out: Dict[str, Union[int, float]] = {
            name: int(getattr(self, name)) for name in self.COUNTER_FIELDS
        }
        out["time_seconds"] = float(self.time_seconds)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Union[int, float]]) -> "VerifierStats":
        """Inverse of :meth:`as_dict` (tolerates float-typed counters)."""
        return cls(
            **{name: int(data.get(name, 0)) for name in cls.COUNTER_FIELDS},
            time_seconds=float(data.get("time_seconds", 0.0)),
        )


class EquivalenceVerifier:
    """Checks circuit equivalence up to a global phase.

    Args:
        num_params: number of symbolic parameters m shared by the circuits.
        search_linear_phase: when True the phase search also tries
            parameter-dependent phases ``a != 0`` (the paper's general
            mechanism); constant phases suffice for the evaluated gate sets
            and are much cheaper, so the default is False.
        allow_numeric_fallback: when the exact symbolic construction fails
            because a concrete angle lies outside the exact fragment (e.g.
            ``rz(pi/8)`` on a concrete circuit), fall back to a randomized
            numeric check instead of raising.
        seed: seed of the numeric phase screen's fingerprint contexts (and
            of the numeric fallback).  A context shared through
            :meth:`set_fingerprint_context` must have been built with it.
    """

    #: Bound on cached prefix matrices; the cache is halved (oldest first)
    #: when it grows past this, which keeps long generator runs bounded.
    #: Cold Nam and Rigetti (3,3) generation cache at most 1,305 prefixes,
    #: so they never evict.  Raw IBM (2,3) evicts 9 times and keeps its ECC
    #: set; rebuilding the evicted prefixes costs no measurable CPU (4.1-4.6 s
    #: at this limit against 4.1-4.5 s at 100,000, 3 alternating runs each),
    #: while the limit holds its peak RSS at 127 MB instead of 191 MB.
    MATRIX_CACHE_LIMIT = 5_000

    def __init__(
        self,
        num_params: int,
        *,
        search_linear_phase: bool = False,
        allow_numeric_fallback: bool = True,
        seed: int = 20220433,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self.num_params = num_params
        self.search_linear_phase = search_linear_phase
        self.allow_numeric_fallback = allow_numeric_fallback
        self.seed = seed
        self.perf = perf if perf is not None else NULL_RECORDER
        self.stats = VerifierStats()
        self._fingerprint_contexts: Dict[int, FingerprintContext] = {}
        # Symbolic circuit matrices keyed by (num_qubits, sequence-key
        # prefix, atom denominators).  Because a RepGen candidate is always
        # parent + one gate, caching every *prefix* makes the candidate's
        # matrix a single sparse gate multiplication away from a cache hit.
        self._matrix_cache: Dict[Tuple, LaurentMatrix] = {}
        # Embedded single-instruction matrices keyed the same way.
        self._instruction_cache: Dict[Tuple, LaurentMatrix] = {}
        # One trig builder per tuple of atom denominators, built on the
        # first instruction-cache miss that needs it.
        self._builders: Dict[Tuple[int, ...], AtomTrigBuilder] = {}

    def set_fingerprint_context(self, context: FingerprintContext) -> None:
        """Share an externally-owned fingerprint context (same seed).

        The generator calls this so the verifier's numeric phase screen
        reuses the evolved statevectors the fingerprint loop already cached.
        """
        self._fingerprint_contexts[context.num_qubits] = context

    # -- public API -----------------------------------------------------------

    def verify(self, circuit_a: Circuit, circuit_b: Circuit) -> VerificationResult:
        """Decide whether the two circuits are equivalent up to a global phase."""
        # Timing feeds stats.time_seconds only — never a verdict — so the
        # wall-clock reads below cannot make chunk results dispatch-dependent.
        start = time.perf_counter()  # repro: allow(wall-clock-in-worker)
        self.stats.checks += 1
        try:
            return self._verify_inner(circuit_a, circuit_b)
        finally:
            delta = time.perf_counter() - start  # repro: allow(wall-clock-in-worker)
            self.stats.time_seconds += delta

    def equivalent(self, circuit_a: Circuit, circuit_b: Circuit) -> bool:
        return self.verify(circuit_a, circuit_b).equivalent

    # -- implementation ---------------------------------------------------------

    def _verify_inner(self, circuit_a: Circuit, circuit_b: Circuit) -> VerificationResult:
        if circuit_a.num_qubits != circuit_b.num_qubits:
            return VerificationResult(False, reason="different qubit counts")

        context = self._fingerprint_context(circuit_a.num_qubits)
        candidates = find_phase_candidates(
            circuit_a,
            circuit_b,
            context,
            search_linear=self.search_linear_phase,
        )
        if not candidates:
            self.stats.numeric_rejections += 1
            return VerificationResult(
                False, reason="no phase factor matches on random inputs"
            )

        try:
            symbolic_context = SymbolicContext.for_circuits(
                (circuit_a, circuit_b),
                self.num_params,
                extra_angles=[c.as_angle() for c in candidates],
            )
            matrix_a = self._symbolic_matrix(circuit_a, symbolic_context)
            matrix_b = self._symbolic_matrix(circuit_b, symbolic_context)
        except UnrepresentableAngleError as error:
            if not self.allow_numeric_fallback:
                raise
            return self._numeric_fallback(circuit_a, circuit_b, str(error))

        for candidate in candidates:
            # e^{i*(b*pi + sum_k c_k*p_k)} = zeta^{4b} * prod_k z_k^{c_k*d_k}.
            eighths = candidate.constant_pi_multiple * 4
            if eighths.denominator != 1:
                raise UnrepresentableAngleError(
                    f"phase constant {candidate.constant_pi_multiple}*pi is not "
                    "a multiple of pi/4"
                )
            atoms = symbolic_context.atom_coefficients(candidate.as_angle())
            exponents = [atoms.get(index, 0) for index in range(self.num_params)]
            if matrix_b.equals_scaled(matrix_a, int(eighths) % 8, exponents):
                self.stats.symbolic_proofs += 1
                return VerificationResult(True, phase=candidate, method="symbolic")

        return VerificationResult(
            False,
            reason="no candidate phase factor verified symbolically",
        )

    def _numeric_fallback(
        self,
        circuit_a: Circuit,
        circuit_b: Circuit,
        reason: str,
    ) -> VerificationResult:
        self.stats.numeric_fallbacks += 1
        if circuits_equivalent_numeric(circuit_a, circuit_b, num_trials=4, seed=self.seed):
            # The randomized check only establishes equivalence up to *some*
            # global phase; it validates no particular phase candidate, so
            # the result carries none.
            return VerificationResult(
                True,
                phase=None,
                method="numeric",
                reason=f"numeric fallback ({reason})",
            )
        return VerificationResult(False, method="numeric", reason=reason)

    def _fingerprint_context(self, num_qubits: int) -> FingerprintContext:
        if num_qubits not in self._fingerprint_contexts:
            self._fingerprint_contexts[num_qubits] = FingerprintContext(
                num_qubits, self.num_params, seed=self.seed
            )
        return self._fingerprint_contexts[num_qubits]

    def _symbolic_matrix(self, circuit: Circuit, context: SymbolicContext) -> LaurentMatrix:
        """Exact unitary of ``circuit``, built incrementally.

        Matrices for every instruction-sequence *prefix* are cached, so a
        circuit extending an already-verified one (the common case in
        RepGen, where each candidate is a representative plus one gate)
        costs a single gate multiplication instead of a full rebuild.
        """
        num_qubits = circuit.num_qubits
        denominators = tuple(context.denominators)
        sequence = circuit.sequence_key()
        matrix_cache = self._matrix_cache
        perf = self.perf

        # Longest cached prefix, the whole circuit first (the empty prefix
        # is the identity).
        total = len(sequence)
        prefix_len = 0
        matrix = None
        for length in range(total, 0, -1):
            candidate_key = (num_qubits, sequence[:length], denominators)
            matrix = matrix_cache.get(candidate_key)
            if matrix is not None:
                prefix_len = length
                break
        if matrix is not None and prefix_len == total:
            perf.count("verifier.matrix_cache.hits")
            return matrix
        perf.count("verifier.matrix_cache.misses")
        if matrix is None:
            matrix = LaurentMatrix.identity(1 << num_qubits, self.num_params)
        perf.count("verifier.matrix_prefix_reuse", prefix_len)

        for position in range(prefix_len, total):
            inst = circuit.instructions[position]
            gate_matrix = self._symbolic_instruction(inst, num_qubits, denominators)
            matrix = gate_matrix @ matrix
            self._cache_matrix(
                (num_qubits, sequence[: position + 1], denominators), matrix
            )
        return matrix

    def _cache_matrix(self, key: Tuple, matrix: LaurentMatrix) -> None:
        """Insert a prefix matrix, evicting when the cache is at its bound.

        The bound is enforced per *insertion*, not per verify call: a single
        long circuit inserts one entry per uncached prefix, so a call-level
        check would let one call blow arbitrarily far past the limit.
        Eviction drops the oldest half in insertion order — entries inserted
        earlier in the current build loop are newer than everything else in
        the cache, so the prefix chain under construction always survives.
        """
        cache = self._matrix_cache
        if len(cache) >= self.MATRIX_CACHE_LIMIT:
            for stale in list(cache)[: max(self.MATRIX_CACHE_LIMIT // 2, 1)]:
                del cache[stale]
            self.perf.count("verifier.matrix_cache.evictions")
        cache[key] = matrix

    def _symbolic_instruction(
        self, inst, num_qubits: int, denominators: Tuple[int, ...]
    ) -> LaurentMatrix:
        """Cached full-space exact matrix of a single instruction."""
        key = (inst.sort_key(), num_qubits, denominators)
        cached = self._instruction_cache.get(key)
        if cached is None:
            self.perf.count("verifier.instruction_cache.misses")
            builder = self._builders.get(denominators)
            if builder is None:
                builder = AtomTrigBuilder(SymbolicContext(self.num_params, denominators))
                self._builders[denominators] = builder
            symbolic = symbolic_instruction_matrix(inst, builder, num_qubits)
            try:
                cached = LaurentMatrix.from_symbolic(symbolic, self.num_params)
            except ValueError as error:  # a constant outside Z[zeta8][1/2]
                raise UnrepresentableAngleError(str(error)) from error
            self._instruction_cache[key] = cached
        else:
            self.perf.count("verifier.instruction_cache.hits")
        return cached
