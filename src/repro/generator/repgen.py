"""The RepGen circuit generation algorithm (Algorithm 1 of the paper).

RepGen builds an (n, q)-complete ECC set round by round: the j-th round
extends every size-(j-1) *representative* by a single gate, keeps only the
extensions whose first-gate-dropped suffix is also a representative, groups
the resulting circuits by fingerprint, and verifies equivalence only within
(adjacent) fingerprint buckets.  Representatives are the precedence-minimal
circuits of their classes, so the number of circuits examined is bounded by
|R_n| * ch(G, Sigma, q, m) * n (Theorem 3) instead of the exponential count
of all circuits.

Generation is a pure function of (gate set, n, q, m, seed): a
:class:`RepGen` never reads or writes the persistent cache.  Where a
result is kept is the caller's decision — :func:`repro.api.run_generation`
loads it from, and stores it in, ``.repro_cache/``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.generator.ecc import ECC, ECCSet
from repro.ir.circuit import Circuit, Instruction
from repro.ir.gates import Gate
from repro.ir.gatesets import GateSet
from repro.ir.params import Angle, ParamSpec
from repro.perf import PerfRecorder
from repro.semantics.fingerprint import FingerprintContext
from repro.verifier.equivalence import EquivalenceVerifier

#: Seed for the fingerprint context's random inputs.  Part of the cache key:
#: two runs agree bit-for-bit only when their seeds agree.
DEFAULT_SEED = 20220433

# One job per parent: the parent circuit and its surviving extensions.
FingerprintJob = Tuple[Circuit, Sequence[Instruction]]


@dataclass
class GeneratorStats:
    """Metrics reported in Tables 5, 6 and 8 of the paper."""

    circuits_considered: int = 0
    num_representatives: int = 0
    num_transformations: int = 0
    num_eccs: int = 0
    verification_calls: int = 0
    verification_time: float = 0.0
    total_time: float = 0.0
    rounds: List[Dict[str, float]] = field(default_factory=list)
    # Hot-path instrumentation: fingerprint eval counts, state/matrix cache
    # hit rates, verifier timings (see repro.perf).
    perf: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "circuits_considered": self.circuits_considered,
            "num_representatives": self.num_representatives,
            "num_transformations": self.num_transformations,
            "num_eccs": self.num_eccs,
            "verification_calls": self.verification_calls,
            "verification_time": self.verification_time,
            "total_time": self.total_time,
            "perf": dict(self.perf),
        }


@dataclass
class GeneratorResult:
    """Output of a RepGen run: the ECC set plus bookkeeping."""

    ecc_set: ECCSet
    stats: GeneratorStats
    representatives: List[Circuit]

    @property
    def num_transformations(self) -> int:
        return self.ecc_set.num_transformations()


class RepGen:
    """Representative-based circuit generation for a gate set.

    Args:
        gate_set: the target gate set G.
        num_qubits: q — all generated circuits are over exactly q qubits.
        num_params: m — the number of symbolic parameters (defaults to the
            gate set's configured value).  The parameter-expression
            specification Sigma is ``ParamSpec(m)``: {p_i, 2 p_i, p_i + p_j}
            with single use, so m alone fixes it (and the cache key).
        verifier: an :class:`EquivalenceVerifier`; created on demand.
        seed: seed for the fingerprint context's random inputs.  The
            default verifier is built with the same seed, so it shares the
            generator's context (and its cached evolved states).
    """

    def __init__(
        self,
        gate_set: GateSet,
        num_qubits: int,
        num_params: Optional[int] = None,
        verifier: Optional[EquivalenceVerifier] = None,
        seed: int = DEFAULT_SEED,
    ) -> None:
        self.gate_set = gate_set
        self.num_qubits = num_qubits
        self.seed = seed
        self.num_params = gate_set.num_params if num_params is None else num_params
        self.sigma = ParamSpec(self.num_params)
        self._single_gate_memo: Dict[FrozenSet[int], Tuple[Instruction, ...]] = {}
        self.perf = PerfRecorder()
        self.fingerprints = FingerprintContext(
            num_qubits, self.num_params, seed=seed, perf=self.perf
        )
        self.verifier = verifier or EquivalenceVerifier(
            self.num_params, seed=seed, perf=self.perf
        )
        # Share the fingerprint context with the verifier: its numeric phase
        # screen then reuses the evolved states the generator already cached
        # for every candidate.  Only safe when the contexts would be
        # interchangeable anyway (same random inputs, same parameter count).
        if (
            self.verifier.seed == seed
            and self.verifier.num_params == self.num_params
        ):
            self.verifier.set_fingerprint_context(self.fingerprints)

    # -- single-gate extensions -------------------------------------------------

    def single_gate_instructions(self, used_params: Iterable[int] = ()) -> Iterator[Instruction]:
        """Enumerate all single-gate applications allowed by G and Sigma.

        ``used_params`` is the set of parameters already consumed by the
        circuit being extended; under the single-use restriction, expressions
        touching them are skipped.  The list is built once per set of used
        parameters, so every call for one set yields the same instructions.
        """
        used = frozenset(used_params)
        instructions = self._single_gate_memo.get(used)
        if instructions is None:
            instructions = self._single_gate_memo[used] = tuple(
                Instruction(gate, qubits, params)
                for gate in self.gate_set.gates
                for qubits in itertools.permutations(
                    range(self.num_qubits), gate.num_qubits
                )
                for params in self._param_choices(gate, used)
            )
        return iter(instructions)

    def _param_choices(
        self, gate: Gate, used: FrozenSet[int]
    ) -> Iterator[Tuple[Angle, ...]]:
        if gate.num_params == 0:
            yield ()
            return
        yield from self._param_choices_rec(gate.num_params, used)

    def _param_choices_rec(
        self, slots: int, used: FrozenSet[int]
    ) -> Iterator[Tuple[Angle, ...]]:
        if slots == 0:
            yield ()
            return
        for expr in self.sigma.expressions_avoiding(used):
            newly_used = used | expr.params_used()
            for rest in self._param_choices_rec(slots - 1, newly_used):
                yield (expr,) + rest

    def characteristic(self) -> int:
        """ch(G, Sigma, q, m): the number of single-gate circuits."""
        return sum(1 for _ in self.single_gate_instructions())

    # -- the main algorithm -------------------------------------------------------

    def generate(self, max_gates: int, verbose: bool = False) -> GeneratorResult:
        """Run RepGen and return an (n, q)-complete ECC set (n = max_gates)."""
        start_time = time.perf_counter()
        stats = GeneratorStats()

        empty = Circuit(self.num_qubits, num_params=self.num_params)
        eccs: List[ECC] = [ECC([empty])]
        ecc_buckets: Dict[int, List[int]] = {}
        self._register_bucket(ecc_buckets, self.fingerprints.hash_key(empty), 0)
        rep_keys, reps_by_size = self._representatives(eccs)

        for round_index in range(1, max_gates + 1):
            round_start = time.perf_counter()
            parents = reps_by_size.get(round_index - 1, [])

            # Enumerate this round's candidates: every surviving
            # single-gate extension of every representative, grouped by
            # parent so each parent state is evolved once.
            jobs: List[FingerprintJob] = []
            considered_this_round = 0
            for parent in parents:
                used_params = parent.used_params()
                parent_seq_key = parent.sequence_key()
                extensions: List[Instruction] = []
                for inst in self.single_gate_instructions(used_params):
                    if parent_seq_key:
                        # The candidate's first-gate-dropped suffix must
                        # be a representative; build its key from the
                        # parent's cached key instead of materializing
                        # the suffix.
                        suffix_key = parent_seq_key[1:] + (inst.sort_key(),)
                        if suffix_key not in rep_keys:
                            self.perf.count("repgen.suffix_rejects")
                            continue
                    extensions.append(inst)
                if extensions:
                    jobs.append((parent, extensions))
                    considered_this_round += len(extensions)
            stats.circuits_considered += considered_this_round

            # Fingerprint the candidates in one batched evaluation (grouped
            # by instruction inside the context, so per-gate dispatch is
            # paid once per distinct instruction), then insert them in
            # enumeration order: the insert order is what makes the output
            # deterministic.
            keys_per_job = self.fingerprints.hash_keys_batched(jobs)
            for (parent, extensions), keys in zip(jobs, keys_per_job):
                for inst, hash_key in zip(extensions, keys):
                    self._insert_circuit(
                        parent.appended(inst), hash_key, eccs, ecc_buckets
                    )

            rep_keys, reps_by_size = self._representatives(eccs)

            stats.rounds.append(
                {
                    "round": round_index,
                    "considered": considered_this_round,
                    "eccs": len(eccs),
                    "time": time.perf_counter() - round_start,
                }
            )
            if verbose:
                print(
                    f"[repgen] round {round_index}: considered "
                    f"{considered_this_round}, classes {len(eccs)}"
                )

        representatives = [ecc.representative for ecc in eccs]
        result_set = ECCSet(
            [ecc for ecc in eccs if not ecc.is_singleton()],
            self.num_qubits,
            self.num_params,
        )

        stats.num_representatives = len(representatives)
        stats.num_eccs = len(result_set)
        stats.num_transformations = result_set.num_transformations()
        stats.verification_calls = self.verifier.stats.checks
        stats.verification_time = self.verifier.stats.time_seconds
        stats.total_time = time.perf_counter() - start_time
        stats.perf = self.perf.snapshot()
        return GeneratorResult(result_set, stats, representatives)

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _representatives(
        eccs: List[ECC],
    ) -> Tuple[Set[tuple], Dict[int, List[Circuit]]]:
        """The minimum of every class: its sequence keys and members by size."""
        rep_keys: Set[tuple] = set()
        reps_by_size: Dict[int, List[Circuit]] = {}
        for ecc in eccs:
            representative = ecc.representative
            rep_keys.add(representative.sequence_key())
            reps_by_size.setdefault(len(representative), []).append(representative)
        return rep_keys, reps_by_size

    def _insert_circuit(
        self,
        circuit: Circuit,
        key: int,
        eccs: List[ECC],
        ecc_buckets: Dict[int, List[int]],
    ) -> None:
        """Place a candidate circuit into an existing ECC or a new singleton.

        ``key`` is the circuit's fingerprint bucket (computed incrementally
        by the caller).  Only classes stored under that bucket or the two
        adjacent buckets can possibly be equivalent (Section 7.1), so only
        those are checked with the verifier.
        """
        candidate_indices: List[int] = []
        for probe in (key - 1, key, key + 1):
            candidate_indices.extend(ecc_buckets.get(probe, ()))
        seen: Set[int] = set()
        for index in candidate_indices:
            if index in seen:
                continue
            seen.add(index)
            ecc = eccs[index]
            if circuit in ecc:
                return
            if self.verifier.verify(circuit, ecc.circuits[0]).equivalent:
                ecc.add(circuit)
                return
        eccs.append(ECC([circuit]))
        self._register_bucket(ecc_buckets, key, len(eccs) - 1)

    @staticmethod
    def _register_bucket(buckets: Dict[int, List[int]], key: int, index: int) -> None:
        buckets.setdefault(key, []).append(index)

