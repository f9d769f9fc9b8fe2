"""Circuit fingerprinting (Section 3.1 and Section 7.1 of the paper).

The fingerprint of a circuit C is ``| <psi0| [[C]](p0) |psi1> |`` for fixed,
randomly chosen parameter values ``p0`` and states ``psi0``, ``psi1``.
Equivalent circuits (equal up to a global phase) have the same fingerprint
because the modulus cancels the phase.  With floating-point arithmetic the
implementation buckets fingerprints with an absolute error threshold
``E_max``: the hash key is ``floor(fingerprint / (2 * E_max))``, and the
generator additionally compares adjacent buckets (h and h+1) — both exactly
as described in Section 7.1.

Incremental, batched evaluation
-------------------------------

Every candidate RepGen examines is ``parent.appended(inst)`` for a parent
that is itself a representative, so the evolved statevector
``[[parent]](p0) |psi1>`` is shared by every extension of that parent.  The
context therefore keeps an LRU-bounded cache of evolved states keyed by
sequence key, and computes a candidate's amplitude by applying a *single*
gate to the parent's cached state — O(1) gate applications per candidate
instead of O(n).

A RepGen round asks for the hash keys of thousands of candidates at once,
and the same single-gate instruction extends many different parents.
:meth:`FingerprintContext.hash_keys_batched` therefore groups a round's
candidates by instruction, stacks the parents' cached states into a
``(num_states, 2**q)`` array and evolves each group with one
:func:`~repro.semantics.simulator.apply_gate_batch` call — per-gate
dispatch is paid once per distinct instruction instead of once per
candidate.  Groups of a single state skip the stacking and take the
per-state kernel.

Neither memoization nor batching reorders a floating-point operation (the
batch kernel performs the per-state kernel's exact products), so the hash
keys are bit-identical to a full replay of every candidate; a sampling
cross-check (every ``cross_check_interval`` evaluations) guards that
invariant at runtime.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.circuit import Circuit, Instruction
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.semantics.simulator import (
    apply_circuit,
    apply_gate,
    apply_gate_batch,
    instruction_unitary,
    random_state,
)

DEFAULT_E_MAX = 1e-10

#: Default bound on the number of evolved statevectors kept per context.
DEFAULT_STATE_CACHE_SIZE = 1 << 15

#: Default sampling interval for the incremental-vs-full cross-check.
DEFAULT_CROSS_CHECK_INTERVAL = 1024


class FingerprintContext:
    """Fixed random inputs shared by all fingerprint computations of a run."""

    def __init__(
        self,
        num_qubits: int,
        num_params: int,
        seed: int = 20220433,
        e_max: float = DEFAULT_E_MAX,
        *,
        state_cache_size: int = DEFAULT_STATE_CACHE_SIZE,
        cross_check_interval: int = DEFAULT_CROSS_CHECK_INTERVAL,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.num_params = num_params
        self.seed = seed
        self.e_max = e_max
        rng = np.random.default_rng(seed)
        self.param_values: list[float] = list(
            rng.uniform(-math.pi, math.pi, size=max(num_params, 1))
        )
        self.psi0 = random_state(num_qubits, rng)
        self.psi1 = random_state(num_qubits, rng)
        self.state_cache_size = max(int(state_cache_size), 1)
        self.cross_check_interval = int(cross_check_interval)
        self.perf = perf if perf is not None else NULL_RECORDER
        self._state_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._incremental_evals = 0

    # -- state cache ---------------------------------------------------------

    def _store_state(self, key: tuple, state: np.ndarray) -> None:
        cache = self._state_cache
        cache[key] = state
        if len(cache) > self.state_cache_size:
            cache.popitem(last=False)
            self.perf.count("fingerprint.state_cache.evictions")

    def evolved_state(self, circuit: Circuit) -> np.ndarray:
        """Return ``[[C]](p0) |psi1>``, cached by the circuit's sequence key.

        The returned array is owned by the cache and must not be mutated.
        """
        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"context is for {self.num_qubits} qubits, circuit has {circuit.num_qubits}"
            )
        key = circuit.sequence_key()
        cache = self._state_cache
        state = cache.get(key)
        if state is not None:
            cache.move_to_end(key)
            self.perf.count("fingerprint.state_cache.hits")
            return state
        self.perf.count("fingerprint.state_cache.misses")
        state = apply_circuit(circuit, self.psi1, self.param_values)
        self._store_state(key, state)
        return state

    def clear_state_cache(self) -> None:
        self._state_cache.clear()

    def cached_state(self, key: tuple) -> Optional[np.ndarray]:
        """The cached evolved state stored under ``key``, if still present."""
        return self._state_cache.get(key)

    # -- full-replay path ----------------------------------------------------

    def amplitude(self, circuit: Circuit) -> complex:
        """Return ``<psi0| [[C]](p0) |psi1>`` (without the modulus)."""
        self.perf.count("fingerprint.evals")
        return complex(np.vdot(self.psi0, self.evolved_state(circuit)))

    def fingerprint(self, circuit: Circuit) -> float:
        """The real-valued fingerprint (modulus of the amplitude)."""
        return abs(self.amplitude(circuit))

    def hash_key(self, circuit: Circuit) -> int:
        """The integer bucket used as the hash-table key for this circuit."""
        return int(math.floor(self.fingerprint(circuit) / (2.0 * self.e_max)))

    def keys_to_probe(self, circuit: Circuit) -> Sequence[int]:
        """Hash keys whose buckets may hold circuits equivalent to this one.

        Under the E_max assumption, an equivalent circuit's key differs by at
        most 1, so the generator probes the key itself and both neighbours.
        """
        key = self.hash_key(circuit)
        return (key - 1, key, key + 1)

    # -- incremental, batched path --------------------------------------------

    def _cross_check(
        self, parent: Circuit, inst: Instruction, incremental_state: np.ndarray
    ) -> None:
        """Verify an incremental state against a from-scratch replay."""
        self.perf.count("fingerprint.cross_checks")
        replayed = apply_circuit(parent.appended(inst), self.psi1, self.param_values)
        if np.array_equal(replayed, incremental_state):
            return
        drift = float(np.max(np.abs(replayed - incremental_state)))
        raise RuntimeError(
            "incremental fingerprint state diverged from full replay "
            f"(max |delta| = {drift:.3e}); the state cache is stale or "
            "a gate matrix was mutated in place"
        )

    def hash_keys_batched(
        self, jobs: Sequence[Tuple[Circuit, Sequence[Instruction]]]
    ) -> List[List[int]]:
        """Bucket keys for every ``(parent, extensions)`` job.

        Key ``[j][i]`` equals ``hash_key(parent_j.appended(ext_i))`` bit for
        bit, but each candidate costs one gate application on its parent's
        cached state: candidates across all jobs are grouped by
        instruction, and each group's parent states are stacked and evolved
        with one ``apply_gate_batch`` call.  Candidate evolved states land
        in the state cache, so a follow-up verifier phase screen reuses
        them for free.
        """
        results: List[List[int]] = [[0] * len(extensions) for _, extensions in jobs]
        if not results:
            return results
        # Group candidates by instruction across jobs (insertion-ordered,
        # so the sampling cross-check below stays deterministic).
        groups: "OrderedDict[tuple, List[Tuple[int, int, np.ndarray, tuple]]]" = (
            OrderedDict()
        )
        members_meta: Dict[tuple, Instruction] = {}
        for job_index, (parent, extensions) in enumerate(jobs):
            parent_state = self.evolved_state(parent)
            parent_key = parent.sequence_key()
            for position, inst in enumerate(extensions):
                inst_key = inst.sort_key()
                groups.setdefault(inst_key, []).append(
                    (job_index, position, parent_state, parent_key + (inst_key,))
                )
                members_meta.setdefault(inst_key, inst)

        total = sum(len(members) for members in groups.values())
        self.perf.count("fingerprint.evals", total)
        self.perf.count("fingerprint.incremental_evals", total)
        self.perf.count("fingerprint.batched.calls")
        self.perf.count("fingerprint.batched.groups", len(groups))
        interval = self.cross_check_interval
        for inst_key, members in groups.items():
            inst = members_meta[inst_key]
            gate_matrix = instruction_unitary(inst, self.param_values)
            if len(members) == 1:
                # Degenerate batch: the per-state kernel, no stacked array.
                self.perf.count("fingerprint.batched.singletons")
                evolved = [
                    apply_gate(members[0][2], gate_matrix, inst.qubits, self.num_qubits)
                ]
            else:
                self.perf.count("fingerprint.batched.states", len(members))
                evolved = apply_gate_batch(
                    np.stack([member[2] for member in members]),
                    gate_matrix,
                    inst.qubits,
                    self.num_qubits,
                )
            multi_row = len(members) > 1
            for row, (job_index, position, _parent_state, candidate_key) in enumerate(
                members
            ):
                state = evolved[row]
                amplitude = complex(np.vdot(self.psi0, state))
                if multi_row:
                    # Copy the row out of the stack before caching: a row
                    # *view* would keep the whole (num_states, dim) buffer
                    # alive until every row is evicted, pinning far more
                    # memory than the LRU bound accounts for.
                    state = state.copy()
                self._store_state(candidate_key, state)
                results[job_index][position] = int(
                    math.floor(abs(amplitude) / (2.0 * self.e_max))
                )
                self._incremental_evals += 1
                if interval > 0 and self._incremental_evals % interval == 0:
                    parent, extensions = jobs[job_index]
                    self._cross_check(parent, extensions[position], state)
        return results


def fingerprint(circuit: Circuit, context: FingerprintContext | None = None) -> float:
    """Convenience wrapper returning a circuit's fingerprint value."""
    if context is None:
        context = FingerprintContext(circuit.num_qubits, max(circuit.used_params(), default=-1) + 1)
    return context.fingerprint(circuit)
