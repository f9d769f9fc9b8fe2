"""Circuit fingerprinting (Section 3.1 and Section 7.1 of the paper).

The fingerprint of a circuit C is ``| <psi0| [[C]](p0) |psi1> |`` for fixed,
randomly chosen parameter values ``p0`` and states ``psi0``, ``psi1``.
Equivalent circuits (equal up to a global phase) have the same fingerprint
because the modulus cancels the phase.  With floating-point arithmetic the
implementation buckets fingerprints with an absolute error threshold
``E_max``: the hash key is ``floor(fingerprint / (2 * E_max))``, and the
generator additionally compares adjacent buckets (h and h+1) — both exactly
as described in Section 7.1.

Incremental evaluation
----------------------

Every candidate RepGen examines is ``parent.appended(inst)`` for a parent
that is itself a representative, so the evolved statevector
``[[parent]](p0) |psi1>`` is shared by every extension of that parent.  The
context therefore keeps an LRU-bounded cache of evolved states keyed by
sequence key, and :meth:`amplitude_appended` computes a candidate's
amplitude by applying a *single* gate to the parent's cached state — O(1)
gate applications per candidate instead of O(n).

The incremental path performs the exact same sequence of floating-point
operations as a full replay (memoization does not reorder arithmetic), so
its hash keys are bit-identical to the non-incremental path; a sampling
cross-check (every ``cross_check_interval`` incremental evaluations) guards
that invariant at runtime.

Batched evaluation
------------------

A RepGen round asks for the hash keys of thousands of candidates at once,
and the same single-gate instruction extends many different parents.  The
batched path (:meth:`hash_keys_batched`, on by default, knob
``REPRO_BATCHED``) groups a round's candidates by instruction, stacks the
parents' cached states into a ``(num_states, 2**q)`` array and evaluates
each group with one ``apply_gate_batch`` + ``inner_product_batch`` call —
per-gate dispatch is paid once per distinct instruction instead of once
per candidate.  On backends that declare ``batch_bit_identical`` (the
reference numpy backend does) the batched amplitudes are the same floats
as the per-state path, so hash keys do not depend on the knob; the
sampling cross-check covers the batched path too.  Groups of a single
state skip the stacking entirely and take the per-state kernel on a view.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.envconfig import env_batched
from repro.ir.circuit import Circuit, Instruction
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.semantics.backend import DEFAULT_BACKEND, SimulatorBackend, get_backend
from repro.semantics.simulator import instruction_unitary, random_state

DEFAULT_E_MAX = 1e-10

#: Default bound on the number of evolved statevectors kept per context.
DEFAULT_STATE_CACHE_SIZE = 1 << 15

#: Default sampling interval for the incremental-vs-full cross-check.
DEFAULT_CROSS_CHECK_INTERVAL = 1024


def resolve_batched(batched: Optional[bool] = None) -> bool:
    """Resolve the batched-evaluation flag: explicit argument, else env.

    ``None`` reads ``REPRO_BATCHED`` (default on); anything else is taken
    at face value.
    """
    return env_batched() if batched is None else bool(batched)


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
        backend: str | SimulatorBackend = DEFAULT_BACKEND,
        batched: Optional[bool] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.num_params = num_params
        self.seed = seed
        self.e_max = e_max
        # The backend only changes *how* gates are applied; the random
        # inputs below are always drawn by the reference implementation so
        # every backend fingerprints against the same |psi0>, |psi1>.
        self._backend = get_backend(backend)
        self.backend_name = self._backend.name
        self.batched = resolve_batched(batched)
        # Whether the backend ships a real fused inner-product kernel.  The
        # generic base implementation is the same per-row np.vdot loop the
        # per-state path performs, so batching *reductions* through it would
        # only add a stacking allocation for zero gain.
        self._fused_inner_product = (
            type(self._backend).inner_product_batch
            is not SimulatorBackend.inner_product_batch
        )
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

    @property
    def backend(self) -> SimulatorBackend:
        """The resolved backend instance this context evaluates on."""
        return self._backend

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
        state = self._backend.apply_circuit(circuit, self.psi1, self.param_values)
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

    def amplitudes(self, circuits: Sequence[Circuit]) -> List[complex]:
        """Amplitudes of several circuits, reduced in one batched call.

        The evolved states come from the per-circuit cache exactly as in
        :meth:`amplitude`; only the final ``<psi0|.>`` reductions are
        batched, and only on backends that ship a real fused
        ``inner_product_batch`` kernel.  Backends
        on the generic per-row ``np.vdot`` implementation (numpy) keep the
        plain per-state reductions — bit-identical and with no stacking
        allocation.
        """
        states = [self.evolved_state(circuit) for circuit in circuits]
        self.perf.count("fingerprint.evals", len(states))
        if not self.batched or len(states) < 2 or not self._fused_inner_product:
            return [complex(np.vdot(self.psi0, state)) for state in states]
        self.perf.count("fingerprint.batched.inner_products")
        amps = self._backend.inner_product_batch(self.psi0, np.stack(states))
        return [complex(amp) for amp in amps]

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

    # -- incremental path ----------------------------------------------------

    def amplitude_appended(self, parent: Circuit, inst: Instruction) -> complex:
        """Amplitude of ``parent.appended(inst)`` via the parent's cached state.

        Applies exactly one gate instead of replaying the whole candidate;
        the candidate's evolved state is cached as well, so a follow-up
        verifier phase search reuses it for free.
        """
        self.perf.count("fingerprint.evals")
        self.perf.count("fingerprint.incremental_evals")
        parent_state = self.evolved_state(parent)
        gate_matrix = instruction_unitary(inst, self.param_values)
        state = self._backend.apply_gate(
            parent_state, gate_matrix, inst.qubits, self.num_qubits
        )
        key = parent.sequence_key() + (inst.sort_key(),)
        self._store_state(key, state)

        self._incremental_evals += 1
        if (
            self.cross_check_interval > 0
            and self._incremental_evals % self.cross_check_interval == 0
        ):
            self._cross_check(parent, inst, state)
        return complex(np.vdot(self.psi0, state))

    def fingerprint_appended(self, parent: Circuit, inst: Instruction) -> float:
        return abs(self.amplitude_appended(parent, inst))

    def hash_key_appended(self, parent: Circuit, inst: Instruction) -> int:
        """Bucket key of ``parent.appended(inst)``, computed incrementally.

        Bit-identical to ``hash_key(parent.appended(inst))``: the cached
        parent state is the product of the same ordered gate applications a
        full replay performs, so the final amplitude is the same float.
        """
        return int(
            math.floor(self.fingerprint_appended(parent, inst) / (2.0 * self.e_max))
        )

    def _cross_check(
        self,
        parent: Circuit,
        inst: Instruction,
        incremental_state: np.ndarray,
        *,
        exact: bool = True,
    ) -> None:
        """Verify the incremental state against a from-scratch replay.

        ``exact=False`` is used for batched states on backends whose fused
        kernels reorder arithmetic (``batch_bit_identical`` False): those
        may drift by ulps from the per-state replay, but anything
        approaching ``e_max`` would corrupt bucket assignment and raises.
        """
        self.perf.count("fingerprint.cross_checks")
        replayed = self._backend.apply_circuit(
            parent.appended(inst), self.psi1, self.param_values
        )
        if np.array_equal(replayed, incremental_state):
            return
        drift = float(np.max(np.abs(replayed - incremental_state)))
        if not exact and drift <= 0.5 * self.e_max:
            return
        raise RuntimeError(
            "incremental fingerprint state diverged from full replay "
            f"(max |delta| = {drift:.3e}); the state cache is stale or "
            "a gate matrix was mutated in place"
        )

    # -- batched path ---------------------------------------------------------

    def hash_keys_batched(
        self, jobs: Sequence[Tuple[Circuit, Sequence[Instruction]]]
    ) -> List[List[int]]:
        """Bucket keys for every ``(parent, extensions)`` job, batch-evaluated.

        The drop-in batched equivalent of calling :meth:`hash_key_appended`
        per extension: candidates across all jobs are grouped by
        instruction, each group's parent states are stacked and evolved
        with one ``apply_gate_batch`` call, and the amplitudes reduce
        through one ``inner_product_batch`` per group.  Candidate evolved
        states land in the state cache exactly like the per-state path, so
        a follow-up verifier phase screen reuses them for free.

        On backends with ``batch_bit_identical`` (numpy) the returned keys
        are bit-identical to the per-state path; the sampling cross-check
        enforces that invariant at runtime (with an ``e_max``-scaled
        tolerance on fused-kernel backends).
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
        exact = self._backend.batch_bit_identical
        interval = self.cross_check_interval
        for inst_key, members in groups.items():
            inst = members_meta[inst_key]
            gate_matrix = instruction_unitary(inst, self.param_values)
            if len(members) == 1:
                # Degenerate batch: no stacked-array allocation at all.  On
                # bit-identical backends the per-state kernel is used (same
                # floats by definition); on fused-kernel backends the batch
                # kernel is applied to a one-row *view*, so a candidate's
                # amplitude never depends on how candidates were grouped.
                self.perf.count("fingerprint.batched.singletons")
                parent_state = members[0][2]
                if exact:
                    evolved = self._backend.apply_gate(
                        parent_state, gate_matrix, inst.qubits, self.num_qubits
                    )[None]
                else:
                    evolved = self._backend.apply_gate_batch(
                        parent_state[None], gate_matrix, inst.qubits, self.num_qubits
                    )
            else:
                self.perf.count("fingerprint.batched.states", len(members))
                stacked = np.stack([member[2] for member in members])
                evolved = self._backend.apply_gate_batch(
                    stacked, gate_matrix, inst.qubits, self.num_qubits
                )
            amplitudes = self._backend.inner_product_batch(self.psi0, evolved)
            multi_row = len(members) > 1
            for row, (job_index, position, _parent_state, candidate_key) in enumerate(
                members
            ):
                state = evolved[row]
                if multi_row:
                    # Copy the row out of the stack before caching: a row
                    # *view* would keep the whole (num_states, dim) buffer
                    # alive until every row is evicted, pinning far more
                    # memory than the LRU bound accounts for.
                    state = state.copy()
                self._store_state(candidate_key, state)
                results[job_index][position] = int(
                    math.floor(abs(complex(amplitudes[row])) / (2.0 * self.e_max))
                )
                self._incremental_evals += 1
                if interval > 0 and self._incremental_evals % interval == 0:
                    parent, extensions = jobs[job_index]
                    self._cross_check(
                        parent, extensions[position], state, exact=exact
                    )
        return results


def fingerprint(circuit: Circuit, context: FingerprintContext | None = None) -> float:
    """Convenience wrapper returning a circuit's fingerprint value."""
    if context is None:
        context = FingerprintContext(circuit.num_qubits, max(circuit.used_params(), default=-1) + 1)
    return context.fingerprint(circuit)
