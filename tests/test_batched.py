"""Property tests for the batched multi-state kernels and the fingerprint
path built on them.

The load-bearing invariant: batching changes *when* gate applications
happen, never *what* they compute.  Concretely:

* :func:`apply_gate_batch` is **bit-identical** to :func:`apply_gate` on
  every row (asserted with ``np.array_equal``), and so is
  :func:`apply_circuit_batch` to :func:`apply_circuit`;
* the bit-loop kernels of ``reference_kernels`` agree with numpy to
  floating-point tolerance on every gate shape and batch size;
* ``FingerprintContext.hash_keys_batched`` returns exactly the keys — and
  caches exactly the states — a fresh context's full replay of each
  candidate gives, however the candidates are grouped, evicted or
  cross-checked.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.circuit import Circuit, Instruction
import repro.semantics.fingerprint as fingerprint_module
from repro.perf import PerfRecorder
from repro.semantics.fingerprint import FingerprintContext
from repro.semantics.simulator import (
    apply_circuit,
    apply_circuit_batch,
    apply_gate,
    apply_gate_batch,
    instruction_unitary,
    random_state,
)

from reference_kernels import apply_gate_batch_reference, apply_gate_reference

#: (gate name, operand count) pool for random gate draws.
GATE_POOL = [
    ("h", 1),
    ("x", 1),
    ("t", 1),
    ("tdg", 1),
    ("s", 1),
    ("cx", 2),
    ("cz", 2),
    ("ccx", 3),
]


@st.composite
def gate_cases(draw, max_qubits=4, max_batch=6):
    """A (matrix, qubits, num_qubits, stacked states) batched-apply case."""
    num_qubits = draw(st.integers(1, max_qubits))
    eligible = [(g, k) for g, k in GATE_POOL if k <= num_qubits]
    gate, arity = draw(st.sampled_from(eligible))
    qubits = tuple(
        draw(
            st.permutations(range(num_qubits)).map(lambda p: p[:arity])
        )
    )
    batch = draw(st.integers(1, max_batch))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    states = np.stack([random_state(num_qubits, rng) for _ in range(batch)])
    matrix = instruction_unitary(Instruction(gate, qubits))
    return matrix, qubits, num_qubits, states


@st.composite
def circuits(draw, num_qubits=2, max_gates=6):
    """A random circuit over ``GATE_POOL``."""
    circuit = Circuit(num_qubits)
    for _ in range(draw(st.integers(0, max_gates))):
        gate, arity = draw(
            st.sampled_from([(g, k) for g, k in GATE_POOL if k <= num_qubits])
        )
        qubits = draw(
            st.permutations(range(num_qubits)).map(lambda p: tuple(p[:arity]))
        )
        circuit.append(gate, qubits)
    return circuit


class TestApplyGateBatchParity:
    @settings(max_examples=60, deadline=None)
    @given(gate_cases())
    def test_numpy_batch_is_bit_identical_to_per_state(self, case):
        matrix, qubits, num_qubits, states = case
        batched = apply_gate_batch(states, matrix, qubits, num_qubits)
        per_state = np.stack(
            [apply_gate(s, matrix, qubits, num_qubits) for s in states]
        )
        assert np.array_equal(batched, per_state)

    @settings(max_examples=60, deadline=None)
    @given(gate_cases())
    def test_kernel_batch_matches_kernel_per_state_and_numpy(self, case):
        matrix, qubits, num_qubits, states = case
        batched = apply_gate_batch_reference(states, matrix, qubits, num_qubits)
        per_state = np.stack(
            [apply_gate_reference(s, matrix, qubits, num_qubits) for s in states]
        )
        numpy_batched = apply_gate_batch(states, matrix, qubits, num_qubits)
        np.testing.assert_allclose(batched, per_state, atol=1e-12)
        np.testing.assert_allclose(batched, numpy_batched, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(circuits(num_qubits=3), st.integers(1, 5), st.integers(0, 2**31))
    def test_circuit_batch_is_bit_identical_to_per_state(
        self, circuit, batch, seed
    ):
        rng = np.random.default_rng(seed)
        states = np.stack([random_state(3, rng) for _ in range(batch)])
        batched = apply_circuit_batch(circuit, states)
        per_state = np.stack([apply_circuit(circuit, s) for s in states])
        assert np.array_equal(batched, per_state)


@st.composite
def fingerprint_jobs(draw, num_qubits=2, max_parents=3, max_extensions=5):
    """RepGen-shaped jobs: (parent circuit, single-gate extensions)."""
    jobs = []
    for _ in range(draw(st.integers(1, max_parents))):
        parent = draw(circuits(num_qubits=num_qubits))
        extensions = []
        for _ in range(draw(st.integers(1, max_extensions))):
            gate, arity = draw(
                st.sampled_from([(g, k) for g, k in GATE_POOL if k <= num_qubits])
            )
            qubits = draw(
                st.permutations(range(num_qubits)).map(lambda p: tuple(p[:arity]))
            )
            extensions.append(Instruction(gate, qubits))
        jobs.append((parent, extensions))
    return jobs


def assert_matches_full_replay(context, jobs, keys):
    """``keys`` and ``context``'s cached candidate states are bit for bit
    what a fresh context gets by replaying every candidate from scratch."""
    assert keys == [
        [
            FingerprintContext(context.num_qubits, context.num_params).hash_key(
                parent.appended(inst)
            )
            for inst in extensions
        ]
        for parent, extensions in jobs
    ]
    for parent, extensions in jobs:
        parent_key = parent.sequence_key()
        for inst in extensions:
            cached = context.cached_state(parent_key + (inst.sort_key(),))
            if cached is None:
                continue  # evicted; its key was still checked above
            fresh = FingerprintContext(context.num_qubits, context.num_params)
            assert np.array_equal(
                cached, fresh.evolved_state(parent.appended(inst))
            )


class TestHashKeysBatched:
    """``hash_keys_batched`` is the one fingerprint path of generation; its
    reference is a fresh context's full replay of each candidate."""

    @settings(max_examples=40, deadline=None)
    @given(fingerprint_jobs())
    def test_keys_and_states_bit_identical_to_full_replay(self, jobs):
        context = FingerprintContext(2, 0)
        assert_matches_full_replay(context, jobs, context.hash_keys_batched(jobs))

    def test_singleton_and_multi_row_groups_match_full_replay(self):
        perf = PerfRecorder()
        context = FingerprintContext(2, 0, perf=perf)
        parents = [Circuit(2).h(0), Circuit(2).h(0).cx(0, 1), Circuit(2).x(1)]
        shared = Instruction("cx", (1, 0))
        jobs = [(parent, [shared]) for parent in parents]
        jobs[0][1].append(Instruction("t", (1,)))  # a group of one
        assert_matches_full_replay(context, jobs, context.hash_keys_batched(jobs))
        counters = perf.snapshot()
        assert counters["fingerprint.batched.singletons"] == 1
        assert counters["fingerprint.batched.states"] == len(parents)

    def test_singleton_group_skips_the_stacked_kernel(self, monkeypatch):
        perf = PerfRecorder()
        context = FingerprintContext(2, 0, perf=perf)
        parent = Circuit(2).h(0)
        inst = Instruction("x", (1,))

        def forbid_batch(*_args, **_kwargs):
            raise AssertionError(
                "apply_gate_batch must not run for a degenerate batch of 1"
            )

        monkeypatch.setattr(fingerprint_module, "apply_gate_batch", forbid_batch)
        jobs = [(parent, [inst])]
        assert_matches_full_replay(context, jobs, context.hash_keys_batched(jobs))
        counters = perf.snapshot()
        assert counters.get("fingerprint.batched.singletons") == 1
        assert "fingerprint.batched.states" not in counters

    def test_keys_independent_of_grouping(self):
        """A shared instruction forms one multi-row group when every job is
        evaluated at once and a singleton per job when they are evaluated
        one by one: keys and cached states must not notice."""
        parents = [Circuit(2).h(0), Circuit(2).h(0).cx(0, 1), Circuit(2).x(1)]
        shared = [Instruction("x", (0,)), Instruction("cx", (1, 0))]
        jobs = [(parent, list(shared)) for parent in parents]

        whole = FingerprintContext(2, 0)
        keys_whole = whole.hash_keys_batched(jobs)
        chunked = FingerprintContext(2, 0)
        keys_chunked = [chunked.hash_keys_batched([job])[0] for job in jobs]
        assert keys_whole == keys_chunked
        for parent, extensions in jobs:
            parent_key = parent.sequence_key()
            for inst in extensions:
                key = parent_key + (inst.sort_key(),)
                assert np.array_equal(
                    whole.cached_state(key), chunked.cached_state(key)
                )

    @pytest.mark.parametrize("state_cache_size", [1, 2])
    def test_eviction_does_not_change_keys(self, state_cache_size):
        perf = PerfRecorder()
        tiny = FingerprintContext(2, 0, state_cache_size=state_cache_size, perf=perf)
        parents = [Circuit(2).h(0).cx(0, 1), Circuit(2).x(0), Circuit(2).h(1)]
        extensions = [Instruction("t", (1,)), Instruction("cz", (0, 1))]
        jobs = [(parent, list(extensions)) for parent in parents]
        assert_matches_full_replay(tiny, jobs, tiny.hash_keys_batched(jobs))
        assert len(tiny._state_cache) <= state_cache_size
        assert perf.value("fingerprint.state_cache.evictions") > 0

    def test_cross_check_of_every_eval_runs_clean(self):
        perf = PerfRecorder()
        context = FingerprintContext(2, 0, cross_check_interval=1, perf=perf)
        parents = [Circuit(2).h(0), Circuit(2).h(0).cx(0, 1)]
        jobs = [
            (parent, [Instruction(gate, (1,)) for gate in ("x", "z", "s")])
            for parent in parents
        ]
        # interval=1 replays every candidate from scratch; any divergence
        # from the incremental state would raise RuntimeError.
        assert_matches_full_replay(context, jobs, context.hash_keys_batched(jobs))
        assert perf.value("fingerprint.cross_checks") == 6

    def test_poisoned_parent_state_fails_the_cross_check(self):
        context = FingerprintContext(2, 0, cross_check_interval=1)
        parent = Circuit(2).h(0).cx(0, 1)
        context.evolved_state(parent)
        context._state_cache[parent.sequence_key()] = random_state(
            2, np.random.default_rng(3)
        )
        with pytest.raises(RuntimeError, match="diverged from full replay"):
            context.hash_keys_batched([(parent, [Instruction("t", (0,))])])

    def test_cached_states_do_not_alias_the_group_stack(self):
        """Cached candidate states must own their memory: a row view would
        pin the whole (num_states, dim) stack until every row is evicted."""
        context = FingerprintContext(2, 0)
        parents = [Circuit(2).h(0), Circuit(2).x(0)]
        inst = Instruction("x", (1,))
        context.hash_keys_batched([(parent, [inst]) for parent in parents])
        for parent in parents:
            state = context.cached_state(parent.sequence_key() + (inst.sort_key(),))
            assert state.base is None

    def test_cross_check_samples_the_batched_path(self):
        context = FingerprintContext(2, 0, cross_check_interval=3)
        perf = PerfRecorder()
        context.perf = perf
        parent = Circuit(2).h(0).cx(0, 1)
        extensions = [Instruction("x", (q % 2,)) for q in range(7)]
        # Duplicate instructions are legal candidates; dedup is not this
        # layer's concern.
        context.hash_keys_batched([(parent, extensions[:1])])
        context.hash_keys_batched([(parent, extensions)])
        assert perf.snapshot().get("fingerprint.cross_checks", 0) >= 2

    def test_empty_jobs(self):
        assert FingerprintContext(2, 0).hash_keys_batched([]) == []


class TestCacheKinds:
    def test_repgen_cache_kinds_are_bare(self):
        from repro.api import GenerationConfig
        from repro.api.facade import _generation_key
        from repro.ir.gatesets import NAM

        generation = GenerationConfig(n=2, q=2)
        # The kinds and names blobs have always been stored under, so every
        # existing .repro_cache/ entry stays valid.
        for kind in ("repgen", "pruned"):
            key = _generation_key(kind, NAM, generation)
            assert key.kind == kind
            assert key.filename().startswith(f"{kind}_nam_n2_q2_m2_s20220433_")


class TestGenerationByteIdentity:
    def test_generation_is_independent_of_grouping(self, monkeypatch):
        # Evaluating each parent's extensions on their own (every group a
        # singleton or a per-parent stack) must give the ECC set that one
        # batched evaluation per round gives.
        from repro.generator import RepGen
        from repro.ir.gatesets import NAM

        batched = RepGen(NAM, num_qubits=2, num_params=2).generate(2)
        assert batched.stats.perf.get("fingerprint.batched.calls", 0) > 0
        whole_round = FingerprintContext.hash_keys_batched

        def one_job_at_a_time(self, jobs):
            return [whole_round(self, [job])[0] for job in jobs]

        monkeypatch.setattr(
            FingerprintContext, "hash_keys_batched", one_job_at_a_time
        )
        per_job = RepGen(NAM, num_qubits=2, num_params=2).generate(2)
        assert per_job.ecc_set.to_json() == batched.ecc_set.to_json()

    def test_pool_workers_match_in_process(self):
        # Generation in the workers of a pool (as the service's warming
        # workers run it) equals generation in this process: batch
        # grouping must not depend on the process.
        from repro.generator import RepGen
        from repro.ir.gatesets import NAM
        from repro.workerpool import ResilientPool

        with ResilientPool(
            _generation_chunk, _noop_init, (), 2, chunk_timeout=60.0
        ) as pool:
            pooled = [pool.run(0), pool.run(1)]
        serial = RepGen(NAM, num_qubits=2, num_params=2).generate(2)
        assert pooled == [serial.ecc_set.to_json()] * 2


def _noop_init() -> None:
    pass


def _generation_chunk(payload):
    from repro.generator import RepGen
    from repro.ir.gatesets import NAM

    result = RepGen(NAM, num_qubits=2, num_params=2).generate(2)
    assert result.stats.perf.get("fingerprint.batched.calls", 0) > 0
    return result.ecc_set.to_json()
