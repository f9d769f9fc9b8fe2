"""Property tests for the batched multi-state simulation kernels.

The load-bearing invariant: batching changes *when* gate applications and
inner products happen, never *what* they compute.  Concretely:

* on the numpy backend, every batched operation is **bit-identical** to the
  per-state loop (asserted with ``np.array_equal`` / integer equality on
  hash keys — the property the fingerprint bucketing relies on);
* the bit-loop kernels of ``reference_kernels`` (the fused-kernel fake
  backend below) agree with numpy to floating-point tolerance on every
  gate shape and batch size;
* ``FingerprintContext.hash_keys_batched`` returns exactly the keys the
  per-state ``hash_key_appended`` path returns, and degenerate batches of
  one state never touch the stacked-array kernel.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.circuit import Circuit, Instruction
from repro.perf import PerfRecorder
from repro.semantics.backend import (
    NumpyBackend,
    SimulatorBackend,
    get_backend,
    register_backend,
)
from repro.semantics.fingerprint import FingerprintContext, resolve_batched
from repro.semantics.simulator import instruction_unitary, random_state

from reference_kernels import (
    apply_gate_batch_reference,
    apply_gate_reference,
    inner_product_batch_reference,
)

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


class LoopBackend(SimulatorBackend):
    """A backend with only ``apply_gate``: exercises the generic batch loop."""

    name = "loop-reference"

    def apply_gate(self, state, matrix, qubits, num_qubits):
        return apply_gate_reference(state, matrix, qubits, num_qubits)


class FusedReferenceBackend(SimulatorBackend):
    """Stand-in for a fused-kernel backend.

    Its batch kernel reorders arithmetic, so it declares
    ``batch_bit_identical = False`` and drives the fingerprint layer's
    fused-backend code paths.
    """

    name = "fused-reference"
    batch_kind = "jit"
    batch_bit_identical = False

    def apply_gate(self, state, matrix, qubits, num_qubits):
        return apply_gate_reference(state, matrix, qubits, num_qubits)

    def apply_gate_batch(self, states, matrix, qubits, num_qubits):
        return apply_gate_batch_reference(states, matrix, qubits, num_qubits)

    def inner_product_batch(self, bra, states):
        return inner_product_batch_reference(bra, states)


class TestApplyGateBatchParity:
    @settings(max_examples=60, deadline=None)
    @given(gate_cases())
    def test_numpy_batch_is_bit_identical_to_per_state(self, case):
        matrix, qubits, num_qubits, states = case
        backend = get_backend("numpy")
        batched = backend.apply_gate_batch(states, matrix, qubits, num_qubits)
        per_state = np.stack(
            [backend.apply_gate(s, matrix, qubits, num_qubits) for s in states]
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
        numpy_batched = get_backend("numpy").apply_gate_batch(
            states, matrix, qubits, num_qubits
        )
        np.testing.assert_allclose(batched, per_state, atol=1e-12)
        np.testing.assert_allclose(batched, numpy_batched, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(gate_cases())
    def test_generic_base_loop_is_bit_identical(self, case):
        matrix, qubits, num_qubits, states = case
        backend = LoopBackend()
        batched = backend.apply_gate_batch(states, matrix, qubits, num_qubits)
        per_state = np.stack(
            [backend.apply_gate(s, matrix, qubits, num_qubits) for s in states]
        )
        assert np.array_equal(batched, per_state)


class TestInnerProductBatchParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 8),
        st.integers(0, 2**31),
    )
    def test_numpy_batch_is_bit_identical_to_vdot(self, num_qubits, batch, seed):
        rng = np.random.default_rng(seed)
        bra = random_state(num_qubits, rng)
        states = np.stack([random_state(num_qubits, rng) for _ in range(batch)])
        batched = get_backend("numpy").inner_product_batch(bra, states)
        per_state = np.array([np.vdot(bra, s) for s in states])
        assert np.array_equal(batched, per_state)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 8),
        st.integers(0, 2**31),
    )
    def test_kernel_batch_matches_vdot(self, num_qubits, batch, seed):
        rng = np.random.default_rng(seed)
        bra = random_state(num_qubits, rng)
        states = np.stack([random_state(num_qubits, rng) for _ in range(batch)])
        batched = inner_product_batch_reference(bra, states)
        per_state = np.array([np.vdot(bra, s) for s in states])
        np.testing.assert_allclose(batched, per_state, atol=1e-12)


@st.composite
def fingerprint_jobs(draw, num_qubits=2, max_parents=3, max_extensions=5):
    """RepGen-shaped jobs: (parent circuit, single-gate extensions)."""
    jobs = []
    for _ in range(draw(st.integers(1, max_parents))):
        parent = Circuit(num_qubits)
        for _ in range(draw(st.integers(0, 6))):
            gate, arity = draw(
                st.sampled_from([(g, k) for g, k in GATE_POOL if k <= num_qubits])
            )
            qubits = draw(
                st.permutations(range(num_qubits)).map(lambda p: tuple(p[:arity]))
            )
            parent.append(gate, qubits)
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


class TestHashKeysBatched:
    """The regression the satellite demands: numpy-backend fingerprint hash
    keys are unchanged by batching."""

    @settings(max_examples=40, deadline=None)
    @given(fingerprint_jobs())
    def test_batched_keys_and_states_bit_identical_to_per_state(self, jobs):
        batched = FingerprintContext(2, 0, batched=True)
        per_state = FingerprintContext(2, 0, batched=False)
        batched_keys = batched.hash_keys_batched(jobs)
        expected = [
            [per_state.hash_key_appended(parent, inst) for inst in extensions]
            for parent, extensions in jobs
        ]
        assert batched_keys == expected
        # The cached candidate states must be bit-identical too (the
        # verifier's phase screen reads them).
        for parent, extensions in jobs:
            parent_key = parent.sequence_key()
            for inst in extensions:
                key = parent_key + (inst.sort_key(),)
                left = batched.cached_state(key)
                right = per_state.cached_state(key)
                assert left is not None and right is not None
                assert np.array_equal(left, right)

    def test_full_context_api_unchanged_by_batching(self):
        circuit = Circuit(2).h(0).cx(0, 1).t(1).h(1)
        batched = FingerprintContext(2, 0, batched=True)
        per_state = FingerprintContext(2, 0, batched=False)
        assert batched.hash_key(circuit) == per_state.hash_key(circuit)
        assert batched.fingerprint(circuit) == per_state.fingerprint(circuit)
        amp_pair = batched.amplitudes((circuit, circuit))
        assert amp_pair[0] == per_state.amplitude(circuit)
        assert amp_pair[0] == amp_pair[1]

    def test_singleton_group_skips_the_stacked_kernel(self, monkeypatch):
        perf = PerfRecorder()
        context = FingerprintContext(2, 0, batched=True, perf=perf)
        parent = Circuit(2).h(0)
        inst = Instruction("x", (1,))

        def forbid_batch(*_args, **_kwargs):
            raise AssertionError(
                "apply_gate_batch must not run for a degenerate batch of 1"
            )

        monkeypatch.setattr(NumpyBackend, "apply_gate_batch", forbid_batch)
        keys = context.hash_keys_batched([(parent, [inst])])
        reference = FingerprintContext(2, 0, batched=False)
        assert keys == [[reference.hash_key_appended(parent, inst)]]
        counters = perf.snapshot()
        assert counters.get("fingerprint.batched.singletons") == 1
        assert "fingerprint.batched.states" not in counters

    def test_fused_backend_keys_independent_of_chunking(self):
        """On fused-kernel backends a candidate's amplitude must not depend
        on how candidates were grouped: a shared instruction can degenerate
        to singletons, so every batch size — including 1 — must route
        through the same kernel, or keys would depend on grouping by ulps."""
        parents = [Circuit(2).h(0), Circuit(2).h(0).cx(0, 1), Circuit(2).x(1)]
        shared = [Instruction("x", (0,)), Instruction("cx", (1, 0))]
        jobs = [(parent, list(shared)) for parent in parents]

        whole = FingerprintContext(2, 0, backend=FusedReferenceBackend(), batched=True)
        keys_whole = whole.hash_keys_batched(jobs)
        chunked = FingerprintContext(
            2, 0, backend=FusedReferenceBackend(), batched=True
        )
        keys_chunked = [chunked.hash_keys_batched([job])[0] for job in jobs]
        assert keys_whole == keys_chunked
        # Stronger than key equality: the cached candidate states must be
        # bitwise identical between the two groupings.
        for parent, extensions in jobs:
            parent_key = parent.sequence_key()
            for inst in extensions:
                key = parent_key + (inst.sort_key(),)
                assert np.array_equal(
                    whole.cached_state(key), chunked.cached_state(key)
                )

    def test_cached_states_do_not_alias_the_group_stack(self):
        """Cached candidate states must own their memory: a row view would
        pin the whole (num_states, dim) stack until every row is evicted."""
        context = FingerprintContext(2, 0, batched=True)
        parents = [Circuit(2).h(0), Circuit(2).x(0)]
        inst = Instruction("x", (1,))
        context.hash_keys_batched([(parent, [inst]) for parent in parents])
        for parent in parents:
            state = context.cached_state(parent.sequence_key() + (inst.sort_key(),))
            assert state.base is None

    def test_cross_check_samples_the_batched_path(self):
        context = FingerprintContext(2, 0, batched=True, cross_check_interval=3)
        perf = PerfRecorder()
        context.perf = perf
        parent = Circuit(2).h(0).cx(0, 1)
        extensions = [Instruction("x", (q % 2,)) for q in range(7)]
        # Duplicate instructions are legal candidates; dedup is not this
        # layer's concern.
        context.hash_keys_batched([(parent, extensions[:1])])
        context.hash_keys_batched([(parent, extensions)])
        assert perf.snapshot().get("fingerprint.cross_checks", 0) >= 2


class TestBatchedKnobPlumbing:
    def test_resolve_batched_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCHED", raising=False)
        assert resolve_batched(None) is True
        monkeypatch.setenv("REPRO_BATCHED", "0")
        assert resolve_batched(None) is False
        assert resolve_batched(True) is True
        assert resolve_batched(False) is False

    def test_repgen_batched_cache_namespace_is_shared_on_numpy(self):
        from repro.generator import RepGen
        from repro.ir.gatesets import NAM

        batched = RepGen(NAM, num_qubits=2, num_params=2, batched=True)
        per_state = RepGen(NAM, num_qubits=2, num_params=2, batched=False)
        # Bit-identical batching must share cache blobs with per-state runs.
        assert batched._cache_key(2) == per_state._cache_key(2)
        assert batched._cache_key(2).kind == "repgen"

    def test_repgen_batched_cache_namespace_is_separate_on_fused_backends(self):
        from repro.generator import RepGen
        from repro.ir.gatesets import NAM
        from repro.semantics import backend as backend_module

        register_backend("fused-reference", FusedReferenceBackend)
        try:
            batched = RepGen(
                NAM, num_qubits=2, num_params=2, backend="fused-reference",
                batched=True,
            )
            per_state = RepGen(
                NAM, num_qubits=2, num_params=2, backend="fused-reference",
                batched=False,
            )
            assert batched._cache_key(2).kind == "repgen@fused-reference+batch"
            assert per_state._cache_key(2).kind == "repgen@fused-reference"
        finally:
            backend_module._FACTORIES.pop("fused-reference")
            backend_module._INSTANCES.pop("fused-reference", None)


class TestGenerationByteIdentity:
    def test_batched_generation_is_byte_identical(self):
        from repro.generator import RepGen
        from repro.ir.gatesets import NAM

        batched = RepGen(NAM, num_qubits=2, num_params=2, batched=True).generate(2)
        per_state = RepGen(NAM, num_qubits=2, num_params=2, batched=False).generate(2)
        assert batched.ecc_set.to_json() == per_state.ecc_set.to_json()
        assert batched.stats.perf.get("fingerprint.batched.calls", 0) > 0
        assert per_state.stats.perf.get("fingerprint.batched.calls", 0) == 0

    def test_batched_workers_match_per_state_serial(self):
        # Batched generation in the workers of a pool (as the service's
        # warming workers run it) equals per-state generation in this
        # process: batch grouping must not depend on the process.
        from repro.generator import RepGen
        from repro.ir.gatesets import NAM
        from repro.workerpool import ResilientPool

        with ResilientPool(
            _batched_generation_chunk, _noop_init, (), 2, site="service",
            chunk_timeout=60.0,
        ) as pool:
            pooled = pool.run_chunks([0, 1])
        serial = RepGen(
            NAM, num_qubits=2, num_params=2, batched=False
        ).generate(2)
        assert pooled == [serial.ecc_set.to_json()] * 2


def _noop_init() -> None:
    pass


def _batched_generation_chunk(payload):
    from repro.generator import RepGen
    from repro.ir.gatesets import NAM

    result = RepGen(NAM, num_qubits=2, num_params=2, batched=True).generate(2)
    assert result.stats.perf.get("fingerprint.batched.calls", 0) > 0
    return result.ecc_set.to_json()
