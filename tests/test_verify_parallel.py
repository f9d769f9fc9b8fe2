"""Verification inside the repo's one worker pool equals in-process verification.

Verification runs serially inside RepGen's insert loop, but it still runs
inside worker processes: every worker of the optimization service's pool
(:class:`~repro.workerpool.ResilientPool` behind
:class:`~repro.service.executor.PoolExecutor`) builds its ECC sets and
screens its search outputs with its own
:class:`~repro.verifier.EquivalenceVerifier`.  The load-bearing property is
*determinism across processes*: a verdict (and the fingerprint bucket
RepGen files a circuit under) must not depend on which process reached it.

A second family of tests pins the bucket-adjacency property of
``_insert_circuit``: the ±1-bucket probing never misses an equivalence
that a full pairwise sweep over the resulting class representatives finds
— for a run in this process and for runs in pool workers alike.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import GenerationConfig, RunConfig, Superoptimizer
from repro.generator import RepGen
from repro.ir.circuit import Circuit
from repro.ir.gatesets import NAM, GateSet
from repro.semantics.fingerprint import FingerprintContext
from repro.service.executor import PoolExecutor
from repro.verifier import EquivalenceVerifier, VerifierStats
from repro.workerpool import ResilientPool

TIMEOUT = 30.0


def _noop_init() -> None:
    pass


def _verdicts(pairs):
    """Verdicts (and the verifier's counters) for ``pairs``, in pair order."""
    verifier = EquivalenceVerifier(num_params=2)
    verdicts = []
    for circuit_a, circuit_b in pairs:
        result = verifier.verify(circuit_a, circuit_b)
        verdicts.append((result.equivalent, result.method, result.reason))
    return verdicts, verifier.stats


def _verify_chunk(payload):
    """Chunk function: verify one chunk of circuit pairs in a worker."""
    pairs, _fault_token = payload
    verdicts, stats = _verdicts(pairs)
    return verdicts, {name: getattr(stats, name) for name in stats.COUNTER_FIELDS}


def _verify_and_fingerprint_chunk(payload):
    """Chunk function: verdicts plus both circuits' fingerprint buckets."""
    pairs, _fault_token = payload
    context = FingerprintContext(2, 2)
    verdicts, _stats = _verdicts(pairs)
    keys = [(context.hash_key(a), context.hash_key(b)) for a, b in pairs]
    return verdicts, keys


def _run_in_pool(chunk_fn, chunks, workers=2):
    """Every chunk as one pool job, submitted concurrently, in chunk order."""
    with ResilientPool(
        chunk_fn, _noop_init, (), workers, chunk_timeout=TIMEOUT
    ) as pool:
        with ThreadPoolExecutor(max_workers=workers) as threads:
            return list(threads.map(pool.run, chunks))


def _split(items, parts):
    return [items[index::parts] for index in range(parts)]


@pytest.fixture(scope="module")
def ecc_pairs():
    """Every (representative, member) pair of the Nam (2, 2) n=2 ECC set."""
    result = RepGen(NAM, num_qubits=2, num_params=2).generate(2)
    pairs = []
    for ecc in result.ecc_set:
        representative = ecc.representative
        pairs.extend((representative, member) for member in ecc.circuits[1:])
    assert pairs
    return pairs


class TestParallelVerificationEqualsSerial:
    def test_two_workers_byte_identical(self, ecc_pairs):
        chunks = _split(ecc_pairs, 2)
        pooled = _run_in_pool(_verify_chunk, chunks, workers=2)
        assert [verdicts for verdicts, _ in pooled] == [
            _verdicts(chunk)[0] for chunk in chunks
        ]

    def test_four_workers_byte_identical(self, ecc_pairs):
        chunks = _split(ecc_pairs, 4)
        pooled = _run_in_pool(_verify_chunk, chunks, workers=4)
        assert [verdicts for verdicts, _ in pooled] == [
            _verdicts(chunk)[0] for chunk in chunks
        ]

    def test_representatives_match(self, ecc_pairs):
        # Every class member verifies equal to its representative, in a
        # worker exactly as in this process.
        pooled = _run_in_pool(_verify_chunk, _split(ecc_pairs, 2))
        for verdicts, _counters in pooled:
            assert all(equivalent for equivalent, _method, _reason in verdicts)

    def test_combined_with_fingerprint_work(self, ecc_pairs):
        chunks = _split(ecc_pairs, 2)
        pooled = _run_in_pool(_verify_and_fingerprint_chunk, chunks)
        assert pooled == [
            _verify_and_fingerprint_chunk((chunk, None)) for chunk in chunks
        ]
        # Equivalent circuits land in the same or an adjacent bucket — the
        # property RepGen's ±1-bucket probing relies on.
        for _verdicts_, keys in pooled:
            for key_a, key_b in keys:
                assert abs(key_a - key_b) <= 1

    def test_worker_stats_aggregated_into_parent(self, ecc_pairs):
        pooled = _run_in_pool(_verify_chunk, _split(ecc_pairs, 2))
        totals = VerifierStats()
        for _verdicts_, counters in pooled:
            for name, value in counters.items():
                assert isinstance(value, int)
                setattr(totals, name, getattr(totals, name) + value)
        _serial_verdicts, serial_stats = _verdicts(ecc_pairs)
        assert totals.checks == len(ecc_pairs)
        for name in VerifierStats.COUNTER_FIELDS:
            assert getattr(totals, name) == getattr(serial_stats, name)

    def test_custom_verifier_subclass_verifies_serially(self):
        class CountingVerifier(EquivalenceVerifier):
            calls = 0

            def verify(self, circuit_a, circuit_b):
                CountingVerifier.calls += 1
                return super().verify(circuit_a, circuit_b)

        stock = RepGen(NAM, num_qubits=2, num_params=2).generate(2)
        custom = RepGen(
            NAM, num_qubits=2, num_params=2, verifier=CountingVerifier(2)
        ).generate(2)
        assert custom.ecc_set.to_json() == stock.ecc_set.to_json()
        # Generation asked the caller's verifier, not a stock copy of it.
        assert CountingVerifier.calls == custom.stats.verification_calls > 0


def _mini_representatives_chunk(payload):
    _chunk, _fault_token = payload
    return TestBucketAdjacency.representatives()


class TestBucketAdjacency:
    """±1-bucket probing vs a full pairwise sweep at the quick scale.

    If the probing missed an equivalence, two circuits that belong together
    would land in different classes — and by transitivity their class
    representatives would verify as equivalent.  So the sweep checks every
    pair of distinct representatives and expects *no* equivalence.
    """

    # A small constant gate set keeps the all-pairs sweep tractable.
    MINI = GateSet("adjacency_mini", ["h", "cx", "t"], num_params=0)

    @classmethod
    def representatives(cls):
        result = RepGen(cls.MINI, num_qubits=2, num_params=0).generate(2)
        return list(result.representatives)

    def _assert_no_missed_equivalence(self, representatives):
        sweep = EquivalenceVerifier(num_params=0)
        for i, rep_a in enumerate(representatives):
            for rep_b in representatives[i + 1 :]:
                assert not sweep.verify(rep_a, rep_b).equivalent, (
                    f"bucket probing split an equivalence class: "
                    f"{rep_a} == {rep_b}"
                )

    def test_serial_probing_matches_full_sweep(self):
        representatives = self.representatives()
        assert len(representatives) > 1
        self._assert_no_missed_equivalence(representatives)

    def test_two_worker_probing_matches_full_sweep(self):
        serial = self.representatives()
        for pooled in _run_in_pool(_mini_representatives_chunk, [0, 1]):
            assert [c.sequence_key() for c in pooled] == [
                c.sequence_key() for c in serial
            ]
            self._assert_no_missed_equivalence(pooled)


class TestWorkerResolution:
    """``verify_workers`` is a compatibility field: serial is all it means."""

    def test_explicit_argument_wins(self):
        # An explicit serial request reaches the facade's config and
        # generates exactly what the default does.
        explicit = Superoptimizer(
            gate_set="nam", n=2, q=2, cache_enabled=False, verify_workers=1
        )
        default = Superoptimizer(gate_set="nam", n=2, q=2, cache_enabled=False)
        assert explicit.config.generation.verify_workers == 1
        assert default.config.generation.verify_workers is None
        assert (
            explicit.generate().ecc_set.to_json()
            == default.generate().ecc_set.to_json()
        )

    def test_default_is_serial(self):
        # Serial is the only mode: the config default is None and RepGen
        # takes no worker count at all.
        assert GenerationConfig().verify_workers is None
        with pytest.raises(TypeError, match="verify_workers"):
            RepGen(NAM, num_qubits=2, verify_workers=2)

    def test_independent_of_fingerprint_workers(self):
        config = RunConfig().with_overrides(workers=1)
        assert config.generation.workers == 1
        assert config.generation.verify_workers is None
        with pytest.raises(ValueError, match="verify_workers"):
            RunConfig().with_overrides(workers=1, verify_workers=2)


class TestPoolDirectly:
    def test_verify_pairs_returns_results_in_pair_order(self):
        pairs = [
            (Circuit(1).h(0).h(0), Circuit(1)),  # equivalent
            (Circuit(1).x(0), Circuit(1).z(0)),  # not equivalent
            (Circuit(1).s(0).s(0), Circuit(1).z(0)),  # equivalent
        ]
        results = _run_in_pool(_verify_chunk, [[pair] for pair in pairs])
        assert [verdicts[0][0] for verdicts, _ in results] == [True, False, True]
        assert [counters["checks"] for _, counters in results] == [1, 1, 1]

    def test_empty_batch(self):
        # A pool that is started and closed without a job records nothing.
        with ResilientPool(_verify_chunk, _noop_init, (), 2) as pool:
            assert pool.counters() == {}

    def test_single_worker_pool_rejected(self):
        # The service never builds a one-worker pool: below 2 workers it
        # runs jobs in-process, and the pool refuses to start with one.
        with pytest.raises(ValueError, match="at least 2"):
            PoolExecutor(RunConfig(), 1)
