"""Generation inside the repo's one worker pool equals serial generation.

RepGen runs serially — the Section 4 algorithm, pinned byte for byte by
``tests/test_ecc_golden.py`` — but it still runs inside worker processes:
the optimization service's pool (:class:`~repro.workerpool.ResilientPool`
behind :class:`~repro.service.executor.PoolExecutor`) pre-warms every
worker's generation memo in that worker.  The
load-bearing property is *determinism across processes*: an ECC set
generated in a pool worker must be byte-identical (via
``ECCSet.to_json``) to the in-process one, or a pooled service response
would depend on which process served it.

The file also pins the service executor's pool boundary (counters and
programming errors), the worker-count resolution of that pool
(``REPRO_SERVICE_WORKERS``) and the picklability of what crosses the
process boundary.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.api import RunConfig
from repro.envconfig import SERVICE_WORKERS_ENV_VAR
from repro.faults import FaultPlan
from repro.generator import RepGen
from repro.ir.circuit import Circuit
from repro.ir.gates import Gate, get_gate
from repro.ir.gatesets import NAM
from repro.ir.qasm import to_qasm
from repro.semantics.fingerprint import FingerprintContext
from repro.service import JobManager, ServiceConfig
from repro.service.executor import InlineExecutor, PoolExecutor, execute_job
from repro.service.jobs import _result_block
from repro.workerpool import ResilientPool

#: Per-job deadline: generous for a Nam (2, 2) run, short enough that a
#: wedged worker fails the test instead of hanging it.
TIMEOUT = 30.0


def _noop_init() -> None:
    pass


def _summary(result):
    return (
        result.ecc_set.to_json(),
        [circuit.sequence_key() for circuit in result.representatives],
        result.stats.circuits_considered,
        result.stats.num_eccs,
    )


def _generate_serially():
    return RepGen(NAM, num_qubits=2, num_params=2).generate(2)


def _generate_chunk(payload):
    """Job function: generate the Nam (q=2, m=2, n=2) ECC set in a worker."""
    _chunk, fault_token = payload
    faults.apply_chunk_fault(fault_token)
    return _summary(_generate_serially())


def _generate_in_pool(workers):
    """One generation per worker, submitted concurrently to the pool."""
    with ResilientPool(
        _generate_chunk,
        _noop_init,
        (),
        workers,
        chunk_timeout=TIMEOUT,
    ) as pool:
        with ThreadPoolExecutor(max_workers=workers) as threads:
            return list(threads.map(pool.run, range(workers)))


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.set_fault_plan(None)
    yield
    faults.set_fault_plan(None)


@pytest.fixture(scope="module")
def serial_result():
    return _generate_serially()


#: A small base config: each pool worker pre-warms its facade (generation
#: at n=2, q=2) when the pool starts.
BASE_RUN = RunConfig().with_overrides(n=2, q=2, cache_enabled=False)

#: A circuit with an H·H pair the search removes.
PAYLOAD = {
    "qasm": to_qasm(Circuit(2).h(0).h(0).cx(0, 1).t(1)),
    "config": BASE_RUN,
}


@pytest.fixture(scope="module")
def service_pool():
    executor = PoolExecutor(BASE_RUN, 2, chunk_timeout=TIMEOUT, chunk_retries=2)
    yield executor
    executor.close()


class TestParallelEqualsSerial:
    def test_two_workers_byte_identical(self, serial_result):
        expected = serial_result.ecc_set.to_json()
        for ecc_json, *_rest in _generate_in_pool(2):
            assert ecc_json == expected

    def test_four_workers_byte_identical(self, serial_result):
        expected = serial_result.ecc_set.to_json()
        results = _generate_in_pool(4)
        assert len(results) == 4
        for ecc_json, *_rest in results:
            assert ecc_json == expected

    def test_representatives_and_stats_match(self, serial_result):
        for pooled in _generate_in_pool(2):
            assert pooled == _summary(serial_result)

    def test_parallel_counters_surfaced(self, service_pool):
        # The executor returns its pool's resilience.* counters
        # (JobManager.stats() reads them); a recovered fault shows up
        # there, and the retried job still equals the in-process run.
        faults.set_fault_plan(FaultPlan.from_string("fail_chunk:service"))
        report = service_pool.run(PAYLOAD)
        counters = service_pool.counters()
        assert counters["resilience.faults_injected"] == 1
        assert counters["resilience.chunk_failures"] == 1
        assert counters["resilience.chunk_retries"] == 1
        assert _result_block(report) == _result_block(execute_job(PAYLOAD))
        # A snapshot is a copy: the HTTP thread cannot corrupt the counters.
        counters["resilience.chunk_failures"] = 99
        assert service_pool.counters()["resilience.chunk_failures"] == 1

    def test_non_pool_errors_surface(self, service_pool, monkeypatch):
        # A non-pool error out of the pool is a bug: it fails the submitting
        # job with its own type instead of being retried or labelled a pool
        # failure, and the executor keeps serving later jobs.
        def explode(job):
            raise TypeError("a bug, not an infrastructure failure")

        with monkeypatch.context() as patch:
            patch.setattr(service_pool._pool, "run", explode)
            with pytest.raises(TypeError, match="a bug"):
                service_pool.run(PAYLOAD)
        report = service_pool.run(PAYLOAD)
        assert _result_block(report) == _result_block(execute_job(PAYLOAD))


class TestWorkerResolution:
    """The service's executor follows ``REPRO_SERVICE_WORKERS``.

    Fewer than 2 workers run jobs in-process; 2 or more start the pool.
    """

    def _executor_from_env(self, monkeypatch, raw=None, **overrides):
        if raw is None:
            monkeypatch.delenv(SERVICE_WORKERS_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, raw)
        config = ServiceConfig.from_env(run_config=BASE_RUN, **overrides)
        with JobManager(config) as service:
            return type(service.executor), getattr(service.executor, "workers", 1)

    def test_explicit_argument_wins(self, monkeypatch):
        assert self._executor_from_env(monkeypatch, "1", workers=3) == (
            PoolExecutor,
            3,
        )

    def test_env_var_is_read(self, monkeypatch):
        assert self._executor_from_env(monkeypatch, "2") == (PoolExecutor, 2)

    def test_default_is_serial(self, monkeypatch):
        assert self._executor_from_env(monkeypatch) == (InlineExecutor, 1)

    def test_garbage_env_var_warns_and_runs_serially(self, monkeypatch):
        with pytest.warns(RuntimeWarning, match="non-integer"):
            executor = self._executor_from_env(monkeypatch, "many")
        assert executor == (InlineExecutor, 1)

    def test_nonpositive_values_clamp_to_serial(self, monkeypatch):
        assert self._executor_from_env(monkeypatch, "0") == (InlineExecutor, 1)
        with pytest.warns(RuntimeWarning, match="negative"):
            executor = self._executor_from_env(monkeypatch, "-3")
        assert executor == (InlineExecutor, 1)


class TestPicklability:
    def test_fingerprint_context_pickles(self):
        context = FingerprintContext(2, 2, seed=11)
        rebuilt = pickle.loads(pickle.dumps(context))
        circuit = Circuit(2).h(0).cx(0, 1)
        assert rebuilt.hash_key(circuit) == context.hash_key(circuit)

    def test_registered_gates_pickle_by_reference(self):
        gate = get_gate("h")
        assert pickle.loads(pickle.dumps(gate)) is gate

    def test_circuits_with_constant_gates_pickle(self):
        # Constant gates memoize their matrix through a closure, which value
        # pickling cannot handle; the registry-reference __reduce__ makes
        # whole circuits (what the service pool ships) picklable anyway.
        circuit = Circuit(2).h(0).cx(0, 1).t(1)
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored == circuit

    def test_unregistered_gate_pickle_raises_clear_error(self):
        import numpy as np

        rogue = Gate(
            "h",  # shadows a registry name but is a different instance
            1,
            0,
            lambda _params: np.eye(2, dtype=complex),
            lambda _builder, _angles: None,
        )
        with pytest.raises(pickle.PicklingError, match="registered"):
            pickle.dumps(rogue)
