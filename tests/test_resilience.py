"""Resilience tests for the worker pool: recovery must never change results.

Every fault class :class:`~repro.workerpool.ResilientPool` recovers from —
killed workers, delayed jobs, clean in-worker failures — is injected at
the ``service`` site against a real two-worker pool running a pure,
module-level job function from concurrent threads, and the results are
asserted equal to a fault-free run.  Recovery is additionally asserted to
be observable (the ``resilience.*`` counters), bounded (an exhausted retry
budget raises :class:`~repro.errors.RetryExhausted`) and leak-free (no
worker process outlives its pool, even when an exception escapes the
``with`` block).
The same faults are injected while the pool runs real work — RepGen and
equivalence checks, which the service's workers run for their jobs — and
that work's output is asserted byte-identical to the in-process
run.  The service-level twin of these tests is ``TestPoolMode`` in
``tests/test_service.py``.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import numpy as np

from repro import faults
from repro.errors import FaultInjected, PoolError, RetryExhausted
from repro.faults import FaultPlan
from repro.generator import RepGen
from repro.ir.circuit import Circuit
from repro.ir.gatesets import NAM
from repro.semantics.fingerprint import FingerprintContext
from repro.verifier import EquivalenceVerifier
from repro.service import ServiceConfig
from repro.workerpool import ResilientPool

#: Small enough that an injected delay/kill is detected in ~a second, large
#: enough that honest chunks at this scale never time out spuriously.
TIMEOUT = 2.0

#: Jobs every pool test dispatches, and their fault-free results.
CHUNKS = [1, 2, 3, 4]
EXPECTED = [chunk * chunk for chunk in CHUNKS]


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.set_fault_plan(None)
    yield
    faults.set_fault_plan(None)


def _noop_init() -> None:
    pass


def _square_chunk(payload):
    """A pure job function: the result depends on the job alone."""
    chunk, fault_token = payload
    faults.apply_chunk_fault(fault_token)
    return chunk * chunk


def _run_all(pool, jobs):
    """Every job through ``pool.run``, each from its own thread, in job order."""
    with ThreadPoolExecutor(max_workers=len(jobs)) as threads:
        return list(threads.map(pool.run, jobs))


def _run(plan=None, *, retries=2, chunk_fn=_square_chunk, chunks=CHUNKS):
    """Run ``chunks`` concurrently under ``plan``; returns (results, counters)."""
    faults.set_fault_plan(FaultPlan.from_string(plan) if plan else None)
    with ResilientPool(
        chunk_fn,
        _noop_init,
        (),
        2,
        chunk_timeout=TIMEOUT,
        chunk_retries=retries,
    ) as pool:
        results = _run_all(pool, chunks)
        return results, pool.counters()


def _generation_summary():
    """The Nam (q=2, m=2, n=2) ECC set and its representatives' fingerprints."""
    result = RepGen(NAM, num_qubits=2, num_params=2).generate(2)
    context = FingerprintContext(2, 2)
    return (
        result.ecc_set.to_json(),
        [context.fingerprint(circuit) for circuit in result.representatives],
    )


def _generate_chunk(payload):
    """A chunk of real work: one RepGen run, as a warming service worker does."""
    _chunk, fault_token = payload
    faults.apply_chunk_fault(fault_token)
    return _generation_summary()


#: Circuit pairs the verification chunks check: equal, unequal, equal.
PAIRS = [
    (Circuit(1).h(0).h(0), Circuit(1)),
    (Circuit(1).x(0), Circuit(1).z(0)),
    (Circuit(2).cx(0, 1).cx(0, 1), Circuit(2)),
]


def _verify_chunk(payload):
    """A chunk of real work: one equivalence check in a worker."""
    pair_index, fault_token = payload
    faults.apply_chunk_fault(fault_token)
    result = EquivalenceVerifier(num_params=0).verify(*PAIRS[pair_index])
    return result.equivalent, result.method


@pytest.fixture(scope="module")
def serial_generation():
    return _generation_summary()


@pytest.fixture(scope="module")
def serial_verdicts():
    return [_verify_chunk((index, None)) for index in range(len(PAIRS))]


class TestRecoveryUnderFaults:
    def test_fault_free_run_records_nothing(self):
        results, counters = _run()
        assert results == EXPECTED
        assert not any(name.startswith("resilience.") for name in counters)

    def test_killed_worker(self):
        # A dead worker breaks the executor at once: no deadline is waited
        # out, and every job that was on it re-dispatches to one respawn.
        start = time.perf_counter()
        results, counters = _run("kill_worker:service")
        assert time.perf_counter() - start < TIMEOUT
        assert results == EXPECTED
        assert counters.get("resilience.faults_injected") == 1
        assert "resilience.chunk_timeouts" not in counters
        assert counters.get("resilience.chunk_failures", 0) >= 1
        assert counters.get("resilience.pool_respawns") == 1
        assert counters.get("resilience.chunk_retries", 0) >= 1

    def test_delayed_chunk(self):
        results, counters = _run("delay_chunk:service")
        assert results == EXPECTED
        assert counters.get("resilience.faults_injected") == 1
        assert counters.get("resilience.chunk_timeouts", 0) >= 1
        assert counters.get("resilience.chunk_retries", 0) >= 1

    def test_failed_chunk(self):
        results, counters = _run("fail_chunk:service")
        assert results == EXPECTED
        assert counters.get("resilience.faults_injected") == 1
        assert counters.get("resilience.chunk_failures", 0) >= 1
        assert counters.get("resilience.chunk_retries", 0) >= 1
        # A clean in-worker exception retries on the live pool: no respawn.
        assert "resilience.pool_respawns" not in counters

    def test_exhausted_retries_raise(self):
        # Faults fire on first dispatch only, so only a zero retry budget
        # leaves the failed job without a result.
        with pytest.raises(RetryExhausted, match="0 retries"):
            _run("fail_chunk:service", retries=0)


class TestConcurrentCallers:
    def test_no_count_is_lost_under_contention(self):
        # More caller threads than cores share one pool, with thread
        # switches forced as often as possible.  Every job fires an
        # always-armed fault once and retries clean, so each counter must
        # equal the job count exactly: a lost update would break that.
        jobs = list(range(24))
        faults.set_fault_plan(FaultPlan.from_string("fail_chunk:service:*"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ResilientPool(
                _square_chunk, _noop_init, (), 2,
                chunk_timeout=TIMEOUT, chunk_retries=1,
            ) as pool:
                results = _run_all(pool, jobs)
                counters = pool.counters()
        finally:
            sys.setswitchinterval(interval)
        assert results == [job * job for job in jobs]
        assert counters == {
            "resilience.faults_injected": len(jobs),
            "resilience.chunk_failures": len(jobs),
            "resilience.chunk_retries": len(jobs),
        }


class TestByteIdentityUnderFaults:
    """Recovery re-runs real work; its output must not move by a byte."""

    def test_killed_gen_worker(self, serial_generation):
        results, counters = _run(
            "kill_worker:service", chunk_fn=_generate_chunk, chunks=[0, 1]
        )
        assert results == [serial_generation] * 2
        assert counters.get("resilience.faults_injected") == 1
        assert counters.get("resilience.chunk_failures", 0) >= 1
        assert counters.get("resilience.pool_respawns", 0) >= 1
        assert counters.get("resilience.chunk_retries", 0) >= 1

    def test_delayed_gen_chunk(self, serial_generation):
        results, counters = _run(
            "delay_chunk:service", chunk_fn=_generate_chunk, chunks=[0, 1]
        )
        assert results == [serial_generation] * 2
        assert counters.get("resilience.chunk_timeouts", 0) >= 1

    def test_failed_gen_chunk(self, serial_generation):
        results, counters = _run(
            "fail_chunk:service", chunk_fn=_generate_chunk, chunks=[0, 1]
        )
        assert results == [serial_generation] * 2
        assert counters.get("resilience.chunk_failures", 0) >= 1
        assert counters.get("resilience.chunk_retries", 0) >= 1
        # A clean in-worker exception retries on the live pool: no respawn.
        assert "resilience.pool_respawns" not in counters

    def test_killed_verify_worker(self, serial_verdicts):
        results, counters = _run(
            "kill_worker:service",
            chunk_fn=_verify_chunk,
            chunks=list(range(len(PAIRS))),
        )
        assert results == serial_verdicts
        assert [equivalent for equivalent, _ in results] == [True, False, True]
        assert counters.get("resilience.pool_respawns", 0) >= 1

    def test_failed_verify_chunk(self, serial_verdicts):
        results, counters = _run(
            "fail_chunk:service",
            chunk_fn=_verify_chunk,
            chunks=list(range(len(PAIRS))),
        )
        assert results == serial_verdicts
        assert counters.get("resilience.chunk_failures", 0) >= 1


class TestChunkPurity:
    def test_chunk_results_are_bit_identical_on_re_execution(self):
        # The safety argument for re-dispatch: a chunk's result is a pure
        # function of its payload, so a retried chunk returns exactly what
        # the first dispatch would have — in this process or in a worker.
        first = _generate_chunk((0, None))
        second = _generate_chunk((0, None))
        with ResilientPool(
            _generate_chunk, _noop_init, (), 2, chunk_timeout=TIMEOUT
        ) as pool:
            pooled = pool.run(0)
        for other in (second, pooled):
            assert other[0] == first[0]
            assert np.array_equal(np.array(other[1]), np.array(first[1]))


class TestNoLeakedWorkers:
    def _foreign_children(self, before):
        return {
            child.pid
            for child in multiprocessing.active_children()
            if child.pid not in before
        }

    def _assert_no_foreign_children(self, before):
        deadline = time.perf_counter() + 10.0
        while self._foreign_children(before) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert self._foreign_children(before) == set()

    def test_exception_inside_with_terminates_every_worker(self):
        # When an exception escapes while the pool is alive, leaving the
        # ``with`` block must still tear down every worker process.
        before = {child.pid for child in multiprocessing.active_children()}
        with pytest.raises(TypeError):
            with ResilientPool(
                _buggy_chunk_fn, _noop_init, (), 2, chunk_timeout=TIMEOUT
            ) as pool:
                _run_all(pool, CHUNKS)
        self._assert_no_foreign_children(before)

    def test_exception_mid_round_terminates_every_worker(self, monkeypatch):
        # A RepGen round that dies in this process (its fingerprint pass
        # raises) while a pool is alive must still take every worker down.
        def dying_pass(self, jobs):
            raise RuntimeError("round died")

        monkeypatch.setattr(FingerprintContext, "hash_keys_batched", dying_pass)
        before = {child.pid for child in multiprocessing.active_children()}
        with pytest.raises(RuntimeError, match="round died"):
            with ResilientPool(
                _square_chunk, _noop_init, (), 2, chunk_timeout=TIMEOUT
            ) as pool:
                assert _run_all(pool, CHUNKS) == EXPECTED
                RepGen(NAM, num_qubits=2, num_params=2).generate(2)
        self._assert_no_foreign_children(before)

    def test_pool_context_manager_terminates_workers(self):
        before = {child.pid for child in multiprocessing.active_children()}
        with ResilientPool(
            _square_chunk, _noop_init, (), 2, chunk_timeout=TIMEOUT
        ) as pool:
            assert pool.workers == 2
            assert _run_all(pool, CHUNKS) == EXPECTED
        self._assert_no_foreign_children(before)


class TestPoolLifecycle:
    def _pool(self, **kwargs):
        kwargs.setdefault("chunk_timeout", TIMEOUT)
        return ResilientPool(_square_chunk, _noop_init, (), 2, **kwargs)

    def test_run_on_a_closed_pool_raises_pool_error(self):
        pool = self._pool()
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PoolError, match="closed"):
            pool.run(1)

    def test_dead_pool_dispatch_failure_respawns_and_recovers(self):
        # A pool whose workers are gone fails the next dispatch with a
        # broken executor; the pool is respawned and the job reruns.
        with self._pool(chunk_retries=1) as pool:
            for process in pool._executor._processes.values():
                process.terminate()
            assert [pool.run(chunk) for chunk in CHUNKS] == EXPECTED
            counters = pool.counters()
        assert counters == {
            "resilience.chunk_failures": 1,
            "resilience.pool_respawns": 1,
            "resilience.chunk_retries": 1,
        }

    def test_faults_fire_on_first_dispatch_only(self):
        # An always-armed plan still fires once per job: its retry ships
        # clean, like a real transient failure.
        faults.set_fault_plan(FaultPlan.from_string("fail_chunk:service:*"))
        with self._pool(chunk_retries=1) as pool:
            assert pool.run(3) == 9
            counters = pool.counters()
        assert counters["resilience.faults_injected"] == 1
        assert counters["resilience.chunk_failures"] == 1

    def test_nonpositive_timeout_means_no_deadline(self):
        with self._pool(chunk_timeout=0) as pool:
            assert pool.chunk_timeout is None
            assert _run_all(pool, CHUNKS) == EXPECTED

    def test_failed_start_is_a_pool_error(self, monkeypatch):
        def no_processes(self):
            raise OSError("fork failed")

        monkeypatch.setattr(ResilientPool, "_spawn", no_processes)
        with pytest.raises(PoolError, match="could not start worker pool"):
            self._pool()


def _sleepy_square_chunk(payload):
    (seconds, chunk), _fault_token = payload
    time.sleep(seconds)
    return chunk * chunk


def _buggy_chunk_fn(payload):
    chunk, _token = payload
    return chunk + None  # seeded TypeError: a bug, not an infrastructure fault


def _faulting_chunk_fn(payload):
    raise FaultInjected("raised by the job itself")


class TestProgrammingErrorsSurface:
    def test_seeded_typeerror_in_chunk_fn_propagates(self):
        # The retry loop absorbs infrastructure faults (timeouts, crashes,
        # FaultInjected) — a TypeError from a buggy job function must NOT
        # be retried into RetryExhausted; it surfaces with its original
        # type so the bug is debuggable.
        with ResilientPool(
            _buggy_chunk_fn,
            _noop_init,
            (),
            2,
            chunk_timeout=TIMEOUT,
            chunk_retries=3,
        ) as pool:
            with pytest.raises(TypeError):
                pool.run(1)
            # No retry budget was burned on the programming error.
            assert pool.counters() == {}

    def test_error_propagates_while_another_job_runs(self):
        # Each job is its own future: a bug in one surfaces at once, while
        # the job next to it keeps running and delivers its result.
        with ResilientPool(
            _sleepy_square_chunk, _noop_init, (), 2, chunk_timeout=TIMEOUT
        ) as pool:
            with ThreadPoolExecutor(max_workers=1) as threads:
                slow = threads.submit(pool.run, (1.5, 3))
                with pytest.raises(TypeError):
                    pool.run((0.0, None))
                assert not slow.done()
                assert slow.result() == 9
            assert pool.counters() == {}

    def test_fault_injected_stays_retryable(self):
        # Contrast: the chaos machinery's own exception stays on the
        # absorb-and-retry path even when a job raises it by itself, and
        # the executor is not respawned for it.
        with ResilientPool(
            _faulting_chunk_fn, _noop_init, (), 2,
            chunk_timeout=TIMEOUT, chunk_retries=1,
        ) as pool:
            with pytest.raises(RetryExhausted, match="1 retries"):
                pool.run(1)
            counters = pool.counters()
        assert counters["resilience.chunk_failures"] == 2
        assert "resilience.pool_respawns" not in counters


class TestKnobResolution:
    """The pool knobs are ``ServiceConfig`` fields, read once by ``from_env``."""

    def test_timeout_defaults_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_TIMEOUT", raising=False)
        assert ServiceConfig().chunk_timeout == 120.0
        assert ServiceConfig.from_env().chunk_timeout == 120.0
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "7.5")
        assert ServiceConfig.from_env().chunk_timeout == 7.5

    def test_explicit_timeout_wins_and_nonpositive_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "7.5")
        assert ServiceConfig.from_env(chunk_timeout=3.0).chunk_timeout == 3.0
        for raw in ("0", "-1"):
            monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", raw)
            assert ServiceConfig.from_env().chunk_timeout is None

    def test_retries_default_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_RETRIES", raising=False)
        assert ServiceConfig().chunk_retries == 2
        assert ServiceConfig.from_env().chunk_retries == 2
        monkeypatch.setenv("REPRO_CHUNK_RETRIES", "5")
        assert ServiceConfig.from_env().chunk_retries == 5

    def test_explicit_retries_win_and_negative_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_RETRIES", "5")
        assert ServiceConfig.from_env(chunk_retries=3).chunk_retries == 3
        monkeypatch.setenv("REPRO_CHUNK_RETRIES", "-2")
        with pytest.warns(RuntimeWarning, match="negative"):
            assert ServiceConfig.from_env().chunk_retries == 2

    def test_single_worker_pool_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ResilientPool(print, print, (), 1)
