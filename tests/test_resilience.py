"""Resilience tests for the worker pool: recovery must never change results.

Every fault class :class:`~repro.workerpool.ResilientPool` recovers from —
killed workers, delayed chunks, clean in-worker failures — is injected at
the ``service`` site against a real two-worker pool running a pure,
module-level chunk function, and the results are asserted equal to a
fault-free run.  Recovery is additionally asserted to be observable (the
``resilience.*`` perf counters), bounded (an exhausted retry budget raises
:class:`~repro.errors.RetryExhausted`) and leak-free (no worker process
outlives its pool, even when an exception escapes the ``with`` block).
The same faults are injected while the pool runs real work — RepGen and
equivalence checks, which the service's workers run for every warm facade
— and that work's output is asserted byte-identical to the in-process
run.  The service-level twin of these tests is ``TestPoolMode`` in
``tests/test_service.py``.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

import numpy as np

from repro import faults
from repro.errors import FaultInjected, PoolError, RetryExhausted
from repro.faults import FaultPlan
from repro.generator import RepGen
from repro.ir.circuit import Circuit
from repro.ir.gatesets import NAM
from repro.perf import PerfRecorder
from repro.semantics.fingerprint import FingerprintContext
from repro.verifier import EquivalenceVerifier
from repro.workerpool import (
    ResilientPool,
    resolve_chunk_retries,
    resolve_chunk_timeout,
)

#: Small enough that an injected delay/kill is detected in ~a second, large
#: enough that honest chunks at this scale never time out spuriously.
TIMEOUT = 2.0

#: Chunks every pool test dispatches, and their fault-free results.
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
    """A pure chunk function: the result depends on the chunk alone."""
    chunk, fault_token = payload
    faults.apply_chunk_fault(fault_token)
    return chunk * chunk


def _run(plan=None, *, retries=2, chunk_fn=_square_chunk, chunks=CHUNKS):
    """Dispatch ``chunks`` once under ``plan``; returns (results, counters)."""
    faults.set_fault_plan(FaultPlan.from_string(plan) if plan else None)
    perf = PerfRecorder()
    with ResilientPool(
        chunk_fn,
        _noop_init,
        (),
        2,
        site="service",
        chunk_timeout=TIMEOUT,
        chunk_retries=retries,
        perf=perf,
    ) as pool:
        results = pool.run_chunks(chunks)
    return results, perf.snapshot()


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
        results, counters = _run("kill_worker:service")
        assert results == EXPECTED
        assert counters.get("resilience.faults_injected") == 1
        assert counters.get("resilience.chunk_timeouts", 0) >= 1
        assert counters.get("resilience.pool_respawns", 0) >= 1
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
        # leaves the failed chunk without a result.
        with pytest.raises(RetryExhausted, match="0 retries"):
            _run("fail_chunk:service", retries=0)


class TestByteIdentityUnderFaults:
    """Recovery re-runs real work; its output must not move by a byte."""

    def test_killed_gen_worker(self, serial_generation):
        results, counters = _run(
            "kill_worker:service", chunk_fn=_generate_chunk, chunks=[0, 1]
        )
        assert results == [serial_generation] * 2
        assert counters.get("resilience.faults_injected") == 1
        assert counters.get("resilience.chunk_timeouts", 0) >= 1
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
            _generate_chunk, _noop_init, (), 2, site="service",
            chunk_timeout=TIMEOUT,
        ) as pool:
            pooled = pool.run_chunks([0])[0]
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
                _buggy_chunk_fn, _noop_init, (), 2, site="service",
                chunk_timeout=TIMEOUT,
            ) as pool:
                pool.run_chunks(CHUNKS)
        self._assert_no_foreign_children(before)

    def test_exception_mid_round_terminates_every_worker(self):
        # A RepGen round that dies in this process (crash_run raises between
        # rounds) while a pool is alive must still take every worker down.
        before = {child.pid for child in multiprocessing.active_children()}
        faults.set_fault_plan(FaultPlan.from_string("crash_run:gen:round1"))
        with pytest.raises(FaultInjected):
            with ResilientPool(
                _square_chunk, _noop_init, (), 2, site="service",
                chunk_timeout=TIMEOUT,
            ) as pool:
                assert pool.run_chunks(CHUNKS) == EXPECTED
                RepGen(NAM, num_qubits=2, num_params=2).generate(2)
        self._assert_no_foreign_children(before)

    def test_pool_context_manager_terminates_workers(self):
        before = {child.pid for child in multiprocessing.active_children()}
        with ResilientPool(
            _square_chunk, _noop_init, (), 2, site="service",
            chunk_timeout=TIMEOUT,
        ) as pool:
            assert pool.workers == 2
            assert pool.run_chunks(CHUNKS) == EXPECTED
        self._assert_no_foreign_children(before)


class TestPoolLifecycle:
    def _pool(self, **kwargs):
        kwargs.setdefault("chunk_timeout", TIMEOUT)
        return ResilientPool(
            _square_chunk, _noop_init, (), 2, site="service", **kwargs
        )

    def test_run_chunks_on_a_closed_pool_raises_pool_error(self):
        pool = self._pool()
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PoolError, match="closed"):
            pool.run_chunks(CHUNKS)

    def test_dead_pool_dispatch_failure_respawns_and_recovers(self):
        # A pool whose workers are gone cannot even accept a submission; the
        # wave counts as failed, the pool is respawned and the chunks rerun.
        perf = PerfRecorder()
        with self._pool(perf=perf, chunk_retries=1) as pool:
            pool._pool.terminate()
            assert pool.run_chunks(CHUNKS) == EXPECTED
        counters = perf.snapshot()
        assert counters["resilience.dispatch_failures"] == 1
        assert counters["resilience.pool_respawns"] == 1
        assert counters["resilience.chunk_retries"] == len(CHUNKS)

    def test_late_result_is_recovered_not_re_executed(self):
        # Chunk 0 misses its 1.5 s deadline but finishes (at ~1.9 s) while
        # the sweep still waits on chunk 1 (done at ~2.5 s, inside its
        # window): the late result is kept as-is — no retry, no respawn.
        perf = PerfRecorder()
        with ResilientPool(
            _sleepy_square_chunk, _noop_init, (), 2, site="service",
            chunk_timeout=1.5, chunk_retries=1, perf=perf,
        ) as pool:
            # Warm both workers first so neither timed chunk waits on a start.
            assert pool.run_chunks([(0.0, 1), (0.0, 2)]) == [1, 4]
            assert pool.run_chunks([(1.9, 3), (2.5, 4)]) == [9, 16]
        counters = perf.snapshot()
        assert counters["resilience.chunk_timeouts"] == 1
        assert counters["resilience.late_results"] == 1
        assert "resilience.chunk_retries" not in counters
        assert "resilience.pool_respawns" not in counters

    def test_faults_fire_on_first_dispatch_only(self):
        # An always-armed plan still fires once per run_chunks: retried
        # chunks ship clean, like a real transient failure.
        faults.set_fault_plan(FaultPlan.from_string("fail_chunk:service:*"))
        perf = PerfRecorder()
        with self._pool(perf=perf, chunk_retries=1) as pool:
            assert pool.run_chunks(CHUNKS) == EXPECTED
        counters = perf.snapshot()
        assert counters["resilience.faults_injected"] == 1
        assert counters["resilience.chunk_failures"] == 1

    def test_nonpositive_timeout_means_no_deadline(self):
        with self._pool(chunk_timeout=0) as pool:
            assert pool.chunk_timeout is None
            assert pool.run_chunks(CHUNKS) == EXPECTED

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


class TestProgrammingErrorsSurface:
    def test_seeded_typeerror_in_chunk_fn_propagates(self):
        # The retry loop absorbs infrastructure faults (timeouts, crashes,
        # FaultInjected) — a TypeError from a buggy chunk function must NOT
        # be retried into RetryExhausted; it surfaces with its original
        # type so the bug is debuggable.
        perf = PerfRecorder()
        with ResilientPool(
            _buggy_chunk_fn,
            _noop_init,
            (),
            2,
            site="service",
            chunk_timeout=TIMEOUT,
            chunk_retries=3,
            perf=perf,
        ) as pool:
            with pytest.raises(TypeError):
                pool.run_chunks([1, 2, 3])
        # No retry budget was burned on the programming error.
        assert perf.value("resilience.chunk_retries") == 0
        assert perf.value("resilience.chunk_failures") == 0

    def test_error_surfaces_after_the_wave_delivered(self):
        # Terminating the pool while a worker is still sending its result
        # can deadlock Pool.terminate (the killed worker keeps the result
        # queue's write lock), so the error waits for the wave's other
        # chunk; the teardown that follows is then prompt.
        with ResilientPool(
            _sleepy_square_chunk, _noop_init, (), 2, site="service",
            chunk_timeout=TIMEOUT,
        ) as pool:
            start = time.perf_counter()
            with pytest.raises(TypeError):
                pool.run_chunks([(0.0, None), (0.5, 3)])
            assert time.perf_counter() - start >= 0.5

    def test_fault_injected_stays_retryable(self):
        # Contrast: the chaos machinery's own exception remains on the
        # absorb-and-retry path (fail_chunk recovery is exercised in
        # TestRecoveryUnderFaults; this pins the classification).
        from repro.workerpool import _RETRYABLE_CHUNK_ERRORS

        assert issubclass(FaultInjected, _RETRYABLE_CHUNK_ERRORS)
        assert not issubclass(TypeError, _RETRYABLE_CHUNK_ERRORS)


class TestKnobResolution:
    def test_timeout_defaults_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_TIMEOUT", raising=False)
        assert resolve_chunk_timeout(None) == 120.0
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "7.5")
        assert resolve_chunk_timeout(None) == 7.5

    def test_explicit_timeout_wins_and_nonpositive_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "7.5")
        assert resolve_chunk_timeout(3.0) == 3.0
        assert resolve_chunk_timeout(0) is None
        assert resolve_chunk_timeout(-1) is None

    def test_retries_default_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_RETRIES", raising=False)
        assert resolve_chunk_retries(None) == 2
        monkeypatch.setenv("REPRO_CHUNK_RETRIES", "5")
        assert resolve_chunk_retries(None) == 5

    def test_explicit_retries_clamp_at_zero(self):
        assert resolve_chunk_retries(3) == 3
        assert resolve_chunk_retries(-2) == 0

    def test_single_worker_pool_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ResilientPool(print, print, (), 1, site="service")
