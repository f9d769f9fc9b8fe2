"""Self-healing process pool: the repo's one worker pool.

The optimization service (:mod:`repro.service.executor`) runs jobs on a
persistent pool when ``REPRO_SERVICE_WORKERS`` is 2 or more.
:class:`ResilientPool` wraps a
:class:`concurrent.futures.ProcessPoolExecutor` (fork context, workers
started at construction so the initializer pre-warms them at once).
:meth:`ResilientPool.run` is thread-safe: each call submits one job as one
future and waits for it, so concurrent callers run side by side and each
returns as soon as its own job is done.  Failures are handled per job:

* a worker that dies (killed, out of memory, or its initializer raised)
  breaks the executor, and every future on it fails at once with
  ``BrokenProcessPool``; the pool swaps in a fresh executor and
  re-dispatches (:class:`~repro.errors.WorkerCrash`);
* a job that misses its deadline (``chunk_timeout``) may sit on a wedged
  worker: the pool terminates that executor's workers, swaps in a fresh
  executor and re-dispatches (:class:`~repro.errors.ChunkTimeout`);
* a :class:`~repro.errors.FaultInjected` raised by the job re-dispatches
  on the live executor;
* every other exception the job raises propagates with its own type: a
  ``TypeError`` is a bug, and retrying it would only relabel it;
* once ``chunk_retries`` re-dispatches are spent,
  :class:`~repro.errors.RetryExhausted` escapes.

The executor is swapped under a lock, and only if it is still the one
that failed, so jobs that fail together on one broken executor cause one
respawn.  Re-dispatch is safe by construction: a job's result must be a
pure function of the job and the initializer arguments, so a retried job
returns what the first dispatch would have — asserted by
``tests/test_resilience.py`` (direct pool faults) and
``tests/test_service.py`` (a killed service worker's job equals the
serial run).

Fault injection: each :meth:`~ResilientPool.run` consults the active
:mod:`repro.faults` plan at the ``service`` site and, if an entry fires,
ships the worker-side token with the job's first dispatch.  Retries are
shipped clean, mirroring real transient failures.

Both knobs are plain constructor values: the service passes its
:class:`~repro.service.config.ServiceConfig` fields (which is where
``REPRO_CHUNK_TIMEOUT`` and ``REPRO_CHUNK_RETRIES`` are read), and the
pool reads no environment of its own.  Recovery is observable through
the ``resilience.*`` counters of :meth:`ResilientPool.counters`
(``chunk_timeouts``, ``chunk_failures``, ``chunk_retries``,
``pool_respawns``, ``faults_injected``); the service reports them in
``JobManager.stats()``.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional

from repro import faults
from repro.envconfig import DEFAULT_CHUNK_RETRIES, DEFAULT_CHUNK_TIMEOUT
from repro.errors import (
    ChunkTimeout,
    FaultInjected,
    PoolError,
    RetryExhausted,
    WorkerCrash,
)

__all__ = ["ResilientPool"]


def _terminate_workers(executor: ProcessPoolExecutor) -> None:
    """Terminate every worker process of ``executor``, wedged ones included.

    Python 3.14 has this as ``ProcessPoolExecutor.terminate_workers()``;
    earlier versions have no public call, so this reads the executor's
    private ``_processes`` table.  The executor's manager thread then sees
    the dead workers, marks the executor broken and fails its pending
    futures with ``BrokenProcessPool``.
    """
    for process in list((executor._processes or {}).values()):
        process.terminate()


class ResilientPool:
    """A persistent worker pool with per-job deadlines, retries and respawn.

    Args:
        worker_fn: module-level function each job is dispatched to; it
            receives a ``(job, fault_token)`` tuple.
        initializer / initargs: per-worker process initialization (rebuilds
            the picklable spec into live worker state).
        workers: pool size (>= 2; a single worker should run in-process
            instead).
        chunk_timeout: per-job deadline in seconds; ``None`` or <= 0
            means no deadline (and forfeits the no-hang guarantee for a
            wedged job, so it is an opt-out, never a default).
        chunk_retries: re-dispatch budget per job (negative means 0).
    """

    def __init__(
        self,
        worker_fn: Callable,
        initializer: Callable,
        initargs: tuple,
        workers: int,
        *,
        chunk_timeout: Optional[float] = DEFAULT_CHUNK_TIMEOUT,
        chunk_retries: int = DEFAULT_CHUNK_RETRIES,
    ) -> None:
        if workers < 2:
            raise ValueError("a parallel pool needs at least 2 workers")
        self.worker_fn = worker_fn
        self.workers = workers
        self.chunk_timeout: Optional[float] = (
            None
            if chunk_timeout is None or chunk_timeout <= 0
            else float(chunk_timeout)
        )
        self.chunk_retries = max(int(chunk_retries), 0)
        self._initializer = initializer
        self._initargs = initargs
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        try:
            self._executor = self._spawn()
        except Exception as error:
            raise PoolError(f"could not start worker pool: {error}") from error

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> ProcessPoolExecutor:
        """A fresh executor whose workers start (and initialize) now."""
        start_methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in start_methods else start_methods[0]
        executor = ProcessPoolExecutor(
            self.workers,
            mp_context=multiprocessing.get_context(method),
            initializer=self._initializer,
            initargs=self._initargs,
        )
        # The executor starts its workers on the first submission (all of
        # them at once under fork), so a no-op starts them here.
        executor.submit(int)
        return executor

    def _replace(self, failed: ProcessPoolExecutor) -> None:
        """Swap in a fresh executor, unless ``failed`` is already retired."""
        with self._lock:
            if self._executor is not failed:
                return  # another job replaced it first, or the pool closed
            self._executor = self._spawn()
            self._counters["resilience.pool_respawns"] = (
                self._counters.get("resilience.pool_respawns", 0) + 1
            )
        failed.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Terminate and reap every worker; safe to call more than once."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            _terminate_workers(executor)
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ResilientPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """A copy of the ``resilience.*`` counters recorded so far."""
        with self._lock:
            return dict(self._counters)

    def _count(self, name: str) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    def run(self, job: Any) -> Any:
        """``worker_fn((job, fault_token))`` run in a worker, surviving its death.

        Safe to call from many threads at once.  Raises
        :class:`RetryExhausted` when the job still has no result after
        ``chunk_retries`` re-dispatches (or the pool is closed), and any
        exception the job raises other than :class:`FaultInjected` with
        its own type, without a retry.
        """
        token = None
        with self._lock:  # a fault plan's trigger counts are not thread-safe
            action = faults.fire("service", faults.CHUNK_ACTIONS)
        if action is not None:
            token = faults.chunk_token(action, self.chunk_timeout)
            self._count("resilience.faults_injected")
        last_error: Optional[PoolError] = None
        for attempt in range(self.chunk_retries + 1):
            if attempt:
                self._count("resilience.chunk_retries")
            payload = (job, token if attempt == 0 else None)
            try:
                # Submitting under the lock means no job ever lands on an
                # executor that was already replaced or shut down.
                with self._lock:
                    executor = self._executor
                    if executor is None:
                        raise RetryExhausted("worker pool is closed")
                    future = executor.submit(self.worker_fn, payload)
                if wait([future], self.chunk_timeout).done:
                    return future.result()
                last_error = ChunkTimeout(
                    f"job missed its {self.chunk_timeout}s deadline"
                )
                self._count("resilience.chunk_timeouts")
                _terminate_workers(executor)
            except FaultInjected as error:
                last_error = WorkerCrash(f"job failed: {error}")
                self._count("resilience.chunk_failures")
                continue  # raised by the job itself: the executor is fine
            except BrokenProcessPool as error:
                last_error = WorkerCrash(f"a worker died: {error}")
                self._count("resilience.chunk_failures")
            self._replace(executor)
        raise RetryExhausted(
            f"job still failing after {self.chunk_retries} retries "
            f"(last error: {last_error})"
        )
