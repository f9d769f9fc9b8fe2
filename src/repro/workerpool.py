"""Self-healing multiprocessing dispatch: the repo's one worker pool.

The optimization service (:mod:`repro.service.executor`) runs jobs on a
persistent pool when ``REPRO_SERVICE_WORKERS`` is 2 or more.  A blocking
``multiprocessing.Pool.map`` is a happy-path primitive: a worker killed
mid-``map`` (OOM, segfault, operator) leaves the call blocked forever, and
a slow chunk stalls every request behind it.

:class:`ResilientPool` replaces the blocking ``map`` with asynchronous
per-chunk dispatch plus a recovery loop:

* every chunk is submitted with ``apply_async`` and collected with a
  per-chunk deadline (``REPRO_CHUNK_TIMEOUT``); a lost worker's chunk
  surfaces as :class:`~repro.errors.ChunkTimeout` instead of a hang;
* failed or timed-out chunks are re-dispatched with bounded exponential
  backoff (``REPRO_CHUNK_RETRIES``); a timeout additionally terminates and
  respawns the pool first, because a stuck or dead worker may be holding a
  slot (clean in-worker exceptions retry on the live pool);
* chunks whose result arrived *late* — after the deadline sweep but before
  the respawn — are recovered as-is rather than re-executed;
* only when a chunk exhausts its retry budget does
  :class:`~repro.errors.RetryExhausted` escape, and the caller fails the
  jobs of that wave.

Re-dispatch is safe by construction: a chunk's result must be a pure
function of the chunk payload and the worker-initializer arguments, so a
retried chunk returns the result the first dispatch would have — asserted
by ``tests/test_resilience.py`` (direct pool faults) and
``tests/test_service.py`` (a killed service worker's job equals the
serial run).

Fault injection: at dispatch time the pool consults the active
:mod:`repro.faults` plan at its ``site`` (``service``) and, if an entry
fires, attaches the corresponding worker-side token to the wave's first
chunk.  Faults fire on first dispatch only — retried chunks are shipped
clean, mirroring real transient failures.

Recovery is observable through ``resilience.*`` perf counters
(``chunk_timeouts``, ``chunk_failures``, ``chunk_retries``,
``pool_respawns``, ``late_results``, ``faults_injected``, ...) in the
pool's ``perf`` recorder; the service reports them in
``JobManager.stats()``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.envconfig import env_chunk_retries, env_chunk_timeout
from repro.errors import (
    ChunkTimeout,
    FaultInjected,
    PoolError,
    RetryExhausted,
    WorkerCrash,
)
from repro.perf import NULL_RECORDER, PerfRecorder

__all__ = [
    "ResilientPool",
    "resolve_chunk_timeout",
    "resolve_chunk_retries",
    "BACKOFF_BASE_SECONDS",
    "BACKOFF_CAP_SECONDS",
]

#: First-retry backoff; doubles per attempt, capped below.  Small on
#: purpose: chunk re-execution is cheap and deterministic, the backoff only
#: exists to let a respawned pool finish initializing under load.
BACKOFF_BASE_SECONDS = 0.1
BACKOFF_CAP_SECONDS = 2.0

_PENDING = object()

#: Worker-side exception classes the retry loop is allowed to absorb: the
#: transport/infrastructure failures re-dispatch is designed for (dead
#: pipes, broken pools, unpicklable results) plus :class:`FaultInjected`,
#: whose whole point is exercising that loop.  Anything else — a
#: ``TypeError`` from a buggy chunk function, an assertion in library code —
#: is a programming error: retrying it re-runs the same bug ``retries``
#: times and then mislabels it "pool gave up", so it propagates to the
#: caller with its original type and traceback instead.
_RETRYABLE_CHUNK_ERRORS: Tuple[type, ...] = (
    FaultInjected,
    PoolError,
    OSError,
    EOFError,
    multiprocessing.ProcessError,
    multiprocessing.pool.MaybeEncodingError,
)


def resolve_chunk_timeout(chunk_timeout: Optional[float] = None) -> Optional[float]:
    """Resolve a per-chunk deadline: explicit argument, else environment.

    ``None`` means "ask the environment"; an explicit non-positive value
    means "no deadline" (and forfeits the no-hang guarantee, so it is an
    opt-out, never a default).
    """
    if chunk_timeout is None:
        return env_chunk_timeout()
    return None if chunk_timeout <= 0 else float(chunk_timeout)


def resolve_chunk_retries(chunk_retries: Optional[int] = None) -> int:
    """Resolve a chunk retry budget: explicit argument, else environment."""
    if chunk_retries is None:
        return env_chunk_retries()
    return max(int(chunk_retries), 0)


class ResilientPool:
    """A persistent worker pool with timeouts, retries and self-respawn.

    Args:
        worker_fn: module-level function each chunk is dispatched to; it
            receives ``(chunk, fault_token)`` payload tuples.
        initializer / initargs: per-worker process initialization (rebuilds
            the picklable spec into live worker state).
        workers: pool size (>= 2; a single worker should run in-process
            instead).
        site: fault-injection site name (``"service"``).
        chunk_timeout: per-chunk deadline in seconds (None = environment;
            <= 0 = no deadline).
        chunk_retries: re-dispatch budget per chunk (None = environment).
        perf: recorder the ``resilience.*`` counters land in.
    """

    def __init__(
        self,
        worker_fn: Callable,
        initializer: Callable,
        initargs: tuple,
        workers: int,
        *,
        site: str,
        chunk_timeout: Optional[float] = None,
        chunk_retries: Optional[int] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        if workers < 2:
            raise ValueError("a parallel pool needs at least 2 workers")
        self.worker_fn = worker_fn
        self.workers = workers
        self.site = site
        self.chunk_timeout = resolve_chunk_timeout(chunk_timeout)
        self.chunk_retries = resolve_chunk_retries(chunk_retries)
        self.perf = perf if perf is not None else NULL_RECORDER
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Optional[multiprocessing.pool.Pool] = None
        try:
            self._spawn()
        except Exception as error:
            raise PoolError(f"could not start worker pool: {error}") from error

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> None:
        start_methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in start_methods else start_methods[0]
        self._pool = multiprocessing.get_context(method).Pool(
            processes=self.workers,
            initializer=self._initializer,
            initargs=self._initargs,
        )

    def _terminate(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _respawn(self) -> None:
        """Tear down the pool (killing stuck workers) and start a fresh one."""
        self._terminate()
        self._spawn()
        self.perf.count("resilience.pool_respawns")

    def close(self) -> None:
        """Terminate and join every worker; safe to call more than once."""
        self._terminate()

    def __enter__(self) -> "ResilientPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def run_chunks(self, chunks: Sequence) -> List:
        """Results for every chunk, in chunk order, surviving worker death.

        Raises :class:`RetryExhausted` when some chunk still has no result
        after every configured retry, so callers handle infrastructure
        failure on ``except PoolError`` alone.  Worker exceptions *outside*
        ``_RETRYABLE_CHUNK_ERRORS`` (a ``TypeError`` from a buggy chunk
        function, say) are programming errors, not infrastructure faults:
        they propagate with their original type, without a retry, as soon
        as the rest of their wave has delivered.
        """
        if not chunks:
            return []
        if self._pool is None:
            raise PoolError("pool is closed")
        results: List[Any] = [_PENDING] * len(chunks)
        pending = list(range(len(chunks)))
        last_error: Optional[PoolError] = None
        for attempt in range(self.chunk_retries + 1):
            if attempt:
                self.perf.count("resilience.chunk_retries", len(pending))
                time.sleep(
                    min(
                        BACKOFF_BASE_SECONDS * (2 ** (attempt - 1)),
                        BACKOFF_CAP_SECONDS,
                    )
                )
            tokens: Dict[int, Any] = {}
            if attempt == 0:
                action = faults.fire(self.site, faults.CHUNK_ACTIONS)
                if action is not None:
                    tokens[pending[0]] = faults.chunk_token(
                        action, self.chunk_timeout
                    )
                    self.perf.count("resilience.faults_injected")
            pending, timed_out, last_error = self._run_attempt(
                chunks, pending, tokens, results
            )
            if not pending:
                return results
            if attempt < self.chunk_retries and timed_out:
                # A timeout means a worker may be dead or wedged while
                # still holding a pool slot; a clean in-worker exception
                # leaves the pool healthy, so only timeouts force respawn.
                self._respawn()
        raise RetryExhausted(
            f"{len(pending)} of {len(chunks)} chunks still failing after "
            f"{self.chunk_retries} retries (last error: {last_error})"
        )

    def _run_attempt(
        self,
        chunks: Sequence,
        pending: List[int],
        tokens: Dict[int, Any],
        results: List[Any],
    ) -> Tuple[List[int], bool, Optional[PoolError]]:
        """One dispatch wave over ``pending``; fills ``results`` in place.

        Returns ``(still_failed, any_timeout, last_error)``.  Chunks whose
        result arrived after their deadline but before the sweep finished
        are recovered verbatim (``resilience.late_results``) — never
        re-executed, so recovery work is bounded by what actually failed.
        Worker exceptions outside ``_RETRYABLE_CHUNK_ERRORS`` propagate.
        """
        assert self._pool is not None
        try:
            handles = {
                index: self._pool.apply_async(
                    self.worker_fn, ((chunks[index], tokens.get(index)),)
                )
                for index in pending
            }
        except Exception as error:  # noqa: BLE001 — submission can fail with
            # anything from ValueError("Pool not running") to a pickling
            # error on the payload; every flavor means this wave dispatched
            # nothing, which the retry loop handles uniformly (respawn the
            # pool, re-dispatch every pending chunk).
            self.perf.count("resilience.dispatch_failures")
            return (
                list(pending),
                True,  # assume the pool is unusable
                WorkerCrash(f"chunk dispatch failed: {error}"),
            )
        failed: List[int] = []
        timed_out = False
        last_error: Optional[PoolError] = None
        try:
            for index, handle in handles.items():
                try:
                    if self.chunk_timeout is None:
                        results[index] = handle.get()
                    else:
                        results[index] = handle.get(timeout=self.chunk_timeout)
                except multiprocessing.TimeoutError:
                    timed_out = True
                    failed.append(index)
                    last_error = ChunkTimeout(
                        f"chunk {index} missed its {self.chunk_timeout}s deadline"
                    )
                    self.perf.count("resilience.chunk_timeouts")
                except _RETRYABLE_CHUNK_ERRORS as error:
                    failed.append(index)
                    last_error = WorkerCrash(f"chunk {index} failed: {error}")
                    self.perf.count("resilience.chunk_failures")
        except Exception:
            # A programming error propagates, but only once the wave's other
            # chunks have delivered (within their deadline): a worker killed
            # by ``Pool.terminate`` while still sending a result keeps the
            # result queue's write lock, and the terminate then blocks
            # forever on it.
            for handle in handles.values():
                handle.wait(self.chunk_timeout)
            raise
        still_failed: List[int] = []
        for index in failed:
            handle = handles[index]
            recovered = False
            if handle.ready():
                try:
                    results[index] = handle.get(timeout=0)
                    recovered = True
                    self.perf.count("resilience.late_results")
                except Exception:  # noqa: BLE001 — the chunk is already
                    # counted failed above; a second error here just means
                    # the late result is unusable too, so it stays failed
                    # and the normal retry path re-dispatches it.
                    pass
            if not recovered:
                still_failed.append(index)
        return still_failed, timed_out, last_error
