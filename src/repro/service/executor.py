"""Job execution for the optimization service: warm facades, two modes.

A job is a pure payload — ``{"qasm": <text>, "config": <RunConfig
as_dict>}`` — and executing it returns the
:meth:`~repro.api.facade.RunReport.to_json_dict` of a facade run.  The
facade that serves a payload is memoized per canonical config JSON in a
module-level table, so the expensive state behind it (the generation
memo, the pruned ECC set, the extracted transformation list, the
verifier's fingerprint caches) stays **hot across requests**: the first
request for a configuration pays for generation, every later one reuses
it.  Payload purity is the contract :class:`~repro.workerpool.ResilientPool`
relies on: a re-executed job returns a byte-identical report (timings
aside), which is what makes retrying crashed jobs sound.

Two executors share that entry point:

* :class:`InlineExecutor` (``workers < 2``, the default) runs jobs on the
  caller's thread with a bounded retry loop (``chunk_retries``).  Only the
  pool taxonomy (:class:`~repro.errors.PoolError` subclasses and injected
  faults) is retried — a ``TypeError`` from a bad payload is a bug and
  propagates — and exhaustion raises :class:`~repro.errors.RetryExhausted`,
  exactly like a pool would.  The ``runner`` seam exists for the fault tests: a
  flaky runner proves retry-then-recover, an always-failing one proves
  the 500/``RetryExhausted`` path without spawning processes.
* :class:`PoolExecutor` (``workers >= 2``) dispatches to a persistent
  :class:`~repro.workerpool.ResilientPool` whose workers each hold their
  own warm-facade table (built by the initializer from the picklable
  base-config dict).  Because ``run_chunks`` is a synchronous wave
  primitive, a dedicated dispatch thread gathers concurrently submitted
  jobs into one wave of up to ``workers`` single-job chunks, so concurrent
  requests run in parallel on separate workers.  A wave that exhausts its
  retries fails every job in it with the
  :class:`~repro.errors.RetryExhausted` it raised.  The pool's
  ``resilience.*`` counters (respawns, timeouts, retries, ...) are
  published after every wave through :meth:`PoolExecutor.counters`.

Both take ``chunk_retries`` (the pool also ``chunk_timeout``) as plain
values: the :class:`~repro.service.jobs.JobManager` passes its
:class:`~repro.service.config.ServiceConfig` fields, and nothing here
reads the environment.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.api.config import RunConfig
from repro.api.facade import RunReport, Superoptimizer
from repro.envconfig import DEFAULT_CHUNK_RETRIES, DEFAULT_CHUNK_TIMEOUT
from repro.errors import FaultInjected, PoolError, RetryExhausted
from repro.perf import PerfRecorder
from repro.workerpool import ResilientPool

__all__ = [
    "execute_job",
    "InlineExecutor",
    "PoolExecutor",
    "facade_for_config",
]

#: Canonical config JSON -> warm facade.  Shared by every inline executor
#: (and, in each worker process, by every chunk that worker serves); the
#: facade's lazy fields are idempotent, so concurrent executor threads
#: racing on a miss at worst duplicate one construction and agree on the
#: value.
_WARM_FACADES: Dict[str, Superoptimizer] = {}  # repro: allow(mutable-module-global): warm per-config state is the executor's whole point; entries are pure functions of the key

_RETRYABLE_JOB_ERRORS: Tuple[type, ...] = (PoolError, FaultInjected)


def _canonical_config_json(config_dict: Dict[str, Any]) -> str:
    return json.dumps(config_dict, sort_keys=True)


def facade_for_config(config_dict: Dict[str, Any]) -> Superoptimizer:
    """The (warm) facade serving a serialized run configuration."""
    key = _canonical_config_json(config_dict)
    facade = _WARM_FACADES.get(key)
    if facade is None:
        config = RunConfig().with_overrides(**config_dict)
        facade = Superoptimizer(config)
        _WARM_FACADES[key] = facade  # repro: allow(mutable-module-global): keyed insert of a pure function of the key
    return facade


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job payload through its warm facade; returns the report JSON.

    The facade runs unchanged, output screen included, so the report's
    ``verified`` is the one a direct ``Superoptimizer.optimize`` gives.
    """
    facade = facade_for_config(payload["config"])
    report: RunReport = facade.optimize(payload["qasm"])
    return report.to_json_dict()


class InlineExecutor:
    """In-process execution with pool-taxonomy retries.

    ``runner`` defaults to :func:`execute_job`; tests substitute flaky
    runners to exercise the retry and exhaustion paths deterministically.
    """

    def __init__(
        self,
        *,
        chunk_retries: int = DEFAULT_CHUNK_RETRIES,
        runner: Callable[[Dict[str, Any]], Dict[str, Any]] = execute_job,
    ) -> None:
        self.chunk_retries = max(int(chunk_retries), 0)
        self._runner = runner

    def run(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        last_error: Optional[BaseException] = None
        for _attempt in range(self.chunk_retries + 1):
            try:
                return self._runner(payload)
            except _RETRYABLE_JOB_ERRORS as error:
                last_error = error
        raise RetryExhausted(
            f"job still failing after {self.chunk_retries} retries "
            f"(last error: {last_error})"
        )

    def close(self) -> None:
        """Nothing to tear down (the warm facades outlive the executor)."""


# -- pool mode ----------------------------------------------------------------

_WORKER_BASE_CONFIG: Optional[Dict[str, Any]] = None  # repro: allow(mutable-module-global): set once by the pool initializer, read-only afterwards


def _init_service_worker(base_config: Dict[str, Any]) -> None:
    """Pool initializer: remember the base config and pre-warm its facade.

    Pre-warming runs generation + transformation extraction once per
    worker at pool start, so the first real request does not pay for it.
    """
    global _WORKER_BASE_CONFIG
    _WORKER_BASE_CONFIG = dict(base_config)
    facade = facade_for_config(_WORKER_BASE_CONFIG)
    facade.transformations()


def _service_worker(payload: Tuple[Dict[str, Any], Any]) -> Dict[str, Any]:
    """Chunk function: one job per chunk (see ``PoolExecutor``)."""
    job, fault_token = payload
    faults.apply_chunk_fault(fault_token)
    return execute_job(job)


class PoolExecutor:
    """Wave-dispatching front of a persistent multiprocess worker pool."""

    #: How long the dispatch thread lingers for companions after the first
    #: job of a wave arrives.  Small on purpose: concurrent submissions
    #: arrive within microseconds of each other, and anything longer taxes
    #: lone requests.
    GATHER_SECONDS = 0.01

    def __init__(
        self,
        base_config: Dict[str, Any],
        workers: int,
        *,
        chunk_timeout: Optional[float] = DEFAULT_CHUNK_TIMEOUT,
        chunk_retries: int = DEFAULT_CHUNK_RETRIES,
    ) -> None:
        self.workers = workers
        # Written only by the dispatch thread (inside run_chunks); other
        # threads read the copy published after each wave.
        self._perf = PerfRecorder()
        self._pool = ResilientPool(
            _service_worker,
            _init_service_worker,
            (dict(base_config),),
            workers,
            site="service",
            chunk_timeout=chunk_timeout,
            chunk_retries=chunk_retries,
            perf=self._perf,
        )
        self._queue: List[Tuple[Dict[str, Any], "Future[Dict[str, Any]]"]] = []
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._published: Dict[str, int] = {}
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-service-pool", daemon=True
        )
        self._thread.start()

    def run(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        future: "Future[Dict[str, Any]]" = Future()
        with self._wake:
            if self._closed:
                raise RetryExhausted("worker pool is closed")
            self._queue.append((payload, future))
            self._wake.notify_all()
        return future.result()

    def counters(self) -> Dict[str, int]:
        """The pool's ``resilience.*`` counters as of the last finished wave."""
        with self._lock:
            return dict(self._published)

    def close(self) -> None:
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._thread.join()
        self._pool.close()

    def _dispatch_loop(self) -> None:
        while True:
            wave = self._gather()
            if wave is None:
                return
            payloads = [payload for payload, _future in wave]
            try:
                results = self._run_wave(payloads)
            except PoolError as error:
                for _payload, future in wave:
                    future.set_exception(error)
                continue
            except Exception as error:  # noqa: BLE001 — dispatch boundary:
                # a non-pool error out of run_chunks is a bug in the chunk
                # function; it belongs to the submitting jobs (they report
                # it), not to the dispatch thread (whose death would hang
                # every later request).
                for _payload, future in wave:
                    future.set_exception(error)
                continue
            for (_payload, future), result in zip(wave, results):
                future.set_result(result)

    def _run_wave(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        try:
            return self._pool.run_chunks(payloads)
        finally:
            # Published before the wave's futures resolve, so a finished
            # job's recovery is already visible in the counters.
            counters = dict(self._perf.counters)
            with self._lock:
                self._published = counters

    def _gather(
        self,
    ) -> Optional[List[Tuple[Dict[str, Any], "Future[Dict[str, Any]]"]]]:
        with self._wake:
            while not self._queue and not self._closed:
                self._wake.wait()
            if not self._queue:
                return None
            deadline = time.monotonic() + self.GATHER_SECONDS
            while (
                len(self._queue) < self.workers
                and not self._closed
                and (remaining := deadline - time.monotonic()) > 0
            ):
                self._wake.wait(timeout=remaining)
            wave = self._queue[: self.workers]
            del self._queue[: self.workers]
            return wave
