"""The service core: a bounded job queue, warm executors, memoized results.

:class:`JobManager` is the whole service minus the wire protocol — the
HTTP layer (:mod:`repro.service.http`) is a thin translation onto it, and
the tests drive it directly.  Lifecycle of a submission:

1. **Validate** — the QASM must parse (:class:`~repro.errors.InvalidRequest`
   otherwise) and the config overrides may name only
   :data:`~repro.api.config.OUTPUT_FIELDS` (flat or nested under
   ``generation``/``search``), routed through
   :meth:`RunConfig.with_overrides` onto the service's base config; an
   unknown strategy fails there, and the gate-set name and the search
   runner are resolved eagerly, so a typo is a 400 at submit time, not a
   500 at execution time.  A deployment field (``cache_dir``, ``verbose``,
   ...) is a 400 too: where the service keeps its files is the operator's
   choice, not a client's.
2. **Memoize / dedupe** — the job key is a content hash of the *canonical*
   QASM (parse → re-emit, so formatting differences cannot defeat it) plus
   the effective config's output fields (a custom gate set by its gates
   and parameter count, not just its name), so two requests that must
   return the same result share one key.  A key whose result is memoized is
   answered instantly (``cached``); a key currently queued or running
   attaches to the in-flight job instead of enqueueing a duplicate
   (``deduped``).
3. **Enqueue** — the pending queue is bounded by ``max_queue``;
   :class:`~repro.errors.QueueFull` (HTTP 429) past that.
4. **Execute** — ``executor_slots`` threads drain the queue through the
   warm executor (in-process or multiprocess, see
   :mod:`repro.service.executor`).  A job is a plain facade run, output
   screen included, so its ``verified`` is the facade's own verdict.
5. **Memoize** — a completed result is kept only if it depends on
   nothing but (circuit, config) and was not refuted: a search stopped by
   the wall-clock cap depends on machine load, and a refuted output
   (``verified`` is ``False``) must never be served as canonical, so a
   repeat of either runs again.
6. **Forget** — the job table keeps every queued and running job but only
   the :data:`JOB_TABLE_CAPACITY` most recently finished ones; polling an
   older id is :class:`~repro.errors.JobNotFound` (HTTP 404).

Responses split determinism from observability: a job's ``result`` block
is a pure function of (circuit, config) — byte-identical whether the job
ran alone, concurrently, memoized or retried — while timings and the
``service.*`` counters ride in separate fields.  The cross-request
acceptance test keys on exactly this split.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.api.config import OUTPUT_FIELDS, RunConfig
from repro.api.facade import Superoptimizer
from repro.errors import (
    InvalidRequest,
    JobNotFound,
    QueueFull,
    ReproError,
    ServiceClosed,
)
from repro.ir.gatesets import GateSet, get_gate_set
from repro.ir.qasm import QasmError, parse_qasm, to_qasm
from repro.service.config import ServiceConfig
from repro.service.executor import InlineExecutor, PoolExecutor, config_key

__all__ = ["Job", "JobManager", "JOB_TABLE_CAPACITY", "RESULT_MEMO_CAPACITY"]

#: Completed (result, report) pairs kept per manager; oldest evicted.
RESULT_MEMO_CAPACITY = 256

#: Finished jobs kept per manager for polls; the one that finished first is
#: evicted first.  Queued and running jobs are never evicted.
JOB_TABLE_CAPACITY = 1024

#: Terminal job statuses.
_TERMINAL = ("completed", "failed")


@dataclass
class Job:
    """One optimization request's lifecycle record."""

    id: str
    key: str
    canonical_qasm: str
    payload: Dict[str, Any]
    status: str = "queued"
    cached: bool = False
    dedupe_hits: int = 0
    result: Optional[Dict[str, Any]] = None
    report: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    created: float = 0.0
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def finished(self) -> bool:
        return self.status in _TERMINAL

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal status."""
        return self.done.wait(timeout)

    def as_dict(self) -> Dict[str, Any]:
        """The job record a poll returns (see module doc on the split)."""
        out: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "cached": self.cached,
            "dedupe_hits": self.dedupe_hits,
            "events": list(self.events),
        }
        if self.result is not None:
            out["result"] = dict(self.result)
        if self.report is not None:
            out["report"] = dict(self.report)
        if self.error is not None:
            out["error"] = dict(self.error)
        return out


def _result_block(report: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic slice of a report: no timings, no counters."""
    circuits = report["circuits"]
    search = report["search"]
    return {
        "optimized_qasm": circuits["optimized_qasm"],
        "input_gates": circuits["input_gates"],
        "preprocessed_gates": circuits["preprocessed_gates"],
        "optimized_gates": circuits["optimized_gates"],
        "initial_cost": report["costs"]["initial"],
        "final_cost": report["costs"]["final"],
        "reduction": report["costs"]["reduction"],
        "iterations": search["iterations"],
        "circuits_explored": search["circuits_explored"],
        "num_transformations": report["num_transformations"],
        "verified": report["verified"],
    }


def _memoizable(report: Dict[str, Any]) -> bool:
    """Whether a report depends only on (circuit, config) and was not refuted."""
    return not report["search"]["timed_out"] and report["verified"] is not False


class JobManager:
    """Queue, execute and memoize optimization jobs (thread-safe)."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        executor: Optional[Any] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._base = self.config.run_config
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._next_id = 1
        self._queue: List[Job] = []
        self._jobs: Dict[str, Job] = {}
        self._finished: Deque[str] = deque()  # finished job ids, oldest first
        self._active: Dict[str, Job] = {}  # content key -> in-flight job
        self._memo: "OrderedDict[str, Tuple[Dict[str, Any], Dict[str, Any]]]" = (
            OrderedDict()
        )
        self._counters: Dict[str, float] = {
            "service.jobs.submitted": 0,
            "service.jobs.completed": 0,
            "service.jobs.failed": 0,
            "service.cache.hits": 0,
            "service.cache.misses": 0,
            "service.dedupe.hits": 0,
            "service.queue.rejected": 0,
        }
        if executor is not None:
            self.executor = executor
        elif self.config.pooled:
            self.executor = PoolExecutor(
                self._validated(self._base),
                self.config.workers,
                chunk_timeout=self.config.chunk_timeout,
                chunk_retries=self.config.chunk_retries,
            )
        else:
            self.executor = InlineExecutor()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-exec-{slot}",
                daemon=True,
            )
            for slot in range(self.config.executor_slots)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self, qasm: str, overrides: Optional[Mapping[str, Any]] = None
    ) -> Job:
        """Validate, memoize/dedupe and enqueue one request.

        Raises :class:`InvalidRequest`, :class:`QueueFull` or
        :class:`ServiceClosed` (each mapping to its HTTP status).
        """
        if not isinstance(qasm, str) or not qasm.strip():
            raise InvalidRequest("request carries no QASM text")
        try:
            circuit = parse_qasm(qasm)
        except QasmError as error:
            raise InvalidRequest(f"malformed QASM: {error}") from error
        effective = self._validated(self._effective_config(overrides))
        canonical = to_qasm(circuit)
        key = _content_key(canonical, effective)
        payload = {"qasm": canonical, "config": effective}

        with self._wake:
            if self._closed:
                raise ServiceClosed("service is draining; not accepting jobs")
            self._counters["service.jobs.submitted"] += 1
            memoized = self._memo.get(key)
            if memoized is not None:
                self._counters["service.cache.hits"] += 1
                job = self._new_job(key, canonical, payload)
                job.cached = True
                result, report = memoized
                job.result = dict(result)
                job.report = dict(report)
                self._finish(job, "completed")
                return job
            in_flight = self._active.get(key)
            if in_flight is not None:
                self._counters["service.dedupe.hits"] += 1
                in_flight.dedupe_hits += 1
                return in_flight
            self._counters["service.cache.misses"] += 1
            if len(self._queue) >= self.config.max_queue:
                self._counters["service.queue.rejected"] += 1
                raise QueueFull(
                    f"job queue is full ({self.config.max_queue} pending)"
                )
            job = self._new_job(key, canonical, payload)
            self._active[key] = job
            self._queue.append(job)
            self._wake.notify_all()
            return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(f"no such job: {job_id}")
        return job

    def stats(self) -> Dict[str, Any]:
        """Every ``service.*`` counter, live queue gauges and the worker
        pool's ``resilience.*`` counters (none in in-process mode)."""
        with self._lock:
            counters = dict(self._counters)
            depth = len(self._queue)
            active = len(self._active)
        counters["service.queue.depth"] = depth
        counters["service.jobs.active"] = active
        # Only the pool executor keeps resilience counters; the pool copies
        # them under its own lock, so this read is safe from any thread.
        pool_counters = getattr(self.executor, "counters", None)
        if pool_counters is not None:
            counters.update(pool_counters())
        return counters

    # -- shutdown ------------------------------------------------------------

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work; optionally finish what is queued first.

        With ``drain`` the executor threads complete every queued job
        before exiting; without it, queued jobs fail with
        :class:`ServiceClosed` and only running jobs finish.  Either way
        the executor threads are joined, with no timeout unless
        ``timeout`` is given.
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for job in self._queue:
                    self._active.pop(job.key, None)
                    self._fail(job, ServiceClosed("service shut down before run"))
                self._queue.clear()
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        self.executor.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _effective_config(
        self, overrides: Optional[Mapping[str, Any]]
    ) -> RunConfig:
        if overrides is None:
            return self._base
        if not isinstance(overrides, Mapping) or not all(
            isinstance(k, str) for k in overrides
        ):
            raise InvalidRequest("config must be an object of field names")
        layers = ("generation", "search")
        rejected = [
            name
            for name in overrides
            if name not in OUTPUT_FIELDS and name not in layers
        ]
        for layer in layers:
            nested = overrides.get(layer, {})
            if not isinstance(nested, Mapping):
                raise InvalidRequest(f"config.{layer} must be an object")
            rejected += [
                f"{layer}.{name}" for name in nested if name not in OUTPUT_FIELDS
            ]
        if rejected:
            raise InvalidRequest(
                "a request may set only output fields, not " + ", ".join(rejected)
            )
        try:
            return self._base.with_overrides(**dict(overrides))
        except (TypeError, ValueError) as error:
            raise InvalidRequest(f"bad config override: {error}") from error

    def _validated(self, config: RunConfig) -> RunConfig:
        """``config`` itself, once its gate set and runner are known to resolve.

        Eager resolution turns an unknown gate-set name or bad search
        tuning (``beam_width=0``) into a 400 here instead of a failed job
        later.
        """
        try:
            if not isinstance(config.gate_set, GateSet):
                get_gate_set(config.gate_set_name)
            Superoptimizer(config)
        except (KeyError, ValueError, TypeError) as error:
            raise InvalidRequest(f"bad configuration: {error}") from error
        return config

    def _new_job(self, key: str, canonical: str, payload: Dict[str, Any]) -> Job:
        job = Job(
            id=f"job-{self._next_id}",
            key=key,
            canonical_qasm=canonical,
            payload=payload,
            created=time.monotonic(),
        )
        self._next_id += 1
        self._jobs[job.id] = job
        self._event(job, "queued")
        return job

    def _event(self, job: Job, status: str) -> None:
        job.status = status
        job.events.append(
            {"status": status, "seconds": time.monotonic() - job.created}
        )

    def _finish(self, job: Job, status: str) -> None:
        self._event(job, status)
        key = "service.jobs.completed" if status == "completed" else "service.jobs.failed"
        self._counters[key] += 1
        self._finished.append(job.id)
        while len(self._finished) > JOB_TABLE_CAPACITY:
            del self._jobs[self._finished.popleft()]
        job.done.set()

    def _fail(self, job: Job, error: BaseException) -> None:
        job.error = {"type": type(error).__name__, "detail": str(error)}
        self._finish(job, "failed")

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if not self._queue:
                    return  # closed and drained
                job = self._queue.pop(0)
                self._event(job, "running")
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        try:
            report = self.executor.run(job.payload)
            result = _result_block(report)
        except ReproError as error:
            with self._lock:
                self._active.pop(job.key, None)
                self._fail(job, error)
            return
        except Exception as error:  # noqa: BLE001 — executor-thread
            # boundary: an unexpected error belongs to this job (reported
            # through its record), never to the loop — a dead executor
            # thread would silently shrink the service's capacity.
            with self._lock:
                self._active.pop(job.key, None)
                self._fail(job, error)
            return
        with self._lock:
            job.result = result
            job.report = report
            if _memoizable(report):
                self._memo[job.key] = (dict(result), dict(report))
                while len(self._memo) > RESULT_MEMO_CAPACITY:
                    self._memo.popitem(last=False)
            self._active.pop(job.key, None)
            self._finish(job, "completed")


def _content_key(canonical_qasm: str, effective: RunConfig) -> str:
    """Content hash: canonical circuit + the effective config's output
    fields (:func:`~repro.service.executor.config_key`)."""
    digest = hashlib.sha256()
    digest.update(canonical_qasm.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(config_key(effective).encode("utf-8"))
    return digest.hexdigest()
