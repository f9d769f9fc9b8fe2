"""Structured error taxonomy for the library's failure paths.

A recovery site that caught bare ``Exception`` could not tell a
retryable infrastructure failure (a killed worker) from a programming bug,
and the persistent cache had no way to signal *why* a blob was unusable.
The hierarchy below gives each failure mode the library knows how to
recover from a name, so recovery sites catch exactly what they handle:

``ReproError``
    Root of everything this library raises on purpose.

``PoolError``
    A worker-pool infrastructure failure.  Catching this (and only this)
    is the contract of the service's retry paths: anything else escaping
    a pool is a bug and should surface.

    * ``ChunkTimeout``  — a dispatched job missed its deadline
      (``REPRO_CHUNK_TIMEOUT``): its worker is wedged or too slow.  A
      killed worker is not a timeout; it surfaces at once as a
      ``WorkerCrash``.
    * ``WorkerCrash``   — a job's worker died (killed, out of memory, or
      its initializer raised), or the job raised an injected fault.
    * ``RetryExhausted``— a job kept failing after every retry
      (``REPRO_CHUNK_RETRIES``) and pool respawn; the service fails that
      job with it.

``CacheCorruption``
    A persistent-cache blob failed validation (checksum, schema, key
    mismatch, undecodable JSON).  Internal to :mod:`repro.generator.cache`
    — the public cache contract is still "a read never raises".

``FaultConfigError``
    A ``REPRO_FAULTS`` spec does not parse.  Deliberately *not* swallowed:
    a typo'd fault plan that silently never fires would make a chaos test
    vacuous.

``FaultInjected``
    Raised by an injected ``fail_chunk`` fault inside a service pool
    worker.  Test-only by construction — it can only appear when
    ``REPRO_FAULTS`` is set.

``ServiceError``
    A request-level failure of the optimization service
    (:mod:`repro.service`).  Each subclass maps to exactly one HTTP
    status, so the server's error handling is a typed dispatch — never a
    blanket except:

    * ``InvalidRequest`` — the request body does not parse (malformed
      JSON, malformed QASM, unknown config field); HTTP 400.
    * ``QueueFull``      — the bounded job queue is at capacity; HTTP 429
      with a ``Retry-After`` hint.
    * ``JobNotFound``    — the polled job id does not exist; HTTP 404.
    * ``ServiceClosed``  — the service is draining or stopped and accepts
      no new work; HTTP 503.

    A job whose worker kept crashing surfaces the *pool* taxonomy instead:
    its stored error is the :class:`RetryExhausted` that escaped the
    dispatch, reported as HTTP 500.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PoolError",
    "ChunkTimeout",
    "WorkerCrash",
    "RetryExhausted",
    "CacheCorruption",
    "FaultConfigError",
    "FaultInjected",
    "ServiceError",
    "InvalidRequest",
    "QueueFull",
    "JobNotFound",
    "ServiceClosed",
]


class ReproError(Exception):
    """Base class for every intentional error of this library."""


class PoolError(ReproError):
    """A worker-pool infrastructure failure (retryable or degradable)."""


class ChunkTimeout(PoolError):
    """A dispatched job missed its per-job deadline."""


class WorkerCrash(PoolError):
    """A job's worker died, or the job raised an injected fault."""


class RetryExhausted(PoolError):
    """A job still failed after every configured retry and respawn."""


class CacheCorruption(ReproError):
    """A persistent-cache blob failed checksum/schema/key validation."""


class FaultConfigError(ReproError):
    """A ``REPRO_FAULTS`` specification does not parse."""


class FaultInjected(ReproError):
    """An injected fault fired (only possible under ``REPRO_FAULTS``)."""


class ServiceError(ReproError):
    """A request-level failure of the optimization service."""

    #: The HTTP status this error class maps to (subclasses override).
    http_status: int = 500


class InvalidRequest(ServiceError):
    """A service request body does not parse (JSON, QASM or config)."""

    http_status = 400


class QueueFull(ServiceError):
    """The service's bounded job queue is at capacity."""

    http_status = 429


class JobNotFound(ServiceError):
    """A polled job id does not exist."""

    http_status = 404


class ServiceClosed(ServiceError):
    """The service is draining or stopped and accepts no new work."""

    http_status = 503
