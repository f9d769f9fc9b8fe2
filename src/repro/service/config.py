"""Frozen configuration of the optimization service.

:class:`ServiceConfig` is the service-layer sibling of
:class:`repro.api.RunConfig`: a frozen snapshot of every serving knob
(bind address, worker mode, queue bound, the worker pool's per-chunk
deadline and retry budget) plus the *base* :class:`~repro.api.RunConfig`
each request's overrides are layered onto.  The pool knobs live here and
nowhere else, because no run outside the service uses a pool.  Like
``RunConfig.from_env`` it is the single place the service reads the
environment — parsing itself lives in :mod:`repro.envconfig`
(rule R002), and the snapshot happens once at server start so a running
service cannot drift if the environment changes underneath it.

A request may override only the base config's
:data:`~repro.api.config.OUTPUT_FIELDS`; the deployment fields (cache
location, resume, verbosity) are the operator's, set here.

One deliberate deviation from the library default: unless the environment
or the caller says otherwise, the base run config enables round-granular
RepGen checkpointing (``generation.resume``).  A *library* run that dies
simply reruns; a *service* draining on shutdown may hold an in-flight job
mid-generation, and the resume machinery is what turns "drain timed out,
kill the job" into "the next request continues from the last completed
round" instead of starting over.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.api.config import RunConfig
from repro.envconfig import (
    DEFAULT_CHUNK_RETRIES,
    DEFAULT_CHUNK_TIMEOUT,
    env_chunk_retries,
    env_chunk_timeout,
    env_service_max_queue,
    env_service_port,
    env_service_workers,
)

__all__ = ["ServiceConfig", "DEFAULT_HOST"]

#: The service binds loopback by default: it is an internal optimization
#: tier, not an internet-facing endpoint.
DEFAULT_HOST = "127.0.0.1"


def _default_run_config() -> RunConfig:
    return RunConfig()


@dataclass(frozen=True)
class ServiceConfig:
    """The complete configuration of one optimization service instance."""

    host: str = DEFAULT_HOST
    #: TCP port; 0 binds an ephemeral port (the server reports the actual
    #: one), which is what the tests and the CI leg use.
    port: int = 8321
    #: Job-execution mode: values below 2 run jobs on in-process executor
    #: threads; 2+ dispatches to a persistent ``ResilientPool`` of that
    #: many worker processes (warm facades, ECC caches and verifier state
    #: survive across requests in both modes).
    workers: int = 1
    #: Bound on queued-but-not-yet-running jobs; submissions beyond it are
    #: rejected with :class:`repro.errors.QueueFull` (HTTP 429).
    max_queue: int = 64
    #: Per-chunk (one job) deadline in seconds of the worker pool's
    #: dispatch; ``None`` or <= 0 means no deadline.
    chunk_timeout: Optional[float] = DEFAULT_CHUNK_TIMEOUT
    #: Retries of a job whose run failed or timed out, in either mode.
    chunk_retries: int = DEFAULT_CHUNK_RETRIES
    #: The base configuration requests are layered onto with
    #: ``with_overrides`` — exactly the facade's override routing, so a
    #: request body may say ``{"config": {"n": 2, "strategy": "beam"}}``
    #: (output fields only).
    run_config: RunConfig = field(default_factory=_default_run_config)

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServiceConfig":
        """Snapshot the ``REPRO_SERVICE_*`` and ``REPRO_CHUNK_*`` knobs and
        the ``REPRO_*`` run base.

        ``overrides`` win over the environment; ``run_config`` may be given
        explicitly to replace the ``RunConfig.from_env()`` base.
        """
        run_config = overrides.pop("run_config", None)
        if run_config is None:
            run_config = RunConfig.from_env()
        if run_config.generation.resume is None:
            # Service default: checkpoint in-flight generation so drained
            # jobs resume instead of restarting (see module docstring).
            run_config = run_config.with_overrides(resume=True)
        config = cls(
            port=env_service_port(),
            workers=env_service_workers(),
            max_queue=env_service_max_queue(),
            chunk_timeout=env_chunk_timeout(),
            chunk_retries=env_chunk_retries(),
            run_config=run_config,
        )
        return dataclasses.replace(config, **overrides) if overrides else config

    @property
    def pooled(self) -> bool:
        """Whether jobs execute in a multiprocess pool (vs in-process)."""
        return self.workers >= 2

    @property
    def executor_slots(self) -> int:
        """Concurrent job executions the manager drives.

        Always at least 2, so in the default in-process mode a long
        search does not hold every other request behind it; in pool mode
        one slot per worker.
        """
        return max(2, self.workers)
