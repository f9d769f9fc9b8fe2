"""Centralized parsing of the ``REPRO_*`` environment knobs.

Every environment variable the library reads is named and parsed here, so
the semantics of a knob cannot drift between call sites:

* ``REPRO_CACHE_DIR``     — persistent ECC cache directory;
* ``REPRO_CACHE_DISABLE`` — boolean flag; **only truthy values disable**
  the cache, so ``REPRO_CACHE_DISABLE=0`` / ``=false`` / ``=off`` mean
  the cache stays *enabled* (and ``TRUE``/``Yes`` case-insensitively
  disable it);
* ``REPRO_CHUNK_TIMEOUT`` — per-chunk deadline (seconds, float) for the
  service worker pool's async dispatch; ``0`` (or any non-positive value)
  disables the deadline, invalid values warn and use the default;
* ``REPRO_CHUNK_RETRIES`` — how many times a failed or timed-out service
  job is retried (in pool mode with pool respawn and exponential backoff)
  before it fails; invalid/negative values warn and use the default;
* ``REPRO_RESUME``        — boolean flag (default off): write round-granular
  RepGen checkpoints through the persistent cache and resume from the last
  completed round after a crash;
* ``REPRO_FAULTS``        — deterministic fault-injection plan for
  resilience testing (parsed by :mod:`repro.faults`; malformed plans
  raise, they never fail silent);
* ``REPRO_SCALE``         — experiment scale preset name;
* ``REPRO_SERVICE_PORT``  — TCP port the optimization service binds
  (invalid or out-of-range values warn and use the default);
* ``REPRO_SERVICE_WORKERS`` — optimization-service worker processes;
  values below 2 (the default) run jobs in the server process, 2+ spins a
  persistent warm :class:`~repro.workerpool.ResilientPool` (non-integers
  and negatives warn and mean 1);
* ``REPRO_SERVICE_MAX_QUEUE`` — bound on the service's job queue; a full
  queue answers 429 (invalid or non-positive values warn and use the
  default);
* ``REPRO_MICROBENCH``    — micro-benchmark harness mode: ``check`` /
  ``check-only`` run the hot-path benchmarks as plain assertions without
  pytest-benchmark timing (any other value, or unset, means full timing);
* ``REPRO_MICROBENCH_JSON`` — where the micro-benchmark harness writes its
  machine-readable results (empty/unset means the harness default).

Each knob has one reader above this module:

* :meth:`repro.api.RunConfig.from_env` snapshots the run knobs
  (``REPRO_CACHE_*``, ``REPRO_RESUME``);
* :meth:`repro.service.ServiceConfig.from_env` snapshots the serving
  knobs (``REPRO_SERVICE_*``, ``REPRO_CHUNK_*``);
* :func:`repro.experiments.config.active_config` reads ``REPRO_SCALE``;
* :mod:`repro.faults` reads ``REPRO_FAULTS`` and the micro-benchmark
  harness the ``REPRO_MICROBENCH*`` knobs.

A config field left ``None`` (``cache_dir``, ``cache_enabled``,
``resume``) is resolved through the same accessors at run time, which is
why :mod:`repro.generator` imports this low-level module rather than the
API package (which imports it).
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV_VAR = "REPRO_CACHE_DISABLE"
CHUNK_TIMEOUT_ENV_VAR = "REPRO_CHUNK_TIMEOUT"
CHUNK_RETRIES_ENV_VAR = "REPRO_CHUNK_RETRIES"
RESUME_ENV_VAR = "REPRO_RESUME"
FAULTS_ENV_VAR = "REPRO_FAULTS"
SCALE_ENV_VAR = "REPRO_SCALE"
MICROBENCH_ENV_VAR = "REPRO_MICROBENCH"
MICROBENCH_JSON_ENV_VAR = "REPRO_MICROBENCH_JSON"
SERVICE_PORT_ENV_VAR = "REPRO_SERVICE_PORT"
SERVICE_WORKERS_ENV_VAR = "REPRO_SERVICE_WORKERS"
SERVICE_MAX_QUEUE_ENV_VAR = "REPRO_SERVICE_MAX_QUEUE"

DEFAULT_CACHE_DIR = ".repro_cache"

#: Default TCP port of ``python -m repro.service`` (chosen clear of the
#: registered/common development ranges; override with
#: ``REPRO_SERVICE_PORT`` or ``--port``).
DEFAULT_SERVICE_PORT = 8321

#: Default bound on the service's job queue (a full queue answers 429).
DEFAULT_SERVICE_MAX_QUEUE = 64

#: Default per-chunk deadline (seconds) of the service's worker pool
#: (``ServiceConfig.chunk_timeout``).  Generous relative to the scales this
#: repo runs (a service chunk is one job), but finite: a worker killed
#: mid-chunk must surface as a timeout instead of hanging the request.
DEFAULT_CHUNK_TIMEOUT = 120.0

#: Default re-dispatch attempts per failed chunk before its jobs fail
#: (``ServiceConfig.chunk_retries``).
DEFAULT_CHUNK_RETRIES = 2

#: Accepted spellings for boolean environment flags (case-insensitive).
_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off", ""})


def parse_bool(raw: str, *, default: bool = False, name: str = "") -> bool:
    """Parse a boolean flag value; unknown spellings warn and use the default."""
    value = raw.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    warnings.warn(
        f"unrecognized boolean value {raw!r}"
        + (f" for {name}" if name else "")
        + f"; using default {default}",
        RuntimeWarning,
        stacklevel=2,
    )
    return default


def env_flag(name: str, *, default: bool = False) -> bool:
    """Read a boolean environment flag (absent means the default)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return parse_bool(raw, default=default, name=name)


def parse_workers(raw: str, *, source: str = SERVICE_WORKERS_ENV_VAR) -> int:
    """Parse a worker count: invalid or negative values warn and mean serial."""
    text = raw.strip()
    try:
        workers = int(text) if text else 1
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {source}={raw!r}; running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    if workers < 0:
        warnings.warn(
            f"ignoring negative {source}={raw!r}; running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return max(workers, 1)


def env_cache_dir(*, default: str = DEFAULT_CACHE_DIR) -> str:
    """Cache directory from ``REPRO_CACHE_DIR``."""
    return os.environ.get(CACHE_DIR_ENV_VAR, default)


def env_cache_enabled(*, default: bool = True) -> bool:
    """Whether the persistent cache is enabled (``REPRO_CACHE_DISABLE`` inverted).

    Only truthy values disable: ``REPRO_CACHE_DISABLE=0`` and ``=false``
    leave the cache enabled, matching what the flag's name promises.
    """
    raw = os.environ.get(CACHE_DISABLE_ENV_VAR)
    if raw is None:
        return default
    return not parse_bool(raw, default=not default, name=CACHE_DISABLE_ENV_VAR)


def parse_chunk_timeout(raw: str, *, default: float = DEFAULT_CHUNK_TIMEOUT) -> Optional[float]:
    """Parse a per-chunk deadline: seconds, ``<= 0`` means "no deadline".

    Invalid values warn and use the default — a malformed knob must not
    silently disable the no-hang guarantee.
    """
    text = raw.strip()
    try:
        seconds = float(text) if text else default
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {CHUNK_TIMEOUT_ENV_VAR}={raw!r}; "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return None if seconds <= 0 else seconds


def env_chunk_timeout(*, default: float = DEFAULT_CHUNK_TIMEOUT) -> Optional[float]:
    """Per-chunk deadline from ``REPRO_CHUNK_TIMEOUT`` (None = disabled)."""
    raw = os.environ.get(CHUNK_TIMEOUT_ENV_VAR)
    if raw is None:
        return default
    return parse_chunk_timeout(raw, default=default)


def parse_chunk_retries(raw: str, *, default: int = DEFAULT_CHUNK_RETRIES) -> int:
    """Parse a chunk retry budget: non-negative int; invalid warns, default."""
    text = raw.strip()
    try:
        retries = int(text) if text else default
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {CHUNK_RETRIES_ENV_VAR}={raw!r}; "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if retries < 0:
        warnings.warn(
            f"ignoring negative {CHUNK_RETRIES_ENV_VAR}={raw!r}; "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return retries


def env_chunk_retries(*, default: int = DEFAULT_CHUNK_RETRIES) -> int:
    """Chunk retry budget from ``REPRO_CHUNK_RETRIES``."""
    raw = os.environ.get(CHUNK_RETRIES_ENV_VAR)
    if raw is None:
        return default
    return parse_chunk_retries(raw, default=default)


def env_resume(*, default: bool = False) -> bool:
    """Whether crash-safe RepGen checkpointing/resume is on (``REPRO_RESUME``)."""
    return env_flag(RESUME_ENV_VAR, default=default)


def env_resume_optional() -> Optional[bool]:
    """Resume flag from the environment, or None when the knob is unset."""
    raw = os.environ.get(RESUME_ENV_VAR)
    if raw is None:
        return None
    return parse_bool(raw, default=False, name=RESUME_ENV_VAR)


def env_faults(*, default: str = "") -> str:
    """The raw ``REPRO_FAULTS`` fault-injection plan (parsed in repro.faults)."""
    return os.environ.get(FAULTS_ENV_VAR, default).strip()


def env_scale(*, default: str = "quick") -> str:
    """Experiment scale preset name from ``REPRO_SCALE``."""
    return os.environ.get(SCALE_ENV_VAR, default).strip().lower() or default


#: Spellings of ``REPRO_MICROBENCH`` that select check-only mode.
_MICROBENCH_CHECK_VALUES = frozenset({"check", "check-only"})


def env_microbench_check_only() -> bool:
    """Whether ``REPRO_MICROBENCH`` asks for check-only micro-benchmarks.

    ``check`` / ``check-only`` (case-insensitive) run the hot-path
    benchmarks as plain correctness assertions — what the CI tier-1 legs
    use, where wall-clock timing would only add noise.  Anything else
    (including unset) keeps full pytest-benchmark timing.
    """
    raw = os.environ.get(MICROBENCH_ENV_VAR, "")
    return raw.strip().lower() in _MICROBENCH_CHECK_VALUES


def env_microbench_json(*, default: str = "") -> str:
    """Micro-benchmark JSON output path from ``REPRO_MICROBENCH_JSON``.

    Returns the default when the knob is unset *or* empty, so callers can
    pass their harness-local default path in one expression.
    """
    raw = os.environ.get(MICROBENCH_JSON_ENV_VAR, "").strip()
    return raw or default


# -- optimization-service knobs ----------------------------------------------


def parse_service_port(raw: str, *, default: int = DEFAULT_SERVICE_PORT) -> int:
    """Parse a TCP port: 0 (ephemeral) through 65535; invalid warns, default."""
    text = raw.strip()
    try:
        port = int(text) if text else default
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {SERVICE_PORT_ENV_VAR}={raw!r}; "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if not 0 <= port <= 65535:
        warnings.warn(
            f"ignoring out-of-range {SERVICE_PORT_ENV_VAR}={raw!r}; "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return port


def env_service_port(*, default: int = DEFAULT_SERVICE_PORT) -> int:
    """Service TCP port from ``REPRO_SERVICE_PORT`` (0 means ephemeral)."""
    raw = os.environ.get(SERVICE_PORT_ENV_VAR)
    if raw is None:
        return default
    return parse_service_port(raw, default=default)


def env_service_workers(*, default: int = 1) -> int:
    """Service worker processes from ``REPRO_SERVICE_WORKERS``.

    Invalid and negative values warn and mean 1.  Values below 2 run jobs
    inside the server process; 2+ dispatches to a persistent multiprocess
    worker pool.
    """
    raw = os.environ.get(SERVICE_WORKERS_ENV_VAR)
    if raw is None:
        return default
    return parse_workers(raw, source=SERVICE_WORKERS_ENV_VAR)


def parse_service_max_queue(
    raw: str, *, default: int = DEFAULT_SERVICE_MAX_QUEUE
) -> int:
    """Parse the job-queue bound: a positive int; invalid warns, default."""
    text = raw.strip()
    try:
        bound = int(text) if text else default
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {SERVICE_MAX_QUEUE_ENV_VAR}={raw!r}; "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if bound < 1:
        warnings.warn(
            f"ignoring non-positive {SERVICE_MAX_QUEUE_ENV_VAR}={raw!r}; "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return bound


def env_service_max_queue(*, default: int = DEFAULT_SERVICE_MAX_QUEUE) -> int:
    """Job-queue bound from ``REPRO_SERVICE_MAX_QUEUE``."""
    raw = os.environ.get(SERVICE_MAX_QUEUE_ENV_VAR)
    if raw is None:
        return default
    return parse_service_max_queue(raw, default=default)
