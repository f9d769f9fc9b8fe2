"""Centralized parsing of the ``REPRO_*`` environment knobs.

Every environment variable the library reads is named and parsed here, so
the semantics of a knob cannot drift between call sites:

* ``REPRO_CACHE_DIR``     — persistent ECC cache directory;
* ``REPRO_CACHE_DISABLE`` — boolean flag; **only truthy values disable**
  the cache, so ``REPRO_CACHE_DISABLE=0`` / ``=false`` / ``=off`` mean
  the cache stays *enabled* (and ``TRUE``/``Yes`` case-insensitively
  disable it);
* ``REPRO_CHUNK_TIMEOUT`` — per-job deadline (seconds, float) of the
  service worker pool; ``0`` (or any non-positive value) disables the
  deadline, invalid values warn and use the default;
* ``REPRO_CHUNK_RETRIES`` — how many times a job that failed or timed
  out in the service worker pool is retried (with a pool respawn when a
  worker died or wedged) before it fails; invalid/negative values warn
  and use the default;
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
  (``REPRO_CACHE_*``);
* :meth:`repro.service.ServiceConfig.from_env` snapshots the serving
  knobs (``REPRO_SERVICE_*``, ``REPRO_CHUNK_*``);
* :func:`repro.experiments.config.active_config` reads ``REPRO_SCALE``;
* :mod:`repro.faults` reads ``REPRO_FAULTS`` and the micro-benchmark
  harness the ``REPRO_MICROBENCH*`` knobs.

Nothing else reads them: a config built without ``from_env`` holds its
defaults whatever the environment says, and :mod:`repro.generator` takes
the cache directory and flag as plain values.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Optional, TypeVar

CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV_VAR = "REPRO_CACHE_DISABLE"
CHUNK_TIMEOUT_ENV_VAR = "REPRO_CHUNK_TIMEOUT"
CHUNK_RETRIES_ENV_VAR = "REPRO_CHUNK_RETRIES"
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

#: Default per-job deadline (seconds) of the service's worker pool
#: (``ServiceConfig.chunk_timeout``).  Generous relative to the scales this
#: repo runs, but finite: a wedged job must surface as a timeout instead
#: of hanging the request (a killed worker surfaces at once, without it).
DEFAULT_CHUNK_TIMEOUT = 120.0

#: Default re-dispatch attempts per failed job before it fails
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


_Number = TypeVar("_Number", int, float)


def _env_number(
    name: str,
    convert: Callable[[str], _Number],
    default: _Number,
    *,
    in_range: Callable[[_Number], bool] = lambda value: value >= 0,
    out_of_range: str = "negative",
) -> _Number:
    """The number held by environment variable ``name``, or ``default``.

    Unset or blank means ``default``.  A value ``convert`` rejects warns
    as non-integer (``int``) or non-numeric (``float``), one ``in_range``
    (by default: non-negative) rejects warns as ``out_of_range``, and both
    then mean ``default``.
    """
    raw = os.environ.get(name)
    text = (raw or "").strip()
    if not text:
        return default
    try:
        value = convert(text)
    except ValueError:
        problem = "non-integer" if convert is int else "non-numeric"
    else:
        if in_range(value):
            return value
        problem = out_of_range
    warnings.warn(
        f"ignoring {problem} {name}={raw!r}; using default {default}",
        RuntimeWarning,
        stacklevel=3,
    )
    return default


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


def env_chunk_timeout(*, default: float = DEFAULT_CHUNK_TIMEOUT) -> Optional[float]:
    """Per-job deadline from ``REPRO_CHUNK_TIMEOUT`` (None = no deadline).

    Seconds; ``<= 0`` disables the deadline.  Invalid values warn and use
    the default — a malformed knob must not silently disable the no-hang
    guarantee.
    """
    seconds = _env_number(
        CHUNK_TIMEOUT_ENV_VAR, float, default, in_range=lambda value: True
    )
    return None if seconds <= 0 else seconds


def env_chunk_retries(*, default: int = DEFAULT_CHUNK_RETRIES) -> int:
    """Job retry budget from ``REPRO_CHUNK_RETRIES``: a non-negative int."""
    return _env_number(CHUNK_RETRIES_ENV_VAR, int, default)


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


def env_service_port(*, default: int = DEFAULT_SERVICE_PORT) -> int:
    """Service TCP port from ``REPRO_SERVICE_PORT`` (0 means ephemeral)."""
    return _env_number(
        SERVICE_PORT_ENV_VAR,
        int,
        default,
        in_range=lambda port: 0 <= port <= 65535,
        out_of_range="out-of-range",
    )


def env_service_workers(*, default: int = 1) -> int:
    """Service worker processes from ``REPRO_SERVICE_WORKERS``.

    Invalid and negative values warn and mean the default, 1; 0 means 1.
    Values below 2 run jobs inside the server process; 2+ dispatches to a
    persistent multiprocess worker pool.
    """
    return max(_env_number(SERVICE_WORKERS_ENV_VAR, int, default), 1)


def env_service_max_queue(*, default: int = DEFAULT_SERVICE_MAX_QUEUE) -> int:
    """Job-queue bound from ``REPRO_SERVICE_MAX_QUEUE``: a positive int."""
    return _env_number(
        SERVICE_MAX_QUEUE_ENV_VAR,
        int,
        default,
        in_range=lambda bound: bound >= 1,
        out_of_range="non-positive",
    )
