"""Job execution for the optimization service: one facade run per job.

A job is a pure payload — ``{"qasm": <text>, "config": <RunConfig>}``
(a ``RunConfig`` pickles, custom gate sets included) — and executing it
returns the :meth:`~repro.api.facade.RunReport.to_json_dict` of a
``Superoptimizer(config)`` run.  A facade costs microseconds to build:
the expensive state behind it (the generated and pruned ECC set and the
extracted transformation list) lives in :mod:`repro.api.facade`'s
in-process memos, keyed by the generation cache key, so it stays **hot
across requests** without a per-config facade table: the first request
for a configuration pays for generation, every later one reuses it.
Payload purity is the contract :class:`~repro.workerpool.ResilientPool`
relies on: a re-executed job returns a byte-identical report (timings
aside), which is what makes retrying crashed jobs sound.

Two executors share that entry point:

* :class:`InlineExecutor` (``workers < 2``, the default) runs each job
  once on the caller's thread; whatever the run raises fails the job.
  Nothing in the server process can crash a worker, so there is nothing to
  retry.  The ``runner`` seam lets a test substitute a failing or
  blocking run without spawning processes.
* :class:`PoolExecutor` (``workers >= 2``) hands each job to a persistent
  :class:`~repro.workerpool.ResilientPool` whose workers are pre-warmed
  by the initializer from the base config.  The
  :class:`~repro.service.jobs.JobManager` runs one executor thread per
  worker, and each thread's ``run`` is one future on the pool, so every
  worker takes the next job as soon as it is free.  The pool's
  ``resilience.*`` counters (respawns, timeouts, retries, ...) are read
  through :meth:`PoolExecutor.counters`.

The pool takes ``chunk_timeout`` and ``chunk_retries`` as plain values:
the :class:`~repro.service.jobs.JobManager` passes its
:class:`~repro.service.config.ServiceConfig` fields, and nothing here
reads the environment.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional, Tuple

from repro import faults
from repro.api.config import RunConfig
from repro.api.facade import RunReport, Superoptimizer
from repro.envconfig import DEFAULT_CHUNK_RETRIES, DEFAULT_CHUNK_TIMEOUT
from repro.ir.gatesets import GateSet
from repro.workerpool import ResilientPool

__all__ = [
    "config_key",
    "execute_job",
    "InlineExecutor",
    "PoolExecutor",
]


def config_key(config: RunConfig) -> str:
    """The output fields of ``config`` as canonical JSON.

    A custom :class:`~repro.ir.gatesets.GateSet` enters with its gate list
    and parameter count, as the generation cache keys it, so two gate sets
    that share a name never share a key.  The deployment fields stay out:
    a service takes them from its one base config.
    """
    fields = config.output_dict()
    gate_set = config.gate_set
    if isinstance(gate_set, GateSet):
        fields["gate_set"] = {
            "name": gate_set.name,
            "gates": gate_set.gate_names(),
            "num_params": gate_set.num_params,
        }
    return json.dumps(fields, sort_keys=True, default=str)


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job payload through a facade; returns the report JSON.

    The facade runs unchanged, output screen included, so the report's
    ``verified`` is the one a direct ``Superoptimizer.optimize`` gives.
    """
    report: RunReport = Superoptimizer(payload["config"]).optimize(payload["qasm"])
    return report.to_json_dict()


class InlineExecutor:
    """In-process execution: one call of ``runner`` per job.

    ``runner`` defaults to :func:`execute_job`; tests substitute failing
    or blocking runners.
    """

    def __init__(
        self,
        *,
        runner: Callable[[Dict[str, Any]], Dict[str, Any]] = execute_job,
    ) -> None:
        self._runner = runner

    def run(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._runner(payload)

    def close(self) -> None:
        """Nothing to tear down (the facade memos outlive the executor)."""


# -- pool mode ----------------------------------------------------------------

def _init_service_worker(base_config: RunConfig) -> None:
    """Pool initializer: pre-warm the base config's memos in this worker.

    Pre-warming runs generation + transformation extraction once per
    worker at pool start, so the first real request does not pay for it.
    """
    Superoptimizer(base_config).transformations()


def _service_worker(payload: Tuple[Dict[str, Any], Any]) -> Dict[str, Any]:
    """Pool job function: one service job per call."""
    job, fault_token = payload
    faults.apply_chunk_fault(fault_token)
    return execute_job(job)


class PoolExecutor:
    """Runs each job on a persistent multiprocess pool, one future per job."""

    def __init__(
        self,
        base_config: RunConfig,
        workers: int,
        *,
        chunk_timeout: Optional[float] = DEFAULT_CHUNK_TIMEOUT,
        chunk_retries: int = DEFAULT_CHUNK_RETRIES,
    ) -> None:
        self.workers = workers
        self._pool = ResilientPool(
            _service_worker,
            _init_service_worker,
            (base_config,),
            workers,
            chunk_timeout=chunk_timeout,
            chunk_retries=chunk_retries,
        )

    def run(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The job's report, from whichever worker is free (thread-safe)."""
        return self._pool.run(payload)

    def counters(self) -> Dict[str, int]:
        """A copy of the pool's ``resilience.*`` counters."""
        return self._pool.counters()

    def close(self) -> None:
        self._pool.close()
