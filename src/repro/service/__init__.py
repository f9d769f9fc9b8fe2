"""``repro.service`` — superoptimization as a service.

The ROADMAP's north star is Quartz's production setting: a
superoptimization tier absorbing heavy concurrent traffic.  This package
is that layer over the :class:`repro.api.Superoptimizer` facade:

* :class:`~repro.service.config.ServiceConfig` — frozen serving knobs
  (``REPRO_SERVICE_*``) plus the base run configuration;
* :class:`~repro.service.jobs.JobManager` — bounded queue, warm
  executors, content-hash result memoization, in-flight dedupe;
* :class:`~repro.service.http.OptimizationHTTPServer` — the stdlib-only
  asyncio HTTP front (``python -m repro.service`` to run it).

Everything heavy stays in the library, output verification included: a
job is a plain facade run.  The service adds scheduling, memoization and
the wire protocol, and its ``result`` blocks are byte-identical to direct
facade runs.
"""

from repro.service.config import ServiceConfig
from repro.service.http import OptimizationHTTPServer
from repro.service.jobs import Job, JobManager

__all__ = [
    "Job",
    "JobManager",
    "OptimizationHTTPServer",
    "ServiceConfig",
]
