"""``python -m repro.service`` with the benchmark's host-speed sampler.

Usage: ``service_main.py <samples.json> <aggregates.json or -> <service arguments...>``.

The service runs exactly as ``python -m repro.service`` would, while a
:class:`~calibrate.Sampler` samples the host speed in its process (the
process that does the timed work).  With an aggregates path, the
benchmark's span wrappers are installed too and spans are attributed to
the job being executed.  After the service has drained (``SIGTERM``), the
samples are written to ``<samples.json>``, and the per-(job, span)
aggregates to ``<aggregates.json>`` with the spans next to it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import Sampler  # noqa: E402
from spans import Tracer, install  # noqa: E402


def main(argv: List[str]) -> int:
    samples_out = Path(argv[0])
    aggregates = None if argv[1] == "-" else Path(argv[1])
    sampler = Sampler()
    sampler.start()
    try:
        tracer = _install_tracing() if aggregates is not None else None
        from repro.service.__main__ import main as serve

        code = serve(argv[2:])
    finally:
        sampler.stop()
    samples_out.write_text(json.dumps(sampler.samples))
    if tracer is not None:
        tracer.collect()
        aggregates.write_text(
            json.dumps(
                {
                    "totals": [[op, name, *entry] for (op, name), entry in tracer.totals.items()],
                    "counts": [[op, name, value] for (op, name), value in tracer.counts.items()],
                }
            )
        )
        tracer.dump(aggregates.with_suffix(".jsonl.gz"), {"process": "service"})
    return code


def _install_tracing() -> Tracer:
    tracer = Tracer()
    tracer.default_op = "idle"
    install(tracer)

    from repro.service import jobs

    run_job = jobs.JobManager._run_job

    def run_job_as_op(self: Any, job: Any) -> None:
        tracer.set_op(job.id)
        try:
            run_job(self, job)
        finally:
            tracer.set_op("idle")

    jobs.JobManager._run_job = run_job_as_op
    return tracer


def load_aggregates(path: Path) -> Tracer:
    """A tracer holding the aggregates a traced service wrote."""
    data = json.loads(path.read_text())
    tracer = Tracer()
    for op, name, calls, inclusive, own in data["totals"]:
        tracer.totals[(op, name)] = [calls, inclusive, own]
    for op, name, value in data["counts"]:
        tracer.counts[(op, name)] = value
    return tracer


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
