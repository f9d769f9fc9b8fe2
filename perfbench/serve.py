"""The ``serve-mixed`` workload: a closed loop against ``python -m repro.service``.

Two client threads of this process each send their next request only when
the previous one has reached a terminal status (submit, then long-poll).
The seeded stream is mostly fresh random Nam circuits (memo misses) with
about a quarter reformatted repeats of a hot set that set-up submitted
once (memo hits).  The service runs with its default in-process executors
on an ephemeral loopback port, warm on the Nam (3, 3) configuration.  It
is started through ``service_main.py``, which samples the host speed in
the service process.

A traced run splits the window: an untraced service serves the first
half, then a traced service replays the same stream, which gives the
in-service layer numbers and, request by request, the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import calibrate
import common
import inputs
from batch import Interval, Outcome, fill_cache
from calibrate import Sample
from layers import layer_values
from spans import Tracer

#: Server spawns per run; set-up time is their median.
SETUP_REPEATS = 3
CLIENTS = 2
HOT_COUNT = 4
#: Every fourth request repeats a hot circuit.
HOT_EVERY = 4
#: Size of the random circuits.  At this size every search runs its whole
#: iteration budget, so request costs are alike: the inter-quartile
#: distance of 30 such searches is 0.37 of their median, against 0.5 at
#: 20 gates, where a quarter of the searches end early.
QUBITS = 4
GATES = 28
#: ``cost_reduction_pct`` is taken over this many fresh requests in stream
#: order, so it does not depend on how many a run completes.
QUALITY_PREFIX = 16
#: Long-poll wait per GET (the service caps waits at 60 s).
POLL_WAIT_S = 30.0
WARMUP_QASM = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\nh q[0];\ncx q[0], q[1];\n'
REQUEST_CONFIG = {
    "max_iterations": common.MAX_ITERATIONS,
    "timeout_seconds": common.TIMEOUT_CAP_S,
}


class Service:
    """One ``repro.service`` process on an ephemeral port, started through
    ``service_main.py``, which samples the host speed in it and, given an
    aggregates path, traces it."""

    def __init__(self, cache: Path, log: Path, aggregates: Optional[Path]) -> None:
        args = ["--port", "0", "--gate-set", "nam", "--n", "3", "--q", "3"]
        self._samples = log.with_suffix(".samples.json")
        command = [
            sys.executable,
            str(common.BENCH_DIR / "service_main.py"),
            str(self._samples),
            "-" if aggregates is None else str(aggregates),
            *args,
        ]
        self._log = open(log, "wb")
        self.process = subprocess.Popen(
            command,
            env=common.pinned_environ(cache),
            cwd=common.ROOT,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], 120)
        line = stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def request(self, method: str, path: str, body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            connection.request(method, path, body=payload)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM, then wait for the drain (kill only if it hangs)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()

    def host_samples(self) -> List[Sample]:
        """The host-speed samples the stopped service wrote."""
        return [tuple(sample) for sample in json.loads(self._samples.read_text())]


@dataclass
class Request:
    index: int
    kind: str
    hot_index: int
    qasm: str
    start: float = 0.0
    latency: float = 0.0
    submit_s: float = 0.0
    polls: int = 0
    record: Dict[str, Any] = field(default_factory=dict)


def optimize(service: Service, request: Request) -> None:
    """Submit one request and long-poll it to a terminal status."""
    request.start = time.perf_counter()
    record = service.request(
        "POST", "/v1/optimize", {"qasm": request.qasm, "config": REQUEST_CONFIG}
    )
    request.submit_s = time.perf_counter() - request.start
    while record.get("status") not in ("completed", "failed"):
        if "job_id" not in record and "id" not in record:
            break  # an error response; the check reports it
        job_id = record.get("job_id", record.get("id"))
        record = service.request("GET", f"/v1/jobs/{job_id}?wait={POLL_WAIT_S}")
        request.polls += 1
    request.latency = time.perf_counter() - request.start
    request.record = record


class ClosedLoop:
    """``CLIENTS`` threads pulling the shared seeded stream until a deadline."""

    def __init__(self, service: Service, stream: Iterator[Tuple[str, int, str]]) -> None:
        self.service = service
        self._stream = stream
        self._lock = threading.Lock()
        self._next = 0
        self.done: List[Request] = []
        self.errors: List[BaseException] = []

    def _take(self) -> Request:
        with self._lock:
            kind, hot_index, qasm = next(self._stream)
            request = Request(self._next, kind, hot_index, qasm)
            self._next += 1
            return request

    def _client(self, deadline: float) -> None:
        try:
            while time.perf_counter() < deadline:
                request = self._take()
                optimize(self.service, request)
                with self._lock:
                    self.done.append(request)
        except BaseException as error:  # noqa: BLE001 — reported by run()
            self.errors.append(error)

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._client, args=(deadline,))
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.errors:
            raise RuntimeError(f"client failed: {self.errors[0]!r}") from self.errors[0]


def _event_times(record: Dict[str, Any]) -> Dict[str, float]:
    return {event["status"]: event["seconds"] for event in record.get("events", [])}


def _check(
    outcome: Outcome,
    request: Request,
    hot_results: Dict[int, Dict[str, Any]],
    equivalent: Any,
    parse_qasm: Any,
) -> None:
    label = f"request {request.index} ({request.kind})"
    record = request.record
    if record.get("status") != "completed":
        outcome.fail(f"{label}: status {record.get('status')!r} {record.get('error')!r}")
        return
    result = record["result"]
    if record["report"]["search"]["timed_out"]:
        outcome.fail(f"{label}: search hit the wall-clock cap")
    elif result["final_cost"] > result["initial_cost"]:
        outcome.fail(f"{label}: cost rose")
    elif not equivalent(parse_qasm(request.qasm), parse_qasm(result["optimized_qasm"])):
        outcome.fail(f"{label}: output not equivalent to the input")
    elif result["verified"] is not True:
        outcome.fail(f"{label}: the service's output check failed")
    elif request.kind == "hot" and result != hot_results[request.hot_index]:
        outcome.fail(f"{label}: differs from the hot circuit's first result")


@dataclass
class Phase:
    """One service's closed-loop window and what it returned."""

    requests: List[Request]
    started: float
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    rss_mb: float


def _submit_hot(
    outcome: Outcome, service: Service, seed: int, checks: Tuple[Any, Any]
) -> Dict[int, Dict[str, Any]]:
    """Submit the hot set once; its results are what repeats must return."""
    hot_results: Dict[int, Dict[str, Any]] = {}
    for index, qasm in enumerate(inputs.hot_circuits(seed, HOT_COUNT, QUBITS, GATES)):
        request = Request(-1, "hot-setup", index, qasm)
        optimize(service, request)
        outcome.attempted += 1
        _check(outcome, request, {}, *checks)
        hot_results[index] = request.record.get("result", {})
    return hot_results


def _run_phase(
    outcome: Outcome,
    service: Service,
    seed: int,
    seconds: float,
    checks: Tuple[Any, Any],
) -> Phase:
    hot_results = _submit_hot(outcome, service, seed, checks)
    before = service.request("GET", "/v1/stats")
    loop = ClosedLoop(
        service, inputs.request_stream(seed, HOT_COUNT, HOT_EVERY, QUBITS, GATES)
    )
    started = time.perf_counter()
    loop.run(seconds)
    after = service.request("GET", "/v1/stats")
    rss_mb = common.peak_rss_mb_pid(service.process.pid)
    done = sorted(loop.done, key=lambda r: r.index)
    for request in done:
        outcome.attempted += 1
        _check(outcome, request, hot_results, *checks)
    return Phase(done, started, before, after, rss_mb)


def serve_mixed(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    scratch = common.scratch_dir("serve-mixed")
    service: Optional[Service] = None
    try:
        common.pin_process(scratch / "unused-cache")
        from repro.ir.qasm import parse_qasm
        from repro.semantics.simulator import circuits_equivalent_numeric

        checks = (circuits_equivalent_numeric, parse_qasm)
        outcome = Outcome()
        filled = scratch / "filled"
        fill_cache(filled, ("nam",))

        def start(tag: str, aggregates: Optional[Path] = None) -> Tuple[Service, Interval]:
            """Spawn a service on a fresh cache copy; time it to a warm-up result."""
            cache = common.copy_cache(filled, scratch, tag)
            began = time.perf_counter()
            started = Service(cache, scratch / f"{tag}.log", aggregates)
            warmup = Request(-1, "warmup", -1, WARMUP_QASM)
            optimize(started, warmup)
            interval = (began, time.perf_counter())
            outcome.attempted += 1
            _check(outcome, warmup, {}, *checks)
            return started, interval

        def stop(stopping: Service) -> None:
            stopping.stop()
            outcome.host_samples.extend(stopping.host_samples())

        setup: List[Interval] = []
        for repeat in range(SETUP_REPEATS):
            service, interval = start(f"setup-{repeat}")
            setup.append(interval)
            if repeat < SETUP_REPEATS - 1:
                stop(service)
                service = None

        # A traced run splits the window: the untraced service above serves
        # the first half, then a traced service replays the same stream, so
        # the overhead compares the same requests.
        window = seconds if tracer is None else seconds / 2
        plain = _run_phase(outcome, service, seed, window, checks)
        stop(service)
        service = None

        _summarize(outcome, plain, setup)
        if tracer is not None:
            aggregates = common.OUT / "spans" / f"serve-mixed-seed{seed}-service.json"
            aggregates.parent.mkdir(parents=True, exist_ok=True)
            service, _ = start("traced", aggregates)
            traced = _run_phase(outcome, service, seed, window, checks)
            stop(service)
            service = None
            outcome.layers = _service_layers(plain)
            outcome.layers.update(_in_service_layers(aggregates, traced))
            outcome.layers["optimizer.cost_reduction_pct"] = outcome.info["cost_reduction_pct"]
            outcome.layers["trace.overhead_pct"] = _paired_overhead(
                plain, traced, outcome.host_samples
            )
        return outcome
    finally:
        if service is not None:
            service.stop()
        shutil.rmtree(scratch, ignore_errors=True)


def _summarize(outcome: Outcome, phase: Phase, setup: List[Interval]) -> None:
    done = phase.requests
    outcome.setup = setup
    outcome.ops = _intervals(phase)
    outcome.window = (phase.started, max(end for _, end in outcome.ops))
    outcome.peak_rss_mb = phase.rss_mb
    fresh = [r for r in done if r.kind == "fresh"][:QUALITY_PREFIX]
    initial = sum(r.record["result"]["initial_cost"] for r in fresh)
    final = sum(r.record["result"]["final_cost"] for r in fresh)
    outcome.info.update(
        requests=len(done),
        hits=sum(1 for r in done if r.kind == "hot"),
        cost_reduction_pct=100.0 * (initial - final) / initial,
        quality_requests=len(fresh),
        request_latencies=[(r.index, r.kind, r.latency) for r in done],
    )


def _paired_overhead(plain: Phase, traced: Phase, samples: List[Sample]) -> float:
    """Traced over untraced latency, summed over the fresh requests both
    served, each phase scaled to the host speed while it ran."""
    untraced = {r.index: r.latency for r in plain.requests if r.kind == "fresh"}
    pairs = [(untraced[r.index], r.latency) for r in traced.requests if r.index in untraced]
    base = sum(a for a, _ in pairs) * calibrate.scale(samples, _intervals(plain))
    paired = sum(b for _, b in pairs) * calibrate.scale(samples, _intervals(traced))
    return 100.0 * (paired / base - 1.0) if base else 0.0


def _intervals(phase: Phase) -> List[Interval]:
    return [(r.start, r.start + r.latency) for r in phase.requests]


def _service_layers(phase: Phase) -> Dict[str, float]:
    """``service.*`` metrics, measured from outside the service."""
    requests = phase.requests

    def delta(name: str) -> float:
        return phase.stats_after.get(name, 0) - phase.stats_before.get(name, 0)

    queue_wait, run, verify_wait = [], [], []
    for request in requests:
        if request.kind != "fresh":
            continue
        events = _event_times(request.record)
        if "running" in events and "queued" in events:
            queue_wait.append(events["running"] - events["queued"])
        terminal = events.get("completed", events.get("failed"))
        if terminal is not None and "running" in events:
            run.append(terminal - events["running"])
        if terminal is not None and "verifying" in events:
            verify_wait.append(terminal - events["verifying"])
    hits = delta("service.cache.hits")
    return {
        "service.submit_s": common.median([r.submit_s for r in requests]),
        "service.queue_wait_s": common.median(queue_wait),
        "service.run_s": common.median(run),
        "service.verify_wait_s": common.median(verify_wait),
        "service.hit_latency_s": common.median(
            [r.latency for r in requests if r.kind == "hot"]
        ),
        "service.miss_latency_s": common.median(
            [r.latency for r in requests if r.kind == "fresh"]
        ),
        "service.memo_hit_ratio": common.ratio(hits, hits + delta("service.cache.misses")),
        "service.polls_per_request": common.ratio(
            sum(r.polls for r in requests), len(requests)
        ),
        "service.batch_occupancy": common.ratio(
            delta("service.batch.pairs"), delta("service.batch.flushes")
        ),
        "service.rejected": delta("service.queue.rejected"),
    }


def _in_service_layers(aggregates: Path, phase: Phase) -> Dict[str, float]:
    """Layer numbers from the spans the traced service recorded: per request
    for the measured window, and for the set-up layers from the warm-up
    request, which is the service's first job."""
    from service_main import load_aggregates

    tracer = load_aggregates(aggregates)
    units = [[r.record.get("id", "")] for r in phase.requests]
    return layer_values(tracer, units, [["job-1"]])
