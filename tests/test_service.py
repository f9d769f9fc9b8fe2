"""The optimization service: determinism, memoization, errors, the wire.

The acceptance property is at the top: N concurrent *distinct* circuits
each get a deterministic ``result`` block **byte-identical** to a serial,
direct :class:`~repro.api.Superoptimizer` run of the same circuit and
config, output verification included.  The rest covers the content-hash
cache (and what it must not keep: timed-out or refuted results), in-flight
dedupe, the typed error paths (400 / 429 + ``Retry-After`` / 404 /
worker-crash retries ending in 500 ``RetryExhausted``), graceful drain,
and the stdlib HTTP front end-to-end on an ephemeral port.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import multiprocessing
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

import pytest

from repro import faults
from repro.api import RunConfig, Superoptimizer
from repro.benchmarks_suite import benchmark_circuit
from repro.errors import (
    FaultInjected,
    InvalidRequest,
    JobNotFound,
    QueueFull,
    RetryExhausted,
    ServiceClosed,
)
from repro.faults import FaultPlan
from repro.ir.qasm import to_qasm
from repro.service import Job, JobManager, OptimizationHTTPServer, ServiceConfig
from repro.service.executor import InlineExecutor, PoolExecutor, execute_job
from repro.service.jobs import _content_key, _result_block

#: One base config for the whole module so the warm-facade table is built
#: once (generation at n=2/q=2 is the only slow step).
BASE_RUN = RunConfig().with_overrides(n=2, q=2, cache_enabled=False, verify_output=True)

CIRCUITS = ("tof_3", "barenco_tof_3", "mod5_4")


def qasm_for(name: str) -> str:
    return to_qasm(benchmark_circuit(name))


def manager(**service_kwargs: Any) -> JobManager:
    service_kwargs.setdefault("run_config", BASE_RUN)
    return JobManager(ServiceConfig(**service_kwargs))


def serial_result_block(name: str) -> Dict[str, Any]:
    """What a direct facade run reports, shaped as the service's block."""
    report = Superoptimizer(BASE_RUN).optimize(benchmark_circuit(name)).to_json_dict()
    return _result_block(report)


class TestCrossRequestByteIdentity:
    """The acceptance test: serving must not change a single byte."""

    def test_concurrent_distinct_circuits_match_serial(self):
        serial = {name: serial_result_block(name) for name in CIRCUITS}
        # executor_slots >= 2 runs jobs concurrently.
        with manager() as service:
            jobs = {name: service.submit(qasm_for(name)) for name in CIRCUITS}
            for job in jobs.values():
                assert job.wait(120)
        for name, job in jobs.items():
            assert job.status == "completed"
            assert job.result["verified"] is True
            assert json.dumps(job.result, sort_keys=True) == json.dumps(
                serial[name], sort_keys=True
            )

    def test_cache_hit_returns_identical_result(self):
        with manager() as service:
            first = service.submit(qasm_for("tof_3"))
            assert first.wait(120)
            again = service.submit(qasm_for("tof_3"))
            assert again.finished and again.cached
            assert json.dumps(again.result, sort_keys=True) == json.dumps(
                first.result, sort_keys=True
            )
            stats = service.stats()
        assert stats["service.cache.hits"] == 1

    def test_formatting_differences_do_not_defeat_the_cache(self):
        qasm = qasm_for("tof_3")
        with manager() as service:
            first = service.submit(qasm)
            assert first.wait(120)
            noisy = qasm.replace(";\n", ";\n\n")  # same circuit, other bytes
            assert service.submit(noisy).cached


class TestMemoization:
    """Only results of (circuit, config) alone, never refuted, are kept."""

    @staticmethod
    def _submit_twice(
        edit: Callable[[Dict[str, Any]], None],
    ) -> Tuple[Job, Job, Dict[str, Any], int]:
        """Run ``tof_3`` twice through a runner that edits the real report."""
        runs = []

        def runner(payload: Dict[str, Any]) -> Dict[str, Any]:
            report = execute_job(payload)
            edit(report)
            runs.append(payload)
            return report

        service = JobManager(
            ServiceConfig(run_config=BASE_RUN),
            executor=InlineExecutor(runner=runner),
        )
        with service:
            first = service.submit(qasm_for("tof_3"))
            assert first.wait(120)
            again = service.submit(qasm_for("tof_3"))
            assert again.wait(120)
            stats = service.stats()
        assert first.status == again.status == "completed"
        return first, again, stats, len(runs)

    def test_search_stopped_by_the_clock_is_not_memoized(self):
        def hit_the_wall_clock_cap(report: Dict[str, Any]) -> None:
            report["search"]["timed_out"] = True

        first, again, stats, runs = self._submit_twice(hit_the_wall_clock_cap)
        assert again is not first and not again.cached
        assert stats["service.cache.hits"] == 0
        assert runs == 2

    def test_refuted_output_is_not_memoized(self):
        def refute(report: Dict[str, Any]) -> None:
            report["verified"] = False

        first, again, stats, runs = self._submit_twice(refute)
        assert first.result["verified"] is False
        assert again is not first and not again.cached
        assert stats["service.cache.hits"] == 0
        assert runs == 2

    def test_verify_output_override_is_a_distinct_job(self):
        with manager() as service:
            default = service.submit(qasm_for("tof_3"))
            assert default.wait(120)
            unverified = service.submit(qasm_for("tof_3"), {"verify_output": False})
            assert unverified.wait(120)
            stats = service.stats()
        assert default.result["verified"] is True
        assert unverified.status == "completed"
        assert unverified.result["verified"] is None
        assert not unverified.cached
        assert stats["service.cache.hits"] == 0

    def test_output_fields_flat_or_nested_share_one_job(self):
        # perfbench's request config and the base config's own values,
        # spelled flat or nested, are the same run: one miss, then hits.
        qasm = qasm_for("tof_3")
        with manager() as service:
            first = service.submit(qasm, {"max_iterations": 30, "timeout_seconds": 20.0})
            assert first.wait(120) and first.status == "completed"
            for override in (
                None,
                {"n": 2, "q": 2},
                {"generation": {"n": 2}, "search": {"gamma": 1.0001}},
            ):
                assert service.submit(qasm, override).cached
            stats = service.stats()
        assert stats["service.cache.misses"] == 1
        assert stats["service.cache.hits"] == 3


class TestJobKey:
    """A job key hashes the circuit and the output fields, nothing else."""

    def test_deployment_fields_do_not_change_the_key(self):
        key = _content_key("q", RunConfig())
        assert _content_key("q", RunConfig(batched=True)) == key
        deployment = RunConfig().with_overrides(
            workers=1,
            verify_workers=1,
            search_workers=1,
            cache_dir="elsewhere",
            cache_enabled=False,
            resume=True,
            verbose=True,
        )
        assert _content_key("q", deployment) == key

    @pytest.mark.parametrize(
        "override",
        [
            {"gate_set": "rigetti"},
            {"n": 2},
            {"seed": 7},
            {"prune": False},
            {"verify_output": False},
            {"gamma": 1.5},
            {"strategy": "beam"},
            {"strategy_options": {"beam_width": 4}},
        ],
        ids=lambda override: next(iter(override)),
    )
    def test_output_fields_change_the_key(self, override):
        key = _content_key("q", RunConfig())
        assert _content_key("q", RunConfig().with_overrides(**override)) != key
        assert _content_key("other", RunConfig()) != key


class _BlockingExecutor:
    """Holds every job until released; exposes how many got started."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.started = threading.Semaphore(0)

    def run(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.started.release()
        assert self.release.wait(30), "test never released the executor"
        return execute_job(payload)

    def close(self) -> None:
        pass


class TestQueueAndDedupe:
    def test_queue_full_rejects_with_429_class(self):
        executor = _BlockingExecutor()
        service = JobManager(
            ServiceConfig(run_config=BASE_RUN, max_queue=1),
            executor=executor,
        )
        try:
            # Two jobs occupy both executor slots (waiting for each to start
            # avoids racing the queue bound), the third fills the queue.
            for name in ("tof_3", "barenco_tof_3"):
                service.submit(qasm_for(name))
                assert executor.started.acquire(timeout=10)
            service.submit(qasm_for("mod5_4"))
            with pytest.raises(QueueFull) as excinfo:
                service.submit(qasm_for("tof_4"))
            assert excinfo.value.http_status == 429
            assert service.stats()["service.queue.rejected"] == 1
        finally:
            executor.release.set()
            service.close()

    def test_in_flight_duplicate_attaches_to_running_job(self):
        executor = _BlockingExecutor()
        service = JobManager(
            ServiceConfig(run_config=BASE_RUN), executor=executor
        )
        try:
            first = service.submit(qasm_for("tof_3"))
            assert executor.started.acquire(timeout=10)
            duplicate = service.submit(qasm_for("tof_3"))
            assert duplicate is first
            assert first.dedupe_hits == 1
            assert service.stats()["service.dedupe.hits"] == 1
        finally:
            executor.release.set()
            service.close()
        assert first.status == "completed"


class TestErrorPaths:
    def test_malformed_qasm_is_invalid_request(self):
        with manager() as service:
            with pytest.raises(InvalidRequest) as excinfo:
                service.submit("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n")
            assert excinfo.value.http_status == 400
            with pytest.raises(InvalidRequest):
                service.submit("   ")

    def test_bad_config_override_is_a_400_at_submit(self):
        with manager() as service:
            with pytest.raises(InvalidRequest):
                service.submit(qasm_for("tof_3"), {"backend": "no-such-backend"})
            with pytest.raises(InvalidRequest):
                service.submit(qasm_for("tof_3"), {"not_a_knob": 1})
            assert service.stats()["service.jobs.failed"] == 0

    @pytest.mark.parametrize(
        "override", [{"backend": "numpy"}, {"batched": False}],
        ids=["backend", "per-state"],
    )
    def test_removed_simulator_fields_are_a_400(self, override):
        # One simulator and one fingerprint path: naming a backend, or
        # asking for the per-state path, is a bad request.
        with manager() as service:
            with pytest.raises(InvalidRequest) as excinfo:
                service.submit(qasm_for("tof_3"), override)
            assert excinfo.value.http_status == 400
            assert service.stats()["service.jobs.failed"] == 0

    def test_a_client_cannot_choose_the_cache_directory(self, tmp_path):
        client_dir = tmp_path / "client_chosen" / "deep"
        with manager() as service:
            with pytest.raises(InvalidRequest, match="cache_dir") as excinfo:
                service.submit(qasm_for("tof_3"), {"cache_dir": str(client_dir)})
            assert excinfo.value.http_status == 400
            assert service.stats()["service.jobs.submitted"] == 0
        assert not (tmp_path / "client_chosen").exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"cache_enabled": True},
            {"resume": False},
            {"verbose": True},
            {"workers": 1},
            {"verify_workers": 1},
            {"search_workers": 1},
            {"batched": True},
            {"chunk_timeout": 1.0},
            {"generation": {"n": 2, "cache_dir": "elsewhere"}},
            {"search": {"max_iterations": 5, "search_workers": 1}},
            {"generation": "n=2"},
        ],
        ids=[
            "cache_enabled",
            "resume",
            "verbose",
            "workers",
            "verify_workers",
            "search_workers",
            "batched",
            "chunk_timeout",
            "nested-cache_dir",
            "nested-search_workers",
            "layer-not-an-object",
        ],
    )
    def test_fields_outside_the_output_fields_are_a_400(self, override):
        with manager() as service:
            with pytest.raises(InvalidRequest) as excinfo:
                service.submit(qasm_for("tof_3"), override)
            assert excinfo.value.http_status == 400
            assert service.stats()["service.jobs.submitted"] == 0

    def test_service_command_line_has_no_backend_flag(self):
        from repro.service.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "numpy"])

    def test_unknown_job_id_is_404(self):
        with manager() as service:
            with pytest.raises(JobNotFound) as excinfo:
                service.get("job-999")
            assert excinfo.value.http_status == 404

    def test_crashing_worker_retries_then_recovers(self):
        crashes = {"left": 2}

        def flaky(payload: Dict[str, Any]) -> Dict[str, Any]:
            if crashes["left"]:
                crashes["left"] -= 1
                raise FaultInjected("injected worker crash")
            return execute_job(payload)

        service = JobManager(
            ServiceConfig(run_config=BASE_RUN),
            executor=InlineExecutor(chunk_retries=2, runner=flaky),
        )
        with service:
            job = service.submit(qasm_for("tof_3"))
            assert job.wait(120)
        assert job.status == "completed"
        assert crashes["left"] == 0
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            serial_result_block("tof_3"), sort_keys=True
        )

    def test_retry_exhaustion_fails_the_job_with_the_taxonomy(self):
        def always_crashing(payload: Dict[str, Any]) -> Dict[str, Any]:
            raise FaultInjected("injected worker crash")

        service = JobManager(
            ServiceConfig(run_config=BASE_RUN),
            executor=InlineExecutor(chunk_retries=1, runner=always_crashing),
        )
        with service:
            job = service.submit(qasm_for("tof_3"))
            assert job.wait(30)
        assert job.status == "failed"
        assert job.error["type"] == RetryExhausted.__name__
        assert service.stats()["service.jobs.failed"] == 1


class TestShutdown:
    def test_drain_finishes_queued_jobs(self):
        service = manager()
        jobs = [service.submit(qasm_for(name)) for name in CIRCUITS]
        service.close(drain=True)
        assert all(job.status == "completed" for job in jobs)
        with pytest.raises(ServiceClosed) as excinfo:
            service.submit(qasm_for("tof_3"))
        assert excinfo.value.http_status == 503

    def test_non_drain_fails_queued_jobs(self):
        executor = _BlockingExecutor()
        service = JobManager(
            ServiceConfig(run_config=BASE_RUN), executor=executor
        )
        jobs = []
        for name in ("tof_3", "barenco_tof_3"):
            jobs.append(service.submit(qasm_for(name)))
            assert executor.started.acquire(timeout=10)
        jobs.append(service.submit(qasm_for("mod5_4")))  # stays queued
        # Close from a helper thread: it fails the queued job immediately,
        # then blocks joining the executor threads until we release them.
        closer = threading.Thread(target=lambda: service.close(drain=False))
        closer.start()
        assert jobs[2].wait(10)
        executor.release.set()
        closer.join(30)
        assert jobs[2].status == "failed"
        assert jobs[2].error["type"] == "ServiceClosed"
        assert jobs[0].status == "completed" and jobs[1].status == "completed"


class TestPoolMode:
    """``workers >= 2``: jobs ride a persistent multiprocess pool."""

    def test_pooled_jobs_match_serial_results(self):
        config = ServiceConfig(run_config=BASE_RUN, workers=2)
        assert config.pooled and config.executor_slots == 2
        serial = {name: serial_result_block(name) for name in ("tof_3", "mod5_4")}
        with JobManager(config) as service:
            jobs = {
                name: service.submit(qasm_for(name)) for name in ("tof_3", "mod5_4")
            }
            for job in jobs.values():
                assert job.wait(240)
        for name, job in jobs.items():
            assert job.status == "completed", (job.status, job.error)
            assert job.result["verified"] is True
            assert json.dumps(job.result, sort_keys=True) == json.dumps(
                serial[name], sort_keys=True
            )

    def test_killed_worker_recovers_and_shows_in_stats(self):
        # The killed worker's job is re-dispatched to a respawned pool; a
        # job is a pure function of its payload, so the retried result
        # equals the serial one — and the recovery is visible in stats().
        config = ServiceConfig(
            run_config=BASE_RUN, workers=2, chunk_timeout=3.0, chunk_retries=2
        )
        serial = serial_result_block("tof_3")
        faults.set_fault_plan(FaultPlan.from_string("kill_worker:service"))
        try:
            with JobManager(config) as service:
                job = service.submit(qasm_for("tof_3"))
                assert job.wait(240)
                stats = service.stats()
        finally:
            faults.set_fault_plan(None)
        assert job.status == "completed", (job.status, job.error)
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
        assert stats["resilience.faults_injected"] == 1
        assert stats["resilience.pool_respawns"] >= 1
        assert stats["resilience.chunk_retries"] >= 1

    def test_delayed_chunk_recovers_and_shows_in_stats(self):
        config = ServiceConfig(
            run_config=BASE_RUN, workers=2, chunk_timeout=3.0, chunk_retries=2
        )
        serial = serial_result_block("tof_3")
        faults.set_fault_plan(FaultPlan.from_string("delay_chunk:service"))
        try:
            with JobManager(config) as service:
                job = service.submit(qasm_for("tof_3"))
                assert job.wait(240)
                stats = service.stats()
        finally:
            faults.set_fault_plan(None)
        assert job.status == "completed", (job.status, job.error)
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
        assert stats["resilience.faults_injected"] == 1
        assert stats["resilience.chunk_timeouts"] >= 1
        assert stats["resilience.chunk_retries"] >= 1

    def test_closing_a_pooled_manager_leaves_no_worker(self):
        before = {child.pid for child in multiprocessing.active_children()}

        def leftover():
            return {c.pid for c in multiprocessing.active_children()} - before

        with JobManager(ServiceConfig(run_config=BASE_RUN, workers=2)) as service:
            job = service.submit(qasm_for("tof_3"))
            assert job.wait(240) and job.status == "completed"
            assert leftover()
        deadline = time.monotonic() + 10
        while leftover() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert leftover() == set()


class _HeldWaves:
    """Wrap a pool executor's wave runner; its first wave waits for release.

    While the first wave is held, later submissions pile up in the
    executor's queue, so the next wave's composition is deterministic.
    """

    def __init__(self, executor: PoolExecutor, monkeypatch: Any) -> None:
        self.executor = executor
        self.sizes: list = []
        self.started = threading.Event()
        self.release = threading.Event()
        original = executor._run_wave

        def run_wave(payloads):
            self.sizes.append(len(payloads))
            if len(self.sizes) == 1:
                self.started.set()
                assert self.release.wait(60)
            return original(payloads)

        monkeypatch.setattr(executor, "_run_wave", run_wave)

    def submit(
        self, payload: Dict[str, Any], results: list, index: int
    ) -> threading.Thread:
        def run() -> None:
            try:
                results[index] = self.executor.run(payload)
            except Exception as error:  # noqa: BLE001 — asserted by the test
                results[index] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def wait_queued(self, count: int) -> None:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with self.executor._lock:
                if len(self.executor._queue) >= count:
                    return
            time.sleep(0.01)
        raise AssertionError(f"{count} jobs never queued")


def _pool_payload(name: str) -> Dict[str, Any]:
    return {"qasm": qasm_for(name), "config": BASE_RUN.as_dict()}


@pytest.fixture
def pool_executor():
    executor = PoolExecutor(BASE_RUN.as_dict(), 2, chunk_timeout=60.0)
    yield executor
    executor.close()


class TestPoolExecutor:
    """The wave-dispatching front of the service's one pool."""

    def test_concurrent_jobs_ride_one_wave(self, pool_executor, monkeypatch):
        held = _HeldWaves(pool_executor, monkeypatch)
        results: list = [None] * 3
        threads = [held.submit(_pool_payload("tof_3"), results, 0)]
        assert held.started.wait(60)
        threads += [
            held.submit(_pool_payload(name), results, index)
            for index, name in ((1, "barenco_tof_3"), (2, "mod5_4"))
        ]
        held.wait_queued(2)
        held.release.set()
        for thread in threads:
            thread.join(240)
        assert held.sizes == [1, 2]
        for result, name in zip(results, ("tof_3", "barenco_tof_3", "mod5_4")):
            assert _result_block(result) == serial_result_block(name)

    def test_waves_are_capped_at_the_worker_count(self, pool_executor, monkeypatch):
        held = _HeldWaves(pool_executor, monkeypatch)
        results: list = [None] * 4
        threads = [held.submit(_pool_payload("tof_3"), results, 0)]
        assert held.started.wait(60)
        threads += [
            held.submit(_pool_payload("tof_3"), results, index)
            for index in (1, 2, 3)
        ]
        held.wait_queued(3)
        held.release.set()
        for thread in threads:
            thread.join(240)
        assert held.sizes == [1, 2, 1]
        blocks = [_result_block(result) for result in results]
        assert blocks == [serial_result_block("tof_3")] * 4

    def test_pool_failure_fails_every_job_of_the_wave(
        self, pool_executor, monkeypatch
    ):
        held = _HeldWaves(pool_executor, monkeypatch)
        results: list = [None] * 3
        threads = [held.submit(_pool_payload("tof_3"), results, 0)]
        assert held.started.wait(60)
        threads += [
            held.submit(_pool_payload("tof_3"), results, index) for index in (1, 2)
        ]
        held.wait_queued(2)
        failure = RetryExhausted("every worker died")

        def exhausted(chunks):
            raise failure

        # The held first wave is already inside run_wave; only the second
        # wave (both queued jobs) dispatches to the failing pool.
        original = pool_executor._pool.run_chunks
        calls: list = []

        def first_clean_then_exhausted(chunks):
            calls.append(len(chunks))
            return original(chunks) if len(calls) == 1 else exhausted(chunks)

        monkeypatch.setattr(
            pool_executor._pool, "run_chunks", first_clean_then_exhausted
        )
        held.release.set()
        for thread in threads:
            thread.join(240)
        assert _result_block(results[0]) == serial_result_block("tof_3")
        assert results[1] is failure and results[2] is failure
        # The dispatch thread survived: a later job still runs.
        monkeypatch.setattr(pool_executor._pool, "run_chunks", original)
        assert _result_block(pool_executor.run(_pool_payload("tof_3"))) == (
            serial_result_block("tof_3")
        )

    def test_counters_start_empty_and_stay_empty_without_faults(
        self, pool_executor
    ):
        assert pool_executor.counters() == {}
        pool_executor.run(_pool_payload("tof_3"))
        assert not any(
            name.startswith("resilience.") for name in pool_executor.counters()
        )

    def test_run_after_close_raises_retry_exhausted(self):
        executor = PoolExecutor(BASE_RUN.as_dict(), 2, chunk_timeout=60.0)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(RetryExhausted, match="closed"):
            executor.run(_pool_payload("tof_3"))

    def test_inline_stats_have_no_resilience_counters(self):
        with manager() as service:
            job = service.submit(qasm_for("tof_3"))
            assert job.wait(120)
            stats = service.stats()
        assert stats["service.jobs.completed"] == 1
        assert not any(name.startswith("resilience.") for name in stats)


# -- the HTTP front ------------------------------------------------------------


class _ServerThread:
    """Run an :class:`OptimizationHTTPServer` on its own loop + thread."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        manager: Optional[JobManager] = None,
    ) -> None:
        self.server = OptimizationHTTPServer(manager, config=config)
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._started.set()
        serving = asyncio.create_task(self.server.serve_forever())
        await self._stop.wait()
        serving.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serving
        await self.server.stop(drain=True)

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._started.wait(30), "server failed to boot"
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def request(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body)
            response = conn.getresponse()
            headers = {k.lower(): v for k, v in response.getheaders()}
            payload = json.loads(response.read().decode("utf-8"))
            return response.status, headers, payload
        finally:
            conn.close()


@pytest.fixture(scope="module")
def http_server():
    config = ServiceConfig(port=0, run_config=BASE_RUN)
    with _ServerThread(config) as server:
        yield server


class TestHTTPServer:
    def test_optimize_roundtrip_matches_serial_run(self, http_server):
        status, _, submitted = http_server.request(
            "POST", "/v1/optimize", json.dumps({"qasm": qasm_for("tof_3")})
        )
        assert status == 200
        job_id = submitted["job_id"]
        status, _, record = http_server.request("GET", f"/v1/jobs/{job_id}?wait=120")
        assert status == 200
        assert record["status"] == "completed"
        assert record["result"]["verified"] is True
        assert json.dumps(record["result"], sort_keys=True) == json.dumps(
            serial_result_block("tof_3"), sort_keys=True
        )
        assert "service.jobs.completed" in record["service"]

    def test_raw_qasm_body_is_accepted(self, http_server):
        status, _, submitted = http_server.request(
            "POST", "/v1/optimize", qasm_for("tof_3")
        )
        assert status == 200
        status, _, record = http_server.request(
            "GET", f"/v1/jobs/{submitted['job_id']}?wait=120"
        )
        assert status == 200 and record["status"] == "completed"

    def test_malformed_qasm_is_http_400(self, http_server):
        status, _, payload = http_server.request(
            "POST", "/v1/optimize", json.dumps({"qasm": "qreg broken"})
        )
        assert status == 400
        assert payload["error"] == "InvalidRequest"
        status, _, payload = http_server.request(
            "POST", "/v1/optimize", '{"not": "qasm"}'
        )
        assert status == 400

    @pytest.mark.parametrize(
        "config",
        [
            {"workers": 2},
            {"verify_workers": 2},
            {"search_workers": 2},
            {"strategy": "portfolio"},
            {"strategy": "parallel-backtracking"},
        ],
        ids=[
            "workers",
            "verify_workers",
            "search_workers",
            "portfolio",
            "parallel-backtracking",
        ],
    )
    def test_pool_options_of_serial_runs_are_http_400(self, http_server, config):
        # Generation and search run serially: asking for more workers, or
        # for a removed strategy, fails loudly instead of running serially.
        status, _, payload = http_server.request(
            "POST",
            "/v1/optimize",
            json.dumps({"qasm": qasm_for("tof_3"), "config": config}),
        )
        assert status == 400
        assert payload["error"] == "InvalidRequest"

    def test_unknown_job_is_http_404(self, http_server):
        status, _, payload = http_server.request("GET", "/v1/jobs/job-999999")
        assert status == 404
        assert payload["error"] == "JobNotFound"

    def test_unknown_route_and_wrong_method(self, http_server):
        status, _, _ = http_server.request("GET", "/v2/nope")
        assert status == 404
        status, _, _ = http_server.request("GET", "/v1/optimize")
        assert status == 405

    def test_stats_and_healthz(self, http_server):
        status, _, payload = http_server.request("GET", "/v1/healthz")
        assert status == 200 and payload == {"status": "ok"}
        status, _, stats = http_server.request("GET", "/v1/stats")
        assert status == 200
        for key in (
            "service.jobs.submitted",
            "service.cache.hits",
            "service.jobs.active",
            "service.queue.depth",
        ):
            assert key in stats

    def test_pooled_stats_report_recovery_over_http(self):
        # The pool's resilience.* counters reach /v1/stats, which the
        # server reads on its own thread while the dispatch thread writes.
        config = ServiceConfig(
            port=0, run_config=BASE_RUN, workers=2, chunk_timeout=60.0, chunk_retries=2
        )
        faults.set_fault_plan(FaultPlan.from_string("fail_chunk:service"))
        try:
            with _ServerThread(config) as server:
                _, _, submitted = server.request(
                    "POST", "/v1/optimize", json.dumps({"qasm": qasm_for("tof_3")})
                )
                status, _, record = server.request(
                    "GET", f"/v1/jobs/{submitted['job_id']}?wait=120"
                )
                assert status == 200 and record["status"] == "completed"
                status, _, stats = server.request("GET", "/v1/stats")
        finally:
            faults.set_fault_plan(None)
        assert status == 200
        assert json.dumps(record["result"], sort_keys=True) == json.dumps(
            serial_result_block("tof_3"), sort_keys=True
        )
        assert stats["resilience.faults_injected"] == 1
        assert stats["resilience.chunk_failures"] == 1
        assert stats["resilience.chunk_retries"] == 1

    def test_event_stream_ends_with_terminal_status(self, http_server):
        _, _, submitted = http_server.request(
            "POST", "/v1/optimize", json.dumps({"qasm": qasm_for("mod5_4")})
        )
        job_id = submitted["job_id"]
        http_server.request("GET", f"/v1/jobs/{job_id}?wait=120")
        conn = http.client.HTTPConnection("127.0.0.1", http_server.port, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            assert response.status == 200
            lines = [
                json.loads(line)
                for line in response.read().decode("utf-8").splitlines()
                if line.strip()
            ]
        finally:
            conn.close()
        assert lines[0]["status"] == "queued"
        assert lines[-1]["status"] in ("completed", "failed")

    def test_queue_full_is_http_429_with_retry_after(self):
        executor = _BlockingExecutor()
        service = JobManager(
            ServiceConfig(port=0, run_config=BASE_RUN, max_queue=1),
            executor=executor,
        )
        try:
            with _ServerThread(manager=service) as server:
                for name in ("tof_3", "barenco_tof_3"):
                    status, _, _ = server.request(
                        "POST", "/v1/optimize", json.dumps({"qasm": qasm_for(name)})
                    )
                    assert status == 200
                    assert executor.started.acquire(timeout=10)
                status, _, _ = server.request(
                    "POST", "/v1/optimize", json.dumps({"qasm": qasm_for("mod5_4")})
                )
                assert status == 200  # fills the queue
                status, headers, payload = server.request(
                    "POST", "/v1/optimize", json.dumps({"qasm": qasm_for("tof_4")})
                )
                assert status == 429
                assert payload["error"] == "QueueFull"
                assert headers.get("retry-after") == "1"
                executor.release.set()
        finally:
            executor.release.set()
            service.close()

    def test_failed_job_polls_as_http_500(self):
        def always_crashing(payload: Dict[str, Any]) -> Dict[str, Any]:
            raise FaultInjected("injected worker crash")

        service = JobManager(
            ServiceConfig(port=0, run_config=BASE_RUN),
            executor=InlineExecutor(chunk_retries=0, runner=always_crashing),
        )
        try:
            with _ServerThread(manager=service) as server:
                _, _, submitted = server.request(
                    "POST", "/v1/optimize", json.dumps({"qasm": qasm_for("tof_3")})
                )
                status, _, record = server.request(
                    "GET", f"/v1/jobs/{submitted['job_id']}?wait=30"
                )
                assert status == 500
                assert record["status"] == "failed"
                assert record["error"]["type"] == "RetryExhausted"
        finally:
            service.close()
