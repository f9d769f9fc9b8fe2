"""The optimization service: determinism, memoization, errors, the wire.

The acceptance property is at the top: N concurrent *distinct* circuits
each get a deterministic ``result`` block **byte-identical** to a serial,
direct :class:`~repro.api.Superoptimizer` run of the same circuit and
config, output verification included.  The rest covers the content-hash
cache (and what it must not keep: timed-out or refuted results), in-flight
dedupe, the typed error paths (400 / 429 + ``Retry-After`` / 404 / a
failed job's typed error as 500, in pool mode ``RetryExhausted`` after
worker crashes), graceful drain, the bounded job table, and the stdlib
HTTP front end-to-end on an ephemeral port.
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
from repro.api import RunConfig, Superoptimizer, clear_memory_caches
from repro.benchmarks_suite import benchmark_circuit
from repro.envconfig import (
    CACHE_DIR_ENV_VAR,
    CACHE_DISABLE_ENV_VAR,
    SERVICE_WORKERS_ENV_VAR,
)
from repro.errors import (
    FaultConfigError,
    InvalidRequest,
    JobNotFound,
    QueueFull,
    RetryExhausted,
    ServiceClosed,
)
from repro.faults import FaultPlan
from repro.generator.cache import ECCCache
from repro.ir import Circuit
from repro.ir.gatesets import GateSet
from repro.ir.qasm import to_qasm
from repro.optimizer.strategies import STRATEGIES
from repro.service import Job, JobManager, OptimizationHTTPServer, ServiceConfig
from repro.service import executor as executor_module
from repro.service import jobs as jobs_module
from repro.service.executor import InlineExecutor, PoolExecutor, execute_job
from repro.service.http import MAX_BODY_BYTES
from repro.service.jobs import _content_key, _result_block

#: One base config for the whole module so the facade's generation memo
#: is filled once (generation at n=2/q=2 is the only slow step).
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

    def test_jobs_share_one_transformation_list(self):
        # Each job runs its own facade; the transformation list is memoized
        # next to its ECC set, so jobs that differ only in search budget
        # share one list and leave no per-configuration table behind.
        from repro.api import facade as facade_module

        memo = facade_module._TRANSFORMATION_MEMO
        qasm = to_qasm(Circuit(2).h(0).h(0))
        with manager() as service:
            first = service.submit(qasm, {"max_iterations": 101})
            assert first.wait(120) and first.status == "completed"
            size = len(memo)
            jobs = [
                service.submit(qasm, {"max_iterations": budget})
                for budget in range(102, 161)
            ]
            for job in jobs:
                assert job.wait(120) and job.status == "completed"
        assert len(memo) == size
        assert jobs[-1].report["provenance"]["generation_source"] == "memo"
        shared = Superoptimizer(BASE_RUN).transformations()
        for budget in (101, 160):
            config = BASE_RUN.with_overrides(max_iterations=budget)
            assert Superoptimizer(config).transformations() is shared
        assert not any(
            isinstance(value, dict)
            and any(isinstance(item, Superoptimizer) for item in value.values())
            for value in vars(executor_module).values()
        )


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
            resume=False,
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
        ],
        ids=lambda override: next(iter(override)),
    )
    def test_output_fields_change_the_key(self, override):
        key = _content_key("q", RunConfig())
        assert _content_key("q", RunConfig().with_overrides(**override)) != key
        assert _content_key("other", RunConfig()) != key


#: A base config holding a GateSet object rather than a registered name.
CUSTOM_RUN = RunConfig(
    gate_set=GateSet("svc_custom", ["h", "cx"], 0), preprocess=False
).with_overrides(n=2, q=2, cache_enabled=False)


class TestCustomGateSet:
    """Jobs carry the RunConfig itself, so a custom gate set reaches the
    facade that runs them, in-process and in a pool worker."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
    def test_job_matches_a_direct_facade_run(self, workers):
        circuit = Circuit(2).h(0).h(0)
        expected = _result_block(
            Superoptimizer(CUSTOM_RUN).optimize(circuit).to_json_dict()
        )
        config = ServiceConfig(run_config=CUSTOM_RUN, workers=workers)
        with JobManager(config) as service:
            job = service.submit(to_qasm(circuit))
            assert job.wait(240)
        assert job.status == "completed", (job.status, job.error)
        assert job.result == expected
        assert job.result["optimized_gates"] == 0

    def test_same_named_gate_sets_get_different_keys(self):
        def key(gate_names, num_params=0):
            gate_set = GateSet("c", gate_names, num_params)
            return _content_key("q", RunConfig(gate_set=gate_set))

        assert key(["h", "cx"]) != key(["h", "cz"])
        assert key(["h", "rz"], 1) != key(["h", "rz"], 2)
        assert key(["h", "cx"]) == key(["h", "cx"])


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


class TestColdGeneration:
    def test_cold_job_stores_only_the_results(self, monkeypatch, tmp_path):
        # A service built from the environment generates a cold
        # configuration once and stores its raw and pruned results; it
        # writes no other blob on the way, checkpoints included.
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.delenv(CACHE_DISABLE_ENV_VAR, raising=False)
        monkeypatch.delenv(SERVICE_WORKERS_ENV_VAR, raising=False)
        stored = []
        real_store = ECCCache.store

        def recording_store(self, key, body):
            stored.append(key.kind)
            return real_store(self, key, body)

        monkeypatch.setattr(ECCCache, "store", recording_store)
        clear_memory_caches()
        with JobManager(ServiceConfig.from_env()) as service:
            job = service.submit(
                qasm_for("tof_3"), {"n": 2, "q": 2, "max_iterations": 5}
            )
            assert job.wait(120)
        assert job.status == "completed"
        assert sorted(stored) == ["pruned", "repgen"]
        blobs = sorted(path.name.split("_")[0] for path in tmp_path.iterdir())
        assert blobs == ["pruned", "repgen"]


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


class TestJobTable:
    def test_oldest_finished_jobs_go_and_live_jobs_stay(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "JOB_TABLE_CAPACITY", 2)
        release = threading.Event()
        default_iterations = BASE_RUN.search.max_iterations

        def runner(payload: Dict[str, Any]) -> Dict[str, Any]:
            # A job with its own iteration budget waits for the release,
            # so it stays running or queued while finished jobs pile up.
            if payload["config"].search.max_iterations != default_iterations:
                assert release.wait(30), "test never released the runner"
            return execute_job(payload)

        service = JobManager(
            ServiceConfig(run_config=BASE_RUN), executor=InlineExecutor(runner=runner)
        )
        try:
            first = service.submit(qasm_for("tof_3"))
            assert first.wait(120)
            # Two run on the executor slots, the third waits in the queue.
            live = [
                service.submit(qasm_for("tof_3"), {"max_iterations": budget})
                for budget in (5, 6, 7)
            ]
            hits = [service.submit(qasm_for("tof_3")) for _ in range(3)]
            assert all(hit.cached for hit in hits)
            for job in (first, hits[0]):
                with pytest.raises(JobNotFound):
                    service.get(job.id)
            for job in (*live, *hits[1:]):
                assert service.get(job.id) is job
            assert not any(job.finished for job in live)
        finally:
            release.set()
            service.close()
        assert all(job.status == "completed" for job in live)


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
            {"strategy_options": {"beam_width": 4}},
            {"search": {"strategy": "beam", "strategy_options": {"beam_width": 4}}},
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
            "strategy_options",
            "nested-strategy_options",
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

    def test_service_command_line_takes_the_three_strategies(self):
        from repro.service.__main__ import build_parser

        for name in STRATEGIES:
            assert build_parser().parse_args(["--strategy", name]).strategy == name
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--strategy", "anneal"])
        assert excinfo.value.code == 2

    def test_unknown_job_id_is_404(self):
        with manager() as service:
            with pytest.raises(JobNotFound) as excinfo:
                service.get("job-999")
            assert excinfo.value.http_status == 404


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

    def test_short_job_finishes_while_a_long_one_runs(self):
        # Each job is its own future on the pool: a short job submitted
        # with a long one does not wait for it.
        with JobManager(ServiceConfig(run_config=BASE_RUN, workers=2)) as service:
            long_job = service.submit(qasm_for("mod5_4"), {"max_iterations": 1000})
            short_job = service.submit(qasm_for("tof_3"))
            assert short_job.wait(240)
            assert not long_job.finished
            assert long_job.wait(240)
        assert short_job.status == long_job.status == "completed"
        assert short_job.result == serial_result_block("tof_3")

    def test_killed_worker_recovers_without_waiting_for_the_deadline(self):
        # A dead worker breaks the pool at once, so its job re-dispatches
        # long before the 60 s deadline would have expired.
        config = ServiceConfig(
            run_config=BASE_RUN, workers=2, chunk_timeout=60.0, chunk_retries=2
        )
        serial = serial_result_block("tof_3")
        with JobManager(config) as service:
            faults.set_fault_plan(FaultPlan.from_string("kill_worker:service"))
            try:
                start = time.monotonic()
                job = service.submit(qasm_for("tof_3"))
                assert job.wait(240)
                elapsed = time.monotonic() - start
                stats = service.stats()
            finally:
                faults.set_fault_plan(None)
        assert job.status == "completed", (job.status, job.error)
        assert elapsed < 10
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
        assert stats["resilience.faults_injected"] == 1
        assert stats["resilience.pool_respawns"] >= 1

    def test_failing_initializer_fails_the_job_fast(self, monkeypatch):
        # An initializer that raises breaks every respawned pool at once,
        # so the job spends its retries in well under a second each
        # instead of waiting out the 120 s default deadline per attempt.
        monkeypatch.setattr(
            executor_module, "_init_service_worker", _failing_initializer
        )
        config = ServiceConfig(run_config=BASE_RUN, workers=2)
        assert (config.chunk_timeout, config.chunk_retries) == (120.0, 2)
        start = time.monotonic()
        with JobManager(config) as service:
            job = service.submit(qasm_for("tof_3"))
            assert job.wait(60)
        assert time.monotonic() - start < 10
        assert job.status == "failed"
        assert job.error["type"] == RetryExhausted.__name__


def _failing_initializer(base_config: RunConfig) -> None:
    raise KeyError("pre-warm failed")


def _pool_payload(name: str) -> Dict[str, Any]:
    return {"qasm": qasm_for(name), "config": BASE_RUN}


@pytest.fixture
def pool_executor():
    executor = PoolExecutor(BASE_RUN, 2, chunk_timeout=60.0)
    yield executor
    executor.close()


class TestPoolExecutor:
    """The front of the service's one pool."""

    def test_counters_start_empty_and_stay_empty_without_faults(
        self, pool_executor
    ):
        assert pool_executor.counters() == {}
        pool_executor.run(_pool_payload("tof_3"))
        assert not any(
            name.startswith("resilience.") for name in pool_executor.counters()
        )

    def test_run_after_close_raises_retry_exhausted(self):
        executor = PoolExecutor(BASE_RUN, 2, chunk_timeout=60.0)
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


def _post_declaring_length(port: int, length: str) -> Tuple[int, Dict[str, Any]]:
    """POST ``/v1/optimize`` with ``Content-Length: <length>`` and no body."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.putrequest("POST", "/v1/optimize")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
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
        # server reads on its own thread while executor threads write.
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

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_http_400(self, http_server, length):
        status, payload = _post_declaring_length(http_server.port, length)
        assert status == 400
        assert payload["error"] == "InvalidRequest"
        # The server is still serving.
        assert http_server.request("GET", "/v1/healthz")[0] == 200

    def test_oversized_body_is_http_413(self, http_server):
        status, payload = _post_declaring_length(
            http_server.port, str(MAX_BODY_BYTES + 1)
        )
        assert status == 413
        assert payload == {"error": "InvalidRequest", "detail": "body too large"}

    def test_event_stream_ends_with_terminal_status(self, http_server):
        # A job is followed one way: long-poll its record, whose events
        # list the status transitions.  There is no streaming route.
        _, _, submitted = http_server.request(
            "POST", "/v1/optimize", json.dumps({"qasm": qasm_for("mod5_4")})
        )
        job_id = submitted["job_id"]
        status, _, record = http_server.request(
            "GET", f"/v1/jobs/{job_id}?wait=120"
        )
        assert status == 200
        events = [event["status"] for event in record["events"]]
        assert events[0] == "queued"
        assert events[-1] == record["status"] == "completed"
        status, _, payload = http_server.request("GET", f"/v1/jobs/{job_id}/events")
        assert status == 400
        assert payload["error"] == "InvalidRequest"

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
        runs = []

        def malformed_fault_plan(payload: Dict[str, Any]) -> Dict[str, Any]:
            # What an in-process job raises when REPRO_FAULTS does not parse.
            runs.append(payload)
            raise FaultConfigError("malformed fault entry 'bogus'")

        service = JobManager(
            ServiceConfig(port=0, run_config=BASE_RUN),
            executor=InlineExecutor(runner=malformed_fault_plan),
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
                assert record["error"]["type"] == "FaultConfigError"
                assert "bogus" in record["error"]["detail"]
        finally:
            service.close()
        assert len(runs) == 1  # an in-process job runs once
