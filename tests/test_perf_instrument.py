"""Tests for the perf instrumentation subsystem and its surfacing in results."""

import time

import pytest

from repro.ir import Circuit
from repro.perf import NULL_RECORDER, PerfRecorder, get_recorder, set_recorder
from repro.perf.instrument import format_snapshot


class TestPerfRecorder:
    def test_counters_accumulate(self):
        perf = PerfRecorder()
        perf.count("a")
        perf.count("a", 2)
        assert perf.value("a") == 3
        assert perf.value("missing") == 0

    def test_timer_accumulates(self):
        perf = PerfRecorder()
        with perf.timer("t"):
            time.sleep(0.001)
        with perf.timer("t"):
            pass
        assert perf.timers["t"] > 0.0

    def test_hit_rate(self):
        perf = PerfRecorder()
        perf.count("cache.hits", 3)
        perf.count("cache.misses", 1)
        assert perf.hit_rate("cache.hits", "cache.misses") == pytest.approx(0.75)
        assert perf.hit_rate("no.hits", "no.misses") == 0.0

    def test_snapshot_includes_derived_hit_rates(self):
        perf = PerfRecorder()
        perf.count("x.hits", 1)
        perf.count("x.misses", 1)
        perf.add_time("phase", 0.5)
        snap = perf.snapshot()
        assert snap["x.hit_rate"] == pytest.approx(0.5)
        assert snap["phase.seconds"] == pytest.approx(0.5)
        assert "x.hits" in snap

    def test_merge(self):
        a = PerfRecorder()
        b = PerfRecorder()
        a.count("n", 1)
        b.count("n", 2)
        b.add_time("t", 1.0)
        a.merge(b)
        assert a.value("n") == 3
        assert a.timers["t"] == pytest.approx(1.0)

    def test_disabled_recorder_is_inert(self):
        perf = PerfRecorder(enabled=False)
        perf.count("a")
        with perf.timer("t"):
            pass
        assert perf.counters == {}
        assert perf.timers == {}

    def test_null_recorder_is_disabled(self):
        assert not NULL_RECORDER.enabled

    def test_global_recorder_roundtrip(self):
        try:
            mine = PerfRecorder()
            assert set_recorder(mine) is mine
            assert get_recorder() is mine
        finally:
            set_recorder(None)
        assert get_recorder() is NULL_RECORDER

    def test_format_snapshot(self):
        perf = PerfRecorder()
        perf.count("calls", 2)
        text = format_snapshot(perf.snapshot())
        assert "calls = 2" in text


class TestPerfSurfacing:
    def test_optimizer_result_carries_perf(self, nam_transformations_small):
        from repro.optimizer import BacktrackingOptimizer

        circuit = Circuit(2).h(0).h(0).cx(0, 1)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, max_iterations=5, timeout_seconds=10)
        assert result.perf.get("search.matchers_built", 0) >= 1
        # At least one rule's source must have had no match on a popped
        # circuit, so the search skipped it (the ECC set contains x-gate
        # patterns, the circuit has no x).
        assert result.perf.get("search.transformations_skipped", 0) >= 1

    def test_generator_stats_carry_perf(self):
        from repro.generator import RepGen
        from repro.ir.gatesets import GateSet

        custom = GateSet("perf_probe_hs", ["h", "s"], num_params=0)
        generator = RepGen(custom, num_qubits=1, num_params=0)
        result = generator.generate(2)
        perf = result.stats.perf
        assert perf.get("fingerprint.incremental_evals", 0) > 0
        assert "fingerprint.state_cache.hit_rate" in perf
        assert perf.get("verifier.matrix_cache.misses", 0) > 0
        assert result.stats.as_dict()["perf"] == perf
