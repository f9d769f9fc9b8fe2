"""Tests for the Superoptimizer facade.

The acceptance bar of the API redesign: the facade must reproduce the
hand-wired pipeline *byte for byte* — identical ``ECCSet.to_json`` for the
raw and pruned sets and the identical best-circuit cost on the quick
experiment scale.  The experiment harnesses call it directly
(``tests/test_experiments.py``).
"""

from __future__ import annotations

import pytest

from repro.api import (
    GenerationConfig,
    RunConfig,
    RunReport,
    SearchConfig,
    Superoptimizer,
    clear_memory_caches,
)
from repro.benchmarks_suite import benchmark_circuit
from repro.generator import RepGen, prune_common_subcircuits, simplify_ecc_set
from repro.ir import Circuit
from repro.ir.gatesets import NAM
from repro.ir.qasm import to_qasm
from repro.optimizer import BacktrackingOptimizer, transformations_from_ecc_set
from repro.preprocess import preprocess

QUICK_N = 3
QUICK_Q = 3


@pytest.fixture(scope="module")
def hand_wired_quick():
    """The hand-wired pipeline at the quick experiment scale (Nam, n=3, q=3)."""
    result = RepGen(NAM, num_qubits=QUICK_Q).generate(QUICK_N)
    pruned = prune_common_subcircuits(simplify_ecc_set(result.ecc_set))
    transformations = transformations_from_ecc_set(pruned)
    circuit = preprocess(benchmark_circuit("tof_3"), "nam")
    search = BacktrackingOptimizer(transformations).optimize(
        circuit, max_iterations=15, timeout_seconds=60
    )
    return result, pruned, search


def _quick_facade(**overrides) -> Superoptimizer:
    defaults = dict(
        gate_set="nam",
        n=QUICK_N,
        q=QUICK_Q,
        cache_enabled=False,
        max_iterations=15,
        timeout_seconds=60,
    )
    defaults.update(overrides)
    return Superoptimizer(RunConfig().with_overrides(**defaults))


class TestByteIdentity:
    def test_serial_facade_matches_hand_wired(self, hand_wired_quick):
        result, pruned, search = hand_wired_quick
        clear_memory_caches()
        facade = _quick_facade(workers=1)
        assert facade.generate().ecc_set.to_json() == result.ecc_set.to_json()
        assert facade.ecc_set().to_json() == pruned.to_json()
        report = facade.optimize(benchmark_circuit("tof_3"))
        assert report.final_cost == search.final_cost
        assert report.initial_cost == search.initial_cost

    def test_two_worker_facade_matches_hand_wired(self, hand_wired_quick):
        # The facade served by the service's two-worker pool: each worker
        # builds its own generation memo from the config, and the job it
        # runs reports the hand-wired result.
        from repro.service.executor import PoolExecutor

        _result, pruned, search = hand_wired_quick
        config = _quick_facade().config
        executor = PoolExecutor(config, 2, chunk_timeout=120.0)
        try:
            report = executor.run(
                {"qasm": to_qasm(benchmark_circuit("tof_3")), "config": config}
            )
        finally:
            executor.close()
        assert report["costs"]["final"] == search.final_cost
        assert report["costs"]["initial"] == search.initial_cost
        assert report["num_transformations"] == len(
            transformations_from_ecc_set(pruned)
        )
        assert report["provenance"]["strategy"] == "backtracking"
        for removed in ("workers", "verify_workers", "search_workers"):
            assert removed not in report["provenance"]


class TestRunReport:
    @pytest.fixture(scope="class")
    def small_report(self):
        clear_memory_caches()
        facade = Superoptimizer(
            gate_set="nam", n=3, q=2, cache_enabled=False, max_iterations=100
        )
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        return facade.optimize(circuit)

    def test_stage_timings_cover_the_pipeline(self, small_report):
        expected = {"parse", "preprocess", "generate", "extract", "search", "verify", "total"}
        assert expected <= set(small_report.stage_seconds)
        assert small_report.stage_seconds["total"] > 0

    def test_result_and_verification(self, small_report):
        # The four-Hadamard CNOT flip of Figure 3a reduces to one gate.
        assert small_report.final_cost == 1.0
        assert small_report.verified is True
        assert small_report.reduction > 0.7
        assert small_report.circuit.gate_count == 1

    def test_provenance_records_the_run(self, small_report):
        p = small_report.provenance
        assert p["strategy"] == "backtracking"
        assert p["gate_set"] == "nam"
        assert p["n"] == 3 and p["q"] == 2
        # Generation and search run serially, on one simulator and one
        # fingerprint path: no worker counts, backend or batch mode.
        for removed in (
            "workers", "verify_workers", "search_workers",
            "backend", "batched", "batch_kind",
        ):
            assert removed not in p
        assert p["generation_source"] in {"generated", "memo", "disk"}

    def test_compatibility_batched_field_runs_the_one_path(self):
        facade = _quick_facade(
            batched=True, n=2, q=2, max_iterations=2, timeout_seconds=10
        )
        report = facade.optimize(Circuit(2).h(0).h(0))
        assert report.final_cost == 0.0
        assert report.perf.get("fingerprint.batched.calls", 0) > 0
        assert "backend" not in report.summary()

    def test_perf_counters_are_merged(self, small_report):
        perf = small_report.perf
        assert any(key.startswith("fingerprint.") for key in perf)
        assert any(key.startswith("search.") for key in perf)

    def test_json_dict_and_summary(self, small_report):
        import json

        # to_json_dict is a report's one serialization.
        assert not hasattr(small_report, "as_dict")
        payload = small_report.to_json_dict()
        json.dumps(payload)
        assert payload["circuits"]["optimized_gates"] == 1
        text = small_report.summary()
        assert "backtracking" in text
        assert "verification: OK" in text


class TestInputCoercion:
    def test_accepts_qasm_text(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        facade = Superoptimizer(
            gate_set="nam", n=2, q=2, cache_enabled=False, max_iterations=5
        )
        report = facade.optimize(to_qasm(circuit))
        assert report.input_circuit == circuit

    def test_accepts_qasm_path(self, tmp_path):
        circuit = Circuit(2).h(0).h(0)
        path = tmp_path / "input.qasm"
        path.write_text(to_qasm(circuit))
        facade = Superoptimizer(
            gate_set="nam", n=2, q=2, cache_enabled=False, max_iterations=20
        )
        report = facade.optimize(path)
        assert report.final_cost == 0.0  # H H cancels

    def test_rejects_garbage(self):
        facade = Superoptimizer(gate_set="nam", n=1, q=1, cache_enabled=False)
        with pytest.raises(ValueError, match="cannot interpret"):
            facade.optimize("definitely-not-a-file.qasm-nor-qasm-text")
        with pytest.raises(TypeError):
            facade.optimize(12345)


class TestConfigSurface:
    def test_constructor_rejects_non_config(self):
        with pytest.raises(TypeError, match="RunConfig"):
            Superoptimizer({"gate_set": "nam"})

    def test_backend_override_fails_fast(self):
        with pytest.raises(TypeError, match="unknown configuration field 'backend'"):
            Superoptimizer(gate_set="nam", backend="numpy")

    def test_unknown_strategy_fails_fast(self):
        with pytest.raises(ValueError, match="backtracking, greedy, beam"):
            Superoptimizer(gate_set="nam", strategy="simulated-annealing")

    def test_bad_beam_width_fails_before_any_work(self):
        with pytest.raises(ValueError, match="beam_width"):
            Superoptimizer(gate_set="nam", strategy="beam", beam_width=0)

    def test_budgets_come_from_the_config_only(self):
        facade = _quick_facade(n=2, q=2)
        with pytest.raises(TypeError, match="max_iterations"):
            facade.optimize(Circuit(2).h(0).h(0), max_iterations=2)
        with pytest.raises(TypeError, match="timeout_seconds"):
            facade.optimize(Circuit(2).h(0).h(0), timeout_seconds=1.0)

    def test_greedy_provenance_names_the_strategy(self):
        facade = _quick_facade(n=2, q=2, strategy="greedy", max_iterations=5)
        report = facade.optimize(Circuit(2).h(0).h(0))
        assert report.provenance["strategy"] == "greedy"
        assert report.final_cost == 0.0
        assert "'greedy'" in report.summary()

    def test_named_unsupported_gate_set_raises_like_the_preprocessor(self):
        # clifford_t is a registered *named* set the preprocessor cannot
        # target; the facade must surface that (the legacy pipeline raised
        # here too), not silently skip preprocessing.
        facade = Superoptimizer(
            gate_set="clifford_t", n=1, q=1, cache_enabled=False
        )
        with pytest.raises(ValueError, match="preprocess=False"):
            facade.optimize(Circuit(1).h(0))
        # With preprocessing explicitly off the same config runs.
        report = Superoptimizer(
            gate_set="clifford_t",
            n=1,
            q=1,
            cache_enabled=False,
            preprocess=False,
            max_iterations=2,
        ).optimize(Circuit(1).h(0))
        assert report.provenance["preprocessed"] is False

    def test_verification_skipped_above_qubit_bound(self):
        from repro.api.facade import VERIFY_MAX_QUBITS

        wide = Circuit(VERIFY_MAX_QUBITS + 1)
        wide.h(0).cx(0, 1)
        report = Superoptimizer(
            gate_set="nam",
            n=1,
            q=1,
            cache_enabled=False,
            max_iterations=1,
            preprocess=False,
        ).optimize(wide)
        assert report.verified is None

    def test_pruned_provenance_reports_raw_result_origin(self, tmp_path):
        """A pruned-key miss served by a warm raw repgen blob is 'disk'."""
        config = dict(
            gate_set="nam", n=1, q=1, cache_dir=str(tmp_path),
            cache_enabled=True, max_iterations=1, preprocess=False,
        )
        clear_memory_caches()
        # Populate only the raw repgen blob (prune=False stores no pruned
        # blob), the way `cli generate` does.
        Superoptimizer(**config, prune=False).generate()
        clear_memory_caches()
        # Remove the pruned blob if a prior pruned run left one (none did),
        # then optimize: the pruned lookup misses, the raw lookup warm-hits.
        report = Superoptimizer(**config).optimize(Circuit(1).h(0))
        assert report.provenance["generation_source"] == "disk"
        assert report.provenance["cache_warm_hit"] is True

    def test_unpruned_provenance_reports_memo_hits(self):
        clear_memory_caches()
        facade_config = dict(
            gate_set="nam", n=1, q=1, cache_enabled=False, prune=False,
            max_iterations=1, preprocess=False,
        )
        first = Superoptimizer(**facade_config).optimize(Circuit(1).h(0))
        assert first.provenance["generation_source"] == "generated"
        second = Superoptimizer(**facade_config).optimize(Circuit(1).h(0))
        assert second.provenance["generation_source"] == "memo"

    def test_memo_tells_same_named_gate_sets_apart(self):
        # The in-process memo shares the disk cache's key, gate list
        # included: a second gate set under the same name is generated for
        # itself, not served the first one's result.
        from repro.api import run_generation
        from repro.ir.gatesets import GateSet

        clear_memory_caches()
        generation = GenerationConfig(n=2, q=2, cache_enabled=False, prune=False)
        with_t = run_generation(GateSet("custom", ["h", "t", "cz"], 0), generation)
        with_x = run_generation(GateSet("custom", ["h", "x", "cz"], 0), generation)
        assert with_x is not with_t
        gates = {
            inst.gate.name
            for ecc in with_x.ecc_set
            for circuit in ecc.circuits
            for inst in circuit.instructions
        }
        assert "t" not in gates and "x" in gates
        # The same configuration still hits the memo.
        again = run_generation(GateSet("custom", ["h", "x", "cz"], 0), generation)
        assert again is with_x
        clear_memory_caches()

    def test_pruned_memo_tells_same_named_gate_sets_apart(self):
        from repro.api import build_ecc_set
        from repro.ir.gatesets import GateSet

        clear_memory_caches()
        generation = GenerationConfig(n=2, q=2, cache_enabled=False)
        with_t = build_ecc_set(GateSet("custom", ["h", "t", "cz"], 0), generation)
        with_x = build_ecc_set(GateSet("custom", ["h", "x", "cz"], 0), generation)
        assert with_x is not with_t
        assert with_x.to_json() != with_t.to_json()
        clear_memory_caches()

    def test_custom_gate_set_object(self):
        from repro.ir.gatesets import GateSet

        custom = GateSet("facade_test_set", ["h", "cx"], num_params=0)
        facade = Superoptimizer(
            gate_set=custom, n=2, q=2, cache_enabled=False, max_iterations=10
        )
        report = facade.optimize(Circuit(2).h(0).h(0))
        assert report.final_cost == 0.0
        assert report.provenance["gate_set"] == "facade_test_set"


class TestDiskCacheIntegration:
    def test_warm_runs_are_served_from_disk(self, tmp_path):
        config = RunConfig(
            gate_set="nam",
            generation=GenerationConfig(
                n=2, q=2, cache_dir=str(tmp_path), cache_enabled=True
            ),
            search=SearchConfig(max_iterations=5),
        )
        clear_memory_caches()
        cold = Superoptimizer(config).optimize(Circuit(2).h(0).h(0))
        assert cold.provenance["generation_source"] == "generated"
        clear_memory_caches()
        warm = Superoptimizer(config).optimize(Circuit(2).h(0).h(0))
        assert warm.provenance["generation_source"] == "disk"
        assert warm.provenance["cache_warm_hit"] is True
        assert warm.ecc_set.to_json() == cold.ecc_set.to_json()


class TestReportJSONRoundTrip:
    """Satellite of the service PR: a stable, versioned report schema.

    The CLI's ``--json``, the service's job reports and any archived run
    all speak :meth:`RunReport.to_json`; the round-trip guarantee is that
    serializing a deserialized report reproduces the original **bytes**.
    """

    @pytest.fixture(scope="class")
    def report(self):
        clear_memory_caches()
        facade = Superoptimizer(
            gate_set="nam", n=3, q=2, cache_enabled=False, max_iterations=100
        )
        return facade.optimize(Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1))

    def test_round_trip_is_byte_identical(self, report):
        first = report.to_json()
        restored = RunReport.from_json(first)
        assert restored.to_json() == first
        # And a second hop stays fixed (the schema is a fixpoint).
        assert RunReport.from_json(restored.to_json()).to_json() == first

    def test_restored_fields_match(self, report):
        restored = RunReport.from_json(report.to_json())
        assert restored.final_cost == report.final_cost
        assert restored.verified == report.verified
        assert to_qasm(restored.circuit) == to_qasm(report.circuit)
        assert restored.provenance == report.provenance
        assert restored.stage_seconds == report.stage_seconds
        # Heavy generation artifacts are deliberately not serialized.
        assert restored.ecc_set is None and restored.config is None

    def test_dict_payloads_are_accepted(self, report):
        restored = RunReport.from_json(report.to_json_dict())
        assert restored.to_json() == report.to_json()

    def test_unsupported_schema_is_rejected(self, report):
        payload = report.to_json_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            RunReport.from_json(payload)
