"""Tests for the experiment harnesses (tiny-scale runs of each table/figure)."""

import pytest

from repro.api import clear_memory_caches
from repro.envconfig import CACHE_DISABLE_ENV_VAR
from repro.experiments import (
    run_effectiveness_figure,
    run_gate_count_table,
    run_generator_metrics,
    run_nq_sweep,
    run_pruning_table,
    run_time_curves,
)
from repro.experiments.config import SCALES, active_config
from repro.experiments.table_gate_counts import (
    format_table,
    geometric_mean_reduction,
    naive_transpile,
)
from repro.benchmarks_suite import benchmark_circuit

TINY = ["tof_3", "barenco_tof_3"]


class TestConfig:
    def test_presets_exist(self):
        assert set(SCALES) == {"quick", "medium", "full"}
        assert SCALES["quick"].n_for("nam") >= 2

    def test_active_config_defaults_to_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_config() is SCALES["quick"]

    def test_active_config_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert active_config() is SCALES["medium"]


class TestGateCountTable:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_gate_count_table(
            "nam", TINY, n=2, q=2, max_iterations=15, timeout_seconds=10
        )

    def test_row_structure(self, rows):
        assert [row.circuit for row in rows] == TINY
        for row in rows:
            assert row.original > 0
            assert row.quartz_preprocess <= row.original
            assert row.quartz_end_to_end <= row.quartz_preprocess
            assert set(row.baselines) == {"qiskit", "nam", "voqc"}
            assert "orig" in row.as_dict()

    def test_quartz_beats_or_matches_every_baseline(self, rows):
        for row in rows:
            assert row.quartz_end_to_end <= min(row.baselines.values())

    def test_geometric_mean_reduction_ordering(self, rows):
        qiskit = geometric_mean_reduction(rows, "qiskit")
        quartz = geometric_mean_reduction(rows, "quartz")
        assert 0.0 <= qiskit <= quartz < 1.0

    def test_format_table(self, rows):
        text = format_table(rows)
        assert "tof_3" in text and "Geo.Mean" in text

    def test_table_runs_do_not_verify(self, monkeypatch):
        # A table cell is the search's own result: the facade's output
        # screen stays off, so a table's cost and cells do not move.
        from repro.api import Superoptimizer

        def _fail(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("table runs must not verify their output")

        monkeypatch.setattr(Superoptimizer, "verify", _fail)
        rows = run_gate_count_table(
            "nam", ["tof_3"], n=1, q=1, max_iterations=1, timeout_seconds=5,
            baselines=[],
        )
        assert rows[0].quartz_end_to_end <= rows[0].quartz_preprocess

    def test_naive_transpile_targets(self):
        circuit = benchmark_circuit("tof_3")
        for gate_set in ("nam", "ibm", "rigetti"):
            transpiled = naive_transpile(circuit, gate_set)
            assert transpiled.gate_count > 0


class TestGeneratorMetrics:
    def test_metrics_table(self):
        rows = run_generator_metrics("nam", n_values=[1, 2], q_values=[2])
        assert len(rows) == 2
        assert rows[0].characteristic == 16  # Nam, q=2
        assert rows[1].num_transformations >= rows[0].num_transformations
        assert rows[1].total_time >= 0
        assert "|T|" in rows[0].as_dict()

    def test_format(self):
        from repro.experiments.table_generator_metrics import format_table as fmt

        rows = run_generator_metrics("nam", n_values=[1], q_values=[2])
        assert "nam" in fmt(rows)


class TestPruningTable:
    def test_pruning_rows(self):
        rows = run_pruning_table("nam", n_values=[2], q=2)
        row = rows[0]
        assert row.possible_circuits > row.repgen_circuits
        assert row.repgen_circuits >= row.after_simplification >= row.after_common_subcircuit
        factors = row.reduction_factors()
        assert factors["common_subcircuit"] >= factors["repgen"] >= 1.0

    def test_format(self):
        from repro.experiments.table_pruning import format_table as fmt

        assert "possible" in fmt(run_pruning_table("nam", n_values=[1], q=2))


class TestSweepAndFigures:
    def test_nq_sweep(self):
        rows = run_nq_sweep(
            ["tof_3"], [(2, 2), (2, 3)], max_iterations=10, timeout_seconds=5
        )
        assert rows[0].circuit == "tof_3"
        assert set(rows[0].results) == {(2, 2), (2, 3)}
        assert all(v <= rows[0].original for v in rows[0].results.values())

    def test_effectiveness_figure(self):
        points = run_effectiveness_figure(
            ["tof_3"], n_values=[2], q_values=[2, 3], max_iterations=10, timeout_seconds=5
        )
        assert len(points) == 2
        assert all(0.0 <= p.effectiveness < 1.0 for p in points)

    def test_time_curves(self):
        curves = run_time_curves(
            ["tof_3"], n_values=[2, 3], q=2, time_budget_seconds=2.0, num_samples=3
        )
        # One curve per n plus the "best" curve.
        assert len(curves) == 3
        best = curves[-1]
        assert best.n == -1
        for curve in curves[:-1]:
            # Effectiveness is non-decreasing over time and "best" dominates.
            assert curve.effectiveness == sorted(curve.effectiveness)
            assert all(
                b >= c - 1e-9
                for b, c in zip(best.effectiveness, curve.effectiveness)
            )


# Each table harness at its smallest input.  A harness that should honour
# REPRO_CACHE_DISABLE=1 builds its config from RunConfig.from_env().
HARNESSES = {
    "pruning_table": lambda: run_pruning_table("nam", n_values=[1], q=1),
    "generator_metrics": lambda: run_generator_metrics(
        "nam", n_values=[1], q_values=[1]
    ),
    "gate_count_table": lambda: run_gate_count_table(
        "nam", ["tof_3"], n=1, q=1, max_iterations=1, timeout_seconds=5,
        baselines=[],
    ),
    "nq_sweep": lambda: run_nq_sweep(
        ["tof_3"], [(1, 1)], max_iterations=1, timeout_seconds=5
    ),
    "effectiveness_figure": lambda: run_effectiveness_figure(
        ["tof_3"], n_values=[1], q_values=[1], max_iterations=1, timeout_seconds=5
    ),
    "time_curves": lambda: run_time_curves(
        ["tof_3"], n_values=[1], q=1, time_budget_seconds=0.2, num_samples=2
    ),
}


@pytest.mark.parametrize("harness", sorted(HARNESSES))
def test_harness_honours_cache_disable(harness, tmp_path, monkeypatch):
    # The in-process memo is emptied first, so the harness generates here
    # whatever earlier tests memoized, and a disk cache would appear.
    clear_memory_caches()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, "1")
    try:
        HARNESSES[harness]()
    finally:
        clear_memory_caches()
    assert not (tmp_path / ".repro_cache").exists()
