"""Ablation benches for the design choices DESIGN.md calls out.

* gamma: backtracking (gamma = 1.0001) versus greedy (gamma = 1), the
  Figure 6 story.
* pruning: search over the pruned ECC set versus the raw RepGen output —
  pruning must not hurt result quality while shrinking |T|.
* preprocessing: greedy Toffoli polarity + rotation merging versus the naive
  fixed-polarity decomposition.
"""

from conftest import emit, run_once

from repro.api import GenerationConfig, build_ecc_set, run_generation
from repro.benchmarks_suite import benchmark_circuit
from repro.experiments.config import active_config
from repro.generator.pruning import prune_common_subcircuits, simplify_ecc_set
from repro.optimizer import BacktrackingOptimizer, transformations_from_ecc_set
from repro.preprocess import preprocess
from repro.preprocess.pipeline import QuartzPreprocessor


def test_ablation_gamma_backtracking_vs_greedy(benchmark):
    config = active_config()
    transformations = transformations_from_ecc_set(
        build_ecc_set("nam", GenerationConfig(n=config.n_for("nam"), q=config.ecc_q))
    )
    circuit = preprocess(benchmark_circuit("barenco_tof_3"), "nam")

    def run():
        greedy = BacktrackingOptimizer(transformations, gamma=1.0).optimize(
            circuit,
            max_iterations=config.search_max_iterations,
            timeout_seconds=config.search_timeout_seconds,
        )
        backtracking = BacktrackingOptimizer(transformations, gamma=config.gamma).optimize(
            circuit,
            max_iterations=config.search_max_iterations,
            timeout_seconds=config.search_timeout_seconds,
        )
        return greedy, backtracking

    greedy, backtracking = run_once(benchmark, run)
    emit(
        "Ablation: gamma",
        f"greedy (gamma=1): {greedy.final_cost:.0f} gates, "
        f"backtracking (gamma=1.0001): {backtracking.final_cost:.0f} gates "
        f"(from {greedy.initial_cost:.0f})",
    )
    benchmark.extra_info["greedy"] = greedy.final_cost
    benchmark.extra_info["backtracking"] = backtracking.final_cost
    assert backtracking.final_cost <= greedy.final_cost


def test_ablation_pruning_preserves_quality(benchmark):
    config = active_config()
    n, q = 2, 2  # small on purpose: the unpruned set is much larger
    circuit = preprocess(benchmark_circuit("tof_3"), "nam")

    def run():
        raw = run_generation("nam", GenerationConfig(n=n, q=q)).ecc_set
        pruned = prune_common_subcircuits(simplify_ecc_set(raw))
        raw_xf = transformations_from_ecc_set(raw)
        pruned_xf = transformations_from_ecc_set(pruned)
        raw_result = BacktrackingOptimizer(raw_xf).optimize(
            circuit, max_iterations=20, timeout_seconds=20
        )
        pruned_result = BacktrackingOptimizer(pruned_xf).optimize(
            circuit, max_iterations=20, timeout_seconds=20
        )
        return len(raw_xf), len(pruned_xf), raw_result, pruned_result

    raw_count, pruned_count, raw_result, pruned_result = run_once(benchmark, run)
    emit(
        "Ablation: transformation pruning",
        f"|T| raw = {raw_count}, |T| pruned = {pruned_count}; "
        f"result raw = {raw_result.final_cost:.0f}, pruned = {pruned_result.final_cost:.0f}",
    )
    assert pruned_count < raw_count
    assert pruned_result.final_cost <= raw_result.final_cost + 1e-9


def test_ablation_preprocessing_passes(benchmark):
    circuit = benchmark_circuit("barenco_tof_4")

    def run():
        naive = QuartzPreprocessor("nam", greedy_toffoli=False, rotation_merging=False).run(circuit)
        merged_only = QuartzPreprocessor("nam", greedy_toffoli=False, rotation_merging=True).run(circuit)
        full = QuartzPreprocessor("nam", greedy_toffoli=True, rotation_merging=True).run(circuit)
        return naive, merged_only, full

    naive, merged_only, full = run_once(benchmark, run)
    emit(
        "Ablation: preprocessing",
        f"no merging: {naive.gate_count}, rotation merging: {merged_only.gate_count}, "
        f"+greedy Toffoli polarity: {full.gate_count}",
    )
    assert full.gate_count <= merged_only.gate_count <= naive.gate_count
