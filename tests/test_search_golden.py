"""Golden values pinning the serial search strategies, byte for byte.

The identity scripts compare parallel runs with serial runs of the same
code, so they cannot notice a hot-path change that alters serial output.
The backtracking values were recorded before the matcher, splice and
angle-key rewrites, the greedy, beam and ``parallel-backtracking`` values
before the seen-sets moved from canonical keys to wire keys; none may move.
Match order feeds the queue's insertion counter, so any change in match
enumeration, successor construction or seen-set keys shows up here as a
different best circuit or a different ``circuits_explored``.  A mismatch
on another interpreter is a determinism bug, not a reason to loosen the
pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.benchmarks_suite import benchmark_circuit
from repro.ir.qasm import to_qasm
from repro.optimizer import BacktrackingOptimizer
from repro.optimizer.strategies import get_strategy
from repro.preprocess import preprocess


# (gate set, circuit, initial cost, final cost, circuits explored, sha256 of
# the best circuit's QASM) after 30 iterations.
GOLDEN = [
    (
        "nam", "tof_3", 35, 35, 59,
        "be7db3cf873cfbdeb6f338967dd8cb74b65c4ddf0731e99a31923f5ef752fc3d",
    ),
    (
        "nam", "barenco_tof_3", 42, 40, 98,
        "124133e7813caece3690f6e1920a58965c4322a68e585c120564bef49a81e892",
    ),
    (
        "nam", "mod5_4", 68, 60, 721,
        "e76727641fa734895995fc17d13e4cf2c32cc4021ed5248f6817a76624162bb7",
    ),
    (
        "nam", "tof_4", 55, 55, 86,
        "ffd4d513f9b91881ca2f7da4440229b99b82ff70b0bef67b0de46144f80625b0",
    ),
    (
        "rigetti", "tof_3", 107, 81, 467,
        "47a1cadfda9111906343ce4a9012a7d051dec18a7d0990041fe5e8935b208ef0",
    ),
]


def _digest(circuit):
    return hashlib.sha256(to_qasm(circuit).encode()).hexdigest()


@pytest.mark.parametrize(
    "gate_set, name, initial, final, explored, digest",
    GOLDEN,
    ids=[f"{row[0]}-{row[1]}" for row in GOLDEN],
)
def test_serial_search_output_is_pinned(
    request, gate_set, name, initial, final, explored, digest
):
    transformations = request.getfixturevalue(f"{gate_set}_transformations_n3_q3")
    circuit = preprocess(benchmark_circuit(name), gate_set)
    result = BacktrackingOptimizer(transformations).optimize(
        circuit, max_iterations=30
    )
    assert (result.initial_cost, result.final_cost) == (initial, final)
    assert result.circuits_explored == explored
    assert _digest(result.circuit) == digest


# (strategy, options, iterations, gate set, circuit, initial cost, final
# cost, circuits explored, sha256 of the best circuit's QASM).  The
# strategies that share the matcher with backtracking but keep their own
# seen-sets: greedy and beam dedupe by wire key, parallel-backtracking
# (one in-process worker) orders its incumbent by canonical key.
STRATEGY_GOLDEN = [
    (
        "greedy", {}, 30, "nam", "tof_3", 35, 35, 1,
        "be7db3cf873cfbdeb6f338967dd8cb74b65c4ddf0731e99a31923f5ef752fc3d",
    ),
    (
        "greedy", {}, 30, "nam", "barenco_tof_3", 42, 42, 1,
        "b6dcf9fa8f97ef40aa6561d21e42a759e498acb67a3cfd185fc2a7129665f541",
    ),
    (
        "greedy", {}, 30, "nam", "mod5_4", 68, 63, 6,
        "d37ffbf8d9caefa097cfe3d1094ec04faf85e7995b993b349b256f166241a19e",
    ),
    (
        "greedy", {}, 30, "nam", "tof_4", 55, 55, 1,
        "ffd4d513f9b91881ca2f7da4440229b99b82ff70b0bef67b0de46144f80625b0",
    ),
    (
        "greedy", {}, 30, "rigetti", "tof_3", 107, 81, 27,
        "47a1cadfda9111906343ce4a9012a7d051dec18a7d0990041fe5e8935b208ef0",
    ),
    (
        "beam", {}, 3, "nam", "barenco_tof_3", 42, 41, 1422,
        "3141757d060396116b8b441f97eff2b106cd8b6d7c55b0975c8aab7c9868e684",
    ),
    (
        "beam", {}, 3, "nam", "mod5_4", 68, 65, 3983,
        "299b06cabe4428c0f931d0c7edc6b858dd44bb1c4b328083adc952b789f6bd4f",
    ),
    (
        "beam", {}, 3, "rigetti", "tof_3", 107, 104, 4177,
        "97dba0128519df0274bcab57d4a6558ce746ae4fbd187db8f99f31d36da59630",
    ),
    (
        "parallel-backtracking", {"workers": 1}, 30, "nam", "barenco_tof_3",
        42, 40, 58,
        "fd7540f09b1b2c3734fa8f556ffa04e5822f109e2069906523ca5daeacc1a60c",
    ),
    (
        "parallel-backtracking", {"workers": 1}, 30, "nam", "mod5_4",
        68, 63, 146,
        "d37ffbf8d9caefa097cfe3d1094ec04faf85e7995b993b349b256f166241a19e",
    ),
    (
        "parallel-backtracking", {"workers": 1}, 30, "rigetti", "tof_3",
        107, 102, 387,
        "d14b2e20a038f430eda26a88e069ecf227a7a031c267f3ca5792531d859273f2",
    ),
]


@pytest.mark.parametrize(
    "strategy, options, iterations, gate_set, name, initial, final, explored, digest",
    STRATEGY_GOLDEN,
    ids=[f"{row[0]}-{row[3]}-{row[4]}" for row in STRATEGY_GOLDEN],
)
def test_strategy_output_is_pinned(
    request, strategy, options, iterations, gate_set, name, initial, final,
    explored, digest,
):
    transformations = request.getfixturevalue(f"{gate_set}_transformations_n3_q3")
    circuit = preprocess(benchmark_circuit(name), gate_set)
    result = get_strategy(strategy, **options).run(
        circuit, transformations, max_iterations=iterations
    )
    assert (result.initial_cost, result.final_cost) == (initial, final)
    assert result.circuits_explored == explored
    assert _digest(result.circuit) == digest
