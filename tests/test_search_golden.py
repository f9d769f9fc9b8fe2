"""Golden values pinning the search strategies, byte for byte.

Every strategy has one, serial code path, and these values are its
identity gate: a hot-path change that alters search output shows up here.
The backtracking values were recorded before the matcher, splice and
angle-key rewrites, the greedy and beam values before the seen-sets moved
from canonical keys to wire keys; none may move.  The rows after the
"recorded later" comments were added when the process pools were removed,
with values recorded on the code before that removal.
Match order feeds the queue's insertion counter, so any change in match
enumeration, successor construction or seen-set keys shows up here as a
different best circuit or a different ``circuits_explored``.  A mismatch
on another interpreter is a determinism bug, not a reason to loosen the
pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import SearchConfig
from repro.benchmarks_suite import benchmark_circuit
from repro.ir.qasm import to_qasm
from repro.optimizer import BacktrackingOptimizer
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
    # Recorded later (see the module docstring).
    (
        "rigetti", "barenco_tof_3", 126, 97, 399,
        "3d0989cca2297304974838ddff4399ce58d6a404ed31ec45e92421e3b78b950d",
    ),
    (
        "rigetti", "mod5_4", 216, 186, 453,
        "ca79f1536321d28ada2da77e5c7be06d1ac756f11da7456e3b6e9558d408baa2",
    ),
    (
        "nam", "vbe_adder_3", 89, 85, 339,
        "289a8ba2258f093fe95c932a666a1117286c9e7dc3ddf3ff32382e223e0b9d74",
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
# seen-sets: greedy and beam dedupe by wire key.
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
    # Recorded later (see the module docstring).
    (
        "greedy", {}, 30, "rigetti", "barenco_tof_3", 126, 97, 30,
        "3d0989cca2297304974838ddff4399ce58d6a404ed31ec45e92421e3b78b950d",
    ),
    (
        "greedy", {}, 30, "rigetti", "mod5_4", 216, 186, 31,
        "ca79f1536321d28ada2da77e5c7be06d1ac756f11da7456e3b6e9558d408baa2",
    ),
    (
        "beam", {}, 3, "nam", "tof_3", 35, 35, 1055,
        "be7db3cf873cfbdeb6f338967dd8cb74b65c4ddf0731e99a31923f5ef752fc3d",
    ),
    (
        "beam", {}, 3, "rigetti", "barenco_tof_3", 126, 123, 4493,
        "fed4bd1d3f9036160de0bd2298a0cda9a94feadb237c76b06d84e74bac6fcd7b",
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
    result = SearchConfig(strategy=strategy, **options).runner().run(
        circuit, transformations, max_iterations=iterations
    )
    assert (result.initial_cost, result.final_cost) == (initial, final)
    assert result.circuits_explored == explored
    assert _digest(result.circuit) == digest
