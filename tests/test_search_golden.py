"""Golden values pinning the serial backtracking search, byte for byte.

The identity scripts compare parallel runs with serial runs of the same
code, so they cannot notice a hot-path change that alters serial output.
These values were recorded before the matcher, splice and angle-key
rewrites and must not move: match order feeds the queue's insertion
counter, so any change in match enumeration, successor construction or
canonical keys shows up here as a different best circuit or a different
``circuits_explored``.  A mismatch on another interpreter is a
determinism bug, not a reason to loosen the pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.benchmarks_suite import benchmark_circuit
from repro.generator import RepGen, prune_common_subcircuits, simplify_ecc_set
from repro.ir.gatesets import NAM, RIGETTI
from repro.ir.qasm import to_qasm
from repro.optimizer import BacktrackingOptimizer, transformations_from_ecc_set
from repro.preprocess import preprocess


def _transformations(gate_set):
    # No cache argument: generation runs from scratch and stores nothing.
    result = RepGen(gate_set, num_qubits=3).generate(3)
    return transformations_from_ecc_set(
        prune_common_subcircuits(simplify_ecc_set(result.ecc_set))
    )


@pytest.fixture(scope="session")
def nam_transformations_n3_q3():
    return _transformations(NAM)


@pytest.fixture(scope="session")
def rigetti_transformations_n3_q3():
    return _transformations(RIGETTI)


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
    assert hashlib.sha256(to_qasm(result.circuit).encode()).hexdigest() == digest
