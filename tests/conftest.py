"""Shared fixtures: small generated ECC sets and random-circuit helpers.

Generating ECC sets is the slowest step, so the fixtures are session-scoped
and kept small (q = 2, n = 2/3 for the Nam gate set) — large enough to
contain the classic identities (H·H = I, CNOT flip, Rz merging) that the
matcher/optimizer tests rely on.
"""

from __future__ import annotations

import random

import pytest

from repro.generator import RepGen, prune_common_subcircuits, simplify_ecc_set
from repro.ir import Circuit
from repro.ir import dag as dag_module
from repro.ir.gatesets import NAM, RIGETTI
from repro.optimizer import transformations_from_ecc_set


@pytest.fixture(scope="session")
def nam_ecc_q2_n2():
    """Pruned (2, 2)-complete ECC set for the Nam gate set."""
    generator = RepGen(NAM, num_qubits=2, num_params=2)
    result = generator.generate(2)
    return prune_common_subcircuits(simplify_ecc_set(result.ecc_set))


@pytest.fixture(scope="session")
def nam_ecc_q2_n3():
    """Pruned (3, 2)-complete ECC set for the Nam gate set."""
    generator = RepGen(NAM, num_qubits=2, num_params=2)
    result = generator.generate(3)
    return prune_common_subcircuits(simplify_ecc_set(result.ecc_set))


@pytest.fixture(scope="session")
def nam_transformations_small(nam_ecc_q2_n3):
    """Transformations extracted from the (3, 2) Nam ECC set."""
    return transformations_from_ecc_set(nam_ecc_q2_n3)


@pytest.fixture(scope="session")
def nam_raw_n3_q3():
    """The raw (3, 3)-complete Nam ECC set.

    RepGen never touches the disk cache: this generates from scratch and
    stores nothing.
    """
    return RepGen(NAM, num_qubits=3).generate(3).ecc_set


@pytest.fixture(scope="session")
def rigetti_raw_n3_q3():
    """The raw (3, 3)-complete Rigetti ECC set."""
    return RepGen(RIGETTI, num_qubits=3).generate(3).ecc_set


def _pruned_transformations(raw_ecc_set):
    return transformations_from_ecc_set(
        prune_common_subcircuits(simplify_ecc_set(raw_ecc_set))
    )


@pytest.fixture(scope="session")
def nam_transformations_n3_q3(nam_raw_n3_q3):
    """Transformations of the pruned (3, 3) Nam ECC set the searches use."""
    return _pruned_transformations(nam_raw_n3_q3)


@pytest.fixture(scope="session")
def rigetti_transformations_n3_q3(rigetti_raw_n3_q3):
    """Transformations of the pruned (3, 3) Rigetti ECC set."""
    return _pruned_transformations(rigetti_raw_n3_q3)


def random_clifford_t_circuit(
    num_qubits: int, num_gates: int, seed: int, include_ccx: bool = False
) -> Circuit:
    """A random Clifford+T circuit, used by the property-based tests."""
    rng = random.Random(seed)
    circuit = Circuit(num_qubits)
    single = ["h", "x", "t", "tdg", "s", "sdg", "z"]
    for _ in range(num_gates):
        choice = rng.random()
        if include_ccx and num_qubits >= 3 and choice < 0.15:
            qubits = rng.sample(range(num_qubits), 3)
            circuit.ccx(*qubits)
        elif num_qubits >= 2 and choice < 0.45:
            control, target = rng.sample(range(num_qubits), 2)
            circuit.cx(control, target)
        else:
            gate = rng.choice(single)
            circuit.append(gate, rng.randrange(num_qubits))
    return circuit


@pytest.fixture
def random_circuit_factory():
    """Factory fixture so tests can build seeded random circuits."""
    return random_clifford_t_circuit


@pytest.fixture
def successor_builds(monkeypatch):
    """Counts the instruction lists built for circuits spliced from now on.

    ``CircuitDAG.splice`` hands each successor a builder around
    ``repro.ir.dag._spliced_instructions``; ``builds[0]`` counts its calls.
    """
    builds = [0]
    build = dag_module._spliced_instructions

    def counting_build(*args):
        builds[0] += 1
        return build(*args)

    monkeypatch.setattr(dag_module, "_spliced_instructions", counting_build)
    return builds
