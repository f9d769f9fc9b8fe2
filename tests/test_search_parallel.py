"""Search inside the repo's one worker pool equals in-process search.

Every search strategy runs serially (Algorithm 2 and its greedy and beam
variants, pinned by ``tests/test_search_golden.py``), but a pooled
optimization service runs each job's search inside a worker of its
:class:`~repro.workerpool.ResilientPool`.  The contract under test: a
search run in a pool worker is *byte-identical* to the same search in this
process — for every worker count, whatever order the workers finish in,
and across injected worker faults, because a retried job re-runs a pure
function of its payload.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.api import SearchConfig
from repro.faults import FaultPlan
from repro.generator.ecc import circuit_to_payload
from repro.ir import Circuit
from repro.optimizer.search import OptimizationResult
from repro.optimizer.strategies import STRATEGIES
from repro.semantics.simulator import circuits_equivalent_numeric
from repro.workerpool import ResilientPool

#: Per-job deadline: a searched job finishes in well under a second, so
#: an injected delay is detected quickly.
TIMEOUT = 3.0

#: Generous gamma: it admits cost-increasing successors, so the search
#: explores more than one greedy step before it settles.
SEARCH_GAMMA = 2.0

MAX_ITERATIONS = 40


def _figure6_circuit() -> Circuit:
    """H-wrapped CNOTs: the plateau circuit (flips expose H·H pairs)."""
    circuit = Circuit(3)
    circuit.h(1)
    circuit.cx(0, 1)
    circuit.h(1)
    circuit.h(1)
    circuit.cx(2, 1)
    circuit.h(1)
    return circuit


def _hh_circuit() -> Circuit:
    """A directly greedy-improvable circuit (an H·H pair cancels)."""
    circuit = Circuit(2)
    circuit.h(0)
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


def _bytes(result: OptimizationResult) -> str:
    return json.dumps(circuit_to_payload(result.circuit), sort_keys=True)


def _summary(result: OptimizationResult):
    return (
        _bytes(result),
        result.final_cost,
        result.iterations,
        result.circuits_explored,
    )


def _search(circuit, transformations):
    return SearchConfig(gamma=SEARCH_GAMMA).runner().run(
        circuit, transformations, max_iterations=MAX_ITERATIONS
    )


#: The transformations a worker searches with, set by the pool initializer
#: (worker processes only).
_WORKER_TRANSFORMATIONS = None


def _init_search_worker(transformations) -> None:
    global _WORKER_TRANSFORMATIONS
    _WORKER_TRANSFORMATIONS = transformations


def _search_chunk(payload):
    """Job function: ``(circuit, delay)`` -> the search's summary."""
    (circuit, delay), fault_token = payload
    faults.apply_chunk_fault(fault_token)
    time.sleep(delay)
    return _summary(_search(circuit, _WORKER_TRANSFORMATIONS))


def _search_in_pool(transformations, chunks, workers=2):
    """Every chunk as one pool job, submitted concurrently.

    Returns the results in chunk order and the pool's counters.
    """
    with ResilientPool(
        _search_chunk,
        _init_search_worker,
        (transformations,),
        workers,
        chunk_timeout=TIMEOUT,
        chunk_retries=2,
    ) as pool:
        with ThreadPoolExecutor(max_workers=len(chunks)) as threads:
            return list(threads.map(pool.run, chunks)), pool.counters()


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.set_fault_plan(None)
    yield
    faults.set_fault_plan(None)


@pytest.fixture
def serial_reference(nam_transformations_small):
    return _search(_figure6_circuit(), nam_transformations_small)


class TestRegistryEntries:
    def test_resolve_search_workers(self):
        # search_workers reaches no runner: every strategy builds without
        # a worker count.
        for name in STRATEGIES:
            runner = SearchConfig(strategy=name, search_workers=1).runner()
            assert not any("worker" in option for option in vars(runner)), name
        for workers in (0, 4):
            with pytest.raises(ValueError, match="search_workers"):
                SearchConfig(search_workers=workers)

    def test_worker_support_flags(self):
        # No strategy advertises worker support any more.
        for name in STRATEGIES:
            runner = SearchConfig(strategy=name).runner()
            assert not hasattr(runner, "supports_workers"), name


class TestByteIdentity:
    def test_serial_run_improves_and_preserves_equivalence(
        self, serial_reference
    ):
        circuit = _figure6_circuit()
        assert serial_reference.final_cost < serial_reference.initial_cost
        assert circuits_equivalent_numeric(circuit, serial_reference.circuit)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_serial_byte_for_byte(
        self, nam_transformations_small, serial_reference, workers
    ):
        chunks = [(_figure6_circuit(), 0.0)] * workers
        pooled, _ = _search_in_pool(nam_transformations_small, chunks, workers)
        assert pooled == [_summary(serial_reference)] * workers

    def test_shuffled_completion_order_cannot_change_the_merge(
        self, nam_transformations_small, serial_reference
    ):
        """Jobs finishing in any order each return their own result.

        The first job sleeps before it searches, so the other finishes
        first; each caller must still get its own job's result.
        """
        chunks = [(_figure6_circuit(), 0.5), (_hh_circuit(), 0.0)]
        pooled, _ = _search_in_pool(nam_transformations_small, chunks)
        assert pooled == [
            _summary(serial_reference),
            _summary(_search(_hh_circuit(), nam_transformations_small)),
        ]

    def test_identity_across_injected_worker_kill(
        self, nam_transformations_small, serial_reference
    ):
        faults.set_fault_plan(FaultPlan.from_string("kill_worker:service"))
        pooled, counters = _search_in_pool(
            nam_transformations_small, [(_figure6_circuit(), 0.0)] * 2
        )
        assert pooled == [_summary(serial_reference)] * 2
        assert counters["resilience.faults_injected"] == 1
        assert counters["resilience.pool_respawns"] >= 1

    def test_identity_across_injected_chunk_failure(
        self, nam_transformations_small, serial_reference
    ):
        faults.set_fault_plan(FaultPlan.from_string("fail_chunk:service"))
        pooled, counters = _search_in_pool(
            nam_transformations_small, [(_figure6_circuit(), 0.0)] * 2
        )
        assert pooled == [_summary(serial_reference)] * 2
        assert counters["resilience.faults_injected"] == 1
        assert counters["resilience.chunk_failures"] == 1


class TestCancellation:
    def test_budgets_bound_iterations(self, nam_transformations_small):
        for name in STRATEGIES:
            result = SearchConfig(strategy=name).runner().run(
                _figure6_circuit(), nam_transformations_small, max_iterations=5
            )
            assert result.iterations <= 5, name
