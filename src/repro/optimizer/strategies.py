"""The three search strategies a :class:`repro.api.SearchConfig` can name.

The cost-based backtracking search of Algorithm 2 is the paper's search;
greedy rewriting is the same search at gamma = 1, and beam search shares
all of its matcher/cost plumbing but explores differently:

* ``"backtracking"`` — :class:`BacktrackingStrategy` over
  :class:`~repro.optimizer.search.BacktrackingOptimizer` (the paper's
  Algorithm 2; the default);
* ``"greedy"``       — :class:`BacktrackingStrategy` at gamma = 1 with a
  small queue: only strictly cost-decreasing rewrites;
* ``"beam"``         — :class:`BeamStrategy`, a fixed-width frontier:
  every iteration expands the whole beam by every applicable
  transformation and keeps the cheapest ``beam_width`` distinct
  successors, which tolerates cost-preserving moves without an unbounded
  queue.

The set is closed: :data:`STRATEGIES` lists it, and
:meth:`repro.api.SearchConfig.runner` builds a named strategy's runner
from the config fields that strategy reads.  Both runners return the same
:class:`~repro.optimizer.search.OptimizationResult`.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import List, Optional, Sequence, Tuple

from repro.ir.circuit import Circuit
from repro.optimizer.cost import CostModel, GateCountCost
from repro.optimizer.matcher import PatternMatcher, compile_match_trie
from repro.optimizer.search import BacktrackingOptimizer, OptimizationResult
from repro.optimizer.xfer import Transformation
from repro.perf import PerfRecorder


#: The strategy names a :class:`repro.api.SearchConfig` accepts.
STRATEGIES: Tuple[str, ...] = ("backtracking", "greedy", "beam")


class BacktrackingStrategy:
    """Algorithm 2: cost-based backtracking search (greedy at gamma = 1).

    An instance holds its tuning and is reusable across circuits;
    :meth:`run` receives the per-run inputs and budgets.
    """

    def __init__(
        self,
        *,
        gamma: float = 1.0001,
        queue_capacity: int = 2000,
        queue_keep: int = 1000,
        max_matches_per_transformation: Optional[int] = 16,
    ) -> None:
        self.gamma = gamma
        self.queue_capacity = queue_capacity
        self.queue_keep = queue_keep
        self.max_matches_per_transformation = max_matches_per_transformation

    def run(
        self,
        circuit: Circuit,
        transformations: Sequence[Transformation],
        cost_model: Optional[CostModel] = None,
        *,
        timeout_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
    ) -> OptimizationResult:
        optimizer = BacktrackingOptimizer(
            transformations,
            cost_model,
            gamma=self.gamma,
            queue_capacity=self.queue_capacity,
            queue_keep=self.queue_keep,
            max_matches_per_transformation=self.max_matches_per_transformation,
        )
        return optimizer.optimize(
            circuit,
            timeout_seconds=timeout_seconds,
            max_iterations=max_iterations,
        )


class BeamStrategy:
    """Fixed-width frontier search sharing the matcher/cost plumbing.

    Each iteration expands every beam member by every transformation whose
    source has a match on it (visited in rule order, as the backtracking
    search does; ``search.transformations_skipped`` counts the others) and
    keeps the ``beam_width`` cheapest distinct successors.
    Cost-preserving moves survive as long as they stay inside the beam, so
    CNOT-flip style detours remain reachable with a frontier of bounded
    width.

    Dedup semantics (by :meth:`Circuit.wire_key`): circuits that have ever
    been *admitted to the beam* are never revisited (this is what
    guarantees termination when the rewrite space is finite); successors
    that were generated but cut by the width bound are only deduped within
    their own generation, so a later beam can rediscover them when they
    become the gateway to an improvement.
    """

    def __init__(
        self,
        *,
        beam_width: int = 16,
        max_matches_per_transformation: Optional[int] = 16,
    ) -> None:
        if beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        self.beam_width = beam_width
        self.max_matches_per_transformation = max_matches_per_transformation

    def run(
        self,
        circuit: Circuit,
        transformations: Sequence[Transformation],
        cost_model: Optional[CostModel] = None,
        *,
        timeout_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
    ) -> OptimizationResult:
        start = time.perf_counter()
        cost_model = cost_model or GateCountCost()
        perf = PerfRecorder()
        counter = itertools.count()

        initial_cost = cost_model.cost(circuit)
        best_circuit = circuit
        best_cost = initial_cost
        cost_trace: List[Tuple[float, float]] = [(0.0, best_cost)]

        beam: List[Circuit] = [circuit]
        admitted: set = {circuit.wire_key()}
        iterations = 0
        explored = 1
        timed_out = False
        max_matches = self.max_matches_per_transformation
        trie = compile_match_trie(transformations)

        while beam:
            elapsed = time.perf_counter() - start
            if timeout_seconds is not None and elapsed > timeout_seconds:
                timed_out = True
                break
            if max_iterations is not None and iterations >= max_iterations:
                break
            iterations += 1

            successors: List[Tuple[float, int, tuple, Circuit]] = []
            generation_seen: set = set()
            for current in beam:
                if timeout_seconds is not None and (
                    time.perf_counter() - start > timeout_seconds
                ):
                    timed_out = True
                    break
                matcher = PatternMatcher(current, trie=trie)
                perf.count("search.matchers_built")
                matched = matcher.matched_rules(max_matches)
                perf.count(
                    "search.transformations_skipped",
                    len(trie.rules) - len(matched),
                )
                for transformation in matched:
                    perf.count("search.transformations_matched")
                    for new_circuit in matcher.apply_all(
                        transformation, max_matches=max_matches
                    ):
                        key = new_circuit.wire_key()
                        if key in admitted or key in generation_seen:
                            perf.count("search.seen_rejects")
                            continue
                        generation_seen.add(key)
                        new_cost = cost_model.cost(new_circuit)
                        explored += 1
                        successors.append(
                            (new_cost, next(counter), key, new_circuit)
                        )
                        if new_cost < best_cost:
                            best_cost = new_cost
                            best_circuit = new_circuit
                            cost_trace.append(
                                (time.perf_counter() - start, best_cost)
                            )
            if timed_out or not successors:
                break
            selected = heapq.nsmallest(self.beam_width, successors)
            beam = []
            for _, _, key, selected_circuit in selected:
                admitted.add(key)
                beam.append(selected_circuit)
            perf.count("search.beam_generations")

        return OptimizationResult(
            circuit=best_circuit,
            initial_cost=initial_cost,
            final_cost=best_cost,
            iterations=iterations,
            circuits_explored=explored,
            time_seconds=time.perf_counter() - start,
            timed_out=timed_out,
            cost_trace=cost_trace,
            perf=perf.snapshot(),
        )
