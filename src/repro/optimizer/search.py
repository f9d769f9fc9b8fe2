"""Cost-based backtracking search (Algorithm 2 of the paper).

The optimizer maintains a priority queue of candidate circuits ordered by
cost.  Each iteration dequeues the cheapest circuit, applies every verified
transformation at every match, and enqueues the new circuits whose cost stays
below ``gamma`` times the best cost seen so far.  ``gamma = 1`` degenerates
to greedy search; ``gamma`` slightly above 1 (the paper uses 1.0001) admits
cost-preserving moves, which is what enables rewrites like the CNOT-flip
sequence of Figure 6.  A seen-set of wire keys (:meth:`Circuit.wire_key`:
each qubit's gate sequence, equal exactly for circuits that differ only by
reordering independent gates) avoids revisiting circuits, and the queue is
pruned to its best half whenever it exceeds a capacity bound (2,000 -> 1,000
in the paper).

When the cost model knows a rule's cost change before the splice
(:meth:`CostModel.rule_delta`; gate count does), a rule whose successors
would cost at least ``gamma`` times the best is not spliced at all, and
``search.splices_skipped`` counts the successors it would have made.  The
seen-set and cost rejects (``search.seen_rejects``,
``search.cost_rejects``) count spliced successors only.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.circuit import Circuit
from repro.optimizer.cost import CostModel, GateCountCost
from repro.optimizer.matcher import PatternMatcher, compile_match_trie
from repro.optimizer.xfer import Transformation
from repro.perf import PerfRecorder


@dataclass
class OptimizationResult:
    """Outcome of a search run."""

    circuit: Circuit
    initial_cost: float
    final_cost: float
    iterations: int
    circuits_explored: int
    time_seconds: float
    timed_out: bool
    # (elapsed seconds, best cost) samples recorded whenever the best improves,
    # used to draw the Figure 8 style time curves.
    cost_trace: List[Tuple[float, float]] = field(default_factory=list)
    # Hot-path instrumentation: matchers built, transformations visited
    # (``search.transformations_matched``: their source has a match on the
    # popped circuit) and skipped (``search.transformations_skipped``: it
    # has none), successors left unspliced by the cost gate
    # (``search.splices_skipped``), and seen and cost rejects among the
    # spliced ones (see repro.perf).
    perf: Dict[str, float] = field(default_factory=dict)

    @property
    def reduction(self) -> float:
        """Fractional cost reduction relative to the input circuit."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


class BacktrackingOptimizer:
    """Algorithm 2: cost-based backtracking search over verified rewrites."""

    def __init__(
        self,
        transformations: Sequence[Transformation],
        cost_model: Optional[CostModel] = None,
        *,
        gamma: float = 1.0001,
        queue_capacity: int = 2000,
        queue_keep: int = 1000,
        max_matches_per_transformation: Optional[int] = 16,
    ) -> None:
        self.transformations = list(transformations)
        self.cost_model = cost_model or GateCountCost()
        self.gamma = gamma
        self.queue_capacity = queue_capacity
        self.queue_keep = queue_keep
        self.max_matches_per_transformation = max_matches_per_transformation

    #: The inner-loop timeout check runs once every this many units of work
    #: (transformations examined *and* matches applied, sharing one
    #: counter); ``time.perf_counter()`` is cheap but not free, and the
    #: inner loop is the hottest code in the optimizer.  Counting matches
    #: as well bounds the overshoot past ``timeout_seconds`` by the cost of
    #: a single stride of work rather than by a whole transformation sweep
    #: (a sweep applies up to ``len(transformations) * max_matches``
    #: rewrites, which under-reported timeouts badly on large rule sets).
    TIMEOUT_CHECK_STRIDE = 64

    def optimize(
        self,
        circuit: Circuit,
        *,
        timeout_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
    ) -> OptimizationResult:
        """Run the search and return the best circuit found."""
        start = time.perf_counter()
        counter = itertools.count()
        perf = PerfRecorder()

        initial_cost = self.cost_model.cost(circuit)
        best_circuit = circuit
        best_cost = initial_cost
        cost_trace: List[Tuple[float, float]] = [(0.0, best_cost)]

        queue: List[Tuple[float, int, Circuit]] = [(initial_cost, next(counter), circuit)]
        # Keying the input caches its wire key, which every successor's is
        # derived from.
        seen: set = {circuit.wire_key()}

        iterations = 0
        explored = 1
        timed_out = False
        max_matches = self.max_matches_per_transformation
        trie = compile_match_trie(self.transformations)
        # Per rule position, the exact cost change of the rule's every
        # successor, or None where the cost model needs the spliced circuit.
        deltas = [self.cost_model.rule_delta(rule) for rule in trie.rules]
        rule_positions = trie.rule_positions

        while queue:
            # One clock read per iteration serves the timeout check and the
            # loop control; improvement branches (rare) read the clock again
            # so the Figure 8 cost traces stay accurate.
            elapsed = time.perf_counter() - start
            if timeout_seconds is not None and elapsed > timeout_seconds:
                timed_out = True
                break
            if max_iterations is not None and iterations >= max_iterations:
                break
            cost, _, current = heapq.heappop(queue)
            iterations += 1

            if cost < best_cost:
                best_cost = cost
                best_circuit = current
                cost_trace.append((elapsed, best_cost))

            matcher = PatternMatcher(current, trie=trie)
            perf.count("search.matchers_built")
            # A rule whose source has no match here has no successor, so
            # only the matched rules are visited, in rule order: successors
            # reach the queue in the order a visit of every rule gives.
            matched = matcher.matched_rules(max_matches)
            perf.count(
                "search.transformations_skipped",
                len(trie.rules) - len(matched),
            )
            transformations_since_check = 0
            for transformation in matched:
                # The timeout check is hoisted behind a coarse counter so the
                # common path costs one integer op, not a syscall.
                transformations_since_check += 1
                if (
                    timeout_seconds is not None
                    and transformations_since_check >= self.TIMEOUT_CHECK_STRIDE
                ):
                    transformations_since_check = 0
                    if time.perf_counter() - start > timeout_seconds:
                        timed_out = True
                        break
                perf.count("search.transformations_matched")
                # Every successor of the rule costs cost + delta, which the
                # check below would turn away.  best_cost only falls, so it
                # would turn away any later copy too: leaving these out of
                # the seen-set admits nothing new.
                delta = deltas[rule_positions[id(transformation)]]
                if delta is not None and cost + delta >= self.gamma * best_cost:
                    perf.count(
                        "search.splices_skipped",
                        matcher.successor_count(transformation, max_matches),
                    )
                    continue
                for new_circuit in matcher.apply_all(
                    transformation, max_matches=max_matches
                ):
                    transformations_since_check += 1
                    if (
                        timeout_seconds is not None
                        and transformations_since_check >= self.TIMEOUT_CHECK_STRIDE
                    ):
                        transformations_since_check = 0
                        if time.perf_counter() - start > timeout_seconds:
                            timed_out = True
                            break
                    # Add-and-compare hashes the wire key once.
                    seen_before = len(seen)
                    seen.add(new_circuit.wire_key())
                    if len(seen) == seen_before:
                        perf.count("search.seen_rejects")
                        continue
                    new_cost = self.cost_model.cost(new_circuit)
                    if new_cost >= self.gamma * best_cost:
                        perf.count("search.cost_rejects")
                        continue
                    explored += 1
                    heapq.heappush(queue, (new_cost, next(counter), new_circuit))
                    if new_cost < best_cost:
                        best_cost = new_cost
                        best_circuit = new_circuit
                        cost_trace.append(
                            (time.perf_counter() - start, best_cost)
                        )
                if timed_out:
                    break
            if timed_out:
                break

            if len(queue) > self.queue_capacity:
                queue = heapq.nsmallest(self.queue_keep, queue)
                heapq.heapify(queue)

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
