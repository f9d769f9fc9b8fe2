"""Work-sharing parallel search and portfolio racing.

Generation and verification already scale across worker pools with
byte-identical output; this module applies the same frontier-sharding +
deterministic-merge discipline to the search phase, which dominates warm
end-to-end latency.  Two strategies ride the existing registry:

* ``"parallel-backtracking"`` — a wave-synchronous variant of Algorithm 2.
  The parent owns the priority queue, the seen-set and the incumbent best;
  each wave pops the ``wave_width`` cheapest frontier circuits and shards
  their *expansion* (matching + successor costing, the numeric bulk of an
  iteration) across a persistent :class:`repro.workerpool.ResilientPool`.
  Workers are pure: a chunk's successors are a function of the chunk
  payload and the picklable search spec alone, so per-chunk retries,
  timeouts and pool respawns (fault site ``"search"``) re-produce the
  exact bytes the first dispatch would have.  The parent merges successor
  lists back in enumeration order — job order, then the worker's own
  successor order — and admits them through the same seen-set/gamma gates
  the serial loop uses, so the search is deterministic for a fixed
  ``wave_width`` regardless of worker count or completion order.

* ``"portfolio"`` — races several registered strategies (default:
  backtracking / greedy / beam; roster via ``REPRO_PORTFOLIO``) over the
  same circuit under a shared deadline.  Once a racer completes with a
  circuit that beats the incumbent (the input cost), the remaining racers
  are cooperatively cancelled (``stop_check``); the winner is chosen by
  the deterministic rule below, never by finish order.

Determinism contract:

* The best-result rule is total and order-free: a candidate displaces the
  incumbent iff ``(cost, canonical_key)`` is strictly smaller; for the
  portfolio the racer index breaks exact ties.  Shard order cannot matter:
  equal ``(cost, key)`` means the *same* canonical circuit, and the
  enumeration-order merge makes the earlier shard win that vacuous tie.
* ``workers=1`` runs the identical wave algorithm in-process, so the
  serial reference and every worker count produce byte-identical best
  circuits (``scripts/check_search_identity.py`` gates this in CI at 2
  and 4 workers, including under injected kill/delay/fail faults).
* Full portfolio determinism additionally requires ``early_cancel=False``
  (every racer runs to its budget); with cancellation on, the winner
  still always beats the incumbent whenever any racer does, but a loser's
  partial result depends on when the cancel landed.

Failure policy matches the other pools: any failure to set up or use the
pool (``PoolError`` after the retry budget) degrades *this search* to the
serial path with a ``RuntimeWarning`` — parallelism is an optimization,
never a correctness dependency.
"""

from __future__ import annotations

import heapq
import inspect
import itertools
import threading
import time
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.envconfig import (
    PORTFOLIO_ENV_VAR,
    SEARCH_WORKERS_ENV_VAR,
    env_portfolio_optional,
    env_search_workers,
)
from repro.errors import PoolError
from repro.ir.circuit import Circuit
from repro.optimizer.cost import CostModel, GateCountCost
from repro.optimizer.matcher import PatternMatcher, compile_match_trie
from repro.optimizer.search import OptimizationResult
from repro.optimizer.strategies import (
    SearchStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.optimizer.xfer import Transformation
from repro.perf import PerfRecorder
from repro.workerpool import ResilientPool

__all__ = [
    "SEARCH_WORKERS_ENV_VAR",
    "PORTFOLIO_ENV_VAR",
    "DEFAULT_WAVE_WIDTH",
    "DEFAULT_PORTFOLIO",
    "MIN_PARALLEL_WAVE",
    "ParallelSearchContext",
    "ParallelBacktrackingStrategy",
    "PortfolioStrategy",
    "resolve_search_workers",
]

#: Frontier circuits expanded per wave.  Deliberately *not* derived from the
#: worker count: the explored frontier must be a function of the tuning
#: options alone, or serial and N-worker runs would explore different
#: spaces and the byte-identity guarantee would be vacuous.
DEFAULT_WAVE_WIDTH = 8

#: Waves smaller than this expand in-process even when a pool is up: one
#: job cannot shard, and the result is the same pure function either way.
MIN_PARALLEL_WAVE = 2

#: Roster raced when neither the ``racers`` option nor ``REPRO_PORTFOLIO``
#: names one.  Serial strategies only: the parallel variant forks worker
#: processes from a racer thread, which is safe but noisy on some
#: platforms, so it joins the race by explicit opt-in.
DEFAULT_PORTFOLIO: Tuple[str, ...] = ("backtracking", "greedy", "beam")


def resolve_search_workers(workers: Optional[int] = None) -> int:
    """Resolve a search worker count: explicit argument, else env, else 1.

    Environment parsing (invalid and negative values warn and mean serial)
    lives in :mod:`repro.envconfig` so every knob is parsed one way.
    """
    if workers is None:
        return env_search_workers()
    return max(int(workers), 1)


# -- the picklable search spec ------------------------------------------------


class ParallelSearchContext:
    """Everything a worker needs to expand frontier circuits.

    Transformations, cost models and circuits are all plain picklable
    dataclasses, so unlike the fingerprint context there is no numeric
    state to re-derive — the spec ships the objects themselves.  What
    matters is the contract: a worker rebuilt from :meth:`spec` expands a
    circuit into the exact successor list the parent's in-process path
    would produce, which is what makes chunk retries byte-identical.
    """

    def __init__(
        self,
        transformations: Sequence[Transformation],
        cost_model: CostModel,
        max_matches_per_transformation: Optional[int],
    ) -> None:
        self.transformations = list(transformations)
        self.cost_model = cost_model
        self.max_matches_per_transformation = max_matches_per_transformation
        # Compiled where the context is built: once per run in the parent
        # and once per worker, never shipped in the spec.
        self.trie = compile_match_trie(self.transformations)

    def spec(self) -> dict:
        """The picklable worker-initializer payload (see ``from_spec``)."""
        return {
            "transformations": list(self.transformations),
            "cost_model": self.cost_model,
            "max_matches_per_transformation": self.max_matches_per_transformation,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "ParallelSearchContext":
        return cls(
            spec["transformations"],
            spec["cost_model"],
            spec["max_matches_per_transformation"],
        )


# -- worker side --------------------------------------------------------------

_WORKER_SEARCH: Optional[ParallelSearchContext] = None


def _init_search_worker(context_spec: dict) -> None:
    global _WORKER_SEARCH
    _WORKER_SEARCH = ParallelSearchContext.from_spec(context_spec)


def _expand_circuit(
    context: ParallelSearchContext,
    circuit: Circuit,
    bound: Optional[float],
    perf: PerfRecorder,
) -> List[Tuple[float, tuple, Circuit]]:
    """Every successor of ``circuit`` cheaper than ``bound``, in rule order.

    This is *the* expansion function: the serial path calls it in-process
    and the workers call it per job, so both produce identical
    ``(cost, canonical key, circuit)`` lists for identical inputs.  It is
    deliberately clock-free (timeouts belong to the parent) and consults
    no shared state — dedup against the seen-set happens at merge time in
    the parent, where it is ordered.
    """
    matcher = PatternMatcher(circuit, trie=context.trie)
    perf.count("search.matchers_built")
    successors: List[Tuple[float, tuple, Circuit]] = []
    max_matches = context.max_matches_per_transformation
    matched = matcher.matched_rules(max_matches)
    perf.count(
        "search.transformations_skipped",
        len(context.trie.rules) - len(matched),
    )
    for transformation in matched:
        perf.count("search.transformations_matched")
        for new_circuit in matcher.apply_all(
            transformation, max_matches=max_matches
        ):
            new_cost = context.cost_model.cost(new_circuit)
            if bound is not None and new_cost >= bound:
                perf.count("search.cost_rejects")
                continue
            successors.append((new_cost, new_circuit.canonical_key(), new_circuit))
    return successors


def _expand_chunk(payload):
    """Per-job successor lists (plus perf counters) for a chunk of jobs.

    ``payload`` is ``(chunk, fault_token)`` — the token (normally None) is
    an injected-fault instruction executed before any real work, so chaos
    tests can kill/delay/fail exactly one chunk deterministically.  The
    chunk itself is ``(jobs, bound)``: the frontier circuits of this shard
    and the wave-start gamma bound they are pre-filtered against.
    """
    chunk, fault_token = payload
    faults.apply_chunk_fault(fault_token)
    context = _WORKER_SEARCH
    assert context is not None, "search worker pool used before initialization"
    jobs, bound = chunk
    perf = PerfRecorder()
    results = [_expand_circuit(context, circuit, bound, perf) for circuit in jobs]
    counters = {
        key: int(value)
        for key, value in perf.snapshot().items()
        if isinstance(value, int)
    }
    return results, counters


# -- parallel backtracking ----------------------------------------------------


class ParallelBacktrackingStrategy(SearchStrategy):
    """Wave-synchronous work-sharing variant of the backtracking search.

    ``workers=1`` (or ``None`` with ``REPRO_SEARCH_WORKERS`` unset) runs
    the identical wave algorithm in-process — that run is the serial
    reference every worker count is byte-identical to.  Note the explored
    frontier differs from the one-pop-per-iteration ``"backtracking"``
    strategy: a wave commits to its ``wave_width`` cheapest circuits
    before seeing any of their successors, which is the price of sharding
    (and occasionally a benefit: plateaus are crossed in one wave).
    """

    name = "parallel-backtracking"
    supports_workers = True

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        gamma: float = 1.0001,
        wave_width: int = DEFAULT_WAVE_WIDTH,
        queue_capacity: int = 2000,
        queue_keep: int = 1000,
        max_matches_per_transformation: Optional[int] = 16,
        chunk_timeout: Optional[float] = None,
        chunk_retries: Optional[int] = None,
    ) -> None:
        if wave_width < 1:
            raise ValueError("wave_width must be at least 1")
        self.workers = workers
        self.gamma = gamma
        self.wave_width = wave_width
        self.queue_capacity = queue_capacity
        self.queue_keep = queue_keep
        self.max_matches_per_transformation = max_matches_per_transformation
        self.chunk_timeout = chunk_timeout
        self.chunk_retries = chunk_retries

    def run(
        self,
        circuit,
        transformations,
        cost_model=None,
        *,
        timeout_seconds=None,
        max_iterations=None,
        stop_check=None,
    ):
        start = time.perf_counter()
        cost_model = cost_model or GateCountCost()
        perf = PerfRecorder()
        workers = resolve_search_workers(self.workers)
        context = ParallelSearchContext(
            transformations, cost_model, self.max_matches_per_transformation
        )
        pool: Optional[ResilientPool] = None
        if workers >= 2:
            try:
                pool = ResilientPool(
                    _expand_chunk,
                    _init_search_worker,
                    (context.spec(),),
                    workers,
                    site="search",
                    chunk_timeout=self.chunk_timeout,
                    chunk_retries=self.chunk_retries,
                    perf=perf,
                )
            except PoolError as error:
                warnings.warn(
                    f"parallel search pool unavailable ({error}); "
                    "searching serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                perf.count("search.pool_degraded")
                pool = None
        try:
            return self._search(
                circuit,
                context,
                pool,
                perf,
                start,
                workers,
                timeout_seconds=timeout_seconds,
                max_iterations=max_iterations,
                stop_check=stop_check,
            )
        finally:
            if pool is not None:
                pool.close()

    def _search(
        self,
        circuit: Circuit,
        context: ParallelSearchContext,
        pool: Optional[ResilientPool],
        perf: PerfRecorder,
        start: float,
        workers: int,
        *,
        timeout_seconds: Optional[float],
        max_iterations: Optional[int],
        stop_check: Optional[Callable[[], bool]],
    ) -> OptimizationResult:
        counter = itertools.count()
        initial_cost = context.cost_model.cost(circuit)
        best_circuit = circuit
        best_cost = initial_cost
        best_key = circuit.canonical_key()
        cost_trace: List[Tuple[float, float]] = [(0.0, best_cost)]

        queue: List[Tuple[float, int, tuple, Circuit]] = [
            (initial_cost, next(counter), best_key, circuit)
        ]
        seen: set = {best_key}
        iterations = 0
        explored = 1
        timed_out = False
        cancelled = False
        waves = 0

        while queue:
            # Budgets are checked at wave boundaries only: a wave is the
            # unit of dispatch, and abandoning one half-merged would make
            # the result depend on timing.  Overshoot past the deadline is
            # bounded by one wave (``wave_width`` expansions).
            elapsed = time.perf_counter() - start
            if timeout_seconds is not None and elapsed > timeout_seconds:
                timed_out = True
                break
            if max_iterations is not None and iterations >= max_iterations:
                break
            if stop_check is not None and stop_check():
                cancelled = True
                break

            width = min(self.wave_width, len(queue))
            if max_iterations is not None:
                width = min(width, max_iterations - iterations)
            wave = [heapq.heappop(queue) for _ in range(width)]
            iterations += len(wave)
            waves += 1
            perf.count("search.waves")

            jobs = tuple(entry[3] for entry in wave)
            # The wave-start gamma bound is the workers' pre-filter; the
            # merge below re-checks against the *evolving* best, so the
            # pre-filter only cuts IPC, never changes admissions.
            bound = self.gamma * best_cost

            expansions: Optional[List[List[Tuple[float, tuple, Circuit]]]] = None
            if pool is not None and len(jobs) >= MIN_PARALLEL_WAVE:
                try:
                    expansions = self._expand_parallel(
                        jobs, bound, pool, perf, waves, workers
                    )
                except PoolError as error:
                    warnings.warn(
                        f"parallel search degraded to serial ({error})",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    perf.count("search.pool_degraded")
                    pool.close()
                    pool = None
            if expansions is None:
                expansions = [
                    _expand_circuit(context, current, bound, perf)
                    for current in jobs
                ]

            # Deterministic merge: enumeration order (job order, then the
            # worker's successor order), dedup against the global seen-set,
            # gamma gate against the evolving best, then the total best
            # rule (cost, canonical key; the shard index tie-break is
            # vacuous — equal keys are the same circuit — but enumeration
            # order realizes it anyway).
            for successors in expansions:
                for new_cost, key, new_circuit in successors:
                    if key in seen:
                        perf.count("search.seen_rejects")
                        continue
                    seen.add(key)
                    if new_cost >= self.gamma * best_cost:
                        perf.count("search.cost_rejects")
                        continue
                    explored += 1
                    heapq.heappush(
                        queue, (new_cost, next(counter), key, new_circuit)
                    )
                    if (new_cost, key) < (best_cost, best_key):
                        if new_cost < best_cost:
                            cost_trace.append(
                                (time.perf_counter() - start, new_cost)
                            )
                        best_cost = new_cost
                        best_key = key
                        best_circuit = new_circuit

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
            cancelled=cancelled,
            metadata={
                "search_workers": workers,
                "waves": waves,
                "pool_active": pool is not None,
            },
        )

    def _expand_parallel(
        self,
        jobs: Tuple[Circuit, ...],
        bound: float,
        pool: ResilientPool,
        perf: PerfRecorder,
        wave_index: int,
        workers: int,
    ) -> List[List[Tuple[float, tuple, Circuit]]]:
        """Shard one wave across the pool; per-job results in job order.

        Chunk layout (how many jobs each worker gets) may depend on the
        worker count — the merge flattens per-chunk results back into job
        order, so layout cannot affect what the parent sees.
        ``wave_index`` is only consumed by round-targeted fault entries
        (``kill_worker:search:round2``); it never affects results.
        """
        chunk_size = max(1, len(jobs) // (workers * 2))
        chunks = [
            (jobs[i : i + chunk_size], bound)
            for i in range(0, len(jobs), chunk_size)
        ]
        perf.count("search.parallel_chunks", len(chunks))
        per_chunk = pool.run_chunks(chunks, round_index=wave_index)
        expansions: List[List[Tuple[float, tuple, Circuit]]] = []
        for results, counters in per_chunk:
            perf.merge_counts(counters)
            expansions.extend(results)
        return expansions


# -- portfolio racing ---------------------------------------------------------


def _accepts_stop_check(strategy: SearchStrategy) -> bool:
    """Whether a racer's ``run`` accepts cooperative cancellation."""
    try:
        parameters = inspect.signature(strategy.run).parameters
    except (TypeError, ValueError):  # builtins / odd callables: assume not
        return False
    if "stop_check" in parameters:
        return True
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


class PortfolioStrategy(SearchStrategy):
    """Race several registered strategies; deterministic winner rule.

    Racers run concurrently in threads over the same circuit and rule set,
    each under the shared ``timeout_seconds`` deadline and its own
    ``max_iterations`` budget.  When ``early_cancel`` is on (the default)
    the first racer to *complete* with a circuit cheaper than the input
    cancels the rest cooperatively.  The winner is the minimum over racer
    results of ``(final cost, canonical key of the best circuit, racer
    index)`` — finish order never decides.

    Roster resolution: the ``racers`` option wins, else ``REPRO_PORTFOLIO``
    (comma-separated), else backtracking/greedy/beam.  Unknown names warn
    and are dropped; an empty roster warns and falls back to the default.
    ``"parallel-backtracking"`` may be raced too (give it ``workers``); it
    is not in the default roster because it forks worker processes from a
    racer thread.
    """

    name = "portfolio"
    supports_workers = True

    def __init__(
        self,
        *,
        racers: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
        early_cancel: bool = True,
    ) -> None:
        roster = tuple(racers) if racers is not None else env_portfolio_optional()
        if roster is None:
            roster = DEFAULT_PORTFOLIO
        registered = set(available_strategies())
        usable: List[str] = []
        for entry in roster:
            key = str(entry).strip().lower()
            if key == self.name:
                warnings.warn(
                    "a portfolio cannot race itself; dropping 'portfolio' "
                    "from the roster",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if key not in registered:
                warnings.warn(
                    f"unknown portfolio racer {entry!r}; dropping it "
                    f"(registered: {', '.join(sorted(registered))})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            usable.append(key)
        if not usable:
            warnings.warn(
                "no usable portfolio racers; racing the default roster "
                + "/".join(DEFAULT_PORTFOLIO),
                RuntimeWarning,
                stacklevel=2,
            )
            usable = list(DEFAULT_PORTFOLIO)
        self.racers: Tuple[str, ...] = tuple(usable)
        self.workers = workers
        self.early_cancel = early_cancel

    def _build_racer(self, name: str) -> SearchStrategy:
        if name == "parallel-backtracking":
            return get_strategy(name, workers=self.workers)
        return get_strategy(name)

    def run(
        self,
        circuit,
        transformations,
        cost_model=None,
        *,
        timeout_seconds=None,
        max_iterations=None,
        stop_check=None,
    ):
        start = time.perf_counter()
        cost_model = cost_model or GateCountCost()
        strategies = [self._build_racer(name) for name in self.racers]
        incumbent_cost = cost_model.cost(circuit)

        stop = threading.Event()
        results: List[Optional[OptimizationResult]] = [None] * len(strategies)
        errors: List[BaseException] = []

        def racer_stop() -> bool:
            if stop.is_set():
                return True
            return stop_check is not None and stop_check()

        def run_racer(index: int, strategy: SearchStrategy) -> None:
            kwargs: Dict[str, Any] = dict(
                timeout_seconds=timeout_seconds, max_iterations=max_iterations
            )
            if _accepts_stop_check(strategy):
                kwargs["stop_check"] = racer_stop
            try:
                result = strategy.run(
                    circuit, transformations, cost_model, **kwargs
                )
            except BaseException as error:  # noqa: BLE001 — re-raised in the
                # parent after the join; a racer's programming error must
                # surface, not silently shrink the race.
                errors.append(error)
                stop.set()
                return
            results[index] = result
            if (
                self.early_cancel
                and not result.cancelled
                and result.final_cost < incumbent_cost
            ):
                stop.set()

        threads = [
            threading.Thread(
                target=run_racer,
                args=(index, strategy),
                name=f"portfolio-{self.racers[index]}",
            )
            for index, strategy in enumerate(strategies)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

        ranked = [
            (result.final_cost, result.circuit.canonical_key(), index)
            for index, result in enumerate(results)
            if result is not None
        ]
        assert ranked, "every racer returned a result or raised"
        _, _, win_index = min(ranked)
        winner = results[win_index]
        assert winner is not None

        perf = PerfRecorder()
        for result in results:
            if result is not None:
                perf.merge_counts(
                    {
                        key: value
                        for key, value in result.perf.items()
                        if isinstance(value, int)
                    }
                )
        perf.count("search.racers", len(self.racers))
        cancelled_racers = [
            name
            for name, result in zip(self.racers, results)
            if result is not None and result.cancelled
        ]
        if cancelled_racers:
            perf.count("search.cancelled_racers", len(cancelled_racers))

        return OptimizationResult(
            circuit=winner.circuit,
            initial_cost=winner.initial_cost,
            final_cost=winner.final_cost,
            iterations=sum(r.iterations for r in results if r is not None),
            circuits_explored=sum(
                r.circuits_explored for r in results if r is not None
            ),
            time_seconds=time.perf_counter() - start,
            timed_out=winner.timed_out,
            cost_trace=list(winner.cost_trace),
            perf=perf.snapshot(),
            cancelled=bool(stop_check is not None and stop_check()),
            metadata={
                "winner": self.racers[win_index],
                "search_workers": resolve_search_workers(self.workers),
                "early_cancel": self.early_cancel,
                "racers": [
                    {
                        "racer": name,
                        "final_cost": result.final_cost,
                        "iterations": result.iterations,
                        "circuits_explored": result.circuits_explored,
                        "cancelled": result.cancelled,
                        "timed_out": result.timed_out,
                    }
                    for name, result in zip(self.racers, results)
                    if result is not None
                ],
            },
        )


register_strategy("parallel-backtracking", ParallelBacktrackingStrategy)
register_strategy("portfolio", PortfolioStrategy)
