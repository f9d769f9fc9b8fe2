"""Spans around calls into each ``repro`` layer, installed from outside ``src/``.

:func:`install` replaces a fixed list of public functions and methods with
wrappers that record a span per call: name, start, end, the enclosing span
and the current operation id (one per pass, circuit or request).  Spans
stay in memory and :meth:`Tracer.dump` writes them out when the run ends.
Per (operation, span name) the tracer also keeps call counts, inclusive
seconds and self seconds (inclusive minus the time covered by child
spans), so the workloads can report per-layer numbers without a second
pass over the span list.  :func:`uninstall` puts the originals back, which
is how a traced run also measures untraced passes for the overhead figure.

Each thread records into its own state, so the wrappers take no lock; no
target calls another target of the same name, so inclusive times never
count a span twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept per thread for the dump; past this only the aggregates grow,
#: so a long run cannot exhaust memory.  The dump records how many were
#: dropped.
MAX_SPANS = 1_000_000

# (module, attribute path, span name).  Functions that other modules import
# by name are patched where they are looked up at call time, too.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.generator.repgen", "RepGen.generate", "generator.generate"),
    ("repro.generator.cache", "ECCCache.store_generator_result", "generator.cache_store"),
    ("repro.generator.cache", "ECCCache.store_ecc_set", "generator.cache_store"),
    ("repro.generator.cache", "ECCCache.load_generator_result", "generator.cache_load"),
    ("repro.generator.cache", "ECCCache.load_ecc_set", "generator.cache_load"),
    ("repro.semantics.fingerprint", "FingerprintContext.hash_keys_batched", "semantics.fingerprint"),
    ("repro.semantics.fingerprint", "FingerprintContext.hash_key", "semantics.fingerprint"),
    ("repro.semantics.phase", "find_phase_candidates", "semantics.phase_screen"),
    ("repro.verifier.equivalence", "find_phase_candidates", "semantics.phase_screen"),
    ("repro.verifier.equivalence", "EquivalenceVerifier.verify", "verifier.verify"),
    ("repro.linalg.symmatrix", "SymMatrix.__matmul__", "linalg.matmul"),
    ("repro.linalg.symmatrix", "SymMatrix.equals_scaled", "linalg.equals_scaled"),
    ("repro.optimizer.xfer", "transformations_from_ecc_set", "optimizer.extract"),
    ("repro.api.facade", "transformations_from_ecc_set", "optimizer.extract"),
    ("repro.optimizer.strategies", "BacktrackingStrategy.run", "optimizer.search"),
    ("repro.optimizer.matcher", "PatternMatcher.apply_all", "optimizer.match"),
    ("repro.optimizer.cost", "GateCountCost.cost", "optimizer.cost"),
    ("repro.ir.circuit", "Circuit.canonical_key", "ir.canonical_key"),
    ("repro.preprocess.pipeline", "preprocess", "preprocess.preprocess"),
    ("repro.api.facade", "run_preprocess", "preprocess.preprocess"),
    ("repro.api.facade", "Superoptimizer.optimize", "api.optimize"),
    ("repro.api.facade", "Superoptimizer.verify", "api.verify"),
)


class _ThreadState:
    """What one thread has recorded."""

    __slots__ = ("op", "stack", "spans", "dropped", "totals", "counts")

    def __init__(self, op: str) -> None:
        self.op = op
        self.stack: List[List[Any]] = []  # [span id, seconds covered by children]
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self.counts: Dict[Tuple[str, str], float] = {}

    def add(self, counter: str, value: float) -> None:
        key = (self.op, counter)
        self.counts[key] = self.counts.get(key, 0) + value


def _observe_generate(state: _ThreadState, result: Any) -> None:
    stats = result.stats
    if stats.perf.get("cache.warm_hit"):
        return  # a disk-cache load, not a generation
    state.add("generator.candidates", stats.circuits_considered)
    state.add("generator.eccs", stats.num_eccs)


def _observe_verify(state: _ThreadState, result: Any) -> None:
    if result.equivalent and result.method == "symbolic":
        state.add("verifier.proved", 1)


def _observe_match(state: _ThreadState, result: Any) -> None:
    state.add("optimizer.successors", len(result))


def _observe_search(state: _ThreadState, result: Any) -> None:
    state.add("optimizer.iterations", result.iterations)
    state.add("optimizer.explored", result.circuits_explored)
    state.add("optimizer.seen_rejects", result.perf.get("search.seen_rejects", 0))


OBSERVERS: Dict[str, Callable[[_ThreadState, Any], None]] = {
    "generator.generate": _observe_generate,
    "verifier.verify": _observe_verify,
    "optimizer.match": _observe_match,
    "optimizer.search": _observe_search,
}


class Tracer:
    """Span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.default_op = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[Tuple[int, _ThreadState]] = []
        self._ids = itertools.count(1)
        self._names: Dict[str, int] = {}
        #: (op, name) -> [calls, inclusive seconds, self seconds]; filled by
        #: :meth:`collect`.
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        #: (op, counter) -> value, for counts observed in return values.
        self.counts: Dict[Tuple[str, str], float] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(self.default_op)
            with self._lock:
                self._states.append((threading.get_ident(), state))
        return state

    def set_op(self, op: str) -> None:
        """Attribute this thread's next spans to operation ``op``."""
        self._state().op = op

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        observe = OBSERVERS.get(name)
        name_id = self._names.setdefault(name, len(self._names))
        clock = time.perf_counter
        ids = self._ids
        thread_state = self._state

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = thread_state()
            stack = state.stack
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                key = (state.op, name)
                entry = state.totals.get(key)
                if entry is None:
                    entry = state.totals[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if len(state.spans) < MAX_SPANS:
                    state.spans.append((frame[0], parent, name_id, state.op, start, end))
                else:
                    state.dropped += 1
            if observe is not None:
                observe(state, result)
            return result

        return traced

    # -- aggregation ----------------------------------------------------------

    def collect(self) -> "Tracer":
        """Merge every thread's aggregates into :attr:`totals`/:attr:`counts`."""
        totals: Dict[Tuple[str, str], List[float]] = {}
        counts: Dict[Tuple[str, str], float] = {}
        with self._lock:
            states = [state for _, state in self._states]
        for state in states:
            for key, (calls, inclusive, own) in list(state.totals.items()):
                entry = totals.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += own
            for key, value in list(state.counts.items()):
                counts[key] = counts.get(key, 0) + value
        self.totals, self.counts = totals, counts
        return self

    def calls(self, ops: List[str], name: str) -> float:
        return sum(self.totals.get((op, name), (0, 0.0, 0.0))[0] for op in ops)

    def seconds(self, ops: List[str], name: str) -> float:
        return sum(self.totals.get((op, name), (0, 0.0, 0.0))[1] for op in ops)

    def self_seconds(self, ops: List[str], name: str) -> float:
        return sum(self.totals.get((op, name), (0, 0.0, 0.0))[2] for op in ops)

    def count(self, ops: List[str], counter: str) -> float:
        return sum(self.counts.get((op, counter), 0) for op in ops)

    # -- output ---------------------------------------------------------------

    def dump(self, path: Path, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write every kept span as gzipped JSON lines (header line first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = {index: name for name, index in self._names.items()}
        with self._lock:
            states = list(self._states)
        header = {
            "meta": meta or {},
            "fields": ["id", "parent", "name", "op", "start", "end", "thread"],
            "spans": sum(len(state.spans) for _, state in states),
            "dropped": sum(state.dropped for _, state in states),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(header) + "\n")
            for thread, state in states:
                for span_id, parent, name_id, op, start, end in state.spans:
                    handle.write(
                        json.dumps([span_id, parent, names[name_id], op, start, end, thread])
                        + "\n"
                    )


def _resolve(module_name: str, attr_path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Wrap every target; returns the originals for :func:`uninstall`."""
    originals: List[Tuple[Any, str, Any]] = []
    for module_name, attr_path, name in TARGETS:
        owner, attr = _resolve(module_name, attr_path)
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))
    return originals


def uninstall(originals: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)
