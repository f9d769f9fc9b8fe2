"""Micro-benchmarks pinning the hot-path speedups of the performance engine.

Two kinds of checks live here:

* **End-to-end speedups vs. the seed revision.**  The seed's wall-clock
  times for RepGen (n=3, q=3, Nam) and a quick-scale backtracking search
  were measured on the reference container and recorded in
  ``SEED_BASELINES``; the tests assert the current tree beats them by the
  required factors (>= 5x generation, >= 3x search).  On foreign hardware
  set ``REPRO_MICROBENCH=check`` to run in check-only mode, which records
  timings without asserting against the machine-specific baselines.

* **Machine-independent component ratios.**  Incremental vs. full-replay
  fingerprinting and vectorized vs. per-entry gate embedding are compared
  in-process, so these assertions hold on any machine.  The shared
  matching pass is compared with a per-rule loop the same way, and
  successor expansion through the match trie's memos with expansion
  without them, and expansion that leaves successors unbuilt with
  expansion that builds every one; their ratios are recorded and only the
  identity of the two sides' outputs is asserted.

Every run emits a machine-readable JSON file (default
``.benchmarks/micro_hotpaths.json``, override with
``REPRO_MICROBENCH_JSON``) so future PRs can track the perf trajectory.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarks_suite import benchmark_circuit
from repro.envconfig import env_microbench_check_only, env_microbench_json
from repro.generator import ECCCache, RepGen, prune_common_subcircuits, simplify_ecc_set
from repro.ir import dag as dag_module
from repro.ir.circuit import Circuit, Instruction
from repro.ir.gatesets import NAM
from repro.optimizer import BacktrackingOptimizer, transformations_from_ecc_set
from repro.optimizer.matcher import PatternMatcher, compile_match_trie
from repro.preprocess import preprocess
from repro.semantics.fingerprint import FingerprintContext
from repro.semantics.simulator import expand_to_qubits, instruction_unitary

# Wall-clock seconds measured at the seed commit on the reference container
# (see CHANGES.md for the measurement protocol).
SEED_BASELINES = {
    "repgen_n3_q3_seconds": 9.00,
    "search_tof3_seconds": 1.53,
}
REQUIRED_REPGEN_SPEEDUP = 5.0
REQUIRED_SEARCH_SPEEDUP = 3.0
# A warm .repro_cache/ hit must make a RepGen rerun essentially free.
REQUIRED_WARM_CACHE_SECONDS = 0.5

CHECK_ONLY = env_microbench_check_only()

_RESULTS: dict = {"seed_baselines": dict(SEED_BASELINES), "check_only": CHECK_ONLY}


def _json_path() -> Path:
    default = Path(__file__).resolve().parent.parent / ".benchmarks" / "micro_hotpaths.json"
    return Path(env_microbench_json(default=str(default)))


@pytest.fixture(scope="module", autouse=True)
def _emit_json():
    yield
    path = _json_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True))


@pytest.fixture(scope="module")
def nam_q3_n3_generation():
    """One timed RepGen (n=3, q=3) run shared by the generation and search
    benchmarks (the search needs its transformations anyway)."""
    generator = RepGen(NAM, num_qubits=3, num_params=2)
    start = time.perf_counter()
    result = generator.generate(3)
    elapsed = time.perf_counter() - start
    return result, elapsed


#: Paired rounds per ratio pin.
RATIO_ROUNDS = 5


@contextlib.contextmanager
def _gc_paused():
    """Time as ``timeit`` does: collect first, then keep the cyclic GC out
    of the timed calls, so a collection of objects other tests left alive
    is not charged to the code under test."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _paired_rounds(fast_round, slow_round):
    """``(fast seconds, slow seconds, slow/fast ratio)``, medians over
    :data:`RATIO_ROUNDS` back-to-back pairs of rounds, GC paused.

    Each round call sets up its round and returns the seconds it timed.
    A shared host can switch between a fast and a slow state, and a fast
    state can speed up a pure-Python side more than a numpy side, so the
    two sides' fastest rounds need not come from one state and their
    quotient reads low.  The two rounds of a pair run back to back and
    share a state, and the median drops a pair that straddles a switch.
    """
    pairs = []
    with _gc_paused():
        for _ in range(RATIO_ROUNDS):
            pairs.append((fast_round(), slow_round()))
    return (
        statistics.median(fast for fast, _ in pairs),
        statistics.median(slow for _, slow in pairs),
        statistics.median(slow / fast for fast, slow in pairs),
    )


def _best_elapsed(first_elapsed: float, remeasure, required_seconds: float) -> float:
    """Re-measure once when the first attempt misses the bar.

    Wall-clock on a loaded single-core container jitters by ~30%, which is
    comparable to the assertion margins; taking the better of two runs
    keeps the speedup assertions strict about *sustained* regressions
    without tripping on scheduler noise.  The common (passing) path stays a
    single measurement.
    """
    if CHECK_ONLY or first_elapsed <= required_seconds:
        return first_elapsed
    return min(first_elapsed, remeasure())


def test_repgen_speedup_vs_seed(nam_q3_n3_generation):
    result, elapsed = nam_q3_n3_generation

    def remeasure() -> float:
        start = time.perf_counter()
        RepGen(NAM, num_qubits=3, num_params=2).generate(3)
        return time.perf_counter() - start

    elapsed = _best_elapsed(
        elapsed,
        remeasure,
        SEED_BASELINES["repgen_n3_q3_seconds"] / REQUIRED_REPGEN_SPEEDUP,
    )
    speedup = SEED_BASELINES["repgen_n3_q3_seconds"] / elapsed
    _RESULTS["repgen_n3_q3"] = {
        "seconds": elapsed,
        "speedup_vs_seed": speedup,
        "circuits_considered": result.stats.circuits_considered,
        "num_eccs": result.stats.num_eccs,
        "perf": result.stats.perf,
    }
    # The algorithmic outputs must be unchanged from the seed revision.
    assert result.stats.circuits_considered == 4783
    assert result.stats.num_eccs == 562
    assert elapsed < 60.0
    if not CHECK_ONLY:
        assert speedup >= REQUIRED_REPGEN_SPEEDUP, (
            f"RepGen (n=3, q=3) took {elapsed:.2f}s — only "
            f"{speedup:.2f}x over the seed baseline "
            f"({SEED_BASELINES['repgen_n3_q3_seconds']:.2f}s); required "
            f">= {REQUIRED_REPGEN_SPEEDUP}x"
        )


def test_search_speedup_vs_seed(nam_q3_n3_generation):
    result, _ = nam_q3_n3_generation
    ecc_set = prune_common_subcircuits(simplify_ecc_set(result.ecc_set))
    transformations = transformations_from_ecc_set(ecc_set)
    circuit = preprocess(benchmark_circuit("tof_3"), "nam")

    optimizer = BacktrackingOptimizer(transformations)
    start = time.perf_counter()
    outcome = optimizer.optimize(circuit, max_iterations=15, timeout_seconds=60)
    elapsed = time.perf_counter() - start

    def remeasure() -> float:
        fresh = BacktrackingOptimizer(transformations)
        start = time.perf_counter()
        fresh.optimize(circuit, max_iterations=15, timeout_seconds=60)
        return time.perf_counter() - start

    elapsed = _best_elapsed(
        elapsed,
        remeasure,
        SEED_BASELINES["search_tof3_seconds"] / REQUIRED_SEARCH_SPEEDUP,
    )
    speedup = SEED_BASELINES["search_tof3_seconds"] / elapsed
    _RESULTS["search_tof3"] = {
        "seconds": elapsed,
        "speedup_vs_seed": speedup,
        "initial_cost": outcome.initial_cost,
        "final_cost": outcome.final_cost,
        "circuits_explored": outcome.circuits_explored,
        "perf": outcome.perf,
    }
    assert outcome.final_cost <= outcome.initial_cost
    assert elapsed < 60.0
    if not CHECK_ONLY:
        assert speedup >= REQUIRED_SEARCH_SPEEDUP, (
            f"search took {elapsed:.2f}s — only {speedup:.2f}x over the seed "
            f"baseline ({SEED_BASELINES['search_tof3_seconds']:.2f}s); "
            f"required >= {REQUIRED_SEARCH_SPEEDUP}x"
        )


def test_warm_cache_repgen_under_half_second(nam_q3_n3_generation, tmp_path):
    """A warm .repro_cache/ hit replaces generation with a JSON load."""
    from repro.api import GenerationConfig, clear_memory_caches, run_generation
    from repro.api.facade import _generation_key

    serial_result, _ = nam_q3_n3_generation
    generation = GenerationConfig(
        n=3, q=3, num_params=2, cache_dir=str(tmp_path / "cache"), cache_enabled=True
    )
    ECCCache(generation.cache_dir).store_generator_result(
        _generation_key("repgen", NAM, generation), serial_result
    )

    def warm_run():
        clear_memory_caches()  # the load path, not the in-process memo
        with _gc_paused():
            start = time.perf_counter()
            result = run_generation(NAM, generation)
            return result, time.perf_counter() - start

    warm, elapsed = warm_run()
    elapsed = _best_elapsed(
        elapsed, lambda: warm_run()[1], REQUIRED_WARM_CACHE_SECONDS
    )
    clear_memory_caches()
    _RESULTS["repgen_warm_cache_n3_q3"] = {
        "seconds": elapsed,
        "required_seconds": REQUIRED_WARM_CACHE_SECONDS,
    }
    assert warm.ecc_set.to_json() == serial_result.ecc_set.to_json()
    assert warm.stats.perf.get("cache.warm_hit") == 1
    if not CHECK_ONLY:
        assert elapsed < REQUIRED_WARM_CACHE_SECONDS, (
            f"warm-cache RepGen (n=3, q=3) took {elapsed:.2f}s; required "
            f"< {REQUIRED_WARM_CACHE_SECONDS}s"
        )


# ---------------------------------------------------------------------------
# Machine-independent component comparisons
# ---------------------------------------------------------------------------


def test_incremental_fingerprint_ratio():
    """Incremental fingerprints must beat full replay on deep parents."""
    num_qubits = 3
    parent = Circuit(num_qubits)
    for i in range(24):
        parent.h(i % num_qubits).cx(i % num_qubits, (i + 1) % num_qubits)
    instructions = [Instruction("t", (q,)) for q in range(num_qubits)] * 40
    keys: list = []
    full_keys: list = []

    def incremental_round() -> float:
        incremental = FingerprintContext(num_qubits, 0)
        incremental.evolved_state(parent)  # warm the parent state
        start = time.perf_counter()
        [round_keys] = incremental.hash_keys_batched([(parent, instructions)])
        elapsed = time.perf_counter() - start
        keys[:] = round_keys
        return elapsed

    def full_round() -> float:
        full = FingerprintContext(num_qubits, 0, state_cache_size=1)
        candidates = [parent.appended(inst) for inst in instructions]
        start = time.perf_counter()
        full_keys[:] = [full.hash_key(candidate) for candidate in candidates]
        return time.perf_counter() - start

    incremental_seconds, full_seconds, ratio = _paired_rounds(
        incremental_round, full_round
    )
    _RESULTS["fingerprint_incremental"] = {
        "incremental_seconds": incremental_seconds,
        "full_replay_seconds": full_seconds,
        "ratio": ratio,
    }
    assert keys == full_keys
    assert ratio >= 3.0, (
        f"incremental fingerprinting only {ratio:.2f}x faster than full replay"
    )


def _expand_to_qubits_reference(matrix, qubits, num_qubits):
    """The seed's per-entry embedding, kept as the comparison baseline."""
    num_targets = len(qubits)
    dim = 1 << num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    other_qubits = [q for q in range(num_qubits) if q not in qubits]
    num_other = len(other_qubits)
    for other_bits in range(1 << num_other):
        base_index = 0
        for position, qubit in enumerate(other_qubits):
            if (other_bits >> (num_other - 1 - position)) & 1:
                base_index |= 1 << (num_qubits - 1 - qubit)
        for row_bits in range(1 << num_targets):
            row_index = base_index
            for position, qubit in enumerate(qubits):
                if (row_bits >> (num_targets - 1 - position)) & 1:
                    row_index |= 1 << (num_qubits - 1 - qubit)
            for col_bits in range(1 << num_targets):
                value = matrix[row_bits, col_bits]
                if value == 0:
                    continue
                col_index = base_index
                for position, qubit in enumerate(qubits):
                    if (col_bits >> (num_targets - 1 - position)) & 1:
                        col_index |= 1 << (num_qubits - 1 - qubit)
                full[row_index, col_index] = value
    return full


def test_vectorized_embedding_matches_and_beats_reference():
    num_qubits = 6
    cases = [
        (instruction_unitary(Instruction("cx", (4, 1))), (4, 1)),
        (instruction_unitary(Instruction("h", (3,))), (3,)),
        (instruction_unitary(Instruction("ccx", (0, 2, 5))), (0, 2, 5)),
    ]
    for matrix, qubits in cases:
        np.testing.assert_array_equal(
            expand_to_qubits(matrix, qubits, num_qubits),
            _expand_to_qubits_reference(matrix, qubits, num_qubits),
        )

    repeats = 20

    def timed(embed):
        def timed_round() -> float:
            start = time.perf_counter()
            for _ in range(repeats):
                for matrix, qubits in cases:
                    embed(matrix, qubits, num_qubits)
            return time.perf_counter() - start

        return timed_round

    vectorized_seconds, reference_seconds, ratio = _paired_rounds(
        timed(expand_to_qubits), timed(_expand_to_qubits_reference)
    )
    _RESULTS["expand_to_qubits"] = {
        "vectorized_seconds": vectorized_seconds,
        "reference_seconds": reference_seconds,
        "ratio": ratio,
    }
    assert ratio >= 2.0, (
        f"vectorized embedding only {ratio:.2f}x faster than per-entry loop"
    )


def _contains_gates(counts, required):
    """Multiset containment of gate-name histograms: the check searches
    ran per rule before the shared pass said which sources matched."""
    return all(counts.get(name, 0) >= needed for name, needed in required.items())


@pytest.fixture(scope="module")
def mod5_4_popped(nam_q3_n3_generation):
    """The pruned Nam (3, 3) rules, the search's match cap and the 10
    circuits a 10-iteration backtracking search on ``mod5_4`` pops."""
    result, _ = nam_q3_n3_generation
    ecc_set = prune_common_subcircuits(simplify_ecc_set(result.ecc_set))
    transformations = transformations_from_ecc_set(ecc_set)
    optimizer = BacktrackingOptimizer(transformations)
    popped = []
    build = PatternMatcher.__init__

    def recording_init(self, circuit, *args, **kwargs):
        popped.append(circuit)
        build(self, circuit, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PatternMatcher, "__init__", recording_init)
        optimizer.optimize(
            preprocess(benchmark_circuit("mod5_4"), "nam"), max_iterations=10
        )
    assert len(popped) == 10
    return transformations, optimizer.max_matches_per_transformation, popped


def test_shared_match_pass_vs_per_rule_loop(mod5_4_popped):
    """One trie pass per circuit against one pass per source pattern.

    Both sides run the same traversal over the circuits a 10-iteration
    Nam (3, 3) ``mod5_4`` search pops: the shared side over the trie of
    every rule, the per-rule side over a one-pattern trie per distinct
    source whose gate multiset the circuit contains, with the search's
    cap.  Rounds alternate which side runs first.  The match tables must
    be identical; the timings and their ratio are recorded, not asserted.
    """
    transformations, cap, popped = mod5_4_popped
    trie = compile_match_trie(transformations)
    sources = {t.source_key: t for t in transformations}
    singles = [
        (sources[key].source.gate_counts(), compile_match_trie([sources[key]]))
        for key in trie.index
    ]
    matchers = [PatternMatcher(circuit) for circuit in popped]

    def shared():
        return [matcher.match_trie(trie, cap) for matcher in matchers]

    def per_rule():
        tables = []
        for matcher in matchers:
            counts = matcher.circuit.gate_counts()
            tables.append(
                [
                    matcher.match_trie(single, cap)[0]
                    if _contains_gates(counts, required)
                    else []
                    for required, single in singles
                ]
            )
        return tables

    sides = {"shared": shared, "per_rule": per_rule}
    seconds = dict.fromkeys(sides, 0.0)
    tables = {}
    rounds = 3
    for round_index in range(rounds):
        order = list(sides) if round_index % 2 == 0 else list(reversed(sides))
        for name in order:
            start = time.perf_counter()
            tables[name] = sides[name]()
            seconds[name] += time.perf_counter() - start

    def rows(table):
        return [
            [
                [(m.node_ids, list(m.qubit_map.items()), m.param_assignment) for m in found]
                for found in per_circuit
            ]
            for per_circuit in table
        ]

    assert rows(tables["shared"]) == rows(tables["per_rule"])
    matches = sum(len(found) for per_circuit in tables["shared"] for found in per_circuit)
    _RESULTS["match_shared_pass_mod5_4"] = {
        "circuits": len(popped),
        "rounds": rounds,
        "patterns": len(trie.patterns),
        "trie_nodes": len(trie.children) - 1,
        "matches_per_round": matches,
        "shared_seconds": seconds["shared"],
        "per_rule_seconds": seconds["per_rule"],
        "ratio_per_rule_over_shared": seconds["per_rule"] / seconds["shared"],
    }
    assert len(popped) == 10 and matches > 0


class _Forgetful(dict):
    """A memo that keeps nothing, so every lookup misses: each match is
    solved and each successor instantiated afresh.  ``stores`` counts the
    lookups."""

    stores = 0

    def __setitem__(self, key, value):
        self.stores += 1


def test_memoized_expansion_vs_memo_free(mod5_4_popped):
    """Successor expansion with the trie's memos against expansion without.

    Both sides expand the circuits a 10-iteration Nam (3, 3) ``mod5_4``
    search pops, with the search's cap.  The memoized side is today's
    loop: one trie per round, whose memos start empty and serve every
    circuit, and a visit of the rules whose source matched.  The memo-free
    side is the loop the memos replaced: a trie whose memos keep nothing,
    and a visit of every rule whose gate multiset the circuit contains.
    Rounds alternate which side runs first.  The successor lists must be
    identical; the timings, their ratio and the solve memo's hit rate are
    recorded, not asserted.
    """
    transformations, cap, popped = mod5_4_popped

    def memoized(trie):
        successors = []
        for circuit in popped:
            matcher = PatternMatcher(circuit, trie=trie)
            for transformation in matcher.matched_rules(cap):
                successors.extend(matcher.apply_all(transformation, cap))
        return successors

    def memo_free(trie):
        successors = []
        for circuit in popped:
            matcher = PatternMatcher(circuit, trie=trie)
            counts = circuit.gate_counts()
            for transformation in transformations:
                if _contains_gates(counts, transformation.source.gate_counts()):
                    successors.extend(matcher.apply_all(transformation, cap))
        return successors

    sides = {"memoized": memoized, "memo_free": memo_free}
    seconds = dict.fromkeys(sides, 0.0)
    outputs = {}
    tries = {}
    rounds = 3
    for round_index in range(rounds):
        tries["memoized"] = compile_match_trie(transformations)
        tries["memo_free"] = tries["memoized"]._replace(
            solutions=_Forgetful(), instantiations=_Forgetful()
        )
        order = list(sides) if round_index % 2 == 0 else list(reversed(sides))
        for name in order:
            start = time.perf_counter()
            outputs[name] = sides[name](tries[name])
            seconds[name] += time.perf_counter() - start

    def rows(successors):
        return [(tuple(s.instructions), s.wire_key()) for s in successors]

    assert rows(outputs["memoized"]) == rows(outputs["memo_free"])
    lookups = tries["memo_free"].solutions.stores
    solves = len(tries["memoized"].solutions)
    applies = tries["memo_free"].instantiations.stores
    instantiations = len(tries["memoized"].instantiations)
    _RESULTS["memoized_expansion_mod5_4"] = {
        "circuits": len(popped),
        "rounds": rounds,
        "successors_per_round": len(outputs["memoized"]),
        "memoized_seconds": seconds["memoized"],
        "memo_free_seconds": seconds["memo_free"],
        "ratio_memo_free_over_memoized": seconds["memo_free"] / seconds["memoized"],
        "solve_lookups_per_round": lookups,
        "solves_per_round": solves,
        "solve_hit_rate": 1 - solves / lookups,
        "applies_per_round": applies,
        "instantiations_per_round": instantiations,
    }
    assert outputs["memoized"] and 0 < solves < lookups


def test_lazy_successors_vs_forced(mod5_4_popped):
    """Successor expansion reading what a search reads, against the same
    loop forcing every successor's instruction list and gate histogram.

    Both sides expand the circuits a 10-iteration Nam (3, 3) ``mod5_4``
    search pops, with the search's cap and a fresh trie per side and
    round, and read each successor's wire key and gate count.  The forced
    side also reads ``instructions`` and ``gate_counts()``, the work splice
    did for every successor before it built them on first read.  Rounds
    alternate which side runs first.  The (wire key, gate count,
    instructions) sequences must be identical and the lazy side must build
    no list.  The timings, their ratio and the share of these successors
    the search itself builds are recorded, not asserted.
    """
    transformations, cap, popped = mod5_4_popped
    builds = [0]
    build = dag_module._spliced_instructions

    def counting_build(*args):
        builds[0] += 1
        return build(*args)

    def expand(force):
        trie = compile_match_trie(transformations)
        start = time.perf_counter()
        rows = []
        for circuit in popped:
            matcher = PatternMatcher(circuit, trie=trie)
            for transformation in matcher.matched_rules(cap):
                for successor in matcher.apply_all(transformation, cap):
                    if force:
                        successor.instructions
                        successor.gate_counts()
                    rows.append((successor.wire_key(), successor.gate_count, successor))
        return rows, time.perf_counter() - start

    seconds = {"lazy": 0.0, "forced": 0.0}
    outputs = {}
    rounds = 3
    for round_index in range(rounds):
        order = ["lazy", "forced"] if round_index % 2 == 0 else ["forced", "lazy"]
        for name in order:
            if name == "lazy":
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(dag_module, "_spliced_instructions", counting_build)
                    outputs[name], elapsed = expand(force=False)
            else:
                outputs[name], elapsed = expand(force=True)
            seconds[name] += elapsed
    lazy_builds = builds[0]

    def rows(output):
        return [
            (key, count, tuple(successor.instructions))
            for key, count, successor in output
        ]

    assert rows(outputs["lazy"]) == rows(outputs["forced"])
    assert lazy_builds == 0

    # The search these circuits come from splices these successors, less
    # the ones its cost gate skips, and builds the ones it pops.
    builds[0] = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dag_module, "_spliced_instructions", counting_build)
        BacktrackingOptimizer(transformations).optimize(popped[0], max_iterations=10)
    successors = len(outputs["lazy"])
    _RESULTS["lazy_successors_mod5_4"] = {
        "circuits": len(popped),
        "rounds": rounds,
        "successors_per_round": successors,
        "lazy_seconds": seconds["lazy"],
        "forced_seconds": seconds["forced"],
        "ratio_forced_over_lazy": seconds["forced"] / seconds["lazy"],
        "search_builds": builds[0],
        "search_built_fraction": builds[0] / successors,
    }
    assert successors and builds[0] == len(popped) - 1


def test_facade_end_to_end_timing(nam_q3_n3_generation):
    """One Superoptimizer.optimize run at the quick scale, recorded in the
    perf trajectory.

    The facade is a composition root over the same pipeline pieces, so its
    wall-clock must stay in the same regime as the hand-wired search above;
    its ECC output must be byte-identical to the shared generation fixture.
    """
    from repro.api import RunConfig, Superoptimizer, clear_memory_caches

    serial_result, _ = nam_q3_n3_generation
    clear_memory_caches()
    facade = Superoptimizer(
        RunConfig().with_overrides(
            gate_set="nam",
            n=3,
            q=3,
            num_params=2,
            cache_enabled=False,
            max_iterations=15,
            timeout_seconds=60,
        )
    )
    start = time.perf_counter()
    report = facade.optimize(benchmark_circuit("tof_3"))
    elapsed = time.perf_counter() - start
    _RESULTS["facade_tof3_end_to_end"] = {
        "seconds": elapsed,
        "stage_seconds": dict(report.stage_seconds),
        "final_cost": report.final_cost,
        "verified": report.verified,
        "num_transformations": report.num_transformations,
    }
    assert facade.generate().ecc_set.to_json() == serial_result.ecc_set.to_json()
    assert report.verified is True
    assert report.final_cost <= report.initial_cost
    assert elapsed < 120.0


def test_cached_gate_matrices_are_shared():
    """Constant and parametric gate matrices are memoized and read-only."""
    from fractions import Fraction

    from repro.ir.params import Angle

    a = instruction_unitary(Instruction("cx", (0, 1)))
    b = instruction_unitary(Instruction("cx", (0, 1)))
    assert a is b
    assert not a.flags.writeable

    quarter = Angle.pi(Fraction(1, 4))
    rz1 = instruction_unitary(Instruction("rz", (0,), [quarter]))
    rz2 = instruction_unitary(Instruction("rz", (0,), [quarter]))
    assert rz1 is rz2
