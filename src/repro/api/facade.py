"""The :class:`Superoptimizer` facade: one object, the whole pipeline.

``Superoptimizer(config).optimize(circuit_or_qasm)`` runs the paper's full
flow — preprocess → (cached) ECC generation → transformation extraction →
cost-based search → final verification — and returns a :class:`RunReport`
carrying the result circuit together with per-stage timings, merged perf
counters and cache provenance.

The facade is a composition root, not a re-implementation: every stage is
the same library code the hand-wired pipeline uses (``RepGen``,
``transformations_from_ecc_set``, the strategy registry, the preprocessor),
so its outputs are byte-identical to wiring the stages manually — the
acceptance tests assert exactly that on ``ECCSet.to_json``.

Generation results are memoized in-process and persisted through the
content-hash-keyed ``.repro_cache/`` store under one identity, the
:class:`~repro.generator.cache.CacheKey` (gate-set name and gate list, n,
q, m, seed), so constructing many facades for the same configuration pays
for generation once.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api.config import GenerationConfig, RunConfig
from repro.envconfig import env_cache_dir, env_cache_enabled, env_resume
from repro.generator.cache import CacheKey, ECCCache, cache_key
from repro.generator.ecc import ECCSet
from repro.generator.pruning import prune_common_subcircuits, simplify_ecc_set
from repro.generator.repgen import GeneratorResult, GeneratorStats, RepGen
from repro.ir.circuit import Circuit
from repro.ir.gatesets import GateSet, get_gate_set
from repro.ir.qasm import parse_qasm, read_qasm, to_qasm
from repro.optimizer.cost import CostModel
from repro.optimizer.search import OptimizationResult
from repro.optimizer.strategies import SearchStrategy, get_strategy
from repro.optimizer.xfer import Transformation, transformations_from_ecc_set
from repro.perf import PerfRecorder
from repro.preprocess import SUPPORTED_GATE_SETS as PREPROCESS_GATE_SETS
from repro.preprocess import preprocess as run_preprocess
from repro.semantics.simulator import circuits_equivalent_statevector_batched

_UNSET = object()

#: Output verification allocates full 2^q statevectors; above this qubit
#: count it is skipped (``RunReport.verified`` stays ``None``) so wide
#: benchmark circuits do not pay — or fail — a dense-vector check the
#: search itself never needed.
VERIFY_MAX_QUBITS = 20

#: Version tag of the :meth:`RunReport.to_json` schema.  Bump on any field
#: addition/removal/rename so consumers (the service's job responses, the
#: CLI ``--json`` output) can reject payloads they do not understand.
REPORT_SCHEMA_VERSION = 1

# In-process memoization of generation outputs, shared by every facade and
# by the experiment harnesses, keyed by the same CacheKey as the disk cache.
_RESULT_MEMO: Dict[CacheKey, GeneratorResult] = {}
_PRUNED_MEMO: Dict[CacheKey, ECCSet] = {}


def clear_memory_caches() -> None:
    """Drop the in-process generation memo (the disk cache is untouched)."""
    _RESULT_MEMO.clear()
    _PRUNED_MEMO.clear()


def _resolve_gate_set(gate_set: Union[str, GateSet]) -> GateSet:
    return gate_set if isinstance(gate_set, GateSet) else get_gate_set(gate_set)


def _generation_key(
    kind: str, gate_set: GateSet, generation: GenerationConfig
) -> CacheKey:
    """The cache key of a configuration's ``kind`` artifact.

    Both the disk cache and the in-process memos key by it, so two gate
    sets that share a name but not a gate list never share an entry.
    """
    m = (
        generation.num_params
        if generation.num_params is not None
        else gate_set.num_params
    )
    return cache_key(kind, gate_set, generation.n, generation.q, m, generation.seed)


def _result_source(result: GeneratorResult, memoized: bool) -> str:
    """Where a ``run_generation`` return actually came from."""
    if memoized:
        return "memo"
    if result.stats.perf.get("cache.warm_hit"):
        return "disk"
    return "generated"


@dataclass
class GenerationOutcome:
    """An ECC set plus where it came from (for provenance reporting)."""

    ecc_set: ECCSet
    stats: Optional[GeneratorStats]
    source: str  # "memo" | "disk" | "generated"


def run_generation(
    gate_set: Union[str, GateSet],
    generation: Optional[GenerationConfig] = None,
) -> GeneratorResult:
    """Run RepGen (memoized in memory and on disk) for a configuration."""
    gate_set = _resolve_gate_set(gate_set)
    generation = generation or GenerationConfig()
    key = _generation_key("repgen", gate_set, generation)
    cached = _RESULT_MEMO.get(key)
    if cached is not None:
        return cached
    generator = RepGen(
        gate_set,
        num_qubits=generation.q,
        num_params=generation.num_params,
        seed=generation.seed,
        resume=generation.resume,
    )
    disk_cache = ECCCache(
        generation.cache_dir,
        enabled=generation.cache_enabled,
        perf=generator.perf,
    )
    result = generator.generate(
        generation.n, verbose=generation.verbose, cache=disk_cache
    )
    _RESULT_MEMO[key] = result
    return result


def generate_ecc_set(
    gate_set: Union[str, GateSet],
    generation: Optional[GenerationConfig] = None,
) -> GenerationOutcome:
    """The (optionally pruned) ECC set for a configuration, with provenance."""
    gate_set = _resolve_gate_set(gate_set)
    generation = generation or GenerationConfig()
    result_key = _generation_key("repgen", gate_set, generation)
    if not generation.prune:
        memoized_result = result_key in _RESULT_MEMO
        result = run_generation(gate_set, generation)
        source = _result_source(result, memoized_result)
        return GenerationOutcome(result.ecc_set, result.stats, source)

    key = _generation_key("pruned", gate_set, generation)
    memoized = _PRUNED_MEMO.get(key)
    if memoized is not None:
        return GenerationOutcome(memoized, None, "memo")

    disk_cache = ECCCache(generation.cache_dir, enabled=generation.cache_enabled)
    cached = disk_cache.load_ecc_set(key)
    if cached is not None:
        _PRUNED_MEMO[key] = cached
        return GenerationOutcome(cached, None, "disk")

    memoized_result = result_key in _RESULT_MEMO
    result = run_generation(gate_set, generation)
    source = _result_source(result, memoized_result)
    ecc_set = prune_common_subcircuits(simplify_ecc_set(result.ecc_set))
    disk_cache.store_ecc_set(key, ecc_set)
    _PRUNED_MEMO[key] = ecc_set
    return GenerationOutcome(ecc_set, result.stats, source)


def build_ecc_set(
    gate_set: Union[str, GateSet],
    generation: Optional[GenerationConfig] = None,
) -> ECCSet:
    """Convenience wrapper returning just the ECC set."""
    return generate_ecc_set(gate_set, generation).ecc_set


@dataclass
class RunReport:
    """Everything one :meth:`Superoptimizer.optimize` run produced.

    ``stage_seconds`` has one entry per pipeline stage (``parse``,
    ``preprocess``, ``generate``, ``extract``, ``search``, ``verify``) plus
    ``total``; ``perf`` merges the hot-path counters of every stage;
    ``provenance`` records which strategy and cache actually served the
    run.

    ``ecc_set``/``generator_stats``/``config`` are ``None`` on reports
    reconstructed by :meth:`from_json`: the JSON schema is a *summary* —
    it carries the circuits (as QASM), every scalar statistic and the
    provenance, but not the heavy generation artifacts.
    """

    circuit: Circuit
    input_circuit: Circuit
    preprocessed_circuit: Circuit
    initial_cost: float
    final_cost: float
    search_result: OptimizationResult
    ecc_set: Optional[ECCSet]
    num_transformations: int
    generator_stats: Optional[GeneratorStats]
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    perf: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    verified: Optional[bool] = None
    config: Optional[RunConfig] = None

    @property
    def reduction(self) -> float:
        """Fractional cost reduction relative to the search input."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost

    @property
    def timed_out(self) -> bool:
        return self.search_result.timed_out

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (circuits reported as gate counts)."""
        return {
            "input_gates": self.input_circuit.gate_count,
            "preprocessed_gates": self.preprocessed_circuit.gate_count,
            "optimized_gates": self.circuit.gate_count,
            "initial_cost": self.initial_cost,
            "final_cost": self.final_cost,
            "reduction": self.reduction,
            "iterations": self.search_result.iterations,
            "circuits_explored": self.search_result.circuits_explored,
            "timed_out": self.timed_out,
            "num_transformations": self.num_transformations,
            "verified": self.verified,
            "stage_seconds": dict(self.stage_seconds),
            "provenance": dict(self.provenance),
            "perf": dict(self.perf),
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """The stable, versioned JSON schema of this report.

        Unlike :meth:`as_dict` (a loose summary for logs), this schema is a
        contract: circuits are carried as QASM so a report can be
        reconstructed by :meth:`from_json`, and
        ``to_json(from_json(to_json(r))) == to_json(r)`` holds byte-for-byte.
        """
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "circuits": {
                "input_qasm": to_qasm(self.input_circuit),
                "preprocessed_qasm": to_qasm(self.preprocessed_circuit),
                "optimized_qasm": to_qasm(self.circuit),
                "input_gates": self.input_circuit.gate_count,
                "preprocessed_gates": self.preprocessed_circuit.gate_count,
                "optimized_gates": self.circuit.gate_count,
            },
            "costs": {
                "initial": self.initial_cost,
                "final": self.final_cost,
                "reduction": self.reduction,
            },
            "search": {
                "iterations": self.search_result.iterations,
                "circuits_explored": self.search_result.circuits_explored,
                "time_seconds": self.search_result.time_seconds,
                "timed_out": self.timed_out,
            },
            "num_transformations": self.num_transformations,
            "verified": self.verified,
            "stage_seconds": dict(self.stage_seconds),
            "perf": dict(self.perf),
            "provenance": dict(self.provenance),
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """:meth:`to_json_dict` serialized with sorted keys (stable bytes)."""
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: Union[str, Dict[str, Any]]) -> "RunReport":
        """Reconstruct a report from :meth:`to_json` output.

        The heavy generation artifacts (``ecc_set``, ``generator_stats``,
        ``config``) are not part of the schema and come back ``None``; the
        search's ``cost_trace`` samples likewise.  Everything serialized is
        restored exactly (see the round-trip guarantee on
        :meth:`to_json_dict`).
        """
        data: Dict[str, Any] = (
            json.loads(payload) if isinstance(payload, str) else dict(payload)
        )
        schema = data.get("schema")
        if schema != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunReport schema {schema!r} "
                f"(this library reads version {REPORT_SCHEMA_VERSION})"
            )
        circuits = data["circuits"]
        costs = data["costs"]
        search = data["search"]
        optimized = parse_qasm(circuits["optimized_qasm"])
        search_result = OptimizationResult(
            circuit=optimized,
            initial_cost=costs["initial"],
            final_cost=costs["final"],
            iterations=search["iterations"],
            circuits_explored=search["circuits_explored"],
            time_seconds=search["time_seconds"],
            timed_out=search["timed_out"],
        )
        return cls(
            circuit=optimized,
            input_circuit=parse_qasm(circuits["input_qasm"]),
            preprocessed_circuit=parse_qasm(circuits["preprocessed_qasm"]),
            initial_cost=costs["initial"],
            final_cost=costs["final"],
            search_result=search_result,
            ecc_set=None,
            num_transformations=data["num_transformations"],
            generator_stats=None,
            stage_seconds=dict(data["stage_seconds"]),
            perf=dict(data["perf"]),
            provenance=dict(data["provenance"]),
            verified=data["verified"],
            config=None,
        )

    def summary(self) -> str:
        """One human-readable line per interesting fact."""
        p = self.provenance
        lines = [
            f"gate count {self.input_circuit.gate_count} -> "
            f"{self.preprocessed_circuit.gate_count} (preprocess) -> "
            f"{self.circuit.gate_count} (search)",
            f"strategy {p.get('strategy')!r}: "
            f"{self.search_result.iterations} iterations, "
            f"{self.search_result.circuits_explored} circuits explored"
            + (", timed out" if self.timed_out else ""),
            f"transformations: {self.num_transformations} "
            f"(generation source: {p.get('generation_source')})",
            "stages: "
            + ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in self.stage_seconds.items()
            ),
        ]
        if self.verified is not None:
            lines.append(
                "output verification: " + ("OK" if self.verified else "FAILED")
            )
        return "\n".join(lines)


class Superoptimizer:
    """The public entry point composing the whole pipeline.

    Typical use::

        from repro.api import Superoptimizer

        report = Superoptimizer(gate_set="nam", n=3, q=3).optimize(circuit)
        print(report.summary())

    The constructor accepts a :class:`RunConfig`, keyword overrides (flat
    nested fields are routed automatically, see
    :meth:`RunConfig.with_overrides`), or both.  When no config is given
    the environment knobs are snapshotted via :meth:`RunConfig.from_env`.
    """

    def __init__(self, config: Optional[RunConfig] = None, **overrides: Any) -> None:
        if config is None:
            config = RunConfig.from_env()
        elif not isinstance(config, RunConfig):
            raise TypeError(
                f"config must be a RunConfig, got {type(config).__name__}; "
                "pass field overrides as keyword arguments"
            )
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        # Fail fast on unknown names: build the strategy once (it is
        # reusable across optimize() calls).
        self._strategy: SearchStrategy = get_strategy(
            config.search.strategy, **config.search.options_for()
        )
        self._transformations: Optional[List[Transformation]] = None
        self._generation_outcome: Optional[GenerationOutcome] = None

    # -- pipeline pieces (reusable on their own) ------------------------------

    def generate(self) -> GeneratorResult:
        """The raw (unpruned) RepGen result for this configuration."""
        return run_generation(self.config.gate_set, self.config.generation)

    def ecc_set(self) -> ECCSet:
        """The (pruned, unless configured otherwise) ECC set."""
        return self._generation().ecc_set

    def transformations(self) -> List[Transformation]:
        """The rewrite rules the search runs over (cached on the facade)."""
        if self._transformations is None:
            self._transformations = transformations_from_ecc_set(self.ecc_set())
        return self._transformations

    def verify(self, circuit_a: Circuit, circuit_b: Circuit) -> bool:
        """Random-state equivalence screen of an output against its input.

        The trials share one seeded parameter draw and ride
        ``apply_circuit_batch`` as a single state stack; the verdict agrees
        with the per-trial reference screen (``tests/test_backends.py``).
        """
        return circuits_equivalent_statevector_batched(circuit_a, circuit_b)

    def _generation(self) -> GenerationOutcome:
        if self._generation_outcome is None:
            self._generation_outcome = generate_ecc_set(
                self.config.gate_set, self.config.generation
            )
        return self._generation_outcome

    # -- the end-to-end run ---------------------------------------------------

    def optimize(
        self,
        circuit_or_qasm: Union[Circuit, str, os.PathLike],
        *,
        max_iterations: Any = _UNSET,
        timeout_seconds: Any = _UNSET,
        cost_model: Optional[CostModel] = None,
    ) -> RunReport:
        """Run preprocess → generate → extract → search → verify.

        ``max_iterations`` / ``timeout_seconds`` override the
        :class:`SearchConfig` budgets for this run only.
        """
        config = self.config
        stage_seconds: Dict[str, float] = {}
        total_start = time.perf_counter()

        def _stage(name: str, start: float) -> None:
            stage_seconds[name] = time.perf_counter() - start

        start = time.perf_counter()
        input_circuit = _coerce_circuit(circuit_or_qasm)
        _stage("parse", start)

        start = time.perf_counter()
        # The Nam et al. preprocessing passes only target the paper's three
        # gate sets (the authority is repro.preprocess.SUPPORTED_GATE_SETS).
        # User-defined GateSet objects go straight to the search; a *named*
        # gate set outside that list is a misconfiguration, reported exactly
        # as the preprocessor itself would.
        preprocess_supported = (
            config.gate_set_name.lower() in PREPROCESS_GATE_SETS
        )
        if config.preprocess and preprocess_supported:
            preprocessed = run_preprocess(input_circuit, config.gate_set_name)
        elif config.preprocess and not isinstance(config.gate_set, GateSet):
            raise ValueError(
                f"preprocessing does not support gate set "
                f"{config.gate_set_name!r} (supported: "
                f"{', '.join(PREPROCESS_GATE_SETS)}); pass preprocess=False "
                "to search without preprocessing"
            )
        else:
            preprocessed = input_circuit
        _stage("preprocess", start)

        start = time.perf_counter()
        outcome = self._generation()
        _stage("generate", start)

        start = time.perf_counter()
        transformations = self.transformations()
        _stage("extract", start)

        start = time.perf_counter()
        search = config.search
        result = self._strategy.run(
            preprocessed,
            transformations,
            cost_model,
            timeout_seconds=(
                search.timeout_seconds if timeout_seconds is _UNSET else timeout_seconds
            ),
            max_iterations=(
                search.max_iterations if max_iterations is _UNSET else max_iterations
            ),
        )
        _stage("search", start)

        start = time.perf_counter()
        verified: Optional[bool] = None
        if (
            config.verify_output
            and input_circuit.num_qubits <= VERIFY_MAX_QUBITS
        ):
            verified = self.verify(input_circuit, result.circuit)
        _stage("verify", start)
        stage_seconds["total"] = time.perf_counter() - total_start

        merged = PerfRecorder()
        if outcome.stats is not None:
            merged.merge_counts(
                {k: v for k, v in outcome.stats.perf.items() if isinstance(v, int)}
            )
        merged.merge_counts(
            {k: v for k, v in result.perf.items() if isinstance(v, int)}
        )

        generation = config.generation
        provenance: Dict[str, Any] = {
            "gate_set": config.gate_set_name,
            "strategy": self._strategy.name,
            "n": generation.n,
            "q": generation.q,
            "seed": generation.seed,
            "cache_dir": str(
                generation.cache_dir
                if generation.cache_dir is not None
                else env_cache_dir()
            ),
            "cache_enabled": (
                generation.cache_enabled
                if generation.cache_enabled is not None
                else env_cache_enabled()
            ),
            "preprocessed": bool(config.preprocess and preprocess_supported),
            "generation_source": outcome.source,
            "cache_warm_hit": bool(
                outcome.source == "disk"
                or (outcome.stats is not None
                    and outcome.stats.perf.get("cache.warm_hit"))
            ),
            # Resume as resolved for this run, plus every resilience.*
            # counter the run recorded (empty when nothing happened):
            # checkpoint writes, resumes, resumed rounds, ...
            "resume": (
                generation.resume if generation.resume is not None else env_resume()
            ),
            "resilience": {
                key[len("resilience.") :]: value
                for key, value in merged.snapshot().items()
                if key.startswith("resilience.")
            },
        }

        return RunReport(
            circuit=result.circuit,
            input_circuit=input_circuit,
            preprocessed_circuit=preprocessed,
            initial_cost=result.initial_cost,
            final_cost=result.final_cost,
            search_result=result,
            ecc_set=outcome.ecc_set,
            num_transformations=len(transformations),
            generator_stats=outcome.stats,
            stage_seconds=stage_seconds,
            perf=merged.snapshot(),
            provenance=provenance,
            verified=verified,
            config=config,
        )


def _coerce_circuit(value: Union[Circuit, str, os.PathLike]) -> Circuit:
    """Accept a :class:`Circuit`, QASM text, or a path to a ``.qasm`` file."""
    if isinstance(value, Circuit):
        return value
    if isinstance(value, os.PathLike):
        return read_qasm(os.fspath(value))
    if isinstance(value, str):
        stripped = value.lstrip()
        if "\n" in value or stripped.lower().startswith("openqasm"):
            return parse_qasm(value)
        if Path(value).exists():
            return read_qasm(value)
        raise ValueError(
            f"cannot interpret {value!r} as a circuit: not QASM text and "
            "no such file exists"
        )
    raise TypeError(
        f"expected a Circuit, QASM string or path, got {type(value).__name__}"
    )
