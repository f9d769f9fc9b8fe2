"""Shared machinery for the experiment harnesses — now facade-backed.

The experiment drivers predate the public API package; their entry points
(``build_ecc_set``, ``run_generator``, ``quartz_optimize``) are kept with
their original signatures but are thin wrappers over
:mod:`repro.api.facade`, which owns the in-memory memoization, the
persistent ``.repro_cache/`` store and the end-to-end pipeline.  New code
should use :class:`repro.api.Superoptimizer` directly.

Knobs (all also exposed by ``python -m repro.experiments.cli``):

* ``REPRO_CACHE_DIR`` — cache directory (default ``.repro_cache/``);
* ``REPRO_CACHE_DISABLE=1`` — ignore the disk cache entirely
  (``0``/``false`` keep it enabled).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.api import GenerationConfig, RunConfig, SearchConfig, Superoptimizer
from repro.api import facade as _facade
from repro.generator import GeneratorResult
from repro.generator.ecc import ECCSet
from repro.ir.circuit import Circuit
from repro.optimizer import OptimizationResult, Transformation, transformations_from_ecc_set


def clear_memory_caches() -> None:
    """Drop the in-process memoization (the disk cache is untouched)."""
    _facade.clear_memory_caches()


def _generation_config(
    n: int,
    q: int,
    *,
    use_disk_cache: bool = True,
    prune: bool = True,
    verbose: bool = False,
) -> GenerationConfig:
    return GenerationConfig(
        n=n,
        q=q,
        # None defers to the REPRO_CACHE_* environment at run time, which
        # is what these legacy entry points always did; False means
        # "neither read nor write" (the --no-cache path).
        cache_enabled=None if use_disk_cache else False,
        prune=prune,
        verbose=verbose,
    )


def build_ecc_set(
    gate_set_name: str,
    n: int,
    q: int,
    *,
    prune: bool = True,
    use_disk_cache: bool = True,
    verbose: bool = False,
) -> ECCSet:
    """Generate (or load from cache) the pruned (n, q)-complete ECC set."""
    return _facade.build_ecc_set(
        gate_set_name,
        _generation_config(
            n,
            q,
            use_disk_cache=use_disk_cache,
            prune=prune,
            verbose=verbose,
        ),
    )


def run_generator(
    gate_set_name: str,
    n: int,
    q: int,
    *,
    verbose: bool = False,
    use_disk_cache: bool = True,
) -> GeneratorResult:
    """Run RepGen (memoized in memory and on disk) and return the result."""
    return _facade.run_generation(
        gate_set_name,
        _generation_config(
            n,
            q,
            use_disk_cache=use_disk_cache,
            verbose=verbose,
        ),
    )


def build_transformations(gate_set_name: str, n: int, q: int) -> List[Transformation]:
    """Transformations of the pruned (n, q)-complete ECC set."""
    return transformations_from_ecc_set(build_ecc_set(gate_set_name, n, q))


def quartz_optimize(
    circuit: Circuit,
    gate_set_name: str,
    *,
    n: int,
    q: int,
    gamma: float = 1.0001,
    max_iterations: Optional[int] = 30,
    timeout_seconds: Optional[float] = 20.0,
    strategy: str = "backtracking",
) -> Tuple[Circuit, Circuit, OptimizationResult]:
    """The Quartz end-to-end flow: preprocess then search.

    Returns (preprocessed circuit, optimized circuit, search result) so the
    gate-count tables can report both the "Quartz Preprocess" and the
    "Quartz End-to-end" columns.  ``strategy`` selects the search variant.
    """
    optimizer = Superoptimizer(
        RunConfig(
            gate_set=gate_set_name,
            # The pre-facade pipeline never verified the search output, and
            # the table drivers discard the flag; keep this legacy wrapper
            # cost-identical.
            verify_output=False,
            generation=GenerationConfig(n=n, q=q),
            search=SearchConfig(
                strategy=strategy,
                gamma=gamma,
                max_iterations=max_iterations,
                timeout_seconds=timeout_seconds,
            ),
        )
    )
    report = optimizer.optimize(circuit)
    return report.preprocessed_circuit, report.circuit, report.search_result
