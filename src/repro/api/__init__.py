"""The public programmatic API: one facade over the whole pipeline.

Quickstart::

    from repro.api import Superoptimizer

    report = Superoptimizer(gate_set="nam", n=3, q=3).optimize(my_circuit)
    print(report.summary())
    optimized = report.circuit

Two seams sit underneath the facade:

* **search strategies** (:mod:`repro.optimizer.strategies`) —
  ``"backtracking"`` (Algorithm 2), ``"greedy"`` and ``"beam"``;
* **configuration** (:mod:`repro.api.config`) — frozen
  ``RunConfig``/``GenerationConfig``/``SearchConfig`` dataclasses with a
  single :meth:`RunConfig.from_env` path for the run's ``REPRO_*`` knobs
  and ``env < file < kwargs`` layering via :meth:`RunConfig.from_sources`.
"""

from repro.api.config import GenerationConfig, RunConfig, SearchConfig
from repro.api.facade import (
    GenerationOutcome,
    RunReport,
    Superoptimizer,
    build_ecc_set,
    clear_memory_caches,
    generate_ecc_set,
    run_generation,
)
from repro.optimizer.strategies import (
    SearchStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)

__all__ = [
    "GenerationConfig",
    "GenerationOutcome",
    "RunConfig",
    "RunReport",
    "SearchConfig",
    "SearchStrategy",
    "Superoptimizer",
    "available_strategies",
    "build_ecc_set",
    "clear_memory_caches",
    "generate_ecc_set",
    "get_strategy",
    "register_strategy",
    "run_generation",
]
