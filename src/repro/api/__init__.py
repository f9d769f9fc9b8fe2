"""The public programmatic API: one facade over the whole pipeline.

Quickstart::

    from repro.api import Superoptimizer

    report = Superoptimizer(gate_set="nam", n=3, q=3).optimize(my_circuit)
    print(report.summary())
    optimized = report.circuit

The facade is configured by one :class:`RunConfig`
(:mod:`repro.api.config`): frozen ``RunConfig``/``GenerationConfig``/
``SearchConfig`` dataclasses.  ``RunConfig()`` is pure defaults, and
:meth:`RunConfig.from_env` is the single path for the run's ``REPRO_*``
knobs, with keyword overrides winning over its snapshot; a facade built
without a config takes that snapshot.  ``SearchConfig.strategy`` names one of
the three built-in searches of :mod:`repro.optimizer.strategies`:
``"backtracking"`` (Algorithm 2), ``"greedy"`` and ``"beam"``.
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

__all__ = [
    "GenerationConfig",
    "GenerationOutcome",
    "RunConfig",
    "RunReport",
    "SearchConfig",
    "Superoptimizer",
    "build_ecc_set",
    "clear_memory_caches",
    "generate_ecc_set",
    "run_generation",
]
