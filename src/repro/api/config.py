"""Frozen configuration objects for the public API.

Three layers, composed into one :class:`RunConfig`:

* :class:`GenerationConfig` — the RepGen scale (n, q), seed, pruning and
  persistent-cache knobs;
* :class:`SearchConfig`     — which of the three :mod:`search strategies
  <repro.optimizer.strategies>` runs, its tuning (gamma, queue bounds,
  beam width) and its budgets;
* :class:`RunConfig`        — gate set, preprocessing and
  output-verification toggles, plus the two layers above.

All three are frozen dataclasses: a config never mutates after
construction, so a :class:`~repro.api.facade.Superoptimizer` can be shared
freely.  Derived configs are built with :meth:`RunConfig.with_overrides`,
which also accepts the nested fields flat (``cfg.with_overrides(n=2,
strategy="beam")``) since no field name is ambiguous.

Precedence: ``RunConfig()`` is pure defaults, whatever the environment
holds; :meth:`RunConfig.from_env` snapshots the run's ``REPRO_*`` knobs
(the single place the public API reads them — parsing itself lives in
:mod:`repro.envconfig`), and keyword overrides win over that snapshot.
Knobs of the optimization service's worker pool are not run knobs: they
live on :class:`repro.service.ServiceConfig`.

Every field is one of two kinds.  :data:`OUTPUT_FIELDS` name the fields
that define a run's output (gate set, (n, q), search settings, ...); the
rest say where a run keeps its files and how it reports, and never change
what it returns.  The service keys its jobs by the output fields alone
and accepts no other field in a request.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Dict, FrozenSet, Optional, Union

from repro.envconfig import DEFAULT_CACHE_DIR, env_cache_dir, env_cache_enabled
from repro.generator.repgen import DEFAULT_SEED
from repro.ir.gatesets import GateSet
from repro.optimizer.strategies import STRATEGIES, BacktrackingStrategy, BeamStrategy


#: The fields that define a run's output: two configs that agree on them
#: return the same circuits.  Every other field is deployment (cache
#: location, verbosity, the compatibility fields that accept one value).
OUTPUT_FIELDS: FrozenSet[str] = frozenset(
    {
        "gate_set",
        "preprocess",
        "verify_output",
        "n",
        "q",
        "num_params",
        "seed",
        "prune",
        "strategy",
        "gamma",
        "max_iterations",
        "timeout_seconds",
        "queue_capacity",
        "queue_keep",
        "max_matches_per_transformation",
        "beam_width",
    }
)


def _check_serial(owner: str, name: str, value: Optional[int]) -> None:
    """Reject a worker count other than ``None`` or ``1``.

    Generation and search run serially; the worker-count fields remain
    only so that configs written for serial runs keep loading.  Asking for
    more workers fails loudly instead of silently running serially.
    """
    if value is not None and value != 1:
        raise ValueError(
            f"{owner}.{name}={value!r}: generation and search run "
            "serially; only None or 1 is accepted"
        )


@dataclass(frozen=True)
class GenerationConfig:
    """ECC-generation scale and infrastructure knobs.

    ``cache_dir`` and ``cache_enabled`` are plain values (``.repro_cache``
    and ``True`` by default); :meth:`RunConfig.from_env` fills them from
    ``REPRO_CACHE_DIR`` and ``REPRO_CACHE_DISABLE``.  ``workers`` and
    ``verify_workers`` accept only ``None`` or ``1``: generation runs
    serially.  ``resume`` accepts only ``None`` or ``False``: generation
    keeps no round checkpoints, and a killed run reruns to the same bytes.
    """

    n: int = 3
    q: int = 3
    num_params: Optional[int] = None  # None: the gate set's configured m
    seed: int = DEFAULT_SEED
    workers: Optional[int] = None
    verify_workers: Optional[int] = None
    cache_dir: str = DEFAULT_CACHE_DIR
    cache_enabled: bool = True
    resume: Optional[bool] = None
    prune: bool = True
    verbose: bool = False

    def __post_init__(self) -> None:
        _check_serial("GenerationConfig", "workers", self.workers)
        _check_serial("GenerationConfig", "verify_workers", self.verify_workers)
        if self.resume is not None and self.resume is not False:
            raise ValueError(
                f"GenerationConfig.resume={self.resume!r}: generation keeps "
                "no checkpoints to resume from; only None or False is accepted"
            )


@dataclass(frozen=True)
class SearchConfig:
    """Which search runs, its tuning and its budgets.

    ``strategy`` is one of :data:`~repro.optimizer.strategies.STRATEGIES`,
    and :meth:`runner` builds that strategy from the fields it reads.  The
    budgets (``max_iterations``, ``timeout_seconds``) bound every run.
    """

    strategy: str = "backtracking"
    gamma: float = 1.0001
    max_iterations: Optional[int] = 30
    timeout_seconds: Optional[float] = 20.0
    queue_capacity: int = 2000
    queue_keep: int = 1000
    max_matches_per_transformation: Optional[int] = 16
    beam_width: int = 16
    #: Accepts only ``None`` or ``1``: every strategy searches serially.
    search_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"SearchConfig.strategy={self.strategy!r}: the search "
                f"strategies are {', '.join(STRATEGIES)}"
            )
        _check_serial("SearchConfig", "search_workers", self.search_workers)

    def runner(self) -> Union[BacktrackingStrategy, BeamStrategy]:
        """The named strategy, built from the fields it reads.

        ``"greedy"`` is backtracking at gamma = 1 with a 64/32 queue, so
        it reads only the match cap; ``"backtracking"`` reads ``gamma``
        and the queue bounds, ``"beam"`` reads ``beam_width``.
        """
        cap = self.max_matches_per_transformation
        if self.strategy == "beam":
            return BeamStrategy(
                beam_width=self.beam_width, max_matches_per_transformation=cap
            )
        if self.strategy == "greedy":
            return BacktrackingStrategy(
                gamma=1.0,
                queue_capacity=64,
                queue_keep=32,
                max_matches_per_transformation=cap,
            )
        return BacktrackingStrategy(
            gamma=self.gamma,
            queue_capacity=self.queue_capacity,
            queue_keep=self.queue_keep,
            max_matches_per_transformation=cap,
        )


@dataclass(frozen=True)
class RunConfig:
    """The complete configuration of one :class:`~repro.api.Superoptimizer`."""

    gate_set: Union[str, GateSet] = "nam"
    #: Accepts only ``None`` or ``True``: fingerprints are always evaluated
    #: in batches.
    batched: Optional[bool] = None
    preprocess: bool = True
    verify_output: bool = True
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self) -> None:
        if self.batched is not None and self.batched is not True:
            raise ValueError(
                f"RunConfig.batched={self.batched!r}: fingerprints are always "
                "evaluated in batches; only None or True is accepted"
            )

    @property
    def gate_set_name(self) -> str:
        gate_set = self.gate_set
        return gate_set.name if isinstance(gate_set, GateSet) else str(gate_set)

    # -- construction from the environment -----------------------------------

    @classmethod
    def from_env(cls, **overrides: Any) -> "RunConfig":
        """Snapshot the run's ``REPRO_*`` knobs into a concrete config.

        This is the single environment-reading path of the public API:
        ``REPRO_CACHE_DIR`` and ``REPRO_CACHE_DISABLE`` (only truthy values
        disable).  ``overrides`` win over the environment.
        """
        config = cls(
            generation=GenerationConfig(
                cache_dir=env_cache_dir(),
                cache_enabled=env_cache_enabled(),
            ),
        )
        return config.with_overrides(**overrides) if overrides else config

    # -- derivation -----------------------------------------------------------

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """A copy with fields replaced; nested fields may be given flat.

        ``generation`` / ``search`` accept either a config instance or a
        mapping of that layer's fields; any other keyword is routed to the
        layer that declares it (field names are globally unique).  Unknown
        names raise ``TypeError``.
        """
        run_fields = {f.name for f in fields(RunConfig)} - {"generation", "search"}
        gen_fields = {f.name for f in fields(GenerationConfig)}
        search_fields = {f.name for f in fields(SearchConfig)}

        run_kwargs: Dict[str, Any] = {}
        gen_kwargs: Dict[str, Any] = {}
        search_kwargs: Dict[str, Any] = {}
        generation = self.generation
        search = self.search
        for name, value in overrides.items():
            if name == "generation":
                generation = (
                    value
                    if isinstance(value, GenerationConfig)
                    else dataclasses.replace(generation, **dict(value))
                )
            elif name == "search":
                search = (
                    value
                    if isinstance(value, SearchConfig)
                    else dataclasses.replace(search, **dict(value))
                )
            elif name in run_fields:
                run_kwargs[name] = value
            elif name in gen_fields:
                gen_kwargs[name] = value
            elif name in search_fields:
                search_kwargs[name] = value
            else:
                raise TypeError(f"unknown configuration field {name!r}")
        if gen_kwargs:
            generation = dataclasses.replace(generation, **gen_kwargs)
        if search_kwargs:
            search = dataclasses.replace(search, **search_kwargs)
        return dataclasses.replace(
            self, generation=generation, search=search, **run_kwargs
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (gate-set objects collapse to their name)."""
        out = dataclasses.asdict(self)
        out["gate_set"] = self.gate_set_name
        return out

    def output_dict(self) -> Dict[str, Any]:
        """The :data:`OUTPUT_FIELDS`, flat and JSON-friendly."""
        nested = self.as_dict()
        flat = {**nested.pop("generation"), **nested.pop("search"), **nested}
        return {name: flat[name] for name in sorted(OUTPUT_FIELDS)}
