"""Frozen configuration objects for the public API.

Three layers, composed into one :class:`RunConfig`:

* :class:`GenerationConfig` — the RepGen scale (n, q), seed, pruning and
  persistent-cache knobs;
* :class:`SearchConfig`     — which :mod:`search strategy
  <repro.optimizer.strategies>` runs and its tuning (gamma, beam width,
  budgets);
* :class:`RunConfig`        — gate set, preprocessing and
  output-verification toggles, plus the two layers above.

All three are frozen dataclasses: a config never mutates after
construction, so a :class:`~repro.api.facade.Superoptimizer` can be shared
freely.  Derived configs are built with :meth:`RunConfig.with_overrides`,
which also accepts the nested fields flat (``cfg.with_overrides(n=2,
strategy="beam")``) since no field name is ambiguous.

Precedence: ``RunConfig()`` is pure defaults; :meth:`RunConfig.from_env`
snapshots the run's ``REPRO_*`` environment knobs (the single place the
public API reads them — parsing itself lives in :mod:`repro.envconfig`);
:meth:`RunConfig.from_sources` layers ``env < file < kwargs``.  Knobs of
the optimization service's worker pool are not run knobs: they live on
:class:`repro.service.ServiceConfig`.

Every field is one of two kinds.  :data:`OUTPUT_FIELDS` name the fields
that define a run's output (gate set, (n, q), search settings, ...); the
rest say where a run keeps its files and how it reports, and never change
what it returns.  The service keys its jobs by the output fields alone
and accepts no other field in a request.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, FrozenSet, Mapping, Optional, Union

from repro.envconfig import env_cache_dir, env_cache_enabled, env_resume_optional
from repro.generator.repgen import DEFAULT_SEED
from repro.ir.gatesets import GateSet


#: The fields that define a run's output: two configs that agree on them
#: return the same circuits.  Every other field is deployment (cache
#: location, resume, verbosity, the serial-only compatibility fields).
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
        "strategy_options",
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

    ``cache_dir`` and ``cache_enabled`` default to ``None``, meaning
    "resolve from the environment at run time" (the behaviour every
    pre-facade entry point had); :meth:`RunConfig.from_env` snapshots them
    into concrete values instead.  ``workers`` and ``verify_workers``
    accept only ``None`` or ``1``: generation runs serially.
    """

    n: int = 3
    q: int = 3
    num_params: Optional[int] = None  # None: the gate set's configured m
    seed: int = DEFAULT_SEED
    workers: Optional[int] = None
    verify_workers: Optional[int] = None
    cache_dir: Optional[str] = None
    cache_enabled: Optional[bool] = None
    #: Round-granular checkpointing + crash resume through the persistent
    #: cache (None: read ``REPRO_RESUME`` at run time; default off).
    resume: Optional[bool] = None
    prune: bool = True
    verbose: bool = False

    def __post_init__(self) -> None:
        _check_serial("GenerationConfig", "workers", self.workers)
        _check_serial("GenerationConfig", "verify_workers", self.verify_workers)


@dataclass(frozen=True)
class SearchConfig:
    """Search-strategy selection and tuning.

    ``strategy`` names an entry of the
    :mod:`repro.optimizer.strategies` registry.  Fields that a strategy
    does not understand are simply not passed to it (gamma and the queue
    bounds go to ``"backtracking"``, ``beam_width`` to ``"beam"``, ...);
    ``strategy_options`` adds strategy-specific extras verbatim.
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
    strategy_options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_serial("SearchConfig", "search_workers", self.search_workers)

    def options_for(self, strategy_name: Optional[str] = None) -> Dict[str, Any]:
        """The factory kwargs for ``strategy_name`` (default: own strategy)."""
        name = (strategy_name or self.strategy).lower()
        options: Dict[str, Any] = {}
        if name == "backtracking":
            options.update(
                gamma=self.gamma,
                queue_capacity=self.queue_capacity,
                queue_keep=self.queue_keep,
                max_matches_per_transformation=self.max_matches_per_transformation,
            )
        elif name == "greedy":
            options.update(
                max_matches_per_transformation=self.max_matches_per_transformation,
            )
        elif name == "beam":
            options.update(
                beam_width=self.beam_width,
                max_matches_per_transformation=self.max_matches_per_transformation,
            )
        options.update(self.strategy_options)
        return options


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

    # -- construction paths ---------------------------------------------------

    @classmethod
    def from_env(cls, **overrides: Any) -> "RunConfig":
        """Snapshot the run's ``REPRO_*`` knobs into a concrete config.

        This is the single environment-reading path of the public API:
        ``REPRO_CACHE_DIR``, ``REPRO_CACHE_DISABLE`` (only truthy values
        disable) and ``REPRO_RESUME`` (crash-safe checkpointing).
        ``overrides`` win over the environment.
        """
        config = cls(
            generation=GenerationConfig(
                cache_dir=env_cache_dir(),
                cache_enabled=env_cache_enabled(),
                resume=env_resume_optional(),
            ),
        )
        return config.with_overrides(**overrides) if overrides else config

    @classmethod
    def from_file(cls, path: Union[str, Path], *, base: Optional["RunConfig"] = None) -> "RunConfig":
        """Load a JSON config file on top of ``base`` (default: pure defaults).

        The file holds a flat or nested mapping of config fields::

            {"gate_set": "ibm", "preprocess": false,
             "generation": {"n": 2, "prune": false},
             "search": {"strategy": "beam", "beam_width": 32}}
        """
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        return (base if base is not None else cls()).with_overrides(**data)

    @classmethod
    def from_sources(
        cls, *, file: Union[str, Path, None] = None, **overrides: Any
    ) -> "RunConfig":
        """Layer the three sources: environment < file < keyword overrides."""
        config = cls.from_env()
        if file is not None:
            config = cls.from_file(file, base=config)
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
        out["search"]["strategy_options"] = dict(self.search.strategy_options)
        return out

    def output_dict(self) -> Dict[str, Any]:
        """The :data:`OUTPUT_FIELDS`, flat and JSON-friendly."""
        nested = self.as_dict()
        flat = {**nested.pop("generation"), **nested.pop("search"), **nested}
        return {name: flat[name] for name in sorted(OUTPUT_FIELDS)}
