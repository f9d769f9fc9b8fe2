"""Tests for the frozen RunConfig/GenerationConfig/SearchConfig layer."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import GenerationConfig, RunConfig, SearchConfig
from repro.api.config import OUTPUT_FIELDS
from repro.envconfig import CACHE_DIR_ENV_VAR, CACHE_DISABLE_ENV_VAR, SCALE_ENV_VAR

#: Every config field that is not an output field: where a run keeps its
#: files, how it reports, and the serial-only compatibility fields.  A new
#: field must join this list or ``OUTPUT_FIELDS``.
DEPLOYMENT_FIELDS = frozenset(
    {
        "batched",
        "workers",
        "verify_workers",
        "search_workers",
        "cache_dir",
        "cache_enabled",
        "resume",
        "verbose",
    }
)


def _load_config_file(path):
    """A JSON config file read the one way there is: a mapping of fields
    (flat or nested) handed to ``with_overrides``."""
    return RunConfig.from_env().with_overrides(**json.loads(path.read_text()))


class TestFrozen:
    def test_all_layers_are_frozen(self):
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.gate_set = "ibm"
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.generation.n = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.search.gamma = 2.0


class TestFromEnv:
    def test_pure_defaults_ignore_the_environment(self, monkeypatch, tmp_path):
        # Only from_env reads the environment: a config built without it
        # holds its defaults, and its cache fields are plain values.
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, "1")
        for generation in (RunConfig().generation, GenerationConfig()):
            assert generation.cache_dir == ".repro_cache"
            assert generation.cache_enabled is True
        snapshot = RunConfig.from_env().generation
        assert snapshot.cache_dir == str(tmp_path)
        assert snapshot.cache_enabled is False

    def test_snapshots_every_knob(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, "false")
        config = RunConfig.from_env()
        assert config.generation.cache_dir == str(tmp_path)
        assert config.generation.cache_enabled is True

    def test_scale_and_pool_knobs_are_not_run_fields(self, monkeypatch):
        # REPRO_SCALE picks an experiment preset (active_config) and the
        # REPRO_CHUNK_* knobs configure the service pool (ServiceConfig):
        # neither is part of a run's config.
        monkeypatch.setenv(SCALE_ENV_VAR, "medium")
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "7.5")
        snapshot = RunConfig.from_env().as_dict()
        assert "scale" not in snapshot
        assert "chunk_timeout" not in snapshot["generation"]
        for build in (
            lambda: GenerationConfig(chunk_timeout=1.0),
            lambda: GenerationConfig(chunk_retries=1),
            lambda: RunConfig(scale="quick"),
        ):
            with pytest.raises(TypeError):
                build()
        for name, value in (
            ("chunk_timeout", 1.0),
            ("chunk_retries", 1),
            ("scale", "quick"),
        ):
            with pytest.raises(TypeError, match=name):
                RunConfig.from_env().with_overrides(**{name: value})
            with pytest.raises(TypeError, match=name):
                RunConfig().with_overrides(generation={name: value})

    def test_batched_stays_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCHED", "0")
        config = RunConfig.from_env()
        assert config.batched is None
        assert config.with_overrides(batched=True).batched is True

    def test_verify_workers_unset_stays_deferred(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_WORKERS", raising=False)
        assert RunConfig.from_env().generation.verify_workers is None
        # The knob is no longer read: a stale value cannot ask for workers.
        monkeypatch.setenv("REPRO_VERIFY_WORKERS", "3")
        assert RunConfig.from_env().generation.verify_workers is None

    def test_verify_workers_flat_override_routes_to_generation(self):
        config = RunConfig().with_overrides(verify_workers=1)
        assert config.generation.verify_workers == 1

    def test_disable_flag_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, "0")
        assert RunConfig.from_env().generation.cache_enabled is True
        monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, "1")
        assert RunConfig.from_env().generation.cache_enabled is False

    def test_overrides_win_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "env"))
        config = RunConfig.from_env(
            cache_dir=str(tmp_path / "kwarg"), gate_set="ibm"
        )
        assert config.generation.cache_dir == str(tmp_path / "kwarg")
        assert config.gate_set == "ibm"


class TestSerialOnlyWorkerFields:
    """The worker-count fields accept only None or 1 (serial runs)."""

    @pytest.mark.parametrize("value", [None, 1])
    def test_none_and_one_construct(self, value):
        assert GenerationConfig(workers=value).workers == value
        assert GenerationConfig(verify_workers=value).verify_workers == value
        assert SearchConfig(search_workers=value).search_workers == value

    @pytest.mark.parametrize("value", [None, True])
    def test_batched_none_and_true_construct(self, value):
        assert RunConfig(batched=value).batched is value
        assert RunConfig().with_overrides(batched=value).batched is value

    @pytest.mark.parametrize("value", [False, 0, "no"])
    def test_batched_off_raises(self, value):
        # Fingerprints are always evaluated in batches: a config asking
        # for the per-state path fails loudly instead of running batched.
        with pytest.raises(ValueError, match="batched"):
            RunConfig(batched=value)
        with pytest.raises(ValueError, match="batched"):
            RunConfig().with_overrides(batched=value)

    @pytest.mark.parametrize("value", [None, False])
    def test_resume_none_and_false_construct(self, value):
        assert GenerationConfig(resume=value).resume is value
        assert RunConfig().with_overrides(resume=value).generation.resume is value

    @pytest.mark.parametrize("value", [True, 1, "yes"])
    def test_resume_on_raises(self, value):
        # RepGen keeps no round checkpoints: a config asking to resume
        # from them fails loudly instead of silently running without.
        with pytest.raises(ValueError, match="resume"):
            GenerationConfig(resume=value)
        with pytest.raises(ValueError, match="resume"):
            RunConfig().with_overrides(resume=value)

    def test_config_file_asking_for_per_state_raises(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"batched": False}))
        with pytest.raises(ValueError, match="batched=False"):
            _load_config_file(path)

    def test_backend_is_not_a_field(self, tmp_path):
        with pytest.raises(TypeError):
            RunConfig(backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            RunConfig().with_overrides(backend="numpy")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"backend": "numpy"}))
        with pytest.raises(TypeError, match="backend"):
            _load_config_file(path)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GenerationConfig(workers=2),
            lambda: GenerationConfig(verify_workers=2),
            lambda: SearchConfig(search_workers=2),
            lambda: RunConfig().with_overrides(workers=0),
        ],
        ids=["workers", "verify_workers", "search_workers", "override"],
    )
    def test_more_workers_raise(self, build):
        with pytest.raises(ValueError, match="serially"):
            build()

    def test_serial_overrides_route_flat(self):
        config = RunConfig().with_overrides(
            workers=1, verify_workers=1, search_workers=1
        )
        assert config.generation.workers == 1
        assert config.search.search_workers == 1

    def test_config_file_asking_for_workers_raises(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"generation": {"workers": 4}}))
        with pytest.raises(ValueError, match="workers=4"):
            _load_config_file(path)

    @pytest.mark.parametrize(
        "layer, field",
        [("generation", "verify_workers"), ("search", "search_workers")],
    )
    def test_config_file_asking_for_other_pool_workers_raises(
        self, tmp_path, layer, field
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({layer: {field: 2}}))
        with pytest.raises(ValueError, match=f"{field}=2"):
            _load_config_file(path)


class TestOverrides:
    def test_flat_routing_to_nested_layers(self):
        config = RunConfig().with_overrides(
            n=2, q=2, strategy="beam", beam_width=8, preprocess=False
        )
        assert config.generation.n == 2
        assert config.generation.q == 2
        assert config.search.strategy == "beam"
        assert config.search.beam_width == 8
        assert config.preprocess is False

    def test_nested_mappings_and_instances(self):
        config = RunConfig().with_overrides(
            generation={"n": 1}, search=SearchConfig(strategy="greedy")
        )
        assert config.generation.n == 1
        assert config.search.strategy == "greedy"
        replaced = config.with_overrides(generation=GenerationConfig(n=4))
        assert replaced.generation.n == 4

    def test_unknown_field_raises(self):
        with pytest.raises(TypeError, match="unknown configuration field"):
            RunConfig().with_overrides(frobnicate=1)

    def test_original_is_untouched(self):
        base = RunConfig()
        base.with_overrides(n=7)
        assert base.generation.n == 3


class TestStrategyOptions:
    """Each strategy's runner is built from the fields it reads, and only
    from them: there is no second path to a search knob."""

    def test_options_per_builtin_strategy(self):
        search = SearchConfig(
            gamma=1.5, queue_capacity=10, queue_keep=5, beam_width=9,
            max_matches_per_transformation=4,
        )
        backtracking = search.runner()
        assert (
            backtracking.gamma,
            backtracking.queue_capacity,
            backtracking.queue_keep,
            backtracking.max_matches_per_transformation,
        ) == (1.5, 10, 5, 4)
        # Greedy is backtracking at gamma = 1 with a 64/32 queue.
        greedy = dataclasses.replace(search, strategy="greedy").runner()
        assert (
            greedy.gamma,
            greedy.queue_capacity,
            greedy.queue_keep,
            greedy.max_matches_per_transformation,
        ) == (1.0, 64, 32, 4)
        beam = dataclasses.replace(search, strategy="beam").runner()
        assert (beam.beam_width, beam.max_matches_per_transformation) == (9, 4)

    def test_strategy_options_extend_and_override(self):
        # The strategy_options side channel is gone: neither the layer
        # nor the flat override routing accepts it, so beam_width is set
        # by its field alone.
        with pytest.raises(TypeError, match="strategy_options"):
            SearchConfig(strategy="beam", strategy_options={"beam_width": 3})
        with pytest.raises(TypeError, match="unknown configuration field"):
            RunConfig().with_overrides(strategy_options={"beam_width": 3})
        config = RunConfig().with_overrides(strategy="beam", beam_width=3)
        assert config.search.runner().beam_width == 3
        assert not hasattr(SearchConfig, "options_for")
        hash(config)  # every field is hashable now

    def test_as_dict_is_json_friendly(self):
        payload = RunConfig(gate_set="nam").as_dict()
        json.dumps(payload)
        assert payload["gate_set"] == "nam"
        assert payload["generation"]["n"] == 3


class TestOutputFields:
    def test_every_field_is_classified(self):
        names = {
            field.name
            for layer in (RunConfig, GenerationConfig, SearchConfig)
            for field in dataclasses.fields(layer)
        } - {"generation", "search"}
        assert not OUTPUT_FIELDS & DEPLOYMENT_FIELDS
        assert names == OUTPUT_FIELDS | DEPLOYMENT_FIELDS

    def test_output_dict_is_flat_and_holds_only_output_fields(self):
        config = RunConfig().with_overrides(n=2, cache_dir="elsewhere")
        output = config.output_dict()
        assert set(output) == OUTPUT_FIELDS
        assert output["n"] == 2 and output["gate_set"] == "nam"
        assert output == RunConfig(batched=True).with_overrides(n=2).output_dict()
