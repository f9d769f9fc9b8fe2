"""Unit tests for the centralized REPRO_* environment parsing.

Every knob has its edge cases pinned here: invalid and negative worker
counts fall back to one worker with a warning, and ``REPRO_CACHE_DISABLE``
only disables on truthy values — ``0``/``false``/``off`` keep the cache
*enabled* (case-insensitively), which is what the flag's name promises.
"""

from __future__ import annotations

import ast
import warnings
from pathlib import Path

import pytest

from repro import envconfig
from repro.api import RunConfig
from repro.envconfig import (
    CACHE_DIR_ENV_VAR,
    CACHE_DISABLE_ENV_VAR,
    SCALE_ENV_VAR,
    SERVICE_WORKERS_ENV_VAR,
)


class TestWorkers:
    """``parse_workers`` rules, read through ``REPRO_SERVICE_WORKERS``."""

    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(SERVICE_WORKERS_ENV_VAR, raising=False)
        assert envconfig.env_service_workers() == 1

    @pytest.mark.parametrize("raw,expected", [("1", 1), ("2", 2), ("8", 8)])
    def test_valid_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, raw)
        assert envconfig.env_service_workers() == expected

    @pytest.mark.parametrize("raw", ["nope", "2.5", "two", "1e3"])
    def test_invalid_values_warn_and_mean_serial(self, monkeypatch, raw):
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, raw)
        with pytest.warns(RuntimeWarning, match="non-integer.*REPRO_SERVICE_WORKERS"):
            assert envconfig.env_service_workers() == 1

    @pytest.mark.parametrize("raw", ["-1", "-16"])
    def test_negative_values_warn_and_mean_serial(self, monkeypatch, raw):
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, raw)
        with pytest.warns(RuntimeWarning, match="negative.*REPRO_SERVICE_WORKERS"):
            assert envconfig.env_service_workers() == 1

    def test_zero_means_serial_without_warning(self, monkeypatch):
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert envconfig.env_service_workers() == 1

    def test_whitespace_only_means_serial(self, monkeypatch):
        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "   ")
        assert envconfig.env_service_workers() == 1

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        from repro.service import ServiceConfig

        monkeypatch.setenv(SERVICE_WORKERS_ENV_VAR, "7")
        assert ServiceConfig.from_env(workers=3).workers == 3


class TestCacheDisable:
    @pytest.mark.parametrize("raw", ["0", "false", "False", "FALSE", "no", "off", ""])
    def test_falsy_values_keep_the_cache_enabled(self, monkeypatch, raw):
        monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, raw)
        assert envconfig.env_cache_enabled() is True
        assert RunConfig.from_env().generation.cache_enabled is True

    @pytest.mark.parametrize("raw", ["1", "true", "True", "TRUE", "yes", "Yes", "on", "ON"])
    def test_truthy_values_disable(self, monkeypatch, raw):
        monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, raw)
        assert envconfig.env_cache_enabled() is False
        assert RunConfig.from_env().generation.cache_enabled is False

    def test_unset_means_enabled(self, monkeypatch):
        monkeypatch.delenv(CACHE_DISABLE_ENV_VAR, raising=False)
        assert envconfig.env_cache_enabled() is True

    def test_unrecognized_value_warns_and_keeps_enabled(self, monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV_VAR, "maybe")
        with pytest.warns(RuntimeWarning, match="unrecognized boolean"):
            assert envconfig.env_cache_enabled() is True


class TestChunkTimeout:
    def test_unset_means_the_default_deadline(self, monkeypatch):
        monkeypatch.delenv(envconfig.CHUNK_TIMEOUT_ENV_VAR, raising=False)
        assert envconfig.env_chunk_timeout() == envconfig.DEFAULT_CHUNK_TIMEOUT

    @pytest.mark.parametrize("raw,expected", [("5", 5.0), ("0.5", 0.5), ("120", 120.0)])
    def test_valid_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv(envconfig.CHUNK_TIMEOUT_ENV_VAR, raw)
        assert envconfig.env_chunk_timeout() == expected

    @pytest.mark.parametrize("raw", ["0", "-3", "-0.1"])
    def test_nonpositive_disables_the_deadline(self, monkeypatch, raw):
        monkeypatch.setenv(envconfig.CHUNK_TIMEOUT_ENV_VAR, raw)
        assert envconfig.env_chunk_timeout() is None

    def test_invalid_values_warn_and_keep_the_default(self, monkeypatch):
        monkeypatch.setenv(envconfig.CHUNK_TIMEOUT_ENV_VAR, "forever")
        with pytest.warns(RuntimeWarning, match="non-numeric"):
            assert envconfig.env_chunk_timeout() == envconfig.DEFAULT_CHUNK_TIMEOUT


class TestChunkRetries:
    def test_unset_means_the_default_budget(self, monkeypatch):
        monkeypatch.delenv(envconfig.CHUNK_RETRIES_ENV_VAR, raising=False)
        assert envconfig.env_chunk_retries() == envconfig.DEFAULT_CHUNK_RETRIES

    @pytest.mark.parametrize("raw,expected", [("0", 0), ("1", 1), ("5", 5)])
    def test_valid_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv(envconfig.CHUNK_RETRIES_ENV_VAR, raw)
        assert envconfig.env_chunk_retries() == expected

    @pytest.mark.parametrize("raw,match", [("lots", "non-integer"), ("-2", "negative")])
    def test_invalid_values_warn_and_keep_the_default(self, monkeypatch, raw, match):
        monkeypatch.setenv(envconfig.CHUNK_RETRIES_ENV_VAR, raw)
        with pytest.warns(RuntimeWarning, match=match):
            assert envconfig.env_chunk_retries() == envconfig.DEFAULT_CHUNK_RETRIES


class TestResume:
    """``REPRO_RESUME`` is no longer read: RepGen keeps no checkpoints."""

    @staticmethod
    def _resume_from_env():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return RunConfig.from_env().generation.resume

    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESUME", raising=False)
        assert self._resume_from_env() is None
        for name in ("RESUME_ENV_VAR", "env_resume", "env_resume_optional"):
            assert not hasattr(envconfig, name)

    @pytest.mark.parametrize("raw", ["1", "true", "Yes", "ON"])
    def test_truthy_values_are_ignored(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_RESUME", raw)
        assert self._resume_from_env() is None

    @pytest.mark.parametrize("raw", ["0", "false", "off", ""])
    def test_falsy_values_stay_off(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_RESUME", raw)
        assert self._resume_from_env() is None


class TestFaultsEnv:
    def test_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(envconfig.FAULTS_ENV_VAR, raising=False)
        assert envconfig.env_faults() == ""

    def test_value_is_stripped_not_parsed(self, monkeypatch):
        # Parsing (and strict validation) happens in repro.faults; the env
        # layer only hands the raw plan text through.
        monkeypatch.setenv(envconfig.FAULTS_ENV_VAR, "  kill_worker:service:2  ")
        assert envconfig.env_faults() == "kill_worker:service:2"


class TestCacheDirAndScale:
    def test_cache_dir_default_and_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        assert envconfig.env_cache_dir() == envconfig.DEFAULT_CACHE_DIR
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert envconfig.env_cache_dir() == str(tmp_path)
        assert RunConfig.from_env().generation.cache_dir == str(tmp_path)

    def test_scale_normalizes_case_and_defaults(self, monkeypatch):
        monkeypatch.delenv(SCALE_ENV_VAR, raising=False)
        assert envconfig.env_scale() == "quick"
        monkeypatch.setenv(SCALE_ENV_VAR, "  MEDIUM ")
        assert envconfig.env_scale() == "medium"
        monkeypatch.setenv(SCALE_ENV_VAR, "")
        assert envconfig.env_scale() == "quick"


class TestMicrobench:
    def test_check_only_spellings(self, monkeypatch):
        monkeypatch.delenv(envconfig.MICROBENCH_ENV_VAR, raising=False)
        assert envconfig.env_microbench_check_only() is False
        for raw in ("check", "CHECK", " Check-Only ", "check-only"):
            monkeypatch.setenv(envconfig.MICROBENCH_ENV_VAR, raw)
            assert envconfig.env_microbench_check_only() is True
        for raw in ("", "1", "full", "yes"):
            monkeypatch.setenv(envconfig.MICROBENCH_ENV_VAR, raw)
            assert envconfig.env_microbench_check_only() is False

    def test_json_path_default_and_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(envconfig.MICROBENCH_JSON_ENV_VAR, raising=False)
        assert envconfig.env_microbench_json(default="x.json") == "x.json"
        monkeypatch.setenv(envconfig.MICROBENCH_JSON_ENV_VAR, "")
        assert envconfig.env_microbench_json(default="x.json") == "x.json"
        target = str(tmp_path / "out.json")
        monkeypatch.setenv(envconfig.MICROBENCH_JSON_ENV_VAR, target)
        assert envconfig.env_microbench_json(default="x.json") == target


class TestServiceKnobs:
    def test_port_default_valid_and_ephemeral(self, monkeypatch):
        monkeypatch.delenv(envconfig.SERVICE_PORT_ENV_VAR, raising=False)
        assert envconfig.env_service_port() == envconfig.DEFAULT_SERVICE_PORT
        monkeypatch.setenv(envconfig.SERVICE_PORT_ENV_VAR, " 9000 ")
        assert envconfig.env_service_port() == 9000
        monkeypatch.setenv(envconfig.SERVICE_PORT_ENV_VAR, "0")
        assert envconfig.env_service_port() == 0

    def test_port_invalid_and_out_of_range_warn_to_default(self, monkeypatch):
        for raw in ("http", "-1", "70000"):
            monkeypatch.setenv(envconfig.SERVICE_PORT_ENV_VAR, raw)
            with pytest.warns(RuntimeWarning):
                assert envconfig.env_service_port() == envconfig.DEFAULT_SERVICE_PORT

    def test_workers_default_valid_and_invalid(self, monkeypatch):
        monkeypatch.delenv(envconfig.SERVICE_WORKERS_ENV_VAR, raising=False)
        assert envconfig.env_service_workers() == 1
        monkeypatch.setenv(envconfig.SERVICE_WORKERS_ENV_VAR, "4")
        assert envconfig.env_service_workers() == 4
        monkeypatch.setenv(envconfig.SERVICE_WORKERS_ENV_VAR, "many")
        with pytest.warns(RuntimeWarning):
            assert envconfig.env_service_workers() == 1
        monkeypatch.setenv(envconfig.SERVICE_WORKERS_ENV_VAR, "-3")
        with pytest.warns(RuntimeWarning):
            assert envconfig.env_service_workers() == 1

    def test_max_queue_default_valid_and_invalid(self, monkeypatch):
        monkeypatch.delenv(envconfig.SERVICE_MAX_QUEUE_ENV_VAR, raising=False)
        assert envconfig.env_service_max_queue() == envconfig.DEFAULT_SERVICE_MAX_QUEUE
        monkeypatch.setenv(envconfig.SERVICE_MAX_QUEUE_ENV_VAR, "8")
        assert envconfig.env_service_max_queue() == 8
        for raw in ("lots", "0", "-2"):
            monkeypatch.setenv(envconfig.SERVICE_MAX_QUEUE_ENV_VAR, raw)
            with pytest.warns(RuntimeWarning):
                assert (
                    envconfig.env_service_max_queue()
                    == envconfig.DEFAULT_SERVICE_MAX_QUEUE
                )

    def test_service_config_snapshots_env(self, monkeypatch):
        from repro.service import ServiceConfig

        monkeypatch.setenv(envconfig.SERVICE_PORT_ENV_VAR, "9100")
        monkeypatch.setenv(envconfig.SERVICE_WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(envconfig.SERVICE_MAX_QUEUE_ENV_VAR, "9")
        config = ServiceConfig.from_env()
        assert (config.port, config.workers, config.max_queue) == (9100, 3, 9)
        assert config.pooled and config.executor_slots == 3
        assert config.run_config.generation.resume is None
        overridden = ServiceConfig.from_env(port=0, workers=1)
        assert overridden.port == 0 and not overridden.pooled
        assert overridden.executor_slots == 2


class TestSearchKnobs:
    def test_search_workers_default_valid_and_invalid(self, monkeypatch):
        # REPRO_SEARCH_WORKERS is no longer read: unset, once-valid and
        # invalid values all leave the search serial, without a warning.
        monkeypatch.delenv("REPRO_SEARCH_WORKERS", raising=False)
        assert RunConfig.from_env().search.search_workers is None
        for raw in (" 4 ", "many", "-2", "2.5"):
            monkeypatch.setenv("REPRO_SEARCH_WORKERS", raw)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert RunConfig.from_env().search.search_workers is None


class TestRemovedKnobs:
    def test_pool_knobs_have_one_reader(self):
        # REPRO_CHUNK_* reach the service pool through ServiceConfig.from_env
        # alone: the deferred readers and the pool's own resolvers are gone.
        from repro import workerpool

        assert not hasattr(envconfig, "env_chunk_timeout_optional")
        assert not hasattr(envconfig, "env_chunk_retries_optional")
        assert not hasattr(workerpool, "resolve_chunk_timeout")
        assert not hasattr(workerpool, "resolve_chunk_retries")

    def test_run_config_ignores_removed_worker_knobs(self, monkeypatch):
        for var, raw in (
            ("REPRO_GEN_WORKERS", "4"),
            ("REPRO_VERIFY_WORKERS", "3"),
            ("REPRO_SEARCH_WORKERS", "2"),
            ("REPRO_PORTFOLIO", "greedy,beam"),
        ):
            monkeypatch.setenv(var, raw)
        config = RunConfig.from_env()
        assert config.generation.workers is None
        assert config.generation.verify_workers is None
        assert config.search.search_workers is None

    @pytest.mark.parametrize("raw", ["0", "1", "sometimes"])
    def test_run_config_ignores_removed_batched_knob(self, monkeypatch, raw):
        # REPRO_BATCHED is no longer read: fingerprints are always batched,
        # and no value (not even an unparseable one) warns.
        monkeypatch.setenv("REPRO_BATCHED", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = RunConfig.from_env()
        assert config.batched is None
        assert not hasattr(envconfig, "BATCHED_ENV_VAR")


class TestOneReader:
    def test_generator_does_not_import_envconfig(self):
        # Generation takes its cache directory and flag as plain values:
        # no module of repro.generator reaches the environment readers.
        import repro.generator

        package = Path(repro.generator.__file__).parent
        imported = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imported.add(node.module)
                    imported.update(f"{node.module}.{a.name}" for a in node.names)
        assert "repro.faults" in imported  # the walk sees the package's imports
        assert "repro.envconfig" not in imported
