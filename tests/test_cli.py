"""Tests for the experiments CLI (repro.experiments.cli)."""

from __future__ import annotations

import json
import os

import pytest

from repro.api import clear_memory_caches
from repro.experiments import cli
from repro.envconfig import RESUME_ENV_VAR
from repro.generator.cache import CACHE_DIR_ENV_VAR, CACHE_DISABLE_ENV_VAR


class TestSharedFlags:
    """The shared flags travel in the run config, never through os.environ."""

    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch, tmp_path):
        # The environment points elsewhere, so a blob under the flagged
        # directory can only have come from the flag.
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "env"))
        monkeypatch.delenv(CACHE_DISABLE_ENV_VAR, raising=False)
        monkeypatch.delenv(RESUME_ENV_VAR, raising=False)
        clear_memory_caches()
        yield
        clear_memory_caches()

    def test_generate_cache_dir_receives_the_blob(self, tmp_path):
        flagged = tmp_path / "flagged"
        assert cli.main(
            ["generate", "--n", "1", "--q", "1", "--cache-dir", str(flagged), "--json"]
        ) == 0
        assert list(flagged.glob("repgen_*"))
        assert not (tmp_path / "env").exists()

    def test_generator_metrics_no_cache_writes_nothing(self, tmp_path):
        argv = ["generator-metrics", "--n", "1", "--q", "1", "--json"]
        assert cli.main(argv + ["--no-cache"]) == 0
        assert not (tmp_path / "env").exists()
        # The same harness, with a flagged directory, writes only there.
        clear_memory_caches()
        flagged = tmp_path / "flagged"
        assert cli.main(argv + ["--cache-dir", str(flagged)]) == 0
        assert list(flagged.glob("repgen_*"))
        assert not (tmp_path / "env").exists()

    def test_resume_reaches_the_generation_config(self, monkeypatch, tmp_path):
        from repro.experiments import table_generator_metrics

        seen = []

        def spy(real):
            def run_generation(gate_set, generation):
                seen.append(generation)
                return real(gate_set, generation)

            return run_generation

        monkeypatch.setattr(cli, "run_generation", spy(cli.run_generation))
        monkeypatch.setattr(
            table_generator_metrics,
            "run_generation",
            spy(table_generator_metrics.run_generation),
        )
        flags = ["--n", "1", "--q", "1", "--resume", "--cache-dir", str(tmp_path)]
        assert cli.main(["generate", *flags, "--json"]) == 0
        assert cli.main(["generator-metrics", *flags, "--json"]) == 0
        assert [generation.resume for generation in seen] == [True, True]
        assert {generation.cache_dir for generation in seen} == {str(tmp_path)}

    @pytest.mark.parametrize("command", ["generate", "generator-metrics"])
    def test_main_leaves_the_environment_alone(self, tmp_path, command):
        before = dict(os.environ)
        argv = [command, "--n", "1", "--q", "1", "--json", "--resume", "--no-cache"]
        assert cli.main(argv + ["--cache-dir", str(tmp_path / "flagged")]) == 0
        assert dict(os.environ) == before


class TestCommands:
    def test_generate_json(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        clear_memory_caches()
        code = cli.main(
            ["generate", "--gate-set", "nam", "--n", "1", "--q", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_eccs"] >= 0
        assert payload["circuits_considered"] > 0

    def test_generate_warm_hit_message(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.delenv(CACHE_DISABLE_ENV_VAR, raising=False)
        clear_memory_caches()
        assert cli.main(["generate", "--gate-set", "nam", "--n", "1", "--q", "1"]) == 0
        clear_memory_caches()
        assert cli.main(["generate", "--gate-set", "nam", "--n", "1", "--q", "1"]) == 0
        assert "persistent cache" in capsys.readouterr().out

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    @pytest.mark.parametrize(
        "flag",
        ["--workers", "--verify-workers", "--search-workers",
         "--chunk-timeout", "--chunk-retries"],
    )
    def test_removed_pool_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["generate", flag, "2"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--backend", "numpy"],
            ["optimize", "--no-batch"],
            ["generate", "--no-batch"],
            ["generator-metrics", "--no-batch"],
        ],
        ids=["optimize-backend", "optimize-no-batch", "generate-no-batch",
             "metrics-no-batch"],
    )
    def test_removed_simulator_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)

    def test_registry_lists_the_serial_strategies(self, capsys):
        assert cli.main(["registry", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"strategies": ["backtracking", "beam", "greedy"]}

    def test_registry_text_lists_strategies_only(self, capsys):
        assert cli.main(["registry"]) == 0
        out = capsys.readouterr().out
        assert "search strategies:" in out
        assert "backend" not in out and "batched" not in out
