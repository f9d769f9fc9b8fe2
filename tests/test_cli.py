"""Tests for the experiments CLI (repro.experiments.cli)."""

from __future__ import annotations

import json
import os

import pytest

from repro.api import clear_memory_caches
from repro.envconfig import CACHE_DIR_ENV_VAR, CACHE_DISABLE_ENV_VAR
from repro.experiments import cli


class TestSharedFlags:
    """The shared flags travel in the run config, never through os.environ."""

    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch, tmp_path):
        # The environment points elsewhere, so a blob under the flagged
        # directory can only have come from the flag.
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "env"))
        monkeypatch.delenv(CACHE_DISABLE_ENV_VAR, raising=False)
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

    def test_resume_flag_is_rejected(self):
        # RepGen keeps no round checkpoints, so there is nothing to resume.
        for command in ("generate", "generator-metrics", "optimize"):
            with pytest.raises(SystemExit) as excinfo:
                cli.main([command, "--n", "1", "--q", "1", "--resume"])
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["generate", "generator-metrics"])
    def test_main_leaves_the_environment_alone(self, tmp_path, command):
        before = dict(os.environ)
        argv = [command, "--n", "1", "--q", "1", "--json", "--no-cache"]
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

    @pytest.mark.parametrize(
        "argv",
        [["optimize", "--strategy", "anneal"], ["registry", "--json"]],
        ids=["unknown-strategy", "registry"],
    )
    def test_unknown_strategy_and_removed_registry_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
