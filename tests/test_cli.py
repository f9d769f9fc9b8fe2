"""Tests for the experiments CLI (repro.experiments.cli)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import cli
from repro.envconfig import RESUME_ENV_VAR
from repro.generator.cache import CACHE_DIR_ENV_VAR, CACHE_DISABLE_ENV_VAR


class TestSharedFlagTranslation:
    def test_flags_reach_the_env_knobs(self, monkeypatch, tmp_path):
        for var in (CACHE_DIR_ENV_VAR, CACHE_DISABLE_ENV_VAR, RESUME_ENV_VAR):
            # setenv-then-delenv registers the var with monkeypatch so the
            # values _apply_shared_flags writes are rolled back at teardown
            # (delenv alone does not record vars that were absent).
            monkeypatch.setenv(var, "sentinel")
            monkeypatch.delenv(var)
        args = cli.build_parser().parse_args(
            [
                "generate",
                "--resume",
                "--cache-dir",
                str(tmp_path),
                "--no-cache",
            ]
        )
        cli._apply_shared_flags(args)
        import os

        # The flags must reach RepGen runs buried inside table drivers that
        # do not thread a cache parameter, hence the env translation.
        assert os.environ[RESUME_ENV_VAR] == "1"
        assert os.environ[CACHE_DIR_ENV_VAR] == str(tmp_path)
        assert os.environ[CACHE_DISABLE_ENV_VAR] == "1"

    def test_absent_flags_touch_nothing(self, monkeypatch):
        for var in (CACHE_DIR_ENV_VAR, CACHE_DISABLE_ENV_VAR, RESUME_ENV_VAR):
            monkeypatch.setenv(var, "sentinel")
            monkeypatch.delenv(var)
        args = cli.build_parser().parse_args(["generate"])
        cli._apply_shared_flags(args)
        import os

        assert RESUME_ENV_VAR not in os.environ
        assert CACHE_DIR_ENV_VAR not in os.environ
        assert CACHE_DISABLE_ENV_VAR not in os.environ


class TestCommands:
    def test_generate_json(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        from repro.experiments.runner import clear_memory_caches

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
        from repro.experiments.runner import clear_memory_caches

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
