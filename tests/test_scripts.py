"""Smoke tests for the checked-in CI helper scripts (``scripts/``).

The scripts are plain files, not a package, so they are loaded by path;
each one is exercised in-process exactly the way the workflow invokes it,
so a CI-leg regression (bad flag, wrong exit code, broken table) fails
here first.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Register before exec so dataclasses/pickling inside the script (none
    # today) and repeated loads behave; overwritten per test run.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def microbench_delta():
    return _load_script("microbench_delta")


class TestMicrobenchDelta:
    CURRENT = {
        "check_only": True,
        "seed_baselines": {"repgen_n3_q3_seconds": 9.0, "search_tof3_seconds": 1.53},
        "repgen_n3_q3": {"seconds": 1.5, "speedup_vs_seed": 6.0, "perf": {"x": 1}},
        "search_tof3": {"seconds": 0.6, "speedup_vs_seed": 2.5, "final_cost": 35},
        "new_entry": {"seconds": 0.1},
    }
    PREVIOUS = {
        "repgen_n3_q3": {"seconds": 1.0, "speedup_vs_seed": 9.0},
        "search_tof3": {"seconds": 0.5, "speedup_vs_seed": 3.0},
        "old_entry": {"seconds": 0.2},
    }

    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_collect_metrics_keeps_only_scalar_timings(self, microbench_delta):
        metrics = microbench_delta.collect_metrics(self.CURRENT)
        assert metrics[("repgen_n3_q3", "seconds")] == 1.5
        assert ("repgen_n3_q3", "perf") not in metrics
        assert ("search_tof3", "final_cost") not in metrics
        entries = {entry for entry, _metric in metrics}
        # Bookkeeping stays out of the table: the constant baselines would
        # render as permanently-unchanged rows on every push.
        assert "seed_baselines" not in entries
        assert "check_only" not in entries

    def test_delta_table_flags_regressions_warn_only(
        self, microbench_delta, tmp_path
    ):
        current = self._write(tmp_path, "current.json", self.CURRENT)
        previous = self._write(tmp_path, "previous.json", self.PREVIOUS)
        summary = tmp_path / "summary.md"
        code = microbench_delta.main(
            [
                "--current",
                str(current),
                "--previous",
                str(previous),
                "--summary",
                str(summary),
            ]
        )
        assert code == 0
        table = summary.read_text(encoding="utf-8")
        assert "| repgen_n3_q3 | seconds | 1 | 1.5 | +50.0% ⚠ |" in table
        # A ratio drop beyond the threshold also warns...
        assert "| repgen_n3_q3 | speedup_vs_seed | 9 | 6 | -33.3% ⚠ |" in table
        # ...but a change within it does not.
        assert "| search_tof3 | seconds | 0.5 | 0.6 | +20.0% |" in table
        # Entries present on only one side render with a placeholder.
        assert "| new_entry | seconds | — | 0.1 | — |" in table
        assert "| old_entry | seconds | 0.2 | — | — |" in table

    def test_missing_previous_is_not_an_error(self, microbench_delta, tmp_path, capsys):
        current = self._write(tmp_path, "current.json", self.CURRENT)
        code = microbench_delta.main(
            ["--current", str(current), "--previous", str(tmp_path / "absent.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "No previous artifact" in out
        assert "| new_entry | seconds |" in out

    def test_missing_current_is_reported_but_exits_zero(
        self, microbench_delta, tmp_path, capsys
    ):
        code = microbench_delta.main(
            ["--current", str(tmp_path / "nope.json")]
        )
        assert code == 0
        assert "no current trajectory" in capsys.readouterr().out
