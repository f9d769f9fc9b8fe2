"""Tests for the determinism-invariant linter (``repro.analysis``).

Four layers, mirroring how the linter is consumed:

* **Seeded violations** — every shipped rule is run against a minimal
  fixture tree containing exactly the violation it exists to catch, plus
  a clean twin that must stay silent (no false positives on the
  sanctioned pattern each rule documents).
* **Suppressions** — the ``# repro: allow(<rule>)`` contract: same-line
  and line-above placement, by rule id and by rule name.
* **Baseline round-trip** — write → apply marks findings baselined (they
  stop failing), a *new* finding still fails, and a fixed finding shows
  up as a stale entry.
* **CLI** — the exit codes the CI lint leg keys on (0 clean / 1 new
  error / 2 usage), the JSON schema other tooling consumes, and the
  markdown step summary.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import baseline as baseline_mod
from repro.analysis import reporters
from repro.analysis.callgraph import find_worker_entries, reachable_from
from repro.analysis.cli import main as cli_main
from repro.analysis.core import (
    ModuleInfo,
    ProjectIndex,
    collect_files,
    registered_rules,
    run_analysis,
)
from pathlib import Path

RULE_IDS = ("R001", "R002", "R003", "R004", "R006", "R007")


def lint(tmp_path, files, select=None):
    """Write ``files`` (rel path -> source) under tmp_path and lint them."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_analysis([Path(".")], tmp_path, select=select)


def rules_hit(result):
    return {finding.rule for finding in result.findings}


#: A module that makes its own functions worker-reachable: ``_chunk_fn``
#: and ``_init`` are the two positional entry arguments of a
#: ``ResilientPool(...)`` call, which is how the call-graph rules (R004,
#: R007) decide a module executes in workers.
POOL_PREAMBLE = """
    from repro.workerpool import ResilientPool

    def run(spec):
        with ResilientPool(_chunk_fn, _init, (spec,), 2) as pool:
            return pool.run(1)
"""


def pool_module(extra):
    """A worker-reachable fixture module: the pool preamble + ``extra``."""
    return textwrap.dedent(POOL_PREAMBLE) + textwrap.dedent(extra)


class TestRegistry:
    def test_all_seven_rules_registered(self):
        assert [rule.id for rule in registered_rules()] == list(RULE_IDS)

    def test_severities(self):
        by_id = {rule.id: rule.severity for rule in registered_rules()}
        assert by_id["R004"] == "warning"
        assert all(
            severity == "error"
            for rule_id, severity in by_id.items()
            if rule_id != "R004"
        )


class TestR001UnorderedIteration:
    def test_seeded_set_iteration_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    def fold(terms):
                        return [t for t in set(terms) if terms.count(t) % 2]
                """
            },
            select=["R001"],
        )
        assert rules_hit(result) == {"R001"}

    def test_sorted_and_order_insensitive_consumers_are_clean(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    def fold(terms, fixed):
                        shared = set(terms) & set(fixed)
                        ok = all(t > 0 for t in shared)
                        count = sum(1 for t in shared)
                        return sorted(set(terms)), ok, count
                """
            },
            select=["R001"],
        )
        assert result.findings == []

    def test_known_set_name_iterated_in_for_loop(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    def emit(circuit, qubits):
                        used = set(qubits)
                        for q in used:
                            circuit.append(q)
                """
            },
            select=["R001"],
        )
        assert rules_hit(result) == {"R001"}

    def test_out_of_scope_files_are_ignored(self, tmp_path):
        # Scripts iterate sets for reporting; only src/repro is in scope.
        result = lint(
            tmp_path,
            {
                "scripts/report.py": """
                    def show(names):
                        for name in set(names):
                            print(name)
                """
            },
            select=["R001"],
        )
        assert result.findings == []


class TestR002EnvCentralization:
    def test_seeded_environ_read_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    import os

                    def knob():
                        return os.environ.get("REPRO_THING", "")
                """
            },
            select=["R002"],
        )
        assert rules_hit(result) == {"R002"}

    def test_from_import_is_caught_at_import_and_use(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    from os import getenv

                    def knob():
                        return getenv("REPRO_THING")
                """
            },
            select=["R002"],
        )
        assert len(result.findings) == 2

    def test_envconfig_itself_is_allowed(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/envconfig.py": """
                    import os

                    def env_thing():
                        return os.environ.get("REPRO_THING", "")
                """
            },
            select=["R002"],
        )
        assert result.findings == []

    def test_only_envconfig_is_allowed(self, tmp_path):
        # The experiments CLI passes a RunConfig down; writing the
        # environment there is a finding like anywhere else.
        result = lint(
            tmp_path,
            {
                "src/repro/experiments/cli.py": """
                    import os

                    def apply_flags(cache_dir):
                        os.environ["REPRO_CACHE_DIR"] = cache_dir
                """
            },
            select=["R002"],
        )
        assert rules_hit(result) == {"R002"}


class TestR003BlanketExcept:
    def test_seeded_blanket_except_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    def risky():
                        try:
                            return 1
                        except Exception:
                            return None
                """
            },
            select=["R003"],
        )
        assert rules_hit(result) == {"R003"}

    def test_bare_except_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    def risky():
                        try:
                            return 1
                        except:
                            return None
                """
            },
            select=["R003"],
        )
        assert rules_hit(result) == {"R003"}

    def test_taxonomy_reraise_and_noqa_contract_are_clean(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    from repro.errors import PoolError

                    def wrapped():
                        try:
                            return 1
                        except Exception as error:
                            raise PoolError(str(error)) from error

                    def contracted():
                        try:
                            return 1
                        except Exception:  # noqa: BLE001 — best-effort probe
                            return None
                """
            },
            select=["R003"],
        )
        assert result.findings == []


class TestR004WallClockInWorker:
    def test_seeded_clock_read_in_chunk_fn_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": pool_module("""
                    import time

                    def _init(spec):
                        pass

                    def _chunk_fn(payload):
                        return time.time()
                """)
            },
            select=["R004"],
        )
        assert rules_hit(result) == {"R004"}
        assert all(f.severity == "warning" for f in result.findings)
        assert "_chunk_fn" in result.findings[0].message

    def test_clock_reachable_through_helper_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": pool_module("""
                    import time

                    def _init(spec):
                        pass

                    def _chunk_fn(payload):
                        return _helper(payload)

                    def _helper(payload):
                        return time.perf_counter()
                """)
            },
            select=["R004"],
        )
        assert rules_hit(result) == {"R004"}

    def test_clock_behind_an_unknown_receiver_is_caught_outside_the_pool(
        self, tmp_path
    ):
        # ``job.run(...)`` has no known receiver, so it reaches every
        # project method named ``run``: ``Runner.run`` is flagged, while
        # ``ResilientPool.run`` runs in the process that holds the pool.
        result = lint(
            tmp_path,
            {
                "src/repro/workerpool.py": """
                    import time

                    class ResilientPool:
                        def __init__(self, fn, init, args, workers):
                            self.started = time.monotonic()

                        def run(self, job):
                            return time.monotonic() - self.started
                """,
                "src/repro/mod.py": pool_module("""
                    import time

                    class Runner:
                        def run(self, job):
                            return time.perf_counter()

                    def _init(spec):
                        pass

                    def _chunk_fn(job):
                        return job.run(1)
                """),
            },
            select=["R004"],
        )
        assert [(f.path, f.rule) for f in result.findings] == [
            ("src/repro/mod.py", "R004")
        ]
        assert "Runner.run" in result.findings[0].message

    def test_clock_in_parent_only_code_is_clean(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    import time

                    def parent_side_timer():
                        return time.perf_counter()
                """
            },
            select=["R004"],
        )
        assert result.findings == []

    def test_seeded_rng_is_clean_only_when_seeded(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": pool_module("""
                    import numpy as np

                    def _init(spec):
                        pass

                    def _chunk_fn(payload):
                        good = np.random.default_rng(123)
                        bad = np.random.default_rng()
                        return good, bad
                """)
            },
            select=["R004"],
        )
        assert len(result.findings) == 1
        assert result.findings[0].line != 0


class TestR006NondeterministicReduction:
    def test_seeded_reduction_in_the_simulator_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/semantics/simulator.py": """
                    import numpy as np

                    def inner(a, b):
                        return np.dot(a, b)
                """
            },
            select=["R006"],
        )
        assert rules_hit(result) == {"R006"}

    def test_matmul_operator_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/semantics/fingerprint.py": """
                    def apply(m, v):
                        return m @ v
                """
            },
            select=["R006"],
        )
        assert rules_hit(result) == {"R006"}

    def test_method_reduction_in_the_fingerprint_path_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/semantics/fingerprint.py": """
                    def norm(states):
                        return states.conj().sum()
                """
            },
            select=["R006"],
        )
        assert rules_hit(result) == {"R006"}

    def test_argued_site_is_suppressed(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/semantics/simulator.py": """
                    import numpy as np

                    def apply(m, v):
                        # repro: allow(nondeterministic-reduction): exact shapes
                        return np.matmul(m, v)
                """
            },
            select=["R006"],
        )
        assert result.findings == []

    def test_module_outside_the_set_is_clean(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    import numpy as np

                    def free_standing(a, b):
                        return np.dot(a, b)
                """
            },
            select=["R006"],
        )
        assert result.findings == []

    def test_bit_identity_declaration_no_longer_selects_a_module(self, tmp_path):
        # The rule keys on the fingerprint modules, not on a class
        # attribute: the old ``batch_bit_identical = True`` marker is inert.
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    import numpy as np

                    class Backend:
                        batch_bit_identical = True

                        def inner(self, a, b):
                            return np.dot(a, b)
                """
            },
            select=["R006"],
        )
        assert result.findings == []

    def test_the_real_fingerprint_modules_are_clean(self):
        # Every reduction in the shipped kernels is argued inline.
        root = Path(__file__).resolve().parent.parent
        result = run_analysis(
            [Path("src/repro/semantics")], root, select=["R006"]
        )
        assert result.findings == []
        # Not vacuous: the three kernel matmuls are seen and suppressed.
        assert result.suppressed == 3


class TestR007MutableModuleGlobal:
    def test_seeded_mutated_global_in_worker_module_is_caught(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": pool_module("""
                    _CACHE = {}

                    def _init(spec):
                        pass

                    def _chunk_fn(payload):
                        _CACHE[payload] = payload * 2
                        return _CACHE[payload]
                """)
            },
            select=["R007"],
        )
        assert rules_hit(result) == {"R007"}
        assert "_CACHE" in result.findings[0].message

    def test_initializer_rebind_of_none_global_is_clean(self, tmp_path):
        # The sanctioned pattern: worker state starts as None and is rebuilt
        # from the spec by the pool initializer, once per process.
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": pool_module("""
                    _WORKER_CONTEXT = None

                    def _init(spec):
                        global _WORKER_CONTEXT
                        _WORKER_CONTEXT = spec

                    def _chunk_fn(payload):
                        return (_WORKER_CONTEXT, payload)
                """)
            },
            select=["R007"],
        )
        assert result.findings == []

    def test_parent_only_module_is_out_of_scope(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    _MEMO = {}

                    def cached(key):
                        _MEMO[key] = key
                        return _MEMO[key]
                """
            },
            select=["R007"],
        )
        assert result.findings == []


class TestSuppressions:
    SEEDED = """
        def fold(terms):
            return [t for t in set(terms) if terms.count(t) % 2]
    """

    def test_same_line_allow_by_id(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    def fold(terms):
                        return list(set(terms))  # repro: allow(R001): parity only
                """
            },
            select=["R001"],
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_line_above_allow_by_name(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    def fold(terms):
                        # repro: allow(unordered-iteration): parity only
                        return list(set(terms))
                """
            },
            select=["R001"],
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_allow_for_a_different_rule_does_not_suppress(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/mod.py": """
                    def fold(terms):
                        return list(set(terms))  # repro: allow(R002)
                """
            },
            select=["R001"],
        )
        assert rules_hit(result) == {"R001"}
        assert result.suppressed == 0


class TestParseErrors:
    def test_unparsable_file_is_a_finding_not_a_crash(self, tmp_path):
        result = lint(tmp_path, {"src/repro/mod.py": "def broken(:\n"})
        assert [f.rule for f in result.findings] == ["P000"]
        assert result.findings[0].severity == "error"


class TestBaselineRoundTrip:
    SEEDED = {
        "src/repro/mod.py": """
            def fold(terms):
                return [t for t in set(terms) if terms.count(t) % 2]
        """
    }

    def test_write_then_apply_marks_baselined(self, tmp_path):
        result = lint(tmp_path, self.SEEDED, select=["R001"])
        assert len(result.findings) == 1
        path = tmp_path / baseline_mod.DEFAULT_BASELINE_NAME
        count = baseline_mod.write_baseline(path, result.findings, tmp_path)
        assert count == 1

        rerun = lint(tmp_path, {}, select=["R001"])
        known = baseline_mod.load_baseline(path)
        findings, stale = baseline_mod.apply_baseline(
            rerun.findings, known, tmp_path
        )
        assert [f.baselined for f in findings] == [True]
        assert stale == []

    def test_new_finding_is_not_absorbed_by_old_baseline(self, tmp_path):
        result = lint(tmp_path, self.SEEDED, select=["R001"])
        path = tmp_path / baseline_mod.DEFAULT_BASELINE_NAME
        baseline_mod.write_baseline(path, result.findings, tmp_path)

        # Introduce a second, different violation.
        rerun = lint(
            tmp_path,
            {
                "src/repro/other.py": """
                    def emit(qubits):
                        for q in set(qubits):
                            print(q)
                """
            },
            select=["R001"],
        )
        known = baseline_mod.load_baseline(path)
        findings, stale = baseline_mod.apply_baseline(
            rerun.findings, known, tmp_path
        )
        by_path = {f.path: f.baselined for f in findings}
        assert by_path["src/repro/mod.py"] is True
        assert by_path["src/repro/other.py"] is False
        assert stale == []

    def test_fixed_finding_surfaces_as_stale(self, tmp_path):
        result = lint(tmp_path, self.SEEDED, select=["R001"])
        path = tmp_path / baseline_mod.DEFAULT_BASELINE_NAME
        baseline_mod.write_baseline(path, result.findings, tmp_path)

        # Fix the violation.
        (tmp_path / "src/repro/mod.py").write_text(
            "def fold(terms):\n    return sorted(set(terms))\n"
        )
        rerun = lint(tmp_path, {}, select=["R001"])
        known = baseline_mod.load_baseline(path)
        findings, stale = baseline_mod.apply_baseline(
            rerun.findings, known, tmp_path
        )
        assert findings == []
        assert len(stale) == 1
        assert stale[0]["rule"] == "R001"

    def test_fingerprints_survive_line_drift(self, tmp_path):
        result = lint(tmp_path, self.SEEDED, select=["R001"])
        path = tmp_path / baseline_mod.DEFAULT_BASELINE_NAME
        baseline_mod.write_baseline(path, result.findings, tmp_path)

        # Prepend code: the finding moves down, its content is unchanged.
        source = (tmp_path / "src/repro/mod.py").read_text()
        (tmp_path / "src/repro/mod.py").write_text(
            "import math\n\n\n" + source
        )
        rerun = lint(tmp_path, {}, select=["R001"])
        known = baseline_mod.load_baseline(path)
        findings, stale = baseline_mod.apply_baseline(
            rerun.findings, known, tmp_path
        )
        assert [f.baselined for f in findings] == [True]
        assert stale == []

    def test_version_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"version": 999, "findings": []}))
        with pytest.raises(ValueError):
            baseline_mod.load_baseline(path)


class TestCLI:
    SEEDED = textwrap.dedent(
        """
        def fold(terms):
            return [t for t in set(terms) if terms.count(t) % 2]
        """
    )
    CLEAN = "def fold(terms):\n    return sorted(set(terms))\n"

    def _tree(self, tmp_path, source):
        mod = tmp_path / "src" / "repro" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(source)
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.CLEAN)
        assert cli_main(["src", "--root", str(root), "--no-baseline"]) == 0

    def test_new_violation_fails_the_ci_leg(self, tmp_path, capsys):
        # The acceptance demo for the CI lint leg: a newly introduced
        # violation (not in any baseline) must exit 1.
        root = self._tree(tmp_path, self.SEEDED)
        assert cli_main(["src", "--root", str(root), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "1 new error(s)" in out

    def test_baselined_violation_exits_zero(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.SEEDED)
        assert cli_main(["src", "--root", str(root), "--write-baseline"]) == 0
        assert cli_main(["src", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_warnings_do_not_fail(self, tmp_path, capsys):
        root = tmp_path
        mod = root / "src" / "repro" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            textwrap.dedent(POOL_PREAMBLE)
            + textwrap.dedent(
                """
                import time

                def _init(spec):
                    pass

                def _chunk_fn(payload):
                    return time.time()
                """
            )
        )
        code = cli_main(
            ["src", "--root", str(root), "--no-baseline", "--select", "R004"]
        )
        assert code == 0
        assert "warning" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path):
        root = self._tree(tmp_path, self.CLEAN)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["src", "--root", str(root), "--select", "R999"])
        assert excinfo.value.code == 2

    def test_no_files_exits_two(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert cli_main(["empty", "--root", str(tmp_path)]) == 2

    def test_json_schema(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.SEEDED)
        code = cli_main(
            ["src", "--root", str(root), "--no-baseline", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "reprolint"
        assert payload["version"] == reporters.JSON_SCHEMA_VERSION
        assert set(payload["rules"]) == set(RULE_IDS)
        for meta in payload["rules"].values():
            assert {"name", "severity", "description"} <= set(meta)
        assert payload["summary"]["new_errors"] == 1
        assert payload["summary"]["new_warnings"] == 0
        assert payload["summary"]["files_scanned"] == 1
        (finding,) = payload["findings"]
        assert {
            "path",
            "line",
            "col",
            "rule",
            "name",
            "severity",
            "message",
            "baselined",
        } <= set(finding)
        assert finding["rule"] == "R001"
        assert finding["path"] == "src/repro/mod.py"

    def test_markdown_summary_is_appended(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.SEEDED)
        summary = tmp_path / "step_summary.md"
        summary.write_text("# earlier step\n")
        cli_main(
            [
                "src",
                "--root",
                str(root),
                "--no-baseline",
                "--summary",
                str(summary),
            ]
        )
        text = summary.read_text()
        assert text.startswith("# earlier step\n")
        assert "## reprolint" in text
        assert "| Location | Rule | Status | Message |" in text
        assert "R001" in text

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out


class TestSelfCheck:
    def test_shipped_tree_is_clean(self):
        # The acceptance criterion, as a test: the linter over the real
        # tree (src, scripts, benchmarks) with the checked-in baseline
        # reports no new errors and no stale entries.
        repo_root = Path(__file__).resolve().parent.parent
        result = run_analysis(
            [Path("src"), Path("scripts"), Path("benchmarks")], repo_root
        )
        known = baseline_mod.load_baseline(
            repo_root / baseline_mod.DEFAULT_BASELINE_NAME
        )
        findings, stale = baseline_mod.apply_baseline(
            result.findings, known, repo_root
        )
        new_errors = [
            f for f in findings if not f.baselined and f.severity == "error"
        ]
        assert new_errors == []
        assert stale == []

    def test_worker_entries_of_the_shipped_tree(self):
        # R004 and R007 see only code reachable from a ResilientPool call's
        # job function and initializer.  Pinning the shipped entries keeps
        # a restructured pool from leaving both rules checking nothing.
        repo_root = Path(__file__).resolve().parent.parent
        modules = [
            ModuleInfo(repo_root, path)
            for path in collect_files([Path("src")], repo_root)
        ]
        project = ProjectIndex(modules)
        entries = find_worker_entries(project)
        assert sorted(entries) == [
            ("repro.service.executor", "_init_service_worker"),
            ("repro.service.executor", "_service_worker"),
        ]
        reachable = reachable_from(project, entries)
        assert ("repro.api.facade", "Superoptimizer.optimize") in reachable
        # The pool's own methods run in the process that holds it, and the
        # job table behind them in the service process only.
        assert ("repro.service.jobs", "JobManager._new_job") not in reachable
        pool_methods = [
            key
            for key, record in project.functions.items()
            if record.class_name == "ResilientPool"
        ]
        assert ("repro.workerpool", "ResilientPool.run") in pool_methods
        assert not reachable.intersection(pool_methods)
