"""Unit tests for the deterministic fault-injection registry (repro.faults).

The chaos CI leg is only as trustworthy as the plan grammar: a schedule
that silently never fires would make every recovery-under-faults check
vacuous.  So parsing is strict (malformed plans raise
``FaultConfigError``), firing is deterministic (pinned here entry by
entry), and the plan state machinery (nth counting, once-consumption,
reset) is covered directly.
"""

from __future__ import annotations

import warnings

import pytest

from repro import faults
from repro.envconfig import FAULTS_ENV_VAR
from repro.errors import FaultConfigError, FaultInjected
from repro.faults import FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    """No test here may leak a plan into (or inherit one from) another."""
    faults.set_fault_plan(None)
    yield
    faults.set_fault_plan(None)


class TestSpecParsing:
    def test_default_when_is_once(self):
        spec = FaultSpec.parse("kill_worker:service")
        assert (spec.action, spec.site) == ("kill_worker", "service")
        assert (spec.when_kind, spec.when_value) == ("nth", 1)

    def test_round_trigger(self):
        # RepGen keeps no round checkpoints, so there is no crash_run
        # action, no gen site and no roundN trigger to aim one with.
        for entry in ("crash_run:gen:round1", "kill_worker:service:round2"):
            with pytest.raises(FaultConfigError):
                FaultSpec.parse(entry)

    def test_nth_trigger(self):
        spec = FaultSpec.parse("fail_chunk:service:4")
        assert (spec.when_kind, spec.when_value) == ("nth", 4)

    @pytest.mark.parametrize("when", ["*", "always"])
    def test_always_trigger(self, when):
        spec = FaultSpec.parse(f"torn_read:cache:{when}")
        assert spec.when_kind == "always"

    def test_case_and_whitespace_insensitive(self):
        spec = FaultSpec.parse("  Kill_Worker : SERVICE : Always  ".replace(" ", ""))
        assert (spec.action, spec.site) == ("kill_worker", "service")
        spec = FaultSpec.parse(" corrupt_blob : cache ")
        assert (spec.action, spec.site) == ("corrupt_blob", "cache")

    @pytest.mark.parametrize(
        "entry",
        [
            "kill_worker",  # no site
            "kill_worker:gen:once:extra",  # too many fields
            "nuke_it:gen",  # unknown action
            "kill_worker:everywhere",  # unknown site
            "corrupt_blob:gen",  # the gen site is gone
            "corrupt_blob:service",  # cache-only action at the pool site
            "crash_run:verify",  # the crash_run action is gone
            "crash_run:service",
            # Chunk actions fire only at the service pool's site.
            "kill_worker:gen:roundx",
            "kill_worker:gen:round0",
            "kill_worker:gen:0",
            "kill_worker:gen:sometimes",
            "delay_chunk:verify",
            "fail_chunk:search",
            "kill_worker:service:roundx",  # no round triggers
            "kill_worker:service:round0",
            "kill_worker:service:0",  # nth is 1-based
            "kill_worker:service:sometimes",  # unknown trigger
            "kill_worker::once",  # empty field
        ],
    )
    def test_malformed_entries_raise(self, entry):
        with pytest.raises(FaultConfigError):
            FaultSpec.parse(entry)

    def test_spec_string_round_trips(self):
        for entry in ("kill_worker:service:1", "corrupt_blob:cache:2", "torn_read:cache:*"):
            assert FaultSpec.parse(entry).spec_string() == entry


class TestPlanFiring:
    def test_empty_plan_is_falsy_and_never_fires(self):
        plan = FaultPlan.from_string("  , ,  ")
        assert not plan
        assert plan.fire("service", faults.CHUNK_ACTIONS) is None

    def test_once_fires_exactly_once(self):
        plan = FaultPlan.from_string("fail_chunk:service")
        assert plan.fire("service", faults.CHUNK_ACTIONS) == "fail_chunk"
        for _ in range(3):
            assert plan.fire("service", faults.CHUNK_ACTIONS) is None

    def test_nth_counts_consultations(self):
        plan = FaultPlan.from_string("fail_chunk:service:3")
        assert plan.fire("service", faults.CHUNK_ACTIONS) is None
        assert plan.fire("service", faults.CHUNK_ACTIONS) is None
        assert plan.fire("service", faults.CHUNK_ACTIONS) == "fail_chunk"
        assert plan.fire("service", faults.CHUNK_ACTIONS) is None

    def test_always_fires_every_time(self):
        plan = FaultPlan.from_string("delay_chunk:service:*")
        for _ in range(3):
            assert plan.fire("service", faults.CHUNK_ACTIONS) == "delay_chunk"

    def test_site_and_action_filtering(self):
        plan = FaultPlan.from_string("kill_worker:service,torn_read:cache")
        # A corrupt_blob consult at the cache site matches neither entry:
        # wrong site for the first, torn_read is not in the offered action
        # set for the second — and crucially its trigger is NOT burned by
        # the consult.
        assert plan.fire("cache", ("corrupt_blob",)) is None
        assert plan.fire("cache", ("torn_read",)) == "torn_read"
        assert plan.fire("service", faults.CHUNK_ACTIONS) == "kill_worker"

    def test_first_armed_entry_wins_and_others_keep_state(self):
        plan = FaultPlan.from_string("fail_chunk:service,delay_chunk:service")
        # Both are armed for their first consultation; only the first fires
        # and the second keeps its (now spent) nth trigger: the consult
        # counted for it too, so it never fires afterwards either.
        assert plan.fire("service", faults.CHUNK_ACTIONS) == "fail_chunk"
        assert plan.fire("service", faults.CHUNK_ACTIONS) is None

    def test_reset_rearms(self):
        plan = FaultPlan.from_string("fail_chunk:service")
        assert plan.fire("service", faults.CHUNK_ACTIONS) == "fail_chunk"
        plan.reset()
        assert plan.fire("service", faults.CHUNK_ACTIONS) == "fail_chunk"

    def test_plan_spec_string(self):
        text = "kill_worker:service:2,torn_read:cache:*"
        assert FaultPlan.from_string(text).spec_string() == text


class TestActivePlan:
    def test_lazy_env_load(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "torn_read:cache:2")
        faults.reset_fault_plan()
        plan = faults.active_plan()
        assert plan is not None
        assert plan.spec_string() == "torn_read:cache:2"

    def test_unset_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        faults.reset_fault_plan()
        assert faults.active_plan() is None
        assert faults.fire("service", faults.CHUNK_ACTIONS) is None

    def test_set_fault_plan_overrides_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "fail_chunk:service")
        faults.set_fault_plan(None)
        assert faults.active_plan() is None
        faults.set_fault_plan(FaultPlan.from_string("delay_chunk:service"))
        assert faults.fire("service", faults.CHUNK_ACTIONS) == "delay_chunk"

    def test_malformed_env_plan_raises_not_silently_ignores(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "bogus")
        faults.reset_fault_plan()
        with pytest.raises(FaultConfigError):
            faults.active_plan()

    def test_module_fire_consults_active_plan(self):
        faults.set_fault_plan(FaultPlan.from_string("torn_read:cache:2"))
        assert faults.fire("cache", ("torn_read",)) is None
        assert faults.fire("cache", ("torn_read",)) == "torn_read"


class TestChunkTokens:
    def test_kill_token(self):
        assert faults.chunk_token("kill_worker", 2.0) == ("kill",)

    def test_delay_token_overshoots_the_deadline(self):
        kind, seconds = faults.chunk_token("delay_chunk", 2.0)
        assert kind == "delay"
        assert seconds > 2.0

    def test_delay_token_without_deadline_is_a_token_pause(self):
        kind, seconds = faults.chunk_token("delay_chunk", None)
        assert kind == "delay"
        assert 0 < seconds < 1.0

    def test_fail_token(self):
        assert faults.chunk_token("fail_chunk", None) == ("fail",)

    def test_non_chunk_action_rejected(self):
        with pytest.raises(FaultConfigError):
            faults.chunk_token("torn_read", None)

    def test_apply_none_is_noop(self):
        faults.apply_chunk_fault(None)

    def test_apply_fail_raises_fault_injected(self):
        with pytest.raises(FaultInjected):
            faults.apply_chunk_fault(("fail",))

    def test_apply_delay_sleeps(self):
        import time

        start = time.perf_counter()
        faults.apply_chunk_fault(("delay", 0.05))
        assert time.perf_counter() - start >= 0.05

    def test_apply_unknown_token_warns(self):
        with pytest.warns(RuntimeWarning, match="unknown fault token"):
            faults.apply_chunk_fault(("meteor",))

    def test_known_action_tuples_cover_the_site_map(self):
        # The public action tuples and the internal site map must not drift.
        for action in faults.CHUNK_ACTIONS:
            assert FaultSpec.parse(f"{action}:service").site == "service"
        for action in faults.CACHE_ACTIONS:
            assert FaultSpec.parse(f"{action}:cache").site == "cache"

    def test_no_plan_fire_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert faults.fire("cache", faults.CACHE_ACTIONS) is None
