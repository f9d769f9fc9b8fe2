"""Deterministic fault injection for resilience testing (``REPRO_FAULTS``).

The failure paths of the service's worker pool and the persistent cache
need the same test rigor the fast paths have — which requires failures
that are *reproducible*.  This module turns a declarative plan into
deterministic fault firings at named injection points threaded through
:mod:`repro.workerpool` and :mod:`repro.generator.cache`.

Plan grammar (``REPRO_FAULTS``, comma-separated entries)::

    action:site[:when]

    REPRO_FAULTS=kill_worker:service,torn_read:cache:2

Actions and the sites that execute them:

========================  =======  ============================================
action                    sites    effect when fired
========================  =======  ============================================
``kill_worker``           service  the worker running the job dies hard
                                   (``os._exit``), which breaks the pool at
                                   once, exercising respawn + re-dispatch
``delay_chunk``           service  the job sleeps past its deadline,
                                   exercising the timeout + retry path
``fail_chunk``            service  the job raises ``FaultInjected`` inside
                                   the worker (clean failure + retry)
``corrupt_blob``          cache    the blob about to be read is bit-flipped
                                   *on disk* (persistent bit-rot: the re-read
                                   also fails, forcing regeneration)
``torn_read``             cache    one read attempt sees truncated text
                                   (transient partial read: the immediate
                                   re-read succeeds)
========================  =======  ============================================

``when`` selects the firing occasion, per spec entry:

* ``once`` (the default) — the first time the entry's injection point is
  consulted;
* a plain integer ``N`` — the N-th consultation (1-based);
* ``*`` / ``always`` — every consultation.

Every entry fires independently and at most one action is returned per
consultation (declaration order breaks ties), so a plan is a deterministic
schedule: the same plan against the same run produces the same failures.
Malformed plans raise :class:`~repro.errors.FaultConfigError` — a typo'd
chaos schedule that silently never fires would make its CI leg vacuous.

The active plan is process-global: parsed lazily from ``REPRO_FAULTS``
(forked pool workers inherit it, though worker-side actions are carried by
explicit chunk tokens, not by the plan), overridable in-process via
:func:`set_fault_plan` for tests.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.envconfig import FAULTS_ENV_VAR, env_faults
from repro.errors import FaultConfigError, FaultInjected

__all__ = [
    "FAULTS_ENV_VAR",
    "CHUNK_ACTIONS",
    "CACHE_ACTIONS",
    "FaultSpec",
    "FaultPlan",
    "active_plan",
    "set_fault_plan",
    "reset_fault_plan",
    "fire",
    "chunk_token",
    "apply_chunk_fault",
]

#: Actions executed inside pool workers, shipped as explicit chunk tokens.
CHUNK_ACTIONS = ("kill_worker", "delay_chunk", "fail_chunk")

#: Actions executed around persistent-cache reads.
CACHE_ACTIONS = ("corrupt_blob", "torn_read")

#: Every recognized action and the sites allowed to host it.
_ACTION_SITES = {
    "kill_worker": {"service"},
    "delay_chunk": {"service"},
    "fail_chunk": {"service"},
    "corrupt_blob": {"cache"},
    "torn_read": {"cache"},
}

_SITES = {"cache", "service"}


@dataclass
class FaultSpec:
    """One parsed ``action:site[:when]`` entry, with its firing state."""

    action: str
    site: str
    when_kind: str  # "nth" | "always"
    when_value: int = 1
    hits: int = field(default=0, compare=False)
    consumed: bool = field(default=False, compare=False)

    @classmethod
    def parse(cls, entry: str) -> "FaultSpec":
        parts = entry.strip().split(":")
        if len(parts) not in (2, 3) or not all(p.strip() for p in parts):
            raise FaultConfigError(
                f"malformed fault entry {entry!r} (expected action:site[:when])"
            )
        action = parts[0].strip().lower()
        site = parts[1].strip().lower()
        if action not in _ACTION_SITES:
            raise FaultConfigError(
                f"unknown fault action {action!r} in {entry!r} "
                f"(known: {', '.join(sorted(_ACTION_SITES))})"
            )
        if site not in _SITES:
            raise FaultConfigError(
                f"unknown fault site {site!r} in {entry!r} "
                f"(known: {', '.join(sorted(_SITES))})"
            )
        if site not in _ACTION_SITES[action]:
            raise FaultConfigError(
                f"action {action!r} cannot fire at site {site!r} "
                f"(allowed: {', '.join(sorted(_ACTION_SITES[action]))})"
            )
        when = parts[2].strip().lower() if len(parts) == 3 else "once"
        if when in ("*", "always"):
            return cls(action, site, "always")
        if when == "once":
            return cls(action, site, "nth", 1)
        try:
            nth = int(when)
        except ValueError:
            raise FaultConfigError(
                f"malformed trigger {when!r} in {entry!r} "
                "(expected once, always, * or an integer)"
            ) from None
        if nth < 1:
            raise FaultConfigError(f"trigger index must be >= 1 in {entry!r}")
        return cls(action, site, "nth", nth)

    def matches(self) -> bool:
        """Whether this consultation triggers the spec (after a hit bump)."""
        if self.consumed:
            return False
        if self.when_kind == "always":
            return True
        return self.hits == self.when_value  # "nth"

    def spec_string(self) -> str:
        when = "*" if self.when_kind == "always" else str(self.when_value)
        return f"{self.action}:{self.site}:{when}"


class FaultPlan:
    """A deterministic schedule of fault firings.

    Stateful: each spec counts how often its injection point was consulted
    and whether it already fired, so the same plan object must not be
    shared between independent runs — build a fresh one (or call
    :meth:`reset`) per run.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs = list(specs)

    @classmethod
    def from_string(cls, text: str) -> "FaultPlan":
        entries = [entry for entry in text.split(",") if entry.strip()]
        return cls([FaultSpec.parse(entry) for entry in entries])

    def __bool__(self) -> bool:
        return bool(self.specs)

    def reset(self) -> None:
        """Re-arm every spec (hit counters and consumption flags cleared)."""
        for spec in self.specs:
            spec.hits = 0
            spec.consumed = False

    def fire(self, site: str, actions: Sequence[str]) -> Optional[str]:
        """Consult the plan at an injection point; returns an action or None.

        ``actions`` is the set of actions the call site knows how to
        execute; only matching specs are consulted (and counted), so e.g.
        a ``torn_read:cache`` entry is not burned by the ``corrupt_blob``
        consultation that precedes every read.
        At most one action fires per consultation — the first armed spec
        in declaration order wins; the others keep their state.
        """
        fired: Optional[str] = None
        for spec in self.specs:
            if spec.site != site or spec.action not in actions:
                continue
            spec.hits += 1
            if fired is None and spec.matches():
                if spec.when_kind != "always":
                    spec.consumed = True
                fired = spec.action
        return fired

    def spec_string(self) -> str:
        """The plan re-rendered in ``REPRO_FAULTS`` syntax (for logging)."""
        return ",".join(spec.spec_string() for spec in self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec_string()!r})"


# -- the process-global active plan ------------------------------------------

_ACTIVE_PLAN: Optional[FaultPlan] = None
_PLAN_LOADED = False


def active_plan() -> Optional[FaultPlan]:
    """The process-wide plan: lazily parsed from ``REPRO_FAULTS``, or None."""
    global _ACTIVE_PLAN, _PLAN_LOADED
    if not _PLAN_LOADED:
        text = env_faults()
        _ACTIVE_PLAN = FaultPlan.from_string(text) if text else None
        if _ACTIVE_PLAN is not None and not _ACTIVE_PLAN:
            _ACTIVE_PLAN = None
        _PLAN_LOADED = True
    return _ACTIVE_PLAN


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install a plan in-process (tests); None clears it."""
    global _ACTIVE_PLAN, _PLAN_LOADED
    _ACTIVE_PLAN = plan
    _PLAN_LOADED = True


def reset_fault_plan() -> None:
    """Forget the in-process plan; the next consult re-reads ``REPRO_FAULTS``."""
    global _ACTIVE_PLAN, _PLAN_LOADED
    _ACTIVE_PLAN = None
    _PLAN_LOADED = False


def fire(site: str, actions: Sequence[str]) -> Optional[str]:
    """Consult the active plan; the no-plan fast path is two attribute reads."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.fire(site, actions)


# -- worker-side execution ----------------------------------------------------
#
# Chunk faults are decided by the *parent* (which owns the plan state) and
# shipped to workers as explicit tokens attached to
# the chunk payload.  That keeps every firing decision in one process —
# worker-local counters could drift between pool respawns — and works
# identically under fork and spawn start methods.

#: Exit status of a worker killed by an injected ``kill_worker`` fault.
KILLED_WORKER_EXIT_CODE = 23


def chunk_token(
    action: str, chunk_timeout: Optional[float]
) -> Tuple[object, ...]:
    """The worker-side token for a fired chunk action.

    ``delay_chunk`` sleeps comfortably past the per-chunk deadline so the
    parent reliably observes a timeout (when no deadline is configured the
    delay is a token pause — nothing can time out then anyway).
    """
    if action == "kill_worker":
        return ("kill",)
    if action == "delay_chunk":
        budget = chunk_timeout if chunk_timeout is not None else 0.0
        return ("delay", budget * 1.5 + 0.25)
    if action == "fail_chunk":
        return ("fail",)
    raise FaultConfigError(f"{action!r} is not a chunk action")


def apply_chunk_fault(token: Optional[Tuple[object, ...]]) -> None:
    """Execute a chunk fault token inside a worker (None is a no-op)."""
    if token is None:
        return
    kind = token[0]
    if kind == "kill":
        # A hard, unannounced death: no cleanup, no exception propagation —
        # exactly what an OOM kill or a segfault looks like to the parent.
        os._exit(KILLED_WORKER_EXIT_CODE)
    elif kind == "delay":
        time.sleep(float(token[1]))
    elif kind == "fail":
        raise FaultInjected("injected fail_chunk fault")
    else:  # pragma: no cover - tokens are built by chunk_token only
        warnings.warn(
            f"ignoring unknown fault token {token!r}", RuntimeWarning, stacklevel=2
        )
