"""``repro.analysis`` — the determinism-invariant linter (*reprolint*).

Static enforcement of the invariants this reproduction's test suite can
only sample at runtime: byte-identical canonical output across
processes, reruns and retries, centralized ``REPRO_*`` parsing, the typed
error taxonomy, picklable worker specs, and fork-pool-safe module state.

Run it::

    PYTHONPATH=src python -m repro.analysis src scripts benchmarks
    python scripts/reprolint.py --list-rules

See :mod:`repro.analysis.core` for the framework (rules, suppressions,
severities), :mod:`repro.analysis.baseline` for the grandfathering
workflow, and :mod:`repro.analysis.rules` for the six shipped rules.
"""

from repro.analysis.core import (
    AnalysisResult,
    Finding,
    Rule,
    get_rule,
    register,
    registered_rules,
    run_analysis,
)

__all__ = [
    "AnalysisResult",
    "Finding",
    "Rule",
    "get_rule",
    "register",
    "registered_rules",
    "run_analysis",
]
