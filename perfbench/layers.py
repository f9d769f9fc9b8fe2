"""Per-layer metrics computed from a :class:`~spans.Tracer`'s aggregates.

Time metrics are seconds per unit of work: per pass on the batch
workloads, per request on ``serve-mixed``, and per set-up repetition for
the two set-up layers (``generator.cache_load_s``, ``optimizer.extract_s``).
A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from common import ratio
from spans import Tracer

#: The named circuits of ``search-warm`` that get their own search row.
NAMED_CIRCUITS = (
    ("nam", "barenco_tof_3"),
    ("nam", "mod5_4"),
    ("nam", "tof_4"),
    ("rigetti", "tof_3"),
)

#: Every per-layer metric name with its unit, in report order.  The
#: ``service.*`` rows, ``optimizer.cost_reduction_pct`` and
#: ``trace.overhead_pct`` are filled in by the workloads.
UNITS: Dict[str, str] = {
    "generator.generate_s": "s",
    "generator.candidates": "count",
    "generator.eccs": "count",
    "generator.cache_store_s": "s",
    "generator.cache_load_s": "s",
    "generator.verifier_share": "ratio",
    "semantics.fingerprint_s": "s",
    "semantics.fingerprint_calls": "count",
    "semantics.phase_screen_s": "s",
    "verifier.verify_s": "s",
    "verifier.verify_self_s": "s",
    "verifier.calls": "count",
    "verifier.proved_ratio": "ratio",
    "linalg.matmul_s": "s",
    "linalg.matmul_calls": "count",
    "linalg.equals_scaled_s": "s",
    "optimizer.extract_s": "s",
    "optimizer.search_s": "s",
    "optimizer.search_self_s": "s",
    **{f"optimizer.search_s.{gs}.{name}": "s" for gs, name in NAMED_CIRCUITS},
    "optimizer.match_s": "s",
    "optimizer.match_calls": "count",
    "optimizer.match_share": "ratio",
    "optimizer.successors": "count",
    "optimizer.match_yield": "ratio",
    "optimizer.cost_s": "s",
    "optimizer.seen_reject_ratio": "ratio",
    "optimizer.iterations": "count",
    "optimizer.explored": "count",
    "optimizer.cost_reduction_pct": "%",
    "ir.canonical_key_s": "s",
    "ir.canonical_key_calls": "count",
    "preprocess.preprocess_s": "s",
    "api.optimize_s": "s",
    "api.verify_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.verify_wait_s": "s",
    "service.hit_latency_s": "s",
    "service.miss_latency_s": "s",
    "service.memo_hit_ratio": "ratio",
    "service.polls_per_request": "count",
    "service.batch_occupancy": "count",
    "service.rejected": "count",
    "trace.overhead_pct": "%",
}


def circuit_op(pass_op: str, gate_set: str, name: str) -> str:
    """The operation id of one circuit inside a pass."""
    return f"{pass_op}/{gate_set}.{name}"


def layer_values(
    tracer: Tracer, units: Sequence[List[str]], setup_units: Sequence[List[str]]
) -> Dict[str, float]:
    """Per-layer values averaged over ``units`` (lists of operation ids)."""
    ops = [op for unit in units for op in unit]
    setup_ops = [op for unit in setup_units for op in unit]
    n = max(len(units), 1)
    n_setup = max(len(setup_units), 1)

    def per_unit(value: float) -> float:
        return value / n

    generate_s = tracer.seconds(ops, "generator.generate")
    verify_s = tracer.seconds(ops, "verifier.verify")
    verify_calls = tracer.calls(ops, "verifier.verify")
    search_s = tracer.seconds(ops, "optimizer.search")
    match_s = tracer.seconds(ops, "optimizer.match")
    match_calls = tracer.calls(ops, "optimizer.match")
    successors = tracer.count(ops, "optimizer.successors")
    values: Dict[str, float] = {
        "generator.generate_s": per_unit(generate_s),
        "generator.candidates": per_unit(tracer.count(ops, "generator.candidates")),
        "generator.eccs": per_unit(tracer.count(ops, "generator.eccs")),
        "generator.cache_store_s": per_unit(tracer.seconds(ops, "generator.cache_store")),
        "generator.cache_load_s": tracer.seconds(setup_ops, "generator.cache_load") / n_setup,
        "generator.verifier_share": ratio(verify_s, generate_s),
        "semantics.fingerprint_s": per_unit(tracer.seconds(ops, "semantics.fingerprint")),
        "semantics.fingerprint_calls": per_unit(tracer.calls(ops, "semantics.fingerprint")),
        "semantics.phase_screen_s": per_unit(tracer.seconds(ops, "semantics.phase_screen")),
        "verifier.verify_s": per_unit(verify_s),
        "verifier.verify_self_s": per_unit(tracer.self_seconds(ops, "verifier.verify")),
        "verifier.calls": per_unit(verify_calls),
        "verifier.proved_ratio": ratio(tracer.count(ops, "verifier.proved"), verify_calls),
        "linalg.matmul_s": per_unit(tracer.seconds(ops, "linalg.matmul")),
        "linalg.matmul_calls": per_unit(tracer.calls(ops, "linalg.matmul")),
        "linalg.equals_scaled_s": per_unit(tracer.seconds(ops, "linalg.equals_scaled")),
        "optimizer.extract_s": tracer.seconds(setup_ops, "optimizer.extract") / n_setup,
        "optimizer.search_s": per_unit(search_s),
        "optimizer.search_self_s": per_unit(tracer.self_seconds(ops, "optimizer.search")),
        "optimizer.match_s": per_unit(match_s),
        "optimizer.match_calls": per_unit(match_calls),
        "optimizer.match_share": ratio(match_s, search_s),
        "optimizer.successors": per_unit(successors),
        "optimizer.match_yield": ratio(successors, match_calls),
        "optimizer.cost_s": per_unit(tracer.seconds(ops, "optimizer.cost")),
        "optimizer.seen_reject_ratio": ratio(
            tracer.count(ops, "optimizer.seen_rejects"), successors
        ),
        "optimizer.iterations": per_unit(tracer.count(ops, "optimizer.iterations")),
        "optimizer.explored": per_unit(tracer.count(ops, "optimizer.explored")),
        "ir.canonical_key_s": per_unit(tracer.seconds(ops, "ir.canonical_key")),
        "ir.canonical_key_calls": per_unit(tracer.calls(ops, "ir.canonical_key")),
        "preprocess.preprocess_s": per_unit(tracer.seconds(ops, "preprocess.preprocess")),
        "api.optimize_s": per_unit(tracer.seconds(ops, "api.optimize")),
        "api.verify_s": per_unit(tracer.seconds(ops, "api.verify")),
    }
    for gate_set, name in NAMED_CIRCUITS:
        circuit_ops = [
            op for op in ops if op.endswith(f"/{gate_set}.{name}")
        ]
        values[f"optimizer.search_s.{gate_set}.{name}"] = per_unit(
            tracer.seconds(circuit_ops, "optimizer.search")
        )
    return values


def per_layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric in report order; missing ones report 0."""
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in UNITS.items()
    }
