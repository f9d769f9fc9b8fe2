"""Benchmark of the Quartz reproduction: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gen-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's layer functions (see ``spans.py``) and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a human-readable summary that also prints the
workload-specific metric names (``gen_pass_s``, ``search_pass_s``,
``throughput_rps``) and ``failed_ratio``.  End-to-end times are scaled to
the host's speed while they ran (``calibrate.py``); the summary prints the
raw figure next to each.  Every result, with its seed,
is also written to ``.perfbench/results/``, and a traced run's spans to
``.perfbench/spans/``.  ``--workload all`` runs each workload in its own
process, prints every summary and ends with one combined JSON line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import calibrate
import common
from batch import Interval
from layers import per_layer_metrics

WORKLOADS = ("gen-cold", "search-warm", "serve-mixed")

#: End-to-end metrics and units; every workload reports all of them.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops": "1/s",
    "peak_rss_mb": "MB",
}

#: Workload-specific names of the end-to-end metrics, printed in the
#: summary: a batch workload's operation is one pass.
ALIASES: Dict[str, Dict[str, str]] = {
    "gen-cold": {"latency_p50_s": "gen_pass_s"},
    "search-warm": {"latency_p50_s": "search_pass_s"},
    "serve-mixed": {"throughput_ops": "throughput_rps"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def end_to_end(outcome: Any, scale: Callable[[List[Interval]], float]) -> Dict[str, float]:
    """The end-to-end metrics of a run; ``scale(intervals)`` is the factor
    for the set-ups and for the operations (see ``calibrate.py``)."""

    def scaled(intervals: List[Interval], factor: float) -> List[float]:
        return [(end - start) * factor for start, end in intervals]

    ops_factor = scale(outcome.ops)
    ops = scaled(outcome.ops, ops_factor)
    if outcome.window is None:
        throughput = len(ops) / sum(ops)
    else:
        throughput = len(ops) / scaled([outcome.window], ops_factor)[0]
    return {
        "setup_s": common.median(scaled(outcome.setup, scale(outcome.setup))),
        "latency_p50_s": common.median(ops),
        "latency_tail_s": common.tail(ops)[0],
        "throughput_ops": throughput,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from spans import Tracer

    tracer = Tracer() if trace else None
    if workload == "gen-cold":
        from batch import gen_cold as runner
    elif workload == "search-warm":
        from batch import search_warm as runner
    else:
        from serve import serve_mixed as runner
    started = time.time()
    outcome = runner(seed, seconds, tracer)

    def host_scale(intervals: List[Interval]) -> float:
        return calibrate.scale(outcome.host_samples, intervals)

    reported = end_to_end(outcome, host_scale)
    if trace:
        metrics = per_layer_metrics(outcome.layers)
    else:
        metrics = {
            name: common.metric(reported[name], unit)
            for name, unit in END_TO_END_UNITS.items()
        }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    durations = [end - start for start, end in outcome.ops]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "started_unix": started,
        "failed_ratio": common.ratio(outcome.failed, outcome.attempted),
        "failures": outcome.failures,
        "end_to_end": reported,
        "raw_end_to_end": end_to_end(outcome, lambda intervals: 1.0),
        "tail_percentile": common.tail(durations)[1],
        "setup_seconds": [end - start for start, end in outcome.setup],
        "op_seconds": durations,
        "host_speed_samples": len(outcome.host_samples),
        "setup_scale": host_scale(outcome.setup),
        "op_scale": host_scale(outcome.ops),
        "info": outcome.info,
        **result,
    }
    results_dir = common.OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.dump(common.OUT / "spans" / f"{stem}.jsonl.gz", {"workload": workload, "seed": seed})
    _print_summary(record)
    return result


def _print_summary(record: Dict[str, Any]) -> None:
    workload = record["workload"]
    aliases = ALIASES.get(workload, {})
    print(
        f"{workload} seed={record['seed']} trace={record['trace']} "
        f"attempted={record['attempted']} failed={record['failed']} "
        f"failed_ratio={record['failed_ratio']:.4f}"
    )
    for name, value in record["end_to_end"].items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        raw = record["raw_end_to_end"][name]
        print(f"  {name}{alias} = {value:.6g} {END_TO_END_UNITS[name]} (raw {raw:.6g})")
    if "cost_reduction_pct" in record["info"]:
        print(f"  cost_reduction_pct = {record['info']['cost_reduction_pct']:.6g} %")
    if record["trace"]:
        for name, entry in record["metrics"].items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for failure in record["failures"][:20]:
        print(f"  FAILED: {failure}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; a summary JSON line at the end."""
    results: Dict[str, Any] = {}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=common.ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"{workload}: exit code {completed.returncode}")
            return 1
        results[workload] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: r["metrics"] for w, r in results.items()},
    }))
    return 0


def main(argv: List[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        common.check_checkout()
    except common.SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
