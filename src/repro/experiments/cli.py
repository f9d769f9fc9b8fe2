"""Command-line front end for the experiment drivers, built on the facade.

Runs the generation-centric experiments with the cache knobs exposed::

    python -m repro.experiments.cli generate --gate-set nam --n 3 --q 3
    python -m repro.experiments.cli generator-metrics --gate-set nam --n 1 2 3
    python -m repro.experiments.cli optimize --gate-set nam --circuit tof_3 \
        --strategy beam
    python -m repro.experiments.cli serve --port 8321 --n 2 --q 2

Shared flags:

* ``--cache-dir DIR``— persistent ECC cache location (default
  ``REPRO_CACHE_DIR`` or ``.repro_cache/``);
* ``--no-cache``     — neither read nor write the persistent cache.

``generate``, ``generator-metrics`` and ``optimize`` each build one
:class:`~repro.api.RunConfig` — :meth:`~repro.api.RunConfig.from_env` with
the flags given layered on top — and pass it down; the CLI never writes
the environment.

The ``optimize`` subcommand is a thin shell around
:class:`repro.api.Superoptimizer`, and its ``--strategy`` names one of the
three built-in searches (backtracking, greedy, beam).  Its JSON output is
the facade's versioned :meth:`~repro.api.RunReport.to_json_dict` schema —
the same payload the optimization service streams.  ``serve`` starts that
service (equivalent to ``python -m repro.service``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from repro.api import RunConfig, Superoptimizer, run_generation
from repro.optimizer.strategies import STRATEGIES


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gate-set",
        default="nam",
        help="target gate set (nam, ibm, rigetti, clifford_t)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent ECC cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the persistent .repro_cache/ store",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _run_config(args: argparse.Namespace, **overrides: Any) -> RunConfig:
    """The environment snapshot with the shared flags given, then ``overrides``."""
    flags: Dict[str, Any] = {"gate_set": args.gate_set}
    if args.cache_dir is not None:
        flags["cache_dir"] = args.cache_dir
    if args.no_cache:
        flags["cache_enabled"] = False
    return RunConfig.from_env().with_overrides(**flags, **overrides)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _run_config(args, n=args.n, q=args.q, verbose=not args.json)
    result = run_generation(config.gate_set, config.generation)
    stats = result.stats
    if args.json:
        json.dump(stats.as_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(
            f"[generate] {args.gate_set} n={args.n} q={args.q}: "
            f"{stats.num_eccs} classes, {stats.num_transformations} "
            f"transformations, {stats.circuits_considered} circuits considered "
            f"in {stats.total_time:.2f}s"
        )
        warm = stats.perf.get("cache.warm_hit")
        if warm:
            print("[generate] served from the persistent cache")
    return 0


def _cmd_generator_metrics(args: argparse.Namespace) -> int:
    from repro.experiments.table_generator_metrics import (
        format_table,
        run_generator_metrics,
    )

    rows = run_generator_metrics(
        args.gate_set, args.n, q_values=args.q, generation=_run_config(args).generation
    )
    if args.json:
        json.dump([row.as_dict() for row in rows], sys.stdout, indent=2)
        print()
    else:
        print(format_table(rows))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.benchmarks_suite import benchmark_circuit

    circuit = benchmark_circuit(args.circuit)
    config = _run_config(
        args,
        n=args.n,
        q=args.q,
        strategy=args.strategy,
        max_iterations=args.max_iterations,
        timeout_seconds=args.timeout,
    )
    report = Superoptimizer(config).optimize(circuit)
    if args.json:
        payload = dict(report.to_json_dict(), circuit=args.circuit)
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"[optimize] {args.circuit} on {args.gate_set}:")
        print(report.summary())
    return 0 if report.verified is not False else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Forward to ``python -m repro.service`` (one server, same flags)."""
    from repro.service.__main__ import main as service_main

    forwarded = list(args.serve_args)
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return service_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cli",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="run RepGen once (cache-aware)")
    _add_shared_flags(generate)
    generate.add_argument("--n", type=int, default=3, help="max gates per circuit")
    generate.add_argument("--q", type=int, default=3, help="number of qubits")
    generate.set_defaults(func=_cmd_generate)

    metrics = sub.add_parser(
        "generator-metrics", help="Table 5/8 generator metrics over a range of n"
    )
    _add_shared_flags(metrics)
    metrics.add_argument("--n", type=int, nargs="+", default=[1, 2, 3])
    metrics.add_argument("--q", type=int, nargs="+", default=[3])
    metrics.set_defaults(func=_cmd_generator_metrics)

    optimize = sub.add_parser(
        "optimize", help="preprocess + search on one benchmark (facade-backed)"
    )
    _add_shared_flags(optimize)
    optimize.add_argument("--circuit", default="tof_3")
    optimize.add_argument("--n", type=int, default=3)
    optimize.add_argument("--q", type=int, default=3)
    optimize.add_argument("--max-iterations", type=int, default=30)
    optimize.add_argument("--timeout", type=float, default=20.0)
    optimize.add_argument(
        "--strategy",
        default="backtracking",
        choices=STRATEGIES,
        help="search strategy",
    )
    optimize.set_defaults(func=_cmd_optimize)

    serve = sub.add_parser(
        "serve",
        help="run the optimization service (same as python -m repro.service)",
    )
    serve.add_argument(
        "serve_args",
        nargs=argparse.REMAINDER,
        help="flags forwarded to python -m repro.service (try: serve -- --help)",
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
