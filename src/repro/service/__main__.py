"""``python -m repro.service`` — run the optimization service.

Flags override the ``REPRO_SERVICE_*`` environment snapshot; run-config
flags (``--n``, ``--q``, ``--gate-set``, ...) override the ``REPRO_*``
base the same way the facade's ``with_overrides`` does.  SIGINT/SIGTERM
trigger a graceful shutdown: the listener closes, and every queued and
running job finishes through the warm executors before the process exits.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import signal
import sys
from typing import Any, Dict, Optional, Sequence

from repro.optimizer.strategies import STRATEGIES
from repro.service.config import ServiceConfig
from repro.service.http import OptimizationHTTPServer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default=None, help="bind address (default: loopback)")
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port; 0 binds an ephemeral one (default: REPRO_SERVICE_PORT)",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=None,
        help=(
            "job executors: <2 in-process threads, 2+ a persistent "
            "multiprocess pool (default: REPRO_SERVICE_WORKERS)"
        ),
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="pending-job bound; beyond it submissions get 429 (default: REPRO_SERVICE_MAX_QUEUE)",
    )
    parser.add_argument("--gate-set", default=None, help="base gate set (default: nam)")
    parser.add_argument("--n", type=int, default=None, help="base ECC generation n")
    parser.add_argument("--q", type=int, default=None, help="base ECC generation q")
    parser.add_argument(
        "--strategy", default=None, choices=STRATEGIES, help="base search strategy"
    )
    return parser


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    service_overrides: Dict[str, Any] = {}
    if args.host is not None:
        service_overrides["host"] = args.host
    if args.port is not None:
        service_overrides["port"] = args.port
    if args.service_workers is not None:
        service_overrides["workers"] = max(args.service_workers, 1)
    if args.max_queue is not None:
        service_overrides["max_queue"] = max(args.max_queue, 1)
    config = ServiceConfig.from_env(**service_overrides)
    run_overrides: Dict[str, Any] = {}
    for flag in ("gate_set", "n", "q", "strategy"):
        value = getattr(args, flag)
        if value is not None:
            run_overrides[flag] = value
    if run_overrides:
        config = dataclasses.replace(
            config, run_config=config.run_config.with_overrides(**run_overrides)
        )
    return config


async def _serve(config: ServiceConfig) -> None:
    server = OptimizationHTTPServer(config=config)
    await server.start()
    print(
        f"repro.service listening on http://{config.host}:{server.port} "
        f"(workers={config.workers}, max_queue={config.max_queue})",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    serving = asyncio.create_task(server.serve_forever())
    await stop.wait()
    print("repro.service draining...", flush=True)
    serving.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await serving
    await server.stop(drain=True)
    print("repro.service stopped", flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    asyncio.run(_serve(_service_config(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
