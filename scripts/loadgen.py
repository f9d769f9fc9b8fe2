#!/usr/bin/env python
"""Seeded concurrent load generator for the optimization service.

Drives ``N`` requests at a fixed concurrency against a running
``python -m repro.service`` instance, drawing circuits from the
benchmark suite with a seeded RNG (so a rerun issues the byte-identical
request sequence — duplicates included, which is what exercises the
content-hash cache), and records the end-to-end latency distribution::

    python scripts/loadgen.py --port 8321 --requests 20 --concurrency 4 \
        --json-out .benchmarks/service_loadgen.json --require-2xx \
        --require-cache-hit

Latency is submit-to-terminal (POST + long-poll until the job finishes),
i.e. what a caller actually waits.  The output JSON carries one
``service_loadgen`` entry whose ``*_seconds`` / ``*_ratio`` fields feed
the existing ``scripts/microbench_delta.py`` trajectory table, so the
serving percentiles ride the same CI step summary as the micro-bench
deltas.

``--require-2xx`` / ``--require-cache-hit`` turn the run into a gate:
non-2xx responses (or a cacheless run) exit non-zero.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default circuit pool: small enough to optimize quickly at the CI leg's
#: n=2/q=2 scale, few enough that a seeded draw of 20 repeats some (cache
#: hits).
DEFAULT_CIRCUITS = ("tof_3", "barenco_tof_3", "mod5_4")


def _benchmark_qasm(names: Sequence[str]) -> Dict[str, str]:
    from repro.benchmarks_suite import benchmark_circuit
    from repro.ir.qasm import to_qasm

    return {name: to_qasm(benchmark_circuit(name)) for name in names}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values), -(-len(sorted_values) * q // 1)))  # ceil
    return float(sorted_values[int(rank) - 1])


def _request(
    host: str, port: int, method: str, path: str, body: Optional[str], timeout: float
) -> Tuple[int, Dict[str, Any]]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body, headers)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload
    finally:
        conn.close()


def run_one(
    host: str, port: int, qasm: str, timeout: float
) -> Tuple[int, float, bool]:
    """POST one circuit and wait it out; (status, seconds, cached)."""
    start = time.perf_counter()
    status, payload = _request(
        host, port, "POST", "/v1/optimize", json.dumps({"qasm": qasm}), timeout
    )
    if status != 200:
        return status, time.perf_counter() - start, False
    job_id = payload["job_id"]
    cached = bool(payload.get("cached"))
    while payload.get("status") not in ("completed", "failed"):
        status, payload = _request(
            host, port, "GET", f"/v1/jobs/{job_id}?wait={timeout:g}", None, timeout
        )
        if status not in (200, 500):
            return status, time.perf_counter() - start, cached
    if payload.get("status") == "failed":
        return 500, time.perf_counter() - start, cached
    return status, time.perf_counter() - start, cached


def run_load(
    host: str,
    port: int,
    requests: int,
    concurrency: int,
    seed: int,
    timeout: float,
    circuits: Sequence[str],
) -> Dict[str, Any]:
    """Fire the seeded request sequence; returns the metrics entry."""
    qasm_by_name = _benchmark_qasm(circuits)
    rng = random.Random(seed)
    plan = [rng.choice(list(circuits)) for _ in range(requests)]
    results: List[Tuple[int, float, bool]] = [(0, 0.0, False)] * requests
    next_index = 0
    index_lock = threading.Lock()

    def worker() -> None:
        nonlocal next_index
        while True:
            with index_lock:
                if next_index >= requests:
                    return
                index = next_index
                next_index += 1
            results[index] = run_one(host, port, qasm_by_name[plan[index]], timeout)

    wall_start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}")
        for i in range(max(1, concurrency))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - wall_start

    latencies = sorted(seconds for _status, seconds, _cached in results)
    ok = sum(1 for status, _seconds, _cached in results if 200 <= status < 300)
    cached_responses = sum(1 for _s, _sec, cached in results if cached)
    _status, stats = _request(host, port, "GET", "/v1/stats", None, timeout)
    cache_hits = float(
        stats.get("service.cache.hits", 0) + stats.get("service.dedupe.hits", 0)
    )
    entry: Dict[str, Any] = {
        "requests": requests,
        "concurrency": concurrency,
        "seed": seed,
        "ok_responses": ok,
        "non_2xx_responses": requests - ok,
        "cached_responses": cached_responses,
        "cache_hits_observed": cache_hits,
        "cache_hit_ratio": cache_hits / requests if requests else 0.0,
        "p50_seconds": percentile(latencies, 0.50),
        "p95_seconds": percentile(latencies, 0.95),
        "p99_seconds": percentile(latencies, 0.99),
        "mean_seconds": sum(latencies) / len(latencies) if latencies else 0.0,
        "total_wall_seconds": wall_seconds,
        "throughput_rps": requests / wall_seconds if wall_seconds else 0.0,
    }
    return entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--requests", type=int, default=20)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="per-HTTP-call timeout (seconds)"
    )
    parser.add_argument(
        "--circuits",
        nargs="+",
        default=list(DEFAULT_CIRCUITS),
        help="benchmark-suite circuit names to draw from",
    )
    parser.add_argument(
        "--json-out",
        default=".benchmarks/service_loadgen.json",
        help="trajectory JSON path ('' disables writing)",
    )
    parser.add_argument(
        "--require-2xx",
        action="store_true",
        help="exit non-zero unless every request got a 2xx",
    )
    parser.add_argument(
        "--require-cache-hit",
        action="store_true",
        help="exit non-zero unless the service reports at least one cache/dedupe hit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    entry = run_load(
        args.host,
        args.port,
        args.requests,
        args.concurrency,
        args.seed,
        args.timeout,
        args.circuits,
    )
    print(
        f"[loadgen] {entry['requests']} requests @ {entry['concurrency']} "
        f"concurrent: p50 {entry['p50_seconds']:.3f}s  "
        f"p95 {entry['p95_seconds']:.3f}s  p99 {entry['p99_seconds']:.3f}s  "
        f"{entry['throughput_rps']:.2f} req/s  "
        f"{entry['ok_responses']}/{entry['requests']} 2xx  "
        f"{entry['cache_hits_observed']:.0f} cache hits"
    )
    if args.json_out:
        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps({"service_loadgen": entry}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"[loadgen] wrote {out}")
    failed = False
    if args.require_2xx and entry["non_2xx_responses"]:
        print(
            f"[loadgen] FAIL: {entry['non_2xx_responses']} non-2xx responses",
            file=sys.stderr,
        )
        failed = True
    if args.require_cache_hit and entry["cache_hits_observed"] < 1:
        print("[loadgen] FAIL: no cache/dedupe hit observed", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
