"""Paths, environment pinning and statistics shared by the workloads."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes goes below this directory of the checkout.
OUT = ROOT / ".perfbench"

#: The search budget every workload pins.  Searches stop on iterations only;
#: the wall-clock cap is a hang guard that no search may reach.
MAX_ITERATIONS = 30
TIMEOUT_CAP_S = 60.0

#: Every ``REPRO_*`` knob the workloads read, pinned to the serial
#: defaults.  Any other ``REPRO_*`` variable of the host is removed, so a
#: stray setting cannot change the program measured.  ``REPRO_CACHE_DIR``
#: is set per run to a fresh directory below :data:`OUT`.
PINNED_ENV: Dict[str, str] = {
    "REPRO_GEN_WORKERS": "1",
    "REPRO_VERIFY_WORKERS": "1",
    "REPRO_SEARCH_WORKERS": "1",
    "REPRO_BATCHED": "1",
    "REPRO_CACHE_DISABLE": "0",
    "REPRO_CHUNK_TIMEOUT": "120",
    "REPRO_CHUNK_RETRIES": "2",
    "REPRO_SCALE": "quick",
    "REPRO_SERVICE_PORT": "0",
    "REPRO_SERVICE_WORKERS": "1",
    "REPRO_SERVICE_BATCH_WINDOW_MS": "25",
    "REPRO_SERVICE_MAX_QUEUE": "64",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


def check_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {SRC}; run from a full checkout")


def pinned_environ(cache_dir: Path) -> Dict[str, str]:
    """The process environment with every ``REPRO_*`` knob pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    return env


def pin_process(cache_dir: Path) -> None:
    """Pin this process's environment and make ``repro`` importable."""
    env = pinned_environ(cache_dir)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(tag: str) -> Path:
    """A fresh directory for one run's caches (removed by the caller)."""
    OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))


def copy_cache(source: Path, parent: Path, name: str) -> Path:
    target = parent / name
    shutil.copytree(source, target)
    return target


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it, but never below the median.

    With fewer than 20 samples no percentile above the median has ten
    samples beyond it, so the median is reported (percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 20:
        return median(ordered), 50.0
    # The k-th smallest value has n - k samples above it.
    k = n - 10
    return ordered[k - 1], 100.0 * k / n


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metric(value: float, unit: str) -> Dict[str, object]:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return {"value": value, "unit": unit}
