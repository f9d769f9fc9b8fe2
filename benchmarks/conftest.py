"""Shared helpers for the benchmark harnesses.

Each bench regenerates one table or figure of the paper at reproduction
scale (see the index in README.md, "Reproduction scope"), records the data in
``benchmark.extra_info`` and prints a formatted table so a
``pytest benchmarks/ --benchmark-only -s`` run shows the reproduced numbers.

Scale: the ``REPRO_SCALE`` environment variable selects the ``quick``
(default), ``medium`` or ``full`` preset from
:mod:`repro.experiments.config`.
"""

from __future__ import annotations

import sys


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiment harnesses are long-running compared to micro-benchmarks,
    so a single round keeps the suite laptop-sized while still recording
    wall-clock time per table.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(title: str, text: str) -> None:
    """Print a reproduced table under a banner (visible with ``-s``)."""
    print(f"\n=== {title} ===", file=sys.stderr)
    print(text, file=sys.stderr)
