"""Experiment harnesses that regenerate the paper's tables and figures.

Each module corresponds to one table or figure of the evaluation section;
DESIGN.md's per-experiment index maps them.  All harnesses accept explicit
scale parameters (which circuits, which (n, q), what search budget) so that
the pytest benches can run laptop-sized versions while the same code scales
up to paper-sized runs.

The harnesses call :mod:`repro.api` directly (``run_generation``,
``build_ecc_set``, :class:`~repro.api.Superoptimizer`); their search runs
use :func:`~repro.experiments.table_gate_counts.table_config`, which keeps
``verify_output=False``: a table cell is the search's own result.  The CLI
(:mod:`repro.experiments.cli`) builds one :class:`~repro.api.RunConfig`
from the environment and its flags and passes it down
(``run_generator_metrics`` takes its ``generation`` layer); otherwise the
generator resolves the unset cache knobs at run time.  No module here
reads or writes the process environment itself.
"""

from repro.experiments.config import ExperimentConfig, SCALES
from repro.experiments.table_gate_counts import run_gate_count_table, geometric_mean_reduction
from repro.experiments.table_generator_metrics import run_generator_metrics
from repro.experiments.table_pruning import run_pruning_table
from repro.experiments.table_nq_sweep import run_nq_sweep
from repro.experiments.fig_effectiveness import run_effectiveness_figure
from repro.experiments.fig_time_curves import run_time_curves

__all__ = [
    "ExperimentConfig",
    "SCALES",
    "run_gate_count_table",
    "geometric_mean_reduction",
    "run_generator_metrics",
    "run_pruning_table",
    "run_nq_sweep",
    "run_effectiveness_figure",
    "run_time_curves",
]
