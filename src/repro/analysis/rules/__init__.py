"""The shipped reprolint rules; importing this package populates the registry.

==== ===========================  ========  =======================================
id   name                         severity  invariant enforced
==== ===========================  ========  =======================================
R001 unordered-iteration          error     sets never feed canonical output
R002 env-centralization           error     all env access through repro.envconfig
R003 blanket-except               error     catch-alls are documented contracts
R004 wall-clock-in-worker         warning   chunk results are pure (no clock/RNG)
R006 nondeterministic-reduction   error     bit-identical modules prove reductions
R007 mutable-module-global        error     no fork-divergent module state
==== ===========================  ========  =======================================

Each rule module carries the full rationale in its docstring; the README
"Static analysis & code health" section renders this table with examples.
"""

from repro.analysis.rules import (  # noqa: F401  (import = registration)
    r001_unordered_iteration,
    r002_env_centralization,
    r003_blanket_except,
    r004_wall_clock_in_worker,
    r006_nondet_reduction,
    r007_mutable_global,
)
