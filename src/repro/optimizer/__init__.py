"""Circuit optimizer: verified transformations + cost-based backtracking search."""

from repro.optimizer.cost import CostModel, GateCountCost, TwoQubitCountCost, TCountCost, DepthCost
from repro.optimizer.xfer import Transformation, transformations_from_ecc_set
from repro.optimizer.matcher import PatternMatcher, Match
from repro.optimizer.search import BacktrackingOptimizer, OptimizationResult

__all__ = [
    "CostModel",
    "GateCountCost",
    "TwoQubitCountCost",
    "TCountCost",
    "DepthCost",
    "Transformation",
    "transformations_from_ecc_set",
    "PatternMatcher",
    "Match",
    "BacktrackingOptimizer",
    "OptimizationResult",
]
