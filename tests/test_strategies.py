"""Tests for the search-strategy registry (backtracking / greedy / beam)."""

from __future__ import annotations

import pytest

from repro.ir import Circuit
from repro.optimizer import BacktrackingOptimizer
from repro.optimizer.search import OptimizationResult
from repro.optimizer.strategies import (
    BeamStrategy,
    GreedyStrategy,
    SearchStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.semantics.simulator import circuits_equivalent_numeric


def _figure6_circuit() -> Circuit:
    """H-wrapped CNOTs: flipping them (cost-preserving) exposes H·H pairs."""
    circuit = Circuit(3)
    circuit.h(1)
    circuit.cx(0, 1)
    circuit.h(1)
    circuit.h(1)
    circuit.cx(2, 1)
    circuit.h(1)
    return circuit


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"backtracking", "greedy", "beam"} <= set(available_strategies())

    def test_unknown_strategy_raises_with_known_names(self):
        with pytest.raises(KeyError, match="backtracking"):
            get_strategy("anneal")

    @pytest.mark.parametrize("name", ["portfolio", "parallel-backtracking"])
    def test_removed_strategies_are_unknown(self, name):
        assert available_strategies() == ["backtracking", "beam", "greedy"]
        with pytest.raises(KeyError, match="unknown search strategy"):
            get_strategy(name)

    def test_options_reach_the_factory(self):
        strategy = get_strategy("beam", beam_width=5)
        assert isinstance(strategy, BeamStrategy)
        assert strategy.beam_width == 5
        with pytest.raises(TypeError):
            get_strategy("beam", gamma=2.0)  # beam has no gamma

    def test_instance_passthrough_rejects_options(self):
        strategy = GreedyStrategy()
        assert get_strategy(strategy) is strategy
        with pytest.raises(ValueError):
            get_strategy(strategy, beam_width=2)

    def test_custom_registration(self):
        class NoOpStrategy(SearchStrategy):
            name = "noop"

            def run(self, circuit, transformations, cost_model=None, **_):
                from repro.optimizer.cost import GateCountCost

                cost = (cost_model or GateCountCost()).cost(circuit)
                return OptimizationResult(
                    circuit=circuit,
                    initial_cost=cost,
                    final_cost=cost,
                    iterations=0,
                    circuits_explored=0,
                    time_seconds=0.0,
                    timed_out=False,
                )

        register_strategy("noop-test", NoOpStrategy)
        try:
            result = get_strategy("noop-test").run(Circuit(1).h(0), [])
            assert result.final_cost == 1.0
        finally:
            from repro.optimizer import strategies

            strategies._FACTORIES.pop("noop-test")
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("beam", BeamStrategy)


class TestStrategyBehaviour:
    def test_backtracking_strategy_matches_direct_optimizer(
        self, nam_transformations_small
    ):
        circuit = _figure6_circuit()
        direct = BacktrackingOptimizer(
            nam_transformations_small, gamma=1.0001
        ).optimize(circuit, max_iterations=300)
        via_registry = get_strategy("backtracking", gamma=1.0001).run(
            circuit, nam_transformations_small, max_iterations=300
        )
        assert via_registry.final_cost == direct.final_cost
        assert via_registry.circuit == direct.circuit

    def test_beam_finds_the_cost_preserving_detour(
        self, nam_transformations_small
    ):
        """Beam search, like backtracking, survives the Figure 6 plateau."""
        circuit = _figure6_circuit()
        greedy = get_strategy("greedy").run(
            circuit, nam_transformations_small, max_iterations=300
        )
        beam = get_strategy("beam", beam_width=16).run(
            circuit, nam_transformations_small, max_iterations=30
        )
        assert beam.final_cost <= greedy.final_cost
        assert beam.final_cost < beam.initial_cost
        assert circuits_equivalent_numeric(circuit, beam.circuit)

    def test_beam_respects_iteration_budget_and_traces(
        self, nam_transformations_small
    ):
        result = get_strategy("beam", beam_width=4).run(
            _figure6_circuit(), nam_transformations_small, max_iterations=2
        )
        assert result.iterations <= 2
        assert result.cost_trace[0] == (0.0, result.initial_cost)
        assert not result.timed_out

    def test_beam_timeout(self, nam_transformations_small):
        result = get_strategy("beam", beam_width=64).run(
            _figure6_circuit(),
            nam_transformations_small,
            timeout_seconds=0.0,
        )
        assert result.timed_out
        assert result.final_cost <= result.initial_cost

    def test_beam_width_validation(self):
        with pytest.raises(ValueError, match="beam_width"):
            BeamStrategy(beam_width=0)

    def test_strategies_take_no_stop_check(self, nam_transformations_small):
        # The portfolio's cancellation hook and race metadata are gone.
        circuit = Circuit(2).h(0).h(0).cx(0, 1)
        for name in available_strategies():
            with pytest.raises(TypeError, match="stop_check"):
                get_strategy(name).run(
                    circuit, nam_transformations_small, stop_check=lambda: False
                )
            result = get_strategy(name).run(
                circuit, nam_transformations_small, max_iterations=3
            )
            assert not hasattr(result, "cancelled"), name
            assert not hasattr(result, "metadata"), name

    def test_all_strategies_preserve_equivalence(self, nam_transformations_small):
        circuit = _figure6_circuit()
        for name in ("backtracking", "greedy", "beam"):
            result = get_strategy(name).run(
                circuit, nam_transformations_small, max_iterations=50
            )
            assert circuits_equivalent_numeric(circuit, result.circuit), name
