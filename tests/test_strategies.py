"""Tests for the three search strategies (backtracking / greedy / beam).

The set is closed: :class:`~repro.api.SearchConfig` names one of
:data:`~repro.optimizer.strategies.STRATEGIES` and builds its runner.
"""

from __future__ import annotations

import pytest

import repro.api
import repro.optimizer
from repro.api import SearchConfig
from repro.ir import Circuit
from repro.optimizer import BacktrackingOptimizer, strategies
from repro.optimizer.strategies import (
    STRATEGIES,
    BacktrackingStrategy,
    BeamStrategy,
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


def _runner(strategy: str, **fields):
    return SearchConfig(strategy=strategy, **fields).runner()


class TestRegistry:
    """The closed set of strategies that replaced the registry."""

    def test_builtins_are_registered(self):
        assert STRATEGIES == ("backtracking", "greedy", "beam")
        assert isinstance(_runner("backtracking"), BacktrackingStrategy)
        assert isinstance(_runner("greedy"), BacktrackingStrategy)
        assert isinstance(_runner("beam"), BeamStrategy)

    def test_unknown_strategy_raises_with_known_names(self):
        with pytest.raises(ValueError, match="backtracking, greedy, beam"):
            SearchConfig(strategy="anneal")

    @pytest.mark.parametrize(
        "name", ["portfolio", "parallel-backtracking", "Greedy", "BEAM"]
    )
    def test_removed_strategies_are_unknown(self, name):
        # Removed strategies and other spellings of the three names.
        with pytest.raises(ValueError, match="SearchConfig.strategy"):
            SearchConfig(strategy=name)

    def test_options_reach_the_factory(self):
        runner = _runner("beam", beam_width=5, gamma=2.0)
        assert isinstance(runner, BeamStrategy)
        assert runner.beam_width == 5
        assert not hasattr(runner, "gamma")  # beam reads no gamma
        with pytest.raises(TypeError):
            BeamStrategy(gamma=2.0)
        with pytest.raises(ValueError, match="beam_width"):
            _runner("beam", beam_width=0)

    def test_instance_passthrough_rejects_options(self):
        # A strategy is named, never passed as an instance.
        with pytest.raises(ValueError, match="SearchConfig.strategy"):
            SearchConfig(strategy=BacktrackingStrategy())

    def test_custom_registration(self):
        # There is no registration hook, no factory table and no base
        # class to subclass: the three strategies are the whole set.
        removed = (
            "register_strategy",
            "get_strategy",
            "available_strategies",
            "SearchStrategy",
            "GreedyStrategy",
            "_FACTORIES",
        )
        for module in (strategies, repro.optimizer, repro.api):
            for name in removed:
                assert not hasattr(module, name), (module.__name__, name)
        for runner_class in (BacktrackingStrategy, BeamStrategy):
            assert not hasattr(runner_class, "name")


class TestStrategyBehaviour:
    def test_backtracking_strategy_matches_direct_optimizer(
        self, nam_transformations_small
    ):
        circuit = _figure6_circuit()
        direct = BacktrackingOptimizer(
            nam_transformations_small, gamma=1.0001
        ).optimize(circuit, max_iterations=300)
        via_config = _runner("backtracking", gamma=1.0001).run(
            circuit, nam_transformations_small, max_iterations=300
        )
        assert via_config.final_cost == direct.final_cost
        assert via_config.circuit == direct.circuit

    def test_beam_finds_the_cost_preserving_detour(
        self, nam_transformations_small
    ):
        """Beam search, like backtracking, survives the Figure 6 plateau."""
        circuit = _figure6_circuit()
        greedy = _runner("greedy").run(
            circuit, nam_transformations_small, max_iterations=300
        )
        beam = _runner("beam", beam_width=16).run(
            circuit, nam_transformations_small, max_iterations=30
        )
        assert beam.final_cost <= greedy.final_cost
        assert beam.final_cost < beam.initial_cost
        assert circuits_equivalent_numeric(circuit, beam.circuit)

    def test_beam_respects_iteration_budget_and_traces(
        self, nam_transformations_small
    ):
        result = _runner("beam", beam_width=4).run(
            _figure6_circuit(), nam_transformations_small, max_iterations=2
        )
        assert result.iterations <= 2
        assert result.cost_trace[0] == (0.0, result.initial_cost)
        assert not result.timed_out

    def test_beam_timeout(self, nam_transformations_small):
        result = _runner("beam", beam_width=64).run(
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
        for name in STRATEGIES:
            with pytest.raises(TypeError, match="stop_check"):
                _runner(name).run(
                    circuit, nam_transformations_small, stop_check=lambda: False
                )
            result = _runner(name).run(
                circuit, nam_transformations_small, max_iterations=3
            )
            assert not hasattr(result, "cancelled"), name
            assert not hasattr(result, "metadata"), name

    def test_all_strategies_preserve_equivalence(self, nam_transformations_small):
        circuit = _figure6_circuit()
        for name in STRATEGIES:
            result = _runner(name).run(
                circuit, nam_transformations_small, max_iterations=50
            )
            assert circuits_equivalent_numeric(circuit, result.circuit), name
