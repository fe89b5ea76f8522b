"""Tests for experiment configs, result containers, the Monte-Carlo runner
and the strategy sweep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.eavesdropper import MaximumLikelihoodDetector
from repro.core.game import PrivacyGame
from repro.core.strategies import get_strategy
from repro.sim.config import (
    AdversaryExperimentConfig,
    DynamicExperimentConfig,
    FleetExperimentConfig,
    SyntheticExperimentConfig,
    TraceExperimentConfig,
)
from repro.sim.monte_carlo import MonteCarloRunner, run_game_monte_carlo
from repro.sim.results import ExperimentResult, SeriesResult, to_jsonable
from repro.sim.runner import sweep_strategies


class TestSyntheticConfig:
    def test_defaults_match_paper(self):
        config = SyntheticExperimentConfig()
        assert config.n_cells == 10
        assert config.horizon == 100
        assert config.n_runs == 1000

    def test_roundtrip_dict(self):
        config = SyntheticExperimentConfig(n_runs=50, mobility_models=("non-skewed",))
        assert SyntheticExperimentConfig.from_dict(config.to_dict()) == config

    def test_scaled_copy(self):
        config = SyntheticExperimentConfig().scaled(n_runs=10, horizon=20)
        assert config.n_runs == 10 and config.horizon == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticExperimentConfig(n_cells=1)
        with pytest.raises(ValueError):
            SyntheticExperimentConfig(n_runs=0)


class TestTraceConfig:
    def test_defaults(self):
        config = TraceExperimentConfig()
        assert config.n_nodes == 174
        assert config.horizon == 100

    def test_roundtrip_dict(self):
        config = TraceExperimentConfig(n_nodes=30, strategies=("IM", "OO"))
        assert TraceExperimentConfig.from_dict(config.to_dict()) == config

    def test_scaled(self):
        config = TraceExperimentConfig().scaled(n_nodes=20, n_towers=30, horizon=40)
        assert (config.n_nodes, config.n_towers, config.horizon) == (20, 30, 40)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceExperimentConfig(n_nodes=1)
        with pytest.raises(ValueError):
            TraceExperimentConfig(top_k_users=0)


class TestUnknownNames:
    """A name no experiment can resolve fails when the config is built."""

    @pytest.mark.parametrize(
        "config_cls, field, value",
        [
            (SyntheticExperimentConfig, "mobility_models", ("non-skewed", "nope")),
            (TraceExperimentConfig, "strategies", ("IM", "nope")),
            (FleetExperimentConfig, "strategy", "nope"),
            (FleetExperimentConfig, "mobility_model", "nope"),
            (DynamicExperimentConfig, "strategy", "nope"),
            (DynamicExperimentConfig, "mobility_model", "nope"),
            (DynamicExperimentConfig, "regime_model", "nope"),
            (AdversaryExperimentConfig, "strategy", "nope"),
            (AdversaryExperimentConfig, "mobility_model", "nope"),
            (AdversaryExperimentConfig, "regime_model", "nope"),
        ],
    )
    def test_rejected_at_construction(self, config_cls, field, value):
        # workers=2: the name must not first be looked up inside a pool.
        with pytest.raises(ValueError, match=f"^{field}: unknown .*'nope'") as info:
            config_cls(**{field: value, "workers": 2})
        assert "available: [" in str(info.value)

    def test_strategy_names_are_case_insensitive(self):
        # get_strategy resolves names case-insensitively; so does the check.
        assert FleetExperimentConfig(strategy="im").strategy == "im"
        assert TraceExperimentConfig(strategies=("im", "Oo")).strategies == (
            "im",
            "Oo",
        )

    def test_regime_model_may_be_disabled(self):
        assert DynamicExperimentConfig(regime_model=None).regime_model is None
        assert AdversaryExperimentConfig(regime_model=None).regime_model is None


class TestSeriesResult:
    def test_from_array_and_stats(self):
        series = SeriesResult.from_array("x", np.array([1.0, 2.0, 3.0]), index=[0, 1, 2])
        assert series.mean_value() == 2.0
        assert series.final_value() == 3.0

    def test_roundtrip_dict(self):
        series = SeriesResult.from_array("x", [0.1, 0.2], index=[1, 2], note="hi")
        restored = SeriesResult.from_dict(series.to_dict())
        assert restored == series

    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesResult(label="", values=(1.0,))
        with pytest.raises(ValueError):
            SeriesResult(label="x", values=(1.0,), index=(1.0, 2.0))


class TestExperimentResult:
    def _result(self) -> ExperimentResult:
        return ExperimentResult(
            experiment_id="figX",
            description="demo",
            groups={"g": [SeriesResult.from_array("a", [1.0, 2.0])]},
            scalars={"s": 3.0},
            config={"n": 1},
        )

    def test_series_lookup(self):
        result = self._result()
        assert result.series("g", "a").values == (1.0, 2.0)
        assert result.group_labels("g") == ["a"]
        with pytest.raises(KeyError):
            result.series("g", "missing")

    def test_roundtrip_dict(self):
        result = self._result()
        assert ExperimentResult.from_dict(result.to_dict()) == result

    def test_save_and_load(self, tmp_path):
        result = self._result()
        path = result.save(tmp_path / "out" / "figx.json")
        assert path.exists()
        assert ExperimentResult.load(path) == result

    def test_summary_lines(self):
        lines = self._result().summary_lines()
        assert any("figX" in line for line in lines)
        assert any("s = 3" in line for line in lines)

    def test_to_jsonable_handles_numpy(self):
        data = to_jsonable({"a": np.float64(1.5), "b": np.arange(3), "c": (np.int64(2),)})
        assert data == {"a": 1.5, "b": [0, 1, 2], "c": [2]}

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            ExperimentResult(experiment_id="", description="x")


class TestMonteCarloRunner:
    def test_reproducible_across_calls(self, random_chain):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        a = MonteCarloRunner(n_runs=10, seed=3).run(game, horizon=15)
        b = MonteCarloRunner(n_runs=10, seed=3).run(game, horizon=15)
        assert np.array_equal(a.per_slot_accuracy, b.per_slot_accuracy)

    def test_different_seeds_differ(self, random_chain):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        a = MonteCarloRunner(n_runs=10, seed=3).run(game, horizon=15)
        b = MonteCarloRunner(n_runs=10, seed=4).run(game, horizon=15)
        assert not np.array_equal(a.per_slot_accuracy, b.per_slot_accuracy)

    def test_n_episodes_recorded(self, random_chain):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        stats = MonteCarloRunner(n_runs=7, seed=0).run(game, horizon=5)
        assert stats.n_episodes == 7

    def test_user_trajectory_provider(self, random_chain, rng):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        fixed = random_chain.sample_trajectory(12, rng)
        runner = MonteCarloRunner(n_runs=4, seed=1)
        episodes = runner.run_episodes(
            game, user_trajectory_provider=lambda run, run_rng: fixed
        )
        for episode in episodes:
            assert np.array_equal(episode.user_trajectory, fixed)

    def test_background_provider(self, random_chain, rng):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        background = random_chain.sample_trajectories(3, 10, rng)
        runner = MonteCarloRunner(n_runs=2, seed=1)
        episodes = runner.run_episodes(
            game, horizon=10, background_provider=lambda run, run_rng: background
        )
        assert episodes[0].observed_trajectories.shape == (5, 10)

    def test_requires_exactly_one_source(self, random_chain):
        game = PrivacyGame(
            random_chain, get_strategy("IM"), MaximumLikelihoodDetector(), n_services=2
        )
        runner = MonteCarloRunner(n_runs=2, seed=0)
        with pytest.raises(ValueError):
            runner.run(game)
        with pytest.raises(ValueError):
            runner.run(
                game, horizon=5, user_trajectory_provider=lambda run, run_rng: None
            )

    def test_invalid_run_count(self):
        with pytest.raises(ValueError):
            MonteCarloRunner(n_runs=0)

    def test_convenience_wrapper(self, random_chain):
        game = PrivacyGame(
            random_chain, get_strategy("OO"), MaximumLikelihoodDetector(), n_services=2
        )
        stats = run_game_monte_carlo(game, n_runs=5, horizon=10, seed=2)
        assert stats.horizon == 10


class TestStrategySweep:
    def test_sweep_produces_all_series(self, random_chain):
        sweep = sweep_strategies(
            random_chain,
            MaximumLikelihoodDetector(),
            {"IM (N = 2)": ("IM", 2), "OO (N = 2)": ("OO", 2)},
            horizon=15,
            n_runs=5,
            seed=0,
        )
        assert set(sweep.statistics) == {"IM (N = 2)", "OO (N = 2)"}
        series = sweep.series()
        assert len(series) == 2
        assert all(len(item.values) == 15 for item in series)

    def test_sweep_accepts_strategy_instances(self, random_chain):
        sweep = sweep_strategies(
            random_chain,
            MaximumLikelihoodDetector(),
            {"custom": (get_strategy("CML"), 2)},
            horizon=10,
            n_runs=3,
            seed=1,
        )
        assert "custom" in sweep.statistics

    def test_sweep_ordering_oo_below_im(self, random_chain):
        sweep = sweep_strategies(
            random_chain,
            MaximumLikelihoodDetector(),
            {"IM": ("IM", 2), "OO": ("OO", 2)},
            horizon=30,
            n_runs=30,
            seed=5,
        )
        assert (
            sweep.statistics["OO"].tracking_accuracy
            < sweep.statistics["IM"].tracking_accuracy
        )
