"""Integration tests for the experiment modules (figures and ablations).

These run every experiment at a reduced scale and check the qualitative
findings the paper reports, which is what the reproduction is accountable
for: orderings between strategies, decay behaviour, skewness relations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    available_experiments,
    run_chaff_budget_sweep,
    run_cost_privacy_tradeoff,
    run_experiment,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_migration_policy_comparison,
)
from repro.experiments.ablations import run_online_eavesdropper_comparison
from repro.sim.config import SyntheticExperimentConfig
from repro.sim.results import ExperimentResult

#: Reduced-scale config shared by the synthetic-experiment tests.
SMALL = SyntheticExperimentConfig(n_runs=40, horizon=60)
TINY = SyntheticExperimentConfig(n_runs=15, horizon=40)


@pytest.fixture(scope="module")
def fig5_result() -> ExperimentResult:
    return run_fig5(SMALL)


class TestRegistry:
    def test_all_figures_registered(self):
        experiments = available_experiments()
        for expected in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"):
            assert expected in experiments

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_experiment_dispatches(self):
        result = run_experiment("fig4", SMALL)
        assert result.experiment_id == "fig4"


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return run_fig4(SyntheticExperimentConfig())

    def test_four_groups(self, result):
        assert len(result.groups) == 4

    def test_distributions_sum_to_one(self, result):
        for label in result.groups:
            series = result.series(label, "steady-state")
            assert np.isclose(sum(series.values), 1.0)

    def test_temporally_skewed_models_have_high_kl(self, result):
        assert result.scalars["kl/temporally-skewed"] > 5.0
        assert result.scalars["kl/spatially&temporally-skewed"] > 5.0
        assert result.scalars["kl/non-skewed"] < 1.0
        assert result.scalars["kl/spatially-skewed"] < 1.0

    def test_spatial_skew_ordering(self, result):
        assert (
            result.scalars["spatial/spatially&temporally-skewed"]
            > result.scalars["spatial/temporally-skewed"]
        )

    def test_temporally_skewed_steady_state_near_uniform(self, result):
        series = result.series("temporally-skewed", "steady-state")
        assert max(series.values) < 0.15


class TestFig5:
    def test_all_series_present(self, fig5_result):
        for label in fig5_result.groups:
            assert len(fig5_result.groups[label]) == 6

    def test_oo_and_mo_decay_to_near_zero(self, fig5_result):
        """The paper's headline result: OO/MO drive tracking accuracy toward
        zero while IM/ML stay bounded away from it (non-skewed model)."""
        group = "non-skewed"
        oo = fig5_result.series(group, "OO (N = 2)")
        mo = fig5_result.series(group, "MO (N = 2)")
        assert np.mean(oo.values[-10:]) < 0.1
        assert np.mean(mo.values[-10:]) < 0.1

    def test_im_stays_bounded_away_from_zero(self, fig5_result):
        group = "non-skewed"
        im = fig5_result.series(group, "IM (N = 2)")
        assert np.mean(im.values[-10:]) > 0.3

    def test_more_im_chaffs_reduce_accuracy(self, fig5_result):
        for group in fig5_result.groups:
            im2 = fig5_result.series(group, "IM (N = 2)").mean_value()
            im10 = fig5_result.series(group, "IM (N = 10)").mean_value()
            assert im10 < im2

    def test_skewed_mobility_is_easier_to_track(self, fig5_result):
        """More predictable users are tracked more accurately (same strategy)."""
        im_nonskewed = fig5_result.series("non-skewed", "IM (N = 2)").mean_value()
        im_both = fig5_result.series(
            "spatially&temporally-skewed", "IM (N = 2)"
        ).mean_value()
        assert im_both > im_nonskewed

    def test_oo_never_worse_than_cml(self, fig5_result):
        """OO is optimal among likelihood-qualified chaffs; CML is its
        analysable upper bound."""
        for group in fig5_result.groups:
            oo = fig5_result.series(group, "OO (N = 2)").mean_value()
            cml = fig5_result.series(group, "CML (N = 2)").mean_value()
            assert oo <= cml + 0.05

    def test_all_values_are_probabilities(self, fig5_result):
        for series_list in fig5_result.groups.values():
            for series in series_list:
                assert min(series.values) >= 0.0
                assert max(series.values) <= 1.0


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return run_fig6(TINY)

    def test_cdf_monotone_and_bounded(self, result):
        for series_list in result.groups.values():
            for series in series_list:
                values = np.asarray(series.values)
                assert np.all(np.diff(values) >= -1e-12)
                assert values[-1] <= 1.0 + 1e-12

    def test_mean_ct_negative_for_non_skewed(self, result):
        """E[c_t] < 0 is the decay condition; it holds for the random model."""
        assert result.scalars["non-skewed/CML/mean_ct"] < 0
        assert result.scalars["non-skewed/MO/mean_ct"] < 0

    def test_strategies_present(self, result):
        for group in result.groups:
            labels = {series.label for series in result.groups[group]}
            assert labels == {"CML", "MO"}


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return run_fig7(SyntheticExperimentConfig(n_runs=25, horizon=50), n_services=6)

    def test_all_strategies_present(self, result):
        for group in result.groups:
            labels = {series.label for series in result.groups[group]}
            assert labels == {"IM", "RML", "ROO", "RMO"}

    def test_robust_oo_beats_im_under_advanced_eavesdropper(self, result):
        """ROO should protect a non-skewed user better than IM even when the
        eavesdropper knows the strategy family."""
        group = "non-skewed"
        roo = result.scalars[f"{group}/ROO/tracking"]
        im = result.scalars[f"{group}/IM/tracking"]
        assert roo < im + 0.05

    def test_accuracies_are_probabilities(self, result):
        for value in result.scalars.values():
            assert 0.0 <= value <= 1.0


class TestAblations:
    def test_chaff_budget_sweep_matches_eq11(self):
        result = run_chaff_budget_sweep(
            SyntheticExperimentConfig(
                n_runs=60, horizon=40, mobility_models=("non-skewed",)
            ),
            budgets=(2, 4, 8),
        )
        simulated = result.series("non-skewed", "simulated")
        analytic = result.series("non-skewed", "eq11")
        for sim_value, ana_value in zip(simulated.values, analytic.values, strict=True):
            # ~3 standard errors at this test's 60-run budget; the gap
            # closes well below 0.05 at the paper's 1000 runs.
            assert abs(sim_value - ana_value) < 0.16
        # Monotone decrease with the budget.
        assert simulated.values[0] >= simulated.values[-1]

    def test_cost_privacy_tradeoff_costs_increase_with_chaffs(self):
        result = run_cost_privacy_tradeoff(
            SyntheticExperimentConfig(
                n_runs=10, horizon=30, mobility_models=("non-skewed",)
            ),
            chaff_counts=(0, 2),
            n_runs=5,
        )
        costs = result.series("non-skewed", "total-cost").values
        assert costs[-1] > costs[0]

    def test_migration_policy_comparison(self):
        result = run_migration_policy_comparison(
            SyntheticExperimentConfig(
                n_runs=10, horizon=30, mobility_models=("non-skewed",)
            ),
            n_runs=5,
        )
        assert result.scalars["always-follow/colocation"] == 1.0
        assert result.scalars["never-migrate/colocation"] < 1.0
        # The MDP policy is cost-aware: never more expensive than blind
        # always-follow by more than noise.
        assert result.scalars["mdp/cost"] <= result.scalars["always-follow/cost"] * 1.2

    @pytest.mark.parametrize(
        "runner", [run_cost_privacy_tradeoff, run_migration_policy_comparison]
    )
    def test_config_run_budget_caps_the_runs(self, runner):
        def config(n_runs):
            return SyntheticExperimentConfig(
                n_runs=n_runs, horizon=20, mobility_models=("non-skewed",)
            )

        capped = runner(config(3)).scalars
        assert capped == runner(config(1000), n_runs=3).scalars
        assert capped != runner(config(1000)).scalars

    @pytest.mark.parametrize(
        "runner",
        [
            run_migration_policy_comparison,
            run_cost_privacy_tradeoff,
            run_online_eavesdropper_comparison,
        ],
    )
    def test_zero_runs_rejected(self, runner):
        with pytest.raises(ValueError, match="n_runs"):
            runner(TINY, n_runs=0)

    def test_empty_chaff_counts_rejected(self):
        with pytest.raises(ValueError, match="chaff_counts"):
            run_cost_privacy_tradeoff(TINY, chaff_counts=())
