"""Fig. 7: tracking accuracy of the advanced (strategy-aware) eavesdropper.

The advanced eavesdropper knows the chaff control strategy; the
deterministic strategies collapse against it, so Fig. 7 compares the IM
strategy with the randomised robust strategies RML, ROO and RMO, all with
``N = 10`` (nine chaffs), for each synthetic mobility model.

The strategy-aware detector is instantiated with the deterministic
counterpart of each employed strategy (ML for RML, OO for ROO, MO for
RMO): that is the best reproducible map the eavesdropper can test
observed trajectories against, and it is exactly the attack the robust
variants are designed to defeat.
"""

from __future__ import annotations

from ..core.eavesdropper.advanced import StrategyAwareDetector
from ..core.strategies.base import get_strategy
from ..mobility.models import paper_synthetic_models
from ..sim.config import SyntheticExperimentConfig
from ..sim.results import ExperimentResult, SeriesResult
from ..sim.runner import sweep_strategies
from ..sim.seeding import spawn_sequences

__all__ = ["run_fig7", "FIG7_STRATEGIES"]

#: (series label, employed strategy, strategy the eavesdropper assumes).
FIG7_STRATEGIES: tuple[tuple[str, str, str], ...] = (
    ("IM", "IM", "IM"),
    ("RML", "RML", "ML"),
    ("ROO", "ROO", "OO"),
    ("RMO", "RMO", "MO"),
)


def run_fig7(
    config: SyntheticExperimentConfig | None = None, *, n_services: int = 10
) -> ExperimentResult:
    """Run the advanced-eavesdropper sweep of Fig. 7."""
    config = config or SyntheticExperimentConfig()
    if n_services < 2:
        raise ValueError("n_services must be at least 2")
    models = paper_synthetic_models(
        config.n_cells, seed=config.seed, backend=config.backend
    )
    groups: dict[str, list[SeriesResult]] = {}
    scalars: dict[str, float] = {}
    n_models = len(config.mobility_models)
    children = spawn_sequences(
        config.seed, n_models * len(FIG7_STRATEGIES), key="fig7"
    )
    for model_index, label in enumerate(config.mobility_models):
        chain = models[label]
        series_list = []
        for strategy_index, (series_label, employed, assumed) in enumerate(
            FIG7_STRATEGIES
        ):
            detector = StrategyAwareDetector(get_strategy(assumed))
            sweep = sweep_strategies(
                chain,
                detector,
                {series_label: (employed, n_services)},
                horizon=config.horizon,
                n_runs=config.n_runs,
                seed=children[
                    model_index * len(FIG7_STRATEGIES) + strategy_index
                ],
                model_label=label,
                workers=config.workers,
            )
            stats = sweep.statistics[series_label]
            series_list.extend(sweep.series())
            scalars[f"{label}/{series_label}/tracking"] = stats.tracking_accuracy
        groups[label] = series_list
    return ExperimentResult(
        experiment_id="fig7",
        description=(
            "Tracking accuracy of the advanced (strategy-aware) eavesdropper "
            f"with N = {n_services}"
        ),
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )
