"""Fig. 5: tracking accuracy of the basic (ML) eavesdropper over time.

For each of the four synthetic mobility models, the per-slot tracking
accuracy of the ML detector is plotted for the strategies
IM (N = 2), ML (N = 2), OO (N = 2), MO (N = 2), CML (N = 2) and
IM (N = 10), averaged over Monte-Carlo runs.
"""

from __future__ import annotations

from ..core.eavesdropper.detector import MaximumLikelihoodDetector
from ..mobility.models import paper_synthetic_models
from ..sim.config import SyntheticExperimentConfig
from ..sim.results import ExperimentResult, SeriesResult
from ..sim.runner import sweep_strategies
from ..sim.seeding import spawn_sequences

__all__ = ["run_fig5", "FIG5_SERIES"]

#: The (strategy, N) combinations plotted in Fig. 5, in legend order.
FIG5_SERIES: tuple[tuple[str, str, int], ...] = (
    ("IM (N = 2)", "IM", 2),
    ("ML (N = 2)", "ML", 2),
    ("OO (N = 2)", "OO", 2),
    ("MO (N = 2)", "MO", 2),
    ("CML (N = 2)", "CML", 2),
    ("IM (N = 10)", "IM", 10),
)


def run_fig5(config: SyntheticExperimentConfig | None = None) -> ExperimentResult:
    """Run the Fig. 5 sweep and return per-slot accuracy curves."""
    config = config or SyntheticExperimentConfig()
    models = paper_synthetic_models(
        config.n_cells, seed=config.seed, backend=config.backend
    )
    detector = MaximumLikelihoodDetector()
    groups: dict[str, list[SeriesResult]] = {}
    scalars: dict[str, float] = {}
    model_children = spawn_sequences(
        config.seed, len(config.mobility_models), key="fig5"
    )
    for model_child, label in zip(model_children, config.mobility_models, strict=True):
        chain = models[label]
        specs = {
            series_label: (strategy_name, n_services)
            for series_label, strategy_name, n_services in FIG5_SERIES
        }
        sweep = sweep_strategies(
            chain,
            detector,
            specs,
            horizon=config.horizon,
            n_runs=config.n_runs,
            seed=model_child,
            model_label=label,
            workers=config.workers,
        )
        groups[label] = sweep.series()
        for series_label, stats in sweep.statistics.items():
            scalars[f"{label}/{series_label}/tracking"] = stats.tracking_accuracy
    return ExperimentResult(
        experiment_id="fig5",
        description="Tracking accuracy of the basic ML eavesdropper over time",
        groups=groups,
        scalars=scalars,
        config=config.to_dict(),
    )
