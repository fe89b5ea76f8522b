"""repro — reproduction of "Location Privacy in Mobile Edge Clouds" (ICDCS'17).

The package implements the paper's chaff-based defence of user location
privacy in mobile edge clouds, together with every substrate it depends
on: Markov mobility models, a MEC service-migration simulator, a synthetic
taxi-trace pipeline, the eavesdropper detectors, the analytical bounds of
Section V and the experiment harness that regenerates every figure.

Quickstart
----------
>>> import numpy as np
>>> from repro import (
...     paper_synthetic_models, get_strategy, MaximumLikelihoodDetector,
...     PrivacyGame,
... )
>>> chain = paper_synthetic_models(10)["non-skewed"]
>>> game = PrivacyGame(chain, get_strategy("OO"), MaximumLikelihoodDetector())
>>> episode = game.run_episode(np.random.default_rng(0), horizon=50)
>>> 0.0 <= episode.tracking_accuracy <= 1.0
True
"""

from .core import (
    BatchEpisodeResult,
    ChaffStrategy,
    EpisodeResult,
    MaximumLikelihoodDetector,
    PrivacyGame,
    RandomGuessDetector,
    StrategyAwareDetector,
    available_strategies,
    get_strategy,
)
from .mobility import MarkovChain, paper_synthetic_models
from .sim import (
    ExperimentResult,
    MonteCarloRunner,
    SeriesResult,
    SyntheticExperimentConfig,
    TraceExperimentConfig,
)
from .experiments import available_experiments, run_experiment

__version__ = "1.2.1"

__all__ = [
    "BatchEpisodeResult",
    "ChaffStrategy",
    "EpisodeResult",
    "MaximumLikelihoodDetector",
    "PrivacyGame",
    "RandomGuessDetector",
    "StrategyAwareDetector",
    "available_strategies",
    "get_strategy",
    "MarkovChain",
    "paper_synthetic_models",
    "ExperimentResult",
    "MonteCarloRunner",
    "SeriesResult",
    "SyntheticExperimentConfig",
    "TraceExperimentConfig",
    "available_experiments",
    "run_experiment",
    "__version__",
]
