"""Chaff control strategies (Section IV and VI-B of the paper)."""

from .base import (
    ChaffStrategy,
    StrategyRegistry,
    available_strategies,
    get_strategy,
    register_strategy,
)
from .impersonate import ImpersonatingStrategy
from .maximum_likelihood import MaximumLikelihoodStrategy
from .optimal_offline import (
    OptimalOfflineBatch,
    OptimalOfflineResult,
    OptimalOfflineStrategy,
    solve_optimal_offline,
)
from .myopic_online import MyopicOnlineController, MyopicOnlineStrategy
from .constrained_ml import ConstrainedMLController, ConstrainedMLStrategy
from .robust import (
    RobustMLStrategy,
    RobustMyopicOnlineStrategy,
    RobustOptimalOfflineStrategy,
    sample_exclusion_mask,
)
from .rollout import RolloutController, RolloutOnlineStrategy

__all__ = [
    "ChaffStrategy",
    "StrategyRegistry",
    "available_strategies",
    "get_strategy",
    "register_strategy",
    "ImpersonatingStrategy",
    "MaximumLikelihoodStrategy",
    "OptimalOfflineBatch",
    "OptimalOfflineResult",
    "OptimalOfflineStrategy",
    "solve_optimal_offline",
    "MyopicOnlineController",
    "MyopicOnlineStrategy",
    "ConstrainedMLController",
    "ConstrainedMLStrategy",
    "RobustMLStrategy",
    "RobustMyopicOnlineStrategy",
    "RobustOptimalOfflineStrategy",
    "sample_exclusion_mask",
    "RolloutController",
    "RolloutOnlineStrategy",
]
