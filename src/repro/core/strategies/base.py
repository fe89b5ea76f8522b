"""Chaff control strategy interface and registry.

A *chaff control strategy* decides the trajectories of the ``N - 1`` chaff
services given the user's mobility model and (depending on the strategy)
the user's realised trajectory.  Strategies differ in what they may look
at:

* *offline* strategies (OO, ROO) need the user's entire trajectory,
  including the future;
* *online* strategies (IM, CML, MO, RMO) only use the user's past and
  current locations;
* the ML / RML strategies use neither — the chaff trajectory depends only
  on the mobility model and can be precomputed.

The simulation harness always evaluates strategies in batch, so the common
entry point :meth:`ChaffStrategy.generate` receives the full user
trajectory; online strategies are implemented so that the chaff location
at slot ``t`` is a function of the user trajectory up to ``t`` only, which
is asserted by dedicated causality tests.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Sequence, Type

import numpy as np

from ...mobility.markov import MarkovChain

__all__ = [
    "ChaffStrategy",
    "StrategyRegistry",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "as_trajectory_array",
]


def as_trajectory_array(trajectory: Iterable[int] | np.ndarray) -> np.ndarray:
    """Coerce a trajectory into a validated 1-D int64 array."""
    traj = np.asarray(trajectory, dtype=np.int64)
    if traj.ndim != 1 or traj.size == 0:
        raise ValueError("trajectory must be a non-empty 1-D sequence of cells")
    return traj


class ChaffStrategy(abc.ABC):
    """Base class for chaff control strategies.

    Subclasses set the class attributes:

    ``name``
        Short identifier used in experiment configs and figures
        (e.g. ``"IM"``, ``"OO"``).
    ``is_online``
        Whether the strategy only uses causally available information.
    ``is_deterministic``
        Whether the chaff trajectory is a deterministic function of the
        user's trajectory (given the mobility model).  Deterministic
        strategies are the ones vulnerable to the advanced eavesdropper
        (Section VI-A).
    """

    name: str = "abstract"
    is_online: bool = False
    is_deterministic: bool = False

    @abc.abstractmethod
    def generate(
        self,
        chain: MarkovChain,
        user_trajectory: np.ndarray,
        n_chaffs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Generate chaff trajectories.

        Parameters
        ----------
        chain:
            The user's mobility model (known to the user and, per the
            paper's threat model, to the eavesdropper).
        user_trajectory:
            The user's realised cell trajectory of length ``T``.
        n_chaffs:
            Number of chaff services to control (``N - 1 >= 1``).
        rng:
            Randomness source (used by randomised strategies; deterministic
            strategies ignore it).

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(n_chaffs, T)``.
        """

    def generate_batch(
        self,
        chain: MarkovChain,
        user_trajectories: np.ndarray,
        n_chaffs: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Generate chaffs for a whole ``(R, T)`` batch of user trajectories.

        Run ``r`` consumes only ``rngs[r]``, and in exactly the order a
        scalar :meth:`generate` call would, so the batched Monte-Carlo
        engine reproduces the looped engine bit for bit.  This default
        loops over runs; the ML/RML, IM, MO and CML families override it
        with true vectorised implementations.

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(R, n_chaffs, T)``.
        """
        users, rngs = self._validate_batch_inputs(
            chain, user_trajectories, n_chaffs, rngs
        )
        return np.stack(
            [
                self.generate(chain, users[run], n_chaffs, rngs[run])
                for run in range(users.shape[0])
            ],
            axis=0,
        )

    # ------------------------------------------------------------------
    def deterministic_map(
        self, chain: MarkovChain, user_trajectory: np.ndarray
    ) -> np.ndarray | None:
        """The map ``Gamma(x_1)`` used by the advanced eavesdropper.

        For deterministic single-chaff strategies this returns the chaff
        trajectory the strategy would produce for a given "user"
        trajectory; the advanced eavesdropper applies it to every observed
        trajectory to unmask chaffs (Section VI-A3).  A ``(K, T)`` stack
        maps row by row, in one :meth:`generate_batch` call.  Randomised
        strategies return ``None``.
        """
        if not self.is_deterministic:
            return None
        users = np.asarray(user_trajectory, dtype=np.int64)
        stack = users if users.ndim == 2 else as_trajectory_array(users)[None]
        # Deterministic strategies draw nothing, so one generator serves all.
        rng = np.random.default_rng(0)
        chaffs = self.generate_batch(chain, stack, 1, [rng] * stack.shape[0])[:, 0]
        return chaffs if users.ndim == 2 else chaffs[0]

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_inputs(
        chain: MarkovChain, user_trajectory: np.ndarray, n_chaffs: int
    ) -> np.ndarray:
        user = as_trajectory_array(user_trajectory)
        if user.min() < 0 or user.max() >= chain.n_states:
            raise ValueError("user trajectory contains out-of-range cells")
        if n_chaffs < 1:
            raise ValueError("n_chaffs must be at least 1")
        return user

    @staticmethod
    def _validate_batch_inputs(
        chain: MarkovChain,
        user_trajectories: np.ndarray,
        n_chaffs: int,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, list[np.random.Generator]]:
        users = np.asarray(user_trajectories, dtype=np.int64)
        if users.ndim != 2 or users.size == 0:
            raise ValueError("user trajectories must be a non-empty (R, T) array")
        if users.min() < 0 or users.max() >= chain.n_states:
            raise ValueError("user trajectories contain out-of-range cells")
        if n_chaffs < 1:
            raise ValueError("n_chaffs must be at least 1")
        rngs = list(rngs)
        if len(rngs) != users.shape[0]:
            raise ValueError("need exactly one generator per run")
        return users, rngs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class StrategyRegistry:
    """A simple name -> strategy-class registry used by configs and the CLI."""

    def __init__(self) -> None:
        self._strategies: Dict[str, Type[ChaffStrategy]] = {}

    def register(self, cls: Type[ChaffStrategy]) -> Type[ChaffStrategy]:
        """Register a strategy class under its ``name`` attribute."""
        if not issubclass(cls, ChaffStrategy):
            raise TypeError("can only register ChaffStrategy subclasses")
        key = cls.name.upper()
        if key in self._strategies and self._strategies[key] is not cls:
            raise ValueError(f"strategy name {cls.name!r} already registered")
        self._strategies[key] = cls
        return cls

    def create(self, name: str, **kwargs) -> ChaffStrategy:
        """Instantiate a registered strategy by name (case-insensitive)."""
        key = name.upper()
        if key not in self._strategies:
            raise KeyError(
                f"unknown strategy {name!r}; available: {sorted(self._strategies)}"
            )
        return self._strategies[key](**kwargs)

    def names(self) -> list[str]:
        """Registered strategy names, sorted."""
        return sorted(self._strategies)


#: Global registry populated by the strategy modules at import time.
_REGISTRY = StrategyRegistry()


def register_strategy(cls: Type[ChaffStrategy]) -> Type[ChaffStrategy]:
    """Class decorator adding a strategy to the global registry."""
    return _REGISTRY.register(cls)


def get_strategy(name: str, **kwargs) -> ChaffStrategy:
    """Instantiate a strategy from the global registry by name."""
    return _REGISTRY.create(name, **kwargs)


def available_strategies() -> list[str]:
    """Names of all registered strategies."""
    return _REGISTRY.names()
