"""The Timeline: an event-sourced description of a dynamic world.

A :class:`Timeline` is an ordered collection of
:mod:`~repro.world.events` plus the mobility chains of any non-base
regimes.  It is *declarative* — nothing happens until
:meth:`Timeline.compile` materialises it against a concrete episode shape
(horizon ``T``, topology with ``L`` cells, ``M`` users) into a
:class:`WorldSchedule`: dense per-slot views that the simulation kernels
consume directly:

* ``regimes`` — ``(T,)`` regime index in effect at each slot (0 = the
  base mobility chain); the transition *into* slot ``t`` follows
  ``regimes[t]``;
* ``capacities`` — ``(T, L)`` effective per-site capacity at each slot
  (0 while a site is down);
* ``user_windows`` — ``(M, 2)`` activity window ``[start, stop)`` of
  each user (``[0, T)`` for users who never churn).

An **empty timeline compiles to the static world**, and the fleet engines
treat it as such — runs with an empty timeline are bit-identical to the
pre-dynamic code path (pinned by golden-seed tests).

Users are restricted to one contiguous activity window (at most one
arrival and one departure); everything else on the timeline may repeat
freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mobility.markov import MarkovChain
from .events import (
    CapacityChange,
    RegimeSwitch,
    SiteDown,
    SiteUp,
    UserArrival,
    UserDeparture,
    WorldEvent,
)

__all__ = ["Timeline", "WorldSchedule"]


@dataclass(frozen=True)
class WorldSchedule:
    """Dense per-slot world state compiled from a :class:`Timeline`.

    Attributes
    ----------
    regimes:
        ``(T,)`` int64 regime index per slot.
    capacities:
        ``(T, L)`` int64 effective per-site capacity per slot.
    user_windows:
        ``(M, 2)`` int64 activity windows ``[start, stop)``.
    base_capacities:
        ``(L,)`` declared (static) capacities the per-slot views derive
        from.
    matrices:
        Transition matrix of each regime index (entry 0 is the base
        chain's).
    """

    regimes: np.ndarray
    capacities: np.ndarray
    user_windows: np.ndarray
    base_capacities: np.ndarray
    matrices: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def horizon(self) -> int:
        """Number of slots ``T``."""
        return int(self.regimes.size)

    @property
    def n_cells(self) -> int:
        """Number of edge sites ``L``."""
        return int(self.capacities.shape[1])

    @property
    def n_users(self) -> int:
        """Number of users ``M``."""
        return int(self.user_windows.shape[0])

    @property
    def has_regime_switches(self) -> bool:
        """Whether any slot runs a non-base mobility regime."""
        return bool(np.any(self.regimes != 0))

    @property
    def has_capacity_events(self) -> bool:
        """Whether any site's capacity ever differs from its declared one.

        Compared against the *base* capacities, not slot 0's view: an
        event at slot 0 that persists for the whole episode (a site that
        is down from the start) is still a capacity event.
        """
        return bool(np.any(self.capacities != self.base_capacities))

    @property
    def has_churn(self) -> bool:
        """Whether any user's window is narrower than the full episode."""
        return bool(
            np.any(self.user_windows[:, 0] != 0)
            or np.any(self.user_windows[:, 1] != self.horizon)
        )

    @property
    def is_static(self) -> bool:
        """Whether the schedule is indistinguishable from a frozen world."""
        return not (
            self.has_regime_switches or self.has_capacity_events or self.has_churn
        )

    def transition_stack(self) -> np.ndarray | None:
        """Per-step ``(T - 1, L, L)`` transition matrices, or ``None``.

        Step ``t - 1`` of the stack governs the transition into slot
        ``t``.  Returns ``None`` when every slot runs the base regime, so
        callers fall back to the (bit-identical) static sampling path.
        """
        if not self.has_regime_switches or self.horizon < 2:
            return None
        return np.stack(
            [self.matrices[int(regime)] for regime in self.regimes[1:]], axis=0
        )

    def active_users(self) -> np.ndarray:
        """The ``(M, T)`` boolean activity mask of all users."""
        slots = np.arange(self.horizon)
        return (self.user_windows[:, :1] <= slots) & (
            slots < self.user_windows[:, 1:]
        )


@dataclass(frozen=True)
class Timeline:
    """An ordered collection of world events plus the regime chains.

    Attributes
    ----------
    events:
        The events, in any order; compilation applies them in ``(slot,
        position)`` order, so same-slot events take effect in the order
        they appear here.
    regime_chains:
        Mobility chains of regimes ``1 .. len(regime_chains)``; regime 0
        is always the simulation's base chain.
    """

    events: tuple[WorldEvent, ...] = ()
    regime_chains: tuple[MarkovChain, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "regime_chains", tuple(self.regime_chains))
        for event in self.events:
            if not isinstance(event, WorldEvent):
                raise TypeError(f"not a world event: {event!r}")
        for chain in self.regime_chains:
            if not isinstance(chain, MarkovChain):
                raise TypeError("regime_chains must contain MarkovChain objects")

    @property
    def is_empty(self) -> bool:
        """Whether the timeline describes a frozen world."""
        return not self.events

    def _validate_shape(
        self,
        horizon: int,
        n_cells: int,
        n_users: int,
        base_capacities: np.ndarray,
        base_chain: MarkovChain,
    ) -> np.ndarray:
        if horizon < 1:
            raise ValueError("horizon must be positive")
        if n_users < 1:
            raise ValueError("n_users must be positive")
        base = np.asarray(base_capacities, dtype=np.int64)
        if base.shape != (n_cells,):
            raise ValueError("base_capacities must list one capacity per cell")
        if base_chain.n_states != n_cells:
            raise ValueError("base chain and topology disagree on cell count")
        for index, chain in enumerate(self.regime_chains):
            if chain.n_states != n_cells:
                raise ValueError(
                    f"regime chain {index + 1} has {chain.n_states} states, "
                    f"topology has {n_cells} cells"
                )
        return base

    def compile(
        self,
        *,
        horizon: int,
        n_cells: int,
        n_users: int,
        base_capacities: np.ndarray,
        base_chain: MarkovChain,
    ) -> WorldSchedule:
        """Materialise the timeline against one episode shape.

        Events replay in ``(slot, position)`` order into the carried
        ``declared`` / ``down`` site state, read out once per slot.
        Events at slots ``>= horizon`` are ignored (open-ended generators
        emit them freely), except that a user whose *arrival* lies beyond
        the horizon would never be active — that is an error.
        """
        base = self._validate_shape(
            horizon, n_cells, n_users, base_capacities, base_chain
        )
        ordered = sorted(
            enumerate(self.events), key=lambda pair: (pair[1].slot, pair[0])
        )
        regimes = np.zeros(horizon, dtype=np.int64)
        declared = base.copy()
        down = np.zeros(n_cells, dtype=bool)
        capacities = np.empty((horizon, n_cells), dtype=np.int64)
        arrivals = np.full(n_users, -1, dtype=np.int64)
        departures = np.full(n_users, -1, dtype=np.int64)
        current_regime = 0

        pointer = 0
        for slot in range(horizon):
            while pointer < len(ordered) and ordered[pointer][1].slot == slot:
                event = ordered[pointer][1]
                pointer += 1
                if isinstance(event, RegimeSwitch):
                    if event.regime > len(self.regime_chains):
                        raise ValueError(
                            f"regime {event.regime} undefined: timeline has "
                            f"{len(self.regime_chains)} regime chains"
                        )
                    current_regime = event.regime
                elif isinstance(event, (SiteDown, SiteUp, CapacityChange)):
                    if event.cell >= n_cells:
                        raise ValueError(
                            f"event cell {event.cell} outside the topology"
                        )
                    if isinstance(event, SiteDown):
                        down[event.cell] = True
                    elif isinstance(event, SiteUp):
                        down[event.cell] = False
                    else:
                        declared[event.cell] = event.capacity
                elif isinstance(event, (UserArrival, UserDeparture)):
                    if event.user >= n_users:
                        raise ValueError(
                            f"event user {event.user} outside the fleet"
                        )
                    record = (
                        arrivals if isinstance(event, UserArrival) else departures
                    )
                    if record[event.user] >= 0:
                        raise ValueError(
                            f"user {event.user} has more than one "
                            f"{'arrival' if record is arrivals else 'departure'}; "
                            "windows must be contiguous"
                        )
                    record[event.user] = slot
                else:  # pragma: no cover - sealed hierarchy
                    raise TypeError(f"unhandled event type: {type(event)!r}")
            regimes[slot] = current_regime
            capacities[slot] = np.where(down, 0, declared)

        for event in self.events:
            if isinstance(event, UserArrival) and event.slot >= horizon:
                raise ValueError(
                    f"user {event.user} arrives at slot {event.slot}, past the "
                    f"horizon {horizon}: the user would never be active"
                )

        windows = np.empty((n_users, 2), dtype=np.int64)
        windows[:, 0] = np.where(arrivals >= 0, arrivals, 0)
        windows[:, 1] = np.where(departures >= 0, departures, horizon)
        bad = np.flatnonzero(windows[:, 0] >= windows[:, 1])
        if bad.size:
            raise ValueError(
                f"user {int(bad[0])} has an empty activity window "
                f"[{int(windows[bad[0], 0])}, {int(windows[bad[0], 1])})"
            )
        matrices = (
            base_chain.dense_transition(),
            *(chain.dense_transition() for chain in self.regime_chains),
        )
        return WorldSchedule(
            regimes=regimes,
            capacities=capacities,
            user_windows=windows,
            base_capacities=base,
            matrices=matrices,
        )
