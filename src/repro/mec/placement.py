"""Capacity-aware service placement.

The paper's threat model lives in a *shared* MEC deployment: many users'
services co-hosted on the same edge sites (Section II).  Each
:class:`~repro.mec.topology.EdgeSite` declares a ``capacity`` — the number
of service instances it can host concurrently — and this module is the
component that actually enforces it.  Placement requests (instantiations
and migrations) are resolved against the current site loads:

* **admit** — the requested site has a free slot, the service lands there;
* **spill** — the requested site is full, the service lands on the first
  site of the requested site's *hop order* that still has a free slot;
* **reject** — no site can improve on where the service already is (every
  site is full, or the first free site is the service's own), so the
  migration request is dropped and the service stays put.

A cell's hop order lists every cell by hop distance from it, ties broken
towards the lowest cell index (``np.argsort(hops[cell], kind="stable")``).
Each row is built once per topology, on the first spill out of that cell,
and shared by every engine of a run stack.  A site is *free* when its load
is below its capacity, so overloaded and zero-capacity sites never take a
spill.

Within one slot, requests are resolved greedily in service-id order; a
slot freed by a later service is not visible to an earlier one.  That rule
makes the outcome deterministic and lets the hot path skip the per-service
resolution entirely whenever every requested site verifiably has room for
all of its arrivals (the common, uncontended case) — the vectorised fleet
slot-loop stays O(T) numpy work and only contended slots pay a Python
fallback.  That fallback is a first-hit walk on plain lists: it keeps a
running count of free sites, rejects a blocked mover at once while the
count is 0 (a slot that starts with none is rejected whole), and
otherwise scans the target's hop order up to the first free site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import MECTopology

__all__ = ["PlacementStats", "PlacementEngine"]


@dataclass
class PlacementStats:
    """Tally of placement decisions over one simulation run.

    ``admitted`` / ``spilled`` / ``rejected`` count voluntary requests
    (instantiations and migrations); ``evicted`` and ``stranded`` count
    the *forced* outcomes of a dynamic world — services pushed off a
    failed or shrunk site to the nearest free one, and services that had
    nowhere to go and stayed on the overloaded site.
    """

    admitted: int = 0
    spilled: int = 0
    rejected: int = 0
    evicted: int = 0
    stranded: int = 0

    @property
    def requests(self) -> int:
        """Total voluntary placement requests resolved."""
        return self.admitted + self.spilled + self.rejected

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for reports and JSON results."""
        return {
            "admitted": self.admitted,
            "spilled": self.spilled,
            "rejected": self.rejected,
            "evicted": self.evicted,
            "stranded": self.stranded,
        }


class _HopOrder:
    """Every cell's stable hop order, built row by row on first use.

    ``order[cell]`` is ``np.argsort(hops[cell], kind="stable")`` as a
    plain list: all cells by hop distance from ``cell``, ties towards the
    lowest cell index.  An engine that never spills never builds a row.
    """

    __slots__ = ("_hops", "_rows")

    def __init__(self, hops: np.ndarray) -> None:
        self._hops = hops
        self._rows: list[list[int] | None] = [None] * hops.shape[0]

    def __getitem__(self, cell: int) -> list[int]:
        row = self._rows[cell]
        if row is None:
            row = np.argsort(self._hops[cell], kind="stable").tolist()
            self._rows[cell] = row
        return row


class _WalkLoads:
    """One walk's working copy of the site loads, as plain lists.

    ``free`` counts the sites with ``load < capacity``.  The walk mutates
    the lists through :meth:`add` / :meth:`remove`, which keep that count
    current, and :meth:`commit` writes the loads back in place — the
    engine's ``load`` may be a view into a run stack's shared array.
    """

    __slots__ = ("load", "caps", "free", "_engine")

    def __init__(self, engine: "PlacementEngine") -> None:
        self.load: list[int] = engine.load.tolist()
        self.caps: list[int] = engine.capacities.tolist()
        self.free = int(np.count_nonzero(engine.load < engine.capacities))
        self._engine = engine

    def first_free(self, cell: int) -> int | None:
        """The first free site in ``cell``'s hop order (``None``: all full)."""
        if self.free:
            load, caps = self.load, self.caps
            for site in self._engine._order[cell]:
                if load[site] < caps[site]:
                    return site
        return None

    def add(self, cell: int) -> None:
        load = self.load[cell] + 1
        self.load[cell] = load
        if load == self.caps[cell]:
            self.free -= 1

    def remove(self, cell: int) -> None:
        load = self.load[cell]
        self.load[cell] = load - 1
        if load == self.caps[cell]:
            self.free += 1

    def commit(self) -> None:
        self._engine.load[:] = self.load


def _check_cells(name: str, cells: np.ndarray, n_cells: int) -> None:
    if cells.size and (cells.min() < 0 or cells.max() >= n_cells):
        raise ValueError(f"{name} out of range [0, {n_cells})")


class PlacementEngine:
    """Tracks per-site occupancy and resolves placement requests.

    The engine owns the load vector of one shared topology; every service
    of every user is instantiated and migrated through it, which is what
    turns ``EdgeSite.capacity`` from a declared attribute into an enforced
    constraint.
    """

    def __init__(self, topology: MECTopology) -> None:
        self.topology = topology
        self.capacities = topology.base_capacities()
        self.load = np.zeros(topology.n_cells, dtype=np.int64)
        self.stats = PlacementStats()
        self._hops = topology.hop_distance_matrix()
        self._order = _HopOrder(self._hops)

    # ------------------------------------------------------------------
    @property
    def total_capacity(self) -> int:
        """Sum of all site capacities."""
        return int(self.capacities.sum())

    def _admit_walk(self, desired_cells: np.ndarray, *, strand: bool) -> np.ndarray:
        """Admit newcomers in id order, spilling to the first free site.

        With no free site anywhere, a newcomer is stranded at its
        requested cell when ``strand`` is set and raises otherwise.
        """
        desired = np.asarray(desired_cells, dtype=np.int64)
        if desired.ndim != 1:
            raise ValueError("desired_cells must be 1-D")
        _check_cells("desired_cells", desired, self.topology.n_cells)
        walk = _WalkLoads(self)
        load, caps = walk.load, walk.caps
        placed = desired.tolist()
        for index, cell in enumerate(placed):
            if load[cell] < caps[cell]:
                self.stats.admitted += 1
            else:
                spill = walk.first_free(cell)
                if spill is not None:
                    cell = spill
                    placed[index] = cell
                    self.stats.spilled += 1
                elif strand:
                    self.stats.stranded += 1
                else:
                    walk.commit()
                    raise ValueError(
                        "deployment is full: cannot instantiate service "
                        f"{index} (total capacity {self.total_capacity})"
                    )
            walk.add(cell)
        walk.commit()
        return np.asarray(placed, dtype=np.int64)

    # ------------------------------------------------------------------
    def place_initial(self, desired_cells: np.ndarray) -> np.ndarray:
        """Admit all services at instantiation time, spilling where needed.

        Services are placed in id order at their requested cells; a full
        site spills the newcomer to the first free site of its hop order.
        The caller must have validated that the fleet fits the deployment
        at all (``len(desired_cells) <= total_capacity``) — instantiating
        a service that no site can host raises.
        """
        return self._admit_walk(desired_cells, strand=False)

    def resolve_moves(
        self, current_cells: np.ndarray, desired_cells: np.ndarray
    ) -> np.ndarray:
        """Resolve one slot's migration requests against site capacities.

        Returns the cell each service occupies after the slot.  The fast
        path applies when every requested site has room for all of its
        arrivals even before any departure frees a slot — then the greedy
        per-service resolution would admit everything, so the whole slot
        is settled with three bincounts.  Otherwise the slot falls back to
        the greedy id-order first-hit walk (admit / spill / reject per
        service).  Only the movers' cells are range-checked.
        """
        current = np.asarray(current_cells, dtype=np.int64)
        desired = np.asarray(desired_cells, dtype=np.int64)
        if current.shape != desired.shape or current.ndim != 1:
            raise ValueError("current and desired cells must be equal-length 1-D")
        movers = np.flatnonzero(desired != current)
        if movers.size == 0:
            return current.copy()
        n_cells = self.topology.n_cells
        sources = current[movers]
        targets = desired[movers]
        _check_cells("current_cells", sources, n_cells)
        _check_cells("desired_cells", targets, n_cells)
        arrivals = np.bincount(targets, minlength=n_cells)
        if np.all(self.load + arrivals <= self.capacities):
            self.load += arrivals
            self.load -= np.bincount(sources, minlength=n_cells)
            self.stats.admitted += int(movers.size)
            return desired.copy()
        walk = _WalkLoads(self)
        if not walk.free:
            # Every site is full: each mover is rejected in turn, and a
            # rejection frees nothing, so the whole slot is rejected.
            self.stats.rejected += int(movers.size)
            return current.copy()
        load, caps = walk.load, walk.caps
        first_free = walk.first_free
        admitted = spilled = rejected = 0
        landed = sources.tolist()
        for position, (source, target) in enumerate(
            zip(sources.tolist(), targets.tolist(), strict=True)
        ):
            if load[target] >= caps[target]:
                spill = first_free(target)
                if spill is None or spill == source:
                    rejected += 1
                    continue
                target = spill
                spilled += 1
            else:
                admitted += 1
            # Inlined remove(source) / add(target): the hottest loop.
            count = load[source]
            load[source] = count - 1
            if count == caps[source]:
                walk.free += 1
            count = load[target] + 1
            load[target] = count
            if count == caps[target]:
                walk.free -= 1
            landed[position] = target
        walk.commit()
        self.stats.admitted += admitted
        self.stats.spilled += spilled
        self.stats.rejected += rejected
        placed = current.copy()
        placed[movers] = landed
        return placed

    # ------------------------------------------------------------------
    # Dynamic-world operations: per-slot capacity views, forced
    # re-placement and mid-episode churn.
    # ------------------------------------------------------------------
    def set_capacities(self, capacities: np.ndarray) -> None:
        """Install one slot's effective capacity view.

        Unlike the declared :class:`~repro.mec.topology.EdgeSite`
        capacities, an effective capacity may be zero (a failed site).
        Installing a view never moves anything by itself — callers follow
        up with :meth:`evict_overloaded` to push out the excess load.
        """
        caps = np.asarray(capacities, dtype=np.int64)
        if caps.shape != (self.topology.n_cells,):
            raise ValueError("capacities must list one value per cell")
        if caps.min() < 0:
            raise ValueError("capacities must be non-negative")
        self.capacities = caps.copy()

    def evict_overloaded(
        self, current_cells: np.ndarray, placed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Force excess services off sites whose load exceeds capacity.

        ``current_cells`` maps each service row to its cell and ``placed``
        marks the rows currently occupying a slot (dead rows are
        ignored).  For every overloaded site, in ascending cell order,
        the earliest-placed services (lowest row index) keep their slots
        up to the new capacity; the rest are evicted in ascending row
        order to the first free site of the overloaded site's hop order
        (``stats.evicted``).  A service with nowhere to go stays on the
        overloaded site as *stranded* (``stats.stranded``) — it retries
        on its next regular move, and the overload drains as capacity
        reappears.

        Returns ``(new_cells, moved_rows)``; moved rows are forced
        migrations the caller must charge.
        """
        current = np.asarray(current_cells, dtype=np.int64)
        overloaded = np.flatnonzero(self.load > self.capacities)
        if overloaded.size == 0:
            return current.copy(), np.empty(0, dtype=np.int64)
        new_cells = current.copy()
        moved: list[int] = []
        placed_rows = np.flatnonzero(placed)
        walk = _WalkLoads(self)
        for cell in overloaded.tolist():
            hosted = placed_rows[current[placed_rows] == cell]
            for row in hosted[walk.caps[cell] :].tolist():
                walk.remove(cell)
                spill = walk.first_free(cell)
                if spill is None:
                    walk.add(cell)
                    self.stats.stranded += 1
                    continue
                walk.add(spill)
                new_cells[row] = spill
                moved.append(row)
                self.stats.evicted += 1
        walk.commit()
        return new_cells, np.asarray(moved, dtype=np.int64)

    def admit_arrivals(self, desired_cells: np.ndarray) -> np.ndarray:
        """Place mid-episode arrivals, spilling or stranding where needed.

        Same admit/spill walk as :meth:`place_initial`, but a completely
        full deployment *strands* the newcomer at its requested cell
        (transient overload, drained by later moves) instead of raising —
        an arrival during a failure burst is a legal situation, not a
        configuration error.
        """
        return self._admit_walk(desired_cells, strand=True)

    def release(self, cells: np.ndarray) -> None:
        """Free the slots of departing services (one per entry)."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size:
            np.subtract.at(self.load, cells, 1)
            if self.load.min() < 0:
                raise ValueError("released more services than were placed")
