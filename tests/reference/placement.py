"""Test-only oracle: the rescanning placement walk.

:class:`~repro.mec.placement.PlacementEngine` spills a blocked service to
the first free site of the requested cell's precomputed hop order, on
plain-list loads with a running count of free sites.  This module keeps
the walk it replaced as the reference: every spill rescans all cells
with ``flatnonzero`` and picks the nearest free one with ``argmin``
(whose first-hit rule on the ascending free set is the lowest-index
tiebreak), reading and writing the numpy load vector one scalar at a
time.  Both must agree on placed cells, final loads and every
:class:`~repro.mec.placement.PlacementStats` field.
"""

from __future__ import annotations

import numpy as np

from repro.mec.placement import PlacementEngine

__all__ = ["ReferencePlacementEngine"]


class ReferencePlacementEngine(PlacementEngine):
    """:class:`PlacementEngine` with the original rescanning walks."""

    def _nearest_free(self, cell: int) -> int | None:
        """Nearest site with a free slot (ties -> lowest cell index)."""
        free = np.flatnonzero(self.load < self.capacities)
        if free.size == 0:
            return None
        # ``free`` is ascending, so argmin's first-hit rule is the tiebreak.
        return int(free[np.argmin(self._hops[cell, free])])

    def _checked_desired(self, desired_cells: np.ndarray) -> np.ndarray:
        desired = np.asarray(desired_cells, dtype=np.int64)
        if desired.ndim != 1:
            raise ValueError("desired_cells must be 1-D")
        if desired.size and (
            desired.min() < 0 or desired.max() >= self.topology.n_cells
        ):
            raise ValueError("desired cells out of range")
        return desired

    def place_initial(self, desired_cells: np.ndarray) -> np.ndarray:
        desired = self._checked_desired(desired_cells)
        placed = np.empty_like(desired)
        for index, cell in enumerate(desired):
            cell = int(cell)
            if self.load[cell] < self.capacities[cell]:
                self.stats.admitted += 1
            else:
                spill = self._nearest_free(cell)
                if spill is None:
                    raise ValueError(
                        "deployment is full: cannot instantiate service "
                        f"{index} (total capacity {self.total_capacity})"
                    )
                cell = spill
                self.stats.spilled += 1
            self.load[cell] += 1
            placed[index] = cell
        return placed

    def resolve_moves(
        self, current_cells: np.ndarray, desired_cells: np.ndarray
    ) -> np.ndarray:
        current = np.asarray(current_cells, dtype=np.int64)
        desired = np.asarray(desired_cells, dtype=np.int64)
        if current.shape != desired.shape or current.ndim != 1:
            raise ValueError("current and desired cells must be equal-length 1-D")
        movers = np.flatnonzero(desired != current)
        if movers.size == 0:
            return current.copy()
        arrivals = np.bincount(desired[movers], minlength=self.topology.n_cells)
        if np.all(self.load + arrivals <= self.capacities):
            self.load += arrivals
            self.load -= np.bincount(
                current[movers], minlength=self.topology.n_cells
            )
            self.stats.admitted += int(movers.size)
            return desired.copy()
        placed = current.copy()
        for index in movers:
            source = int(current[index])
            target = int(desired[index])
            if self.load[target] >= self.capacities[target]:
                spill = self._nearest_free(target)
                if spill is None or spill == source:
                    self.stats.rejected += 1
                    continue
                target = spill
                self.stats.spilled += 1
            else:
                self.stats.admitted += 1
            self.load[source] -= 1
            self.load[target] += 1
            placed[index] = target
        return placed

    def evict_overloaded(
        self, current_cells: np.ndarray, placed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        current = np.asarray(current_cells, dtype=np.int64)
        overloaded = np.flatnonzero(self.load > self.capacities)
        if overloaded.size == 0:
            return current.copy(), np.empty(0, dtype=np.int64)
        new_cells = current.copy()
        moved: list[int] = []
        placed_rows = np.flatnonzero(placed)
        for cell in overloaded:
            cell = int(cell)
            hosted = placed_rows[current[placed_rows] == cell]
            keep = int(self.capacities[cell])
            for row in hosted[keep:]:
                self.load[cell] -= 1
                spill = self._nearest_free(cell)
                if spill is None:
                    self.load[cell] += 1
                    self.stats.stranded += 1
                    continue
                self.load[spill] += 1
                new_cells[row] = spill
                moved.append(int(row))
                self.stats.evicted += 1
        return new_cells, np.asarray(moved, dtype=np.int64)

    def admit_arrivals(self, desired_cells: np.ndarray) -> np.ndarray:
        desired = self._checked_desired(desired_cells)
        placed = np.empty_like(desired)
        for index, cell in enumerate(desired):
            cell = int(cell)
            if self.load[cell] < self.capacities[cell]:
                self.stats.admitted += 1
            else:
                spill = self._nearest_free(cell)
                if spill is None:
                    self.stats.stranded += 1
                else:
                    cell = spill
                    self.stats.spilled += 1
            self.load[cell] += 1
            placed[index] = cell
        return placed
