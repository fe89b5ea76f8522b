"""Service instances hosted on MECs.

A *service* here is an instance of a given type of cloud service (e.g. a
VM encapsulating an augmented-reality backend) that is generated and
migrated independently for each user (footnote 1 of the paper).  Chaff
services are independent instances of the same service type, so they are
indistinguishable from the real service in content; only their mobility
can give them away — which is exactly what the chaff control strategies
manage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["ServiceKind", "ServiceInstance"]


class ServiceKind(enum.Enum):
    """Whether a service instance serves the real user or is a chaff."""

    REAL = "real"
    CHAFF = "chaff"


@dataclass
class ServiceInstance:
    """A service instance (VM) pinned to one MEC cell at a time.

    Attributes
    ----------
    service_id:
        Unique identifier within a simulation.
    owner_id:
        Identifier of the user who pays for / launched this instance.
    kind:
        Real service or chaff.
    cell:
        Cell index of the MEC currently hosting the instance.
    created_at:
        Slot at which the instance was instantiated.
    location_history:
        Cell occupied at each slot since creation (including the current
        one after :meth:`record_slot` is called).
    migration_count:
        Number of migrations performed so far.
    """

    service_id: int
    owner_id: int
    kind: ServiceKind
    cell: int
    created_at: int = 0
    location_history: list[int] = field(default_factory=list)
    migration_count: int = 0

    def __post_init__(self) -> None:
        if self.service_id < 0 or self.owner_id < 0:
            raise ValueError("identifiers must be non-negative")
        if self.cell < 0:
            raise ValueError("cell must be non-negative")
        if self.created_at < 0:
            raise ValueError("created_at must be non-negative")

    @property
    def is_chaff(self) -> bool:
        """Whether this instance is a chaff."""
        return self.kind is ServiceKind.CHAFF

    def migrate_to(self, cell: int) -> bool:
        """Move the instance to ``cell``; returns ``True`` if it actually moved."""
        if cell < 0:
            raise ValueError("cell must be non-negative")
        if cell == self.cell:
            return False
        self.cell = cell
        self.migration_count += 1
        return True

    def record_slot(self) -> None:
        """Append the current cell to the location history (one call per slot)."""
        self.location_history.append(self.cell)

    def trajectory(self) -> list[int]:
        """The recorded cell trajectory of this instance."""
        return list(self.location_history)
