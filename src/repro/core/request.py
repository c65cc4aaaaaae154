"""Data requests — the entries of the request table.

A :class:`Request` is one ``(Rq[j], Request[j,k], Priority[j,k], Rft[j,k])``
tuple: a destination machine asking for one data item with a priority and a
deadline.  Requests are identified by a scenario-wide ``request_id`` so that
schedules and results can reference them compactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import units
from repro.errors import ModelError


@dataclass(frozen=True)
class Request:
    """One request of the data-request table.

    Attributes:
        request_id: scenario-wide identifier (dense, starting at 0).
        item_id: the requested data item's ``item_id``.
        destination: index of the requesting machine ``Request[j,k]``.
        priority: integer priority class (0 = lowest; the weighting scheme
            maps classes to weights).
        deadline: ``Rft[j,k]`` — the instant after which delivery is useless.
    """

    request_id: int
    item_id: int
    destination: int
    priority: int
    deadline: float

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ModelError(
                f"request id must be >= 0, got {self.request_id}"
            )
        if self.item_id < 0:
            raise ModelError(
                f"request {self.request_id} has negative item id "
                f"{self.item_id}"
            )
        if self.destination < 0:
            raise ModelError(
                f"request {self.request_id} has negative destination "
                f"{self.destination}"
            )
        if self.priority < 0:
            raise ModelError(
                f"request {self.request_id} has negative priority "
                f"{self.priority}"
            )
        if not self.deadline >= 0:
            raise ModelError(
                f"request {self.request_id} deadline must be >= 0, "
                f"got {self.deadline}"
            )

    def is_satisfied_by_arrival(self, arrival: float) -> bool:
        """True if delivery at ``arrival`` meets the deadline."""
        return arrival <= self.deadline

    def __str__(self) -> str:
        return (
            f"Rq#{self.request_id}(item={self.item_id} -> "
            f"M[{self.destination}], p={self.priority}, "
            f"by {units.format_time(self.deadline)})"
        )
