"""Schedules — the output of every heuristic and baseline.

A schedule ``S_h`` is an ordered list of :class:`CommunicationStep` bookings
(item, sender, receiver, virtual link, transfer interval) plus the resulting
:class:`Delivery` records stating which requests were satisfied and when
their items arrived.  Schedules are plain data: all feasibility checking
lives in :mod:`repro.core.validation` and all scoring in
:mod:`repro.core.evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core import units
from repro.errors import ModelError


def _reduce_by_fields(record: Any) -> Tuple[type, Tuple[Any, ...]]:
    """Pickle a frozen slotted record through its constructor.

    Pickle's default restore of slot state assigns each attribute, which a
    frozen dataclass refuses.
    """
    return (
        type(record),
        tuple(getattr(record, name) for name in record.__slots__),
    )


@dataclass(frozen=True)
class CommunicationStep:
    """One booked transfer of a data item over a virtual link.

    Attributes:
        step_id: position of the step in scheduling order (dense from 0).
        item_id: the transferred data item.
        source: sending machine index (must hold a copy at ``start``).
        destination: receiving machine index.
        link_id: the virtual link carrying the transfer.
        start: transfer start time in seconds.
        end: transfer completion time (item available at ``destination``).
    """

    # Slotted: a schedule keeps one step per booking, and callers may hold
    # many schedules at once.
    __slots__ = (
        "step_id",
        "item_id",
        "source",
        "destination",
        "link_id",
        "start",
        "end",
    )
    __reduce__ = _reduce_by_fields

    step_id: int
    item_id: int
    source: int
    destination: int
    link_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ModelError(
                f"step {self.step_id} ends ({self.end}) before it starts "
                f"({self.start})"
            )
        if self.source == self.destination:
            raise ModelError(
                f"step {self.step_id} sends item {self.item_id} from machine "
                f"{self.source} to itself"
            )

    @property
    def duration(self) -> float:
        """Transfer duration in seconds."""
        return self.end - self.start

    def __str__(self) -> str:
        return (
            f"step#{self.step_id}: item {self.item_id} "
            f"M[{self.source}]->M[{self.destination}] via link "
            f"{self.link_id} @[{units.format_time(self.start)}, "
            f"{units.format_time(self.end)}]"
        )


@dataclass(frozen=True)
class Delivery:
    """A satisfied request: the item reached its requester by the deadline.

    Attributes:
        request_id: the satisfied request.
        arrival: when the item arrived at the requesting machine.
        hops: number of communication steps on the delivery path from the
            source copy that ultimately served this request (used for the
            "average number of links traversed" report).
    """

    __slots__ = ("request_id", "arrival", "hops")
    __reduce__ = _reduce_by_fields

    request_id: int
    arrival: float
    hops: int

    def __post_init__(self) -> None:
        if self.hops < 0:
            raise ModelError(
                f"delivery for request {self.request_id} has negative hop "
                f"count {self.hops}"
            )


class Schedule:
    """An append-only record of communication steps and deliveries.

    Heuristics build a schedule incrementally via :meth:`add_step` and
    :meth:`add_delivery`; afterwards the object is treated as immutable
    result data.
    """

    def __init__(self, name: str = "") -> None:
        self._name = name
        self._steps: List[CommunicationStep] = []
        self._deliveries: Dict[int, Delivery] = {}

    @property
    def name(self) -> str:
        """Label of the producing heuristic (for reports)."""
        return self._name

    @property
    def steps(self) -> Tuple[CommunicationStep, ...]:
        """All communication steps in scheduling order."""
        return tuple(self._steps)

    @property
    def deliveries(self) -> Mapping[int, Delivery]:
        """Deliveries keyed by ``request_id``."""
        return dict(self._deliveries)

    @property
    def step_count(self) -> int:
        """Number of booked communication steps."""
        return len(self._steps)

    def satisfied_request_ids(self) -> Tuple[int, ...]:
        """Ids of satisfied requests, ascending."""
        return tuple(sorted(self._deliveries))

    def is_satisfied(self, request_id: int) -> bool:
        """True if the request has a delivery record."""
        return request_id in self._deliveries

    def delivery(self, request_id: int) -> Optional[Delivery]:
        """The delivery record for a request, or ``None``."""
        return self._deliveries.get(request_id)

    def add_step(
        self,
        item_id: int,
        source: int,
        destination: int,
        link_id: int,
        start: float,
        end: float,
    ) -> CommunicationStep:
        """Append a transfer booking and return the created step."""
        step = CommunicationStep(
            step_id=len(self._steps),
            item_id=item_id,
            source=source,
            destination=destination,
            link_id=link_id,
            start=start,
            end=end,
        )
        self._steps.append(step)
        return step

    def add_delivery(self, request_id: int, arrival: float, hops: int) -> None:
        """Record that a request was satisfied.

        Raises:
            ModelError: if the request already has a delivery record (each
                request is satisfied at most once).
        """
        if request_id in self._deliveries:
            raise ModelError(
                f"request {request_id} already has a delivery record"
            )
        self._deliveries[request_id] = Delivery(
            request_id=request_id, arrival=arrival, hops=hops
        )

    def remove_delivery(self, request_id: int) -> None:
        """Retract a delivery record (dynamic copy-loss events only).

        Only the dynamic simulation driver uses this — a destination that
        loses its copy before the deadline must be re-served.  Static
        schedules never retract deliveries.

        Raises:
            ModelError: if the request has no delivery record.
        """
        if request_id not in self._deliveries:
            raise ModelError(
                f"request {request_id} has no delivery record to remove"
            )
        del self._deliveries[request_id]

    def steps_for_item(self, item_id: int) -> Tuple[CommunicationStep, ...]:
        """All steps transferring one data item, in scheduling order."""
        return tuple(
            step for step in self._steps if step.item_id == item_id
        )

    def total_bytes_transferred(self, item_sizes: Mapping[int, float]) -> float:
        """Total bytes moved, given a map from item id to size."""
        return sum(item_sizes[step.item_id] for step in self._steps)

    def average_hops_per_delivery(self) -> float:
        """Mean number of links traversed per satisfied request.

        Returns 0.0 when nothing was delivered.
        """
        if not self._deliveries:
            return 0.0
        total = sum(d.hops for d in self._deliveries.values())
        return total / len(self._deliveries)

    def extend_from(self, steps: Iterable[CommunicationStep]) -> None:
        """Re-append foreign steps (renumbering); used by serialization."""
        for step in steps:
            self.add_step(
                item_id=step.item_id,
                source=step.source,
                destination=step.destination,
                link_id=step.link_id,
                start=step.start,
                end=step.end,
            )

    def __repr__(self) -> str:
        return (
            f"Schedule({self._name!r}, steps={len(self._steps)}, "
            f"deliveries={len(self._deliveries)})"
        )


@dataclass(frozen=True)
class ScheduleEffect:
    """The evaluated quality of a schedule (see §3 of the paper).

    Attributes:
        weighted_sum: ``-E[S_h]`` — the weighted sum of priorities of the
            satisfied requests (larger is better).
        satisfied_by_priority: count of satisfied requests per priority
            class, indexed by priority value.
        total_by_priority: count of all requests per priority class.
    """

    weighted_sum: float
    satisfied_by_priority: Tuple[int, ...]
    total_by_priority: Tuple[int, ...]

    @property
    def effect(self) -> float:
        """The paper's ``E[S_h]`` (negative of the weighted sum)."""
        return -self.weighted_sum

    @property
    def satisfied_count(self) -> int:
        """Total number of satisfied requests."""
        return sum(self.satisfied_by_priority)

    @property
    def total_count(self) -> int:
        """Total number of requests in the scenario."""
        return sum(self.total_by_priority)

    def satisfaction_rate(self, priority: Optional[int] = None) -> float:
        """Fraction of requests satisfied, overall or for one class."""
        if priority is None:
            total = self.total_count
            done = self.satisfied_count
        else:
            total = self.total_by_priority[priority]
            done = self.satisfied_by_priority[priority]
        return done / total if total else 0.0

    def __str__(self) -> str:
        per_class = ", ".join(
            f"p{p}:{s}/{t}"
            for p, (s, t) in enumerate(
                zip(self.satisfied_by_priority, self.total_by_priority)
            )
        )
        return f"weighted_sum={self.weighted_sum:g} ({per_class})"
