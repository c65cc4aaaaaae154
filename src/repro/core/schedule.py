"""Schedules — the output of every heuristic and baseline.

A schedule ``S_h`` is an ordered list of :class:`CommunicationStep` bookings
(item, sender, receiver, virtual link, transfer interval) plus the resulting
:class:`Delivery` records stating which requests were satisfied and when
their items arrived.  Schedules are plain data: all feasibility checking
lives in :mod:`repro.core.validation` and all scoring in
:mod:`repro.core.evaluation`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterable, Mapping, Optional, Tuple

from repro.core import units
from repro.errors import ModelError


def reduce_by_fields(record: Any) -> Tuple[type, Tuple[Any, ...]]:
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
    __reduce__ = reduce_by_fields

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
    __reduce__ = reduce_by_fields

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

    Steps and deliveries are stored as rows of flat ``array`` columns
    (one per :class:`CommunicationStep` field but the implicit
    ``step_id``, one per :class:`Delivery` field), and :attr:`steps` and
    :attr:`deliveries` build the records on demand: a run keeps its
    schedule, and a caller may keep many runs.  Deliveries keep their
    insertion order; a lookup by request id scans its column.
    """

    def __init__(self, name: str = "") -> None:
        self._name = name
        self._item_ids = array("l")
        self._sources = array("l")
        self._destinations = array("l")
        self._link_ids = array("l")
        self._starts = array("d")
        self._ends = array("d")
        self._request_ids = array("l")
        self._arrivals = array("d")
        self._hops = array("l")

    @property
    def name(self) -> str:
        """Label of the producing heuristic (for reports)."""
        return self._name

    @property
    def steps(self) -> Tuple[CommunicationStep, ...]:
        """All communication steps in scheduling order."""
        return tuple(
            CommunicationStep(step_id, *row)
            for step_id, row in enumerate(
                zip(
                    self._item_ids,
                    self._sources,
                    self._destinations,
                    self._link_ids,
                    self._starts,
                    self._ends,
                )
            )
        )

    @property
    def deliveries(self) -> Mapping[int, Delivery]:
        """Deliveries keyed by ``request_id``, in insertion order."""
        return {
            request_id: Delivery(request_id, arrival, hops)
            for request_id, arrival, hops in zip(
                self._request_ids, self._arrivals, self._hops
            )
        }

    @property
    def step_count(self) -> int:
        """Number of booked communication steps."""
        return len(self._item_ids)

    def satisfied_request_ids(self) -> Tuple[int, ...]:
        """Ids of satisfied requests, ascending."""
        return tuple(sorted(self._request_ids))

    def is_satisfied(self, request_id: int) -> bool:
        """True if the request has a delivery record."""
        return request_id in self._request_ids

    def delivery(self, request_id: int) -> Optional[Delivery]:
        """The delivery record for a request, or ``None``."""
        try:
            row = self._request_ids.index(request_id)
        except ValueError:
            return None
        return Delivery(request_id, self._arrivals[row], self._hops[row])

    def add_step(
        self,
        item_id: int,
        source: int,
        destination: int,
        link_id: int,
        start: float,
        end: float,
    ) -> int:
        """Append a transfer booking and return its step id.

        Raises:
            ModelError: on a step that ends before it starts, or that
                sends an item from a machine to itself (the checks of
                :class:`CommunicationStep`), or whose start or end is
                infinite.
        """
        step_id = len(self._item_ids)
        if end < start:
            raise ModelError(
                f"step {step_id} ends ({end}) before it starts ({start})"
            )
        if math.isinf(start) or math.isinf(end):
            raise ModelError(
                f"step {step_id} runs over [{start}, {end}], not a finite "
                f"span"
            )
        if source == destination:
            raise ModelError(
                f"step {step_id} sends item {item_id} from machine "
                f"{source} to itself"
            )
        self._item_ids.append(item_id)
        self._sources.append(source)
        self._destinations.append(destination)
        self._link_ids.append(link_id)
        self._starts.append(start)
        self._ends.append(end)
        return step_id

    def add_delivery(self, request_id: int, arrival: float, hops: int) -> None:
        """Record that a request was satisfied.

        Raises:
            ModelError: if the request already has a delivery record (each
                request is satisfied at most once), or on a negative hop
                count (the check of :class:`Delivery`).
        """
        if request_id in self._request_ids:
            raise ModelError(
                f"request {request_id} already has a delivery record"
            )
        if hops < 0:
            raise ModelError(
                f"delivery for request {request_id} has negative hop "
                f"count {hops}"
            )
        self._request_ids.append(request_id)
        self._arrivals.append(arrival)
        self._hops.append(hops)

    KIND: ClassVar[str] = "schedule"

    #: The schedule document's fields (see :mod:`repro.serialization`):
    #: the name, then one entry per :meth:`add_step` and
    #: :meth:`add_delivery` call holding its arguments, so a step is
    #: written without its ``step_id``.  No schema version is written.
    FIELDS: ClassVar[Dict[str, Any]] = {
        "name": str,
        "steps": add_step,
        "deliveries": add_delivery,
    }

    def remove_delivery(self, request_id: int) -> None:
        """Retract a delivery record (dynamic copy-loss events only).

        Only the dynamic simulation driver uses this — a destination that
        loses its copy before the deadline must be re-served.  Static
        schedules never retract deliveries.

        Raises:
            ModelError: if the request has no delivery record.
        """
        try:
            row = self._request_ids.index(request_id)
        except ValueError:
            raise ModelError(
                f"request {request_id} has no delivery record to remove"
            ) from None
        for column in (self._request_ids, self._arrivals, self._hops):
            del column[row]

    def steps_for_item(self, item_id: int) -> Tuple[CommunicationStep, ...]:
        """All steps transferring one data item, in scheduling order."""
        return tuple(
            step for step in self.steps if step.item_id == item_id
        )

    def total_bytes_transferred(self, item_sizes: Mapping[int, float]) -> float:
        """Total bytes moved, given a map from item id to size."""
        return sum(item_sizes[item_id] for item_id in self._item_ids)

    def average_hops_per_delivery(self) -> float:
        """Mean number of links traversed per satisfied request.

        Returns 0.0 when nothing was delivered.
        """
        if not self._hops:
            return 0.0
        return sum(self._hops) / len(self._hops)

    def extend_from(self, steps: Iterable[CommunicationStep]) -> None:
        """Re-append foreign steps (renumbering), as a copy does."""
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
            f"Schedule({self._name!r}, steps={self.step_count}, "
            f"deliveries={len(self._request_ids)})"
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
