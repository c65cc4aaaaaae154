"""Events for the dynamic data-staging simulation.

The paper solves the *static* snapshot problem and names the dynamic
version — ad-hoc requests, changing networks, lost copies — as the target
of future work (§1, §4.5, §6).  This module defines the two event kinds
the dynamic driver simulates:

* :class:`RequestArrival` — a request becomes known to the scheduler at a
  point in time (before that it is hidden, exactly like "all requests
  include only those known at any specific time instant" in §3);
* :class:`CopyLoss` — a machine loses its resident copy of an item (a
  link/storage failure, the §4.4 motivation for holding intermediate
  copies γ past the latest deadline);
* :class:`RequestCancellation` — a request is withdrawn before its
  deadline (churn injected by :mod:`repro.faults` plans: the user no
  longer wants the data, so capacity spent on it is wasted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.errors import ModelError


@dataclass(frozen=True)
class RequestArrival:
    """A request is revealed to the scheduler at ``time``.

    Attributes:
        time: reveal instant (seconds).
        request_id: the scenario request becoming visible.
    """

    time: float
    request_id: int

    def __post_init__(self) -> None:
        if not self.time >= 0:
            raise ModelError(
                f"arrival event time must be >= 0, got {self.time}"
            )


@dataclass(frozen=True)
class CopyLoss:
    """A machine loses its copy of an item at ``time``.

    Attributes:
        time: loss instant (seconds).
        item_id: the affected data item.
        machine: the machine losing its copy.
    """

    time: float
    item_id: int
    machine: int

    def __post_init__(self) -> None:
        if not self.time >= 0:
            raise ModelError(f"loss event time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class LinkOutage:
    """A physical link fails permanently at ``time``.

    From the outage instant no *new* transfer may complete on any of the
    facility's virtual links; transfers already booked are grandfathered
    (model a lost in-flight payload as a separate :class:`CopyLoss` at the
    receiver).

    Attributes:
        time: outage instant (seconds).
        physical_id: the failing physical link (all of its availability
            windows are affected).
    """

    time: float
    physical_id: int

    def __post_init__(self) -> None:
        if not self.time >= 0:
            raise ModelError(
                f"outage event time must be >= 0, got {self.time}"
            )


@dataclass(frozen=True)
class RequestCancellation:
    """A request is withdrawn at ``time`` and stops being scheduled.

    A delivery that already happened stands (the data arrived before the
    user changed their mind); an undelivered cancelled request is removed
    from the visible set and never counts as satisfied.  A cancellation
    before the request's arrival event suppresses the later reveal.

    Attributes:
        time: withdrawal instant (seconds).
        request_id: the scenario request being withdrawn.
    """

    time: float
    request_id: int

    def __post_init__(self) -> None:
        if not self.time >= 0:
            raise ModelError(
                f"cancellation event time must be >= 0, got {self.time}"
            )


Event = Union[RequestArrival, CopyLoss, LinkOutage, RequestCancellation]


def sorted_events(events) -> Tuple[Event, ...]:
    """Events in simulation order (time; arrivals before faults at ties).

    Processing arrivals first at a shared instant lets a freshly revealed
    request react to a simultaneous fault in the same re-scheduling pass.
    """
    def key(event: Event):
        kind = 0 if isinstance(event, RequestArrival) else 1
        return (event.time, kind)

    return tuple(sorted(events, key=key))
