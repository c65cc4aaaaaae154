"""Scenarios: one complete instance of the basic data staging problem.

A :class:`Scenario` bundles the three tables of the mathematical model —
the communication system, the data-location table, and the data-request
table — together with the scheduling parameters that apply to the whole
instance (priority weighting, garbage-collection delay ``γ``, and the
scheduling horizon).  Scenarios are immutable; schedulers derive all mutable
state from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.data import DataItem
from repro.core.network import Network
from repro.core.priority import PriorityWeighting, WEIGHTING_1_10_100
from repro.core.request import Request
from repro.errors import ScenarioError


@dataclass(frozen=True)
class Scenario:
    """An immutable data-staging problem instance.

    Attributes:
        network: the communication system (machines + links).
        items: the data items ``δ[0..n-1]``; ``item_id`` fields must be the
            dense range ``0..n-1`` and names must be unique.
        requests: the request table; ``request_id`` fields must be dense.
        weighting: the priority weighting scheme ``W``.
        gc_delay: the paper's ``γ`` — seconds after an item's latest deadline
            at which intermediate copies are garbage-collected.
        horizon: end of the scheduling period in seconds; sources and
            destination copies are held until this time.
        name: optional label used in reports.
    """

    network: Network
    items: Tuple[DataItem, ...]
    requests: Tuple[Request, ...]
    weighting: PriorityWeighting = WEIGHTING_1_10_100
    gc_delay: float = 360.0
    horizon: float = 9000.0
    name: str = field(default="scenario")

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "requests", tuple(self.requests))
        self._validate()
        # Precomputed indexes (stored via object.__setattr__ because the
        # dataclass is frozen).  These are derived data, not part of the
        # scenario's identity.
        by_item: Dict[int, List[Request]] = {
            item.item_id: [] for item in self.items
        }
        for request in self.requests:
            by_item[request.item_id].append(request)
        object.__setattr__(
            self,
            "_requests_by_item",
            {item_id: tuple(reqs) for item_id, reqs in by_item.items()},
        )
        object.__setattr__(
            self,
            "_requests_by_id",
            {request.request_id: request for request in self.requests},
        )
        object.__setattr__(
            self,
            "_requested_item_ids",
            tuple(item_id for item_id, reqs in by_item.items() if reqs),
        )

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        item_ids = [item.item_id for item in self.items]
        if item_ids != list(range(len(self.items))):
            raise ScenarioError(
                f"item ids must be dense 0..n-1, got {item_ids}"
            )
        names = [item.name for item in self.items]
        if len(set(names)) != len(names):
            raise ScenarioError("data item names must be unique")
        machine_count = self.network.machine_count
        for item in self.items:
            for src in item.sources:
                if src.machine >= machine_count:
                    raise ScenarioError(
                        f"item {item.name!r} lists unknown source machine "
                        f"{src.machine}"
                    )
        request_ids = [request.request_id for request in self.requests]
        if request_ids != list(range(len(self.requests))):
            raise ScenarioError(
                f"request ids must be dense 0..rho-1, got {request_ids}"
            )
        seen_pairs = set()
        for request in self.requests:
            if request.item_id >= len(self.items):
                raise ScenarioError(
                    f"request {request.request_id} references unknown item "
                    f"{request.item_id}"
                )
            if request.destination >= machine_count:
                raise ScenarioError(
                    f"request {request.request_id} references unknown "
                    f"machine {request.destination}"
                )
            item = self.items[request.item_id]
            if request.destination in item.source_machines:
                raise ScenarioError(
                    f"request {request.request_id} destination "
                    f"M[{request.destination}] is already a source of item "
                    f"{item.name!r}"
                )
            pair = (request.item_id, request.destination)
            if pair in seen_pairs:
                raise ScenarioError(
                    f"machine M[{request.destination}] requests item "
                    f"{request.item_id} more than once"
                )
            seen_pairs.add(pair)
            if request.priority > self.weighting.highest_priority:
                raise ScenarioError(
                    f"request {request.request_id} priority "
                    f"{request.priority} exceeds weighting's highest class "
                    f"{self.weighting.highest_priority}"
                )
            if request.deadline > self.horizon:
                raise ScenarioError(
                    f"request {request.request_id} deadline "
                    f"{request.deadline} lies beyond the horizon "
                    f"{self.horizon}"
                )
        if self.gc_delay < 0:
            raise ScenarioError(f"gc_delay must be >= 0, got {self.gc_delay}")
        if self.horizon <= 0:
            raise ScenarioError(f"horizon must be > 0, got {self.horizon}")

    # -- derived accessors ----------------------------------------------------

    @property
    def item_count(self) -> int:
        """Number of distinct data items ``n``."""
        return len(self.items)

    @property
    def request_count(self) -> int:
        """Number of requests (the ``Σ Nrq[j]`` of the model)."""
        return len(self.requests)

    def item(self, item_id: int) -> DataItem:
        """The data item with the given id.

        Raises:
            ScenarioError: if the id is unknown.
        """
        if not 0 <= item_id < len(self.items):
            raise ScenarioError(f"no data item with id {item_id}")
        return self.items[item_id]

    def request(self, request_id: int) -> Request:
        """The request with the given id.

        Raises:
            ScenarioError: if the id is unknown.
        """
        requests: Mapping[int, Request] = self._requests_by_id  # type: ignore[attr-defined]
        if request_id not in requests:
            raise ScenarioError(f"no request with id {request_id}")
        return requests[request_id]

    def requests_for_item(self, item_id: int) -> Tuple[Request, ...]:
        """All requests for one data item (the item's ``Nrq`` entries)."""
        by_item: Mapping[int, Tuple[Request, ...]] = self._requests_by_item  # type: ignore[attr-defined]
        if item_id not in by_item:
            raise ScenarioError(f"no data item with id {item_id}")
        return by_item[item_id]

    def requested_item_ids(self) -> Tuple[int, ...]:
        """Ids of items with at least one request (the ``Rq`` set)."""
        item_ids: Tuple[int, ...] = self._requested_item_ids  # type: ignore[attr-defined]
        return item_ids

    def latest_deadline(self, item_id: int) -> float:
        """The latest deadline among all requests for the item.

        Items with no requests report 0.0 (they are never transferred, so
        the value is only used for completeness).
        """
        requests = self.requests_for_item(item_id)
        if not requests:
            return 0.0
        return max(request.deadline for request in requests)

    def gc_release_time(self, item_id: int) -> float:
        """When intermediate copies of the item are garbage-collected.

        This is ``latest deadline + γ``, clamped to the horizon (a copy is
        never held beyond the scheduling period).
        """
        return min(self.latest_deadline(item_id) + self.gc_delay, self.horizon)

    def total_weighted_priority(self) -> float:
        """Weighted sum over *all* requests — the paper's loose upper bound."""
        return sum(
            self.weighting.weight(request.priority)
            for request in self.requests
        )

    def __repr__(self) -> str:
        return (
            f"Scenario({self.name!r}, machines="
            f"{self.network.machine_count}, items={len(self.items)}, "
            f"requests={len(self.requests)}, weighting={self.weighting})"
        )


def requests_from_tuples(
    entries: Sequence[Tuple[int, int, int, float]]
) -> Tuple[Request, ...]:
    """Build dense-id requests from ``(item_id, destination, priority,
    deadline)`` tuples, in order.  Convenience for tests and examples."""
    return tuple(
        Request(
            request_id=idx,
            item_id=item_id,
            destination=destination,
            priority=priority,
            deadline=deadline,
        )
        for idx, (item_id, destination, priority, deadline) in enumerate(
            entries
        )
    )
