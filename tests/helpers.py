"""Shared construction helpers for the test suite.

Small, explicit factories for networks and scenarios so individual tests
can state exactly the topology and timing they exercise without repeating
boilerplate.  All helpers use simple round numbers (bandwidth 1000 B/s,
zero latency unless stated) so expected arrival times can be computed by
hand in the tests.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.data import DataItem, SourceLocation
from repro.core.intervals import Interval
from repro.core.link import PhysicalLink
from repro.core.machine import Machine
from repro.core.network import Network
from repro.core.priority import PriorityWeighting, WEIGHTING_1_10_100
from repro.core.request import Request
from repro.core.scenario import Scenario
from repro.core.state import NetworkState
from repro.core.timeline import CapacityTimeline
from repro.dynamic.driver import reveal_at_item_start
from repro.dynamic.events import CopyLoss, Event, LinkOutage
from repro.faults.plan import FaultPlan
from repro.heuristics.base import EngineStats, TreeCache
from repro.observability.tracer import TraceEvent

#: Convenient always-open window for tests that don't exercise windows.
ALWAYS = Interval(0.0, 1_000_000.0)

#: Trace-event fields that legitimately differ between two runs of the
#: same schedule (for example the compiled routing kernel and its
#: reference oracle): wall timing.
VOLATILE_TRACE_FIELDS = frozenset({"elapsed_seconds"})


def neutral_fields(event: TraceEvent) -> Tuple[Tuple[str, Any], ...]:
    """A trace event's fields without :data:`VOLATILE_TRACE_FIELDS`."""
    return tuple(
        (key, value)
        for key, value in event.fields
        if key not in VOLATILE_TRACE_FIELDS
    )


def make_link(
    physical_id: int,
    source: int,
    destination: int,
    bandwidth: float = 1000.0,
    latency: float = 0.0,
    windows: Sequence[Interval] = (ALWAYS,),
) -> PhysicalLink:
    """A physical link with hand-friendly defaults (1000 B/s, no latency)."""
    return PhysicalLink(
        physical_id=physical_id,
        source=source,
        destination=destination,
        bandwidth=bandwidth,
        latency=latency,
        windows=tuple(windows),
    )


def make_network(
    machine_count: int,
    links: Sequence[PhysicalLink],
    capacity: float = 1_000_000.0,
    capacities: Optional[Dict[int, float]] = None,
) -> Network:
    """A network of ``machine_count`` machines with the given links.

    Args:
        machine_count: number of machines (indices 0..n-1).
        links: the physical links.
        capacity: default storage per machine.
        capacities: optional per-machine capacity overrides.
    """
    overrides = capacities or {}
    machines = tuple(
        Machine(index=i, capacity=overrides.get(i, capacity))
        for i in range(machine_count)
    )
    return Network(machines, tuple(links))


def line_network(
    machine_count: int = 3,
    bandwidth: float = 1000.0,
    capacity: float = 1_000_000.0,
    latency: float = 0.0,
) -> Network:
    """Machines 0 -> 1 -> ... -> n-1 -> 0 (a strongly connected ring)."""
    links = [
        make_link(i, i, (i + 1) % machine_count, bandwidth, latency)
        for i in range(machine_count)
    ]
    return make_network(machine_count, links, capacity=capacity)


def make_item(
    item_id: int,
    size: float,
    sources: Sequence[Tuple[int, float]],
    name: str = "",
) -> DataItem:
    """A data item from ``(machine, available_from)`` source tuples."""
    return DataItem(
        item_id=item_id,
        name=name or f"item-{item_id}",
        size=size,
        sources=tuple(
            SourceLocation(machine=machine, available_from=available)
            for machine, available in sources
        ),
    )


def make_scenario(
    network: Network,
    items: Sequence[DataItem],
    request_specs: Sequence[Tuple[int, int, int, float]],
    weighting: PriorityWeighting = WEIGHTING_1_10_100,
    gc_delay: float = 360.0,
    horizon: float = 1_000_000.0,
    name: str = "test",
) -> Scenario:
    """A scenario from ``(item_id, destination, priority, deadline)`` specs."""
    requests = tuple(
        Request(
            request_id=index,
            item_id=item_id,
            destination=destination,
            priority=priority,
            deadline=deadline,
        )
        for index, (item_id, destination, priority, deadline) in enumerate(
            request_specs
        )
    )
    return Scenario(
        network=network,
        items=tuple(items),
        requests=requests,
        weighting=weighting,
        gc_delay=gc_delay,
        horizon=horizon,
        name=name,
    )


def single_item_line_scenario(
    size: float = 1000.0,
    deadline: float = 100.0,
    priority: int = 2,
    machine_count: int = 3,
    bandwidth: float = 1000.0,
    capacity: float = 1_000_000.0,
) -> Scenario:
    """One item at machine 0, one request at the line's last machine.

    With the defaults the item takes ``size/bandwidth`` = 1 s per hop and
    two hops to reach machine 2, so arrival is at t=2.0.
    """
    network = line_network(machine_count, bandwidth, capacity)
    item = make_item(0, size, [(0, 0.0)])
    return make_scenario(
        network,
        [item],
        [(0, machine_count - 1, priority, deadline)],
    )


def dynamic_fault_events(
    scenario: Scenario,
    seed: int,
    intensity: float = 0.5,
    loss_fraction: float = 0.3,
    loss_lead: float = 60.0,
) -> Tuple[Tuple[Event, ...], FaultPlan]:
    """Dynamic-driver events under every fault kind, and the static plan.

    Requests are revealed when their item becomes available.  A seeded
    ``FaultPlan.generate(..., churn=True)`` supplies cancellations and
    late arrivals (a late arrival replaces its request's reveal event);
    its static part — outage windows and bandwidth degradations — is
    returned for the caller to install with ``use_faults``.  A seeded
    ``loss_fraction`` of destinations lose their copy ``loss_lead``
    seconds before the deadline, and one physical link fails for good at
    a seeded instant (a :class:`LinkOutage`, i.e. ``disable_link_from``).
    """
    plan = FaultPlan.generate(scenario, intensity, seed=seed, churn=True)
    late = {arrival.request_id for arrival in plan.late_arrivals}
    events: List[Event] = [
        event
        for event in reveal_at_item_start(scenario)
        if event.request_id not in late
    ]
    events.extend(plan.churn_events())
    rng = random.Random(seed)
    events.extend(
        CopyLoss(
            time=max(request.deadline - loss_lead, 1.0),
            item_id=request.item_id,
            machine=request.destination,
        )
        for request in scenario.requests
        if rng.random() < loss_fraction
    )
    latest = max(request.deadline for request in scenario.requests)
    physical = scenario.network.physical_links
    events.append(
        LinkOutage(
            time=rng.uniform(0.0, latest),
            physical_id=physical[rng.randrange(len(physical))].physical_id,
        )
    )
    return tuple(events), plan.static_only()


def unbounded_storage_outside(
    state: NetworkState, kept: frozenset
) -> NetworkState:
    """A clone whose machines outside ``kept`` have unlimited free
    storage: every release that could ever happen there, at once."""
    clone = state.clone()
    for machine, timeline in enumerate(clone._timelines):
        if machine not in kept:
            unbounded = CapacityTimeline(float("inf"))
            clone._timelines[machine] = unbounded
            clone._timeline_columns[machine] = unbounded.columns()
    return clone


#: ``TreeCache._store`` as defined, for tests that patch it.
_STORE = TreeCache._store


def _index_slots(cache: TreeCache, release: bool) -> Dict[Any, Dict[int, Any]]:
    """The cache's non-empty receiver-index slots, by ``(receiver,
    link_id)``, or with ``release`` its release-index slots, by machine."""
    if release:
        index: Dict[Any, Dict[int, Any]] = cache._release_index
    else:
        index = {
            (receiver, link_id): by_item
            for receiver, by_link in enumerate(cache._receiver_index)
            for link_id, by_item in by_link.items()
        }
    return {slot: by_item for slot, by_item in index.items() if by_item}


def assert_index_exact(cache: TreeCache, release: bool = False) -> None:
    """Each non-empty slot of the receiver index holds exactly the live
    entries whose trees plan a hop into its machine over its link, and
    each such entry is in the slot: a stale slot would only waste replay
    time, so no differential of decisions can catch it.  With
    ``release``, the same for the release index (by machine alone) and
    the trees' fallback receivers.  Either index must also equal the one
    ``TreeCache._store`` builds from scratch for the live entries, so an
    entry refreshed in place leaves its slots as a store would."""
    expected: Dict[Any, Dict[int, Any]] = {}
    for item_id, entry in cache._trees.items():
        tree = entry.tree
        if release:
            slots: Any = tree.fallback_receivers
        else:
            slots = [
                (receiver, hop[1])
                for receiver, hop in tree.planned_hops.items()
            ]
        for slot in slots:
            expected.setdefault(slot, {})[item_id] = entry
    scratch = TreeCache(cache._state, EngineStats(), enabled=False)
    for item_id, entry in cache._trees.items():
        _STORE(scratch, item_id, entry)
    actual = _index_slots(cache, release)
    for built in (expected, _index_slots(scratch, release)):
        assert actual.keys() == built.keys()
        for slot, by_item in actual.items():
            assert by_item.keys() == built[slot].keys()
            for item_id, entry in by_item.items():
                assert entry is built[slot][item_id]
