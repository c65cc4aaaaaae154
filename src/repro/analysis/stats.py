"""Post-hoc schedule analysis: utilization, latency, storage statistics.

These functions inspect a finished :class:`~repro.core.schedule.Schedule`
against its scenario and answer the operational questions the paper's
companion TR tabulates (and that any deployment would ask): how busy were
the links, how close to their deadlines did deliveries land, and how much
storage did staging consume on each machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.scenario import Scenario
from repro.core.schedule import Schedule


@dataclass(frozen=True)
class LinkUtilization:
    """Occupancy of one virtual link over its availability window.

    Attributes:
        link_id: the virtual link.
        busy_seconds: total booked transfer time.
        window_seconds: the availability window's length.
        transfers: number of transfers carried.
    """

    link_id: int
    busy_seconds: float
    window_seconds: float
    transfers: int

    @property
    def utilization(self) -> float:
        """Busy fraction of the window, in [0, 1]."""
        if self.window_seconds <= 0:
            return 0.0
        return min(self.busy_seconds / self.window_seconds, 1.0)


def link_utilization(
    scenario: Scenario, schedule: Schedule
) -> Dict[int, LinkUtilization]:
    """Per-virtual-link occupancy (links never used are included)."""
    busy: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for step in schedule.steps:
        busy[step.link_id] = busy.get(step.link_id, 0.0) + step.duration
        counts[step.link_id] = counts.get(step.link_id, 0) + 1
    return {
        link.link_id: LinkUtilization(
            link_id=link.link_id,
            busy_seconds=busy.get(link.link_id, 0.0),
            window_seconds=link.window.duration,
            transfers=counts.get(link.link_id, 0),
        )
        for link in scenario.network.virtual_links
    }


@dataclass(frozen=True)
class DeliveryLatency:
    """Slack statistics over a schedule's deliveries.

    Attributes:
        deliveries: number of satisfied requests.
        mean_slack: mean of (deadline − arrival) over deliveries.
        min_slack: tightest delivery's slack.
        mean_hops: mean links traversed per delivery.
    """

    deliveries: int
    mean_slack: float
    min_slack: float
    mean_hops: float


def delivery_latency(
    scenario: Scenario, schedule: Schedule
) -> DeliveryLatency:
    """Slack and hop statistics of the satisfied requests."""
    slacks: List[float] = []
    hops: List[int] = []
    for request_id, delivery in schedule.deliveries.items():
        request = scenario.request(request_id)
        slacks.append(request.deadline - delivery.arrival)
        hops.append(delivery.hops)
    if not slacks:
        return DeliveryLatency(
            deliveries=0, mean_slack=0.0, min_slack=0.0, mean_hops=0.0
        )
    return DeliveryLatency(
        deliveries=len(slacks),
        mean_slack=sum(slacks) / len(slacks),
        min_slack=min(slacks),
        mean_hops=sum(hops) / len(hops),
    )


@dataclass(frozen=True)
class StoragePeak:
    """Peak staged storage on one machine.

    Attributes:
        machine: the machine index.
        peak_bytes: maximum bytes of scheduler-placed copies resident at
            any instant.
        capacity: the machine's total capacity.
    """

    machine: int
    peak_bytes: float
    capacity: float

    @property
    def peak_fraction(self) -> float:
        """Peak staged bytes as a fraction of capacity."""
        if self.capacity <= 0:
            return 0.0
        return self.peak_bytes / self.capacity


def storage_peaks(
    scenario: Scenario, schedule: Schedule
) -> Dict[int, StoragePeak]:
    """Per-machine peak storage consumed by scheduled copies.

    Each inbound transfer to a machine reserves the item's size from the
    transfer start until the copy's release (garbage collection for
    intermediates, the horizon for sources/destinations) — the same
    residency rule the scheduler booked against.

    Raises:
        ModelError: when a step names a machine the scenario lacks.
    """
    events: Dict[int, List[Tuple[float, float]]] = {
        machine.index: [] for machine in scenario.network.machines
    }
    destination_machines = {
        (request.item_id, request.destination)
        for request in scenario.requests
    }
    for step in schedule.steps:
        item = scenario.item(step.item_id)
        if (step.item_id, step.destination) in destination_machines or (
            step.destination in item.source_machines
        ):
            release = scenario.horizon
        else:
            release = scenario.gc_release_time(step.item_id)
        receiver = scenario.network.machine(step.destination).index
        events[receiver].append((step.start, item.size))
        events[receiver].append((release, -item.size))
    peaks = {}
    for machine in scenario.network.machines:
        level = 0.0
        peak = 0.0
        for __, delta in sorted(events[machine.index]):
            level += delta
            peak = max(peak, level)
        peaks[machine.index] = StoragePeak(
            machine=machine.index,
            peak_bytes=peak,
            capacity=machine.capacity,
        )
    return peaks


@dataclass(frozen=True)
class ScheduleStats:
    """One-call summary bundle for reports and examples."""

    steps: int
    deliveries: int
    bytes_transferred: float
    mean_link_utilization: float
    max_link_utilization: float
    latency: DeliveryLatency
    peak_storage_fraction: float


def schedule_stats(scenario: Scenario, schedule: Schedule) -> ScheduleStats:
    """Aggregate the individual analyses into one summary record."""
    utilizations = link_utilization(scenario, schedule)
    used = [u.utilization for u in utilizations.values()]
    latency = delivery_latency(scenario, schedule)
    peaks = storage_peaks(scenario, schedule)
    sizes = {item.item_id: item.size for item in scenario.items}
    return ScheduleStats(
        steps=schedule.step_count,
        deliveries=len(schedule.deliveries),
        bytes_transferred=schedule.total_bytes_transferred(sizes),
        mean_link_utilization=sum(used) / len(used) if used else 0.0,
        max_link_utilization=max(used) if used else 0.0,
        latency=latency,
        peak_storage_fraction=max(
            (peak.peak_fraction for peak in peaks.values()), default=0.0
        ),
    )
