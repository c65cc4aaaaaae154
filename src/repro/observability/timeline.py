"""Simulated-time telemetry: the mergeable :class:`Timeline` document.

The tracer/metrics/profiler stack measures the *solver* — which phase
burned CPU, how many searches ran.  This module measures the *simulated
network*: how saturated each virtual link was at simulated time ``t``,
how receiver storage filled up, how deadline slack eroded per priority
class, and — request by request — *why* a data request ended up
satisfied, cancelled, or unscheduled.

:class:`TimelineCollector` is a
:class:`~repro.observability.tracer.Tracer` observing one scheduler run
on one scenario.  :meth:`TimelineCollector.finalize` snapshots a
:class:`Timeline`, which merges associatively (like
:class:`~repro.observability.metrics.RunMetrics` and
:class:`~repro.observability.profiling.Profile`) so per-cell timelines
from parallel workers combine into sweep totals, and round-trips through
:func:`repro.serialization.document_to_dict` /
:func:`~repro.serialization.document_from_dict` (schema-versioned by
:attr:`Timeline.SCHEMA_VERSION`).

Three layers of telemetry ride in one document:

* **links/storage** — per-virtual-link booked intervals, attempt and
  rejection tallies, and per-machine storage reservations, from which
  the report derives utilization, oversubscription-ratio, and occupancy
  series over simulated time;
* **classes** — per-priority-class request totals, satisfaction times
  with deadline slack, and pending-queue drain times;
* **forensics** — a per-request lifecycle ledger whose
  :meth:`Timeline.explain` query reconstructs the causal chain (attempts,
  rejection reason codes from
  :data:`~repro.observability.tracer.REASON_CODES`, bookings, fault
  cancellations, reopens) for any request id.

All times in this module are *simulated* seconds — no wall clock is ever
read, so timelines are deterministic and byte-identical across worker
counts and cache replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional, Tuple

from repro.core.scenario import Scenario
from repro.errors import ConfigurationError
from repro.observability.tracer import (
    REASON_ALREADY_AT_DESTINATION,
    REASON_LINK_BUSY,
    REASON_LINK_CUTOFF,
    REASON_NEVER_ATTEMPTED,
    REASON_NO_LINK_SLOT,
    REASON_NO_SENDER_COPY,
    REASON_NO_STORAGE,
    REASON_SENDER_NOT_AVAILABLE,
    REASON_SENDER_RELEASED,
    REASON_STORAGE_CONFLICT,
    REASON_WINDOW_CLOSED,
    REASON_WINDOW_ESCAPE,
    Tracer,
)

#: Per-request causal chains keep at most this many events; overflow is
#: *explicitly* counted in ``chain_dropped`` (never silently discarded),
#: and the rejection-reason tallies remain exact regardless.
MAX_CHAIN_EVENTS = 512

#: Human-readable one-liners for every rejection reason code, used by
#: :meth:`Timeline.explain` to annotate the causal chain.
REASON_DESCRIPTIONS: Dict[str, str] = {
    REASON_ALREADY_AT_DESTINATION: (
        "the receiver already held a copy of the item"
    ),
    REASON_WINDOW_CLOSED: (
        "window, residency, or outage cutoff left no room at all"
    ),
    REASON_NO_LINK_SLOT: "the link had no idle slot long enough",
    REASON_NO_STORAGE: (
        "receiver storage could never cover the copy's residency"
    ),
    REASON_NO_SENDER_COPY: "the sender held no copy of the item",
    REASON_SENDER_NOT_AVAILABLE: (
        "the transfer would start before the sender copy exists"
    ),
    REASON_SENDER_RELEASED: (
        "the transfer would outlive the sender copy's residency"
    ),
    REASON_LINK_BUSY: "the link already carried a transfer in the interval",
    REASON_WINDOW_ESCAPE: (
        "the transfer would escape the link's availability window"
    ),
    REASON_LINK_CUTOFF: (
        "the transfer would complete after a dynamic outage cutoff"
    ),
    REASON_STORAGE_CONFLICT: (
        "receiver storage could not cover the copy's residency"
    ),
    REASON_NEVER_ATTEMPTED: (
        "no transfer toward the item was ever attempted while the "
        "request was pending"
    ),
}

#: One causal-chain entry: ``(kind, *fields)`` of JSON scalars.  Kinds:
#: ``attempt(link)``, ``rejected(link, reason)``,
#: ``booked(link, start, end)``, ``booking_failed(link, reason)``,
#: ``satisfied(at_time, hops)``, ``cancelled(at_time)``, ``reopened()``.
ChainEvent = Tuple[Any, ...]


def _merge_tallies(a: Mapping[str, int], b: Mapping[str, int]) -> Dict[str, int]:
    merged = dict(a)
    for key, value in b.items():
        merged[key] = merged.get(key, 0) + value
    return merged


@dataclass
class LinkSeries:
    """One virtual link's simulated-time activity.

    Attributes:
        window_start: the link window's opening instant ``Lst``.
        window_end: the link window's closing instant ``Let``.
        attempts: feasibility searches that touched this link.
        rejections: rejection tallies keyed by reason code.
        bookings: booked busy intervals as ``(start, end, item_id)``, in
            emission order (concatenated, never re-sorted, on merge so
            merging stays associative and worker-count independent).
    """

    window_start: float = 0.0
    window_end: float = 0.0
    attempts: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    bookings: List[Tuple[float, float, int]] = field(default_factory=list)

    def merged(self, other: "LinkSeries") -> "LinkSeries":
        """The combined activity of two series (associative)."""
        return LinkSeries(
            window_start=min(self.window_start, other.window_start),
            window_end=max(self.window_end, other.window_end),
            attempts=self.attempts + other.attempts,
            rejections=_merge_tallies(self.rejections, other.rejections),
            bookings=self.bookings + other.bookings,
        )

    @property
    def window_seconds(self) -> float:
        """The window length in simulated seconds."""
        return self.window_end - self.window_start

    @property
    def busy_seconds(self) -> float:
        """Total booked transfer seconds (across all merged runs)."""
        return sum(end - start for start, end, _ in self.bookings)


@dataclass
class StorageSeries:
    """One machine's receiver-storage reservations over simulated time.

    Attributes:
        capacity: the machine's storage ceiling in bytes.
        reservations: held residencies as
            ``(start, release, amount, item_id)`` in emission order.
    """

    capacity: float = 0.0
    reservations: List[Tuple[float, float, float, int]] = field(
        default_factory=list
    )

    def merged(self, other: "StorageSeries") -> "StorageSeries":
        """The combined reservations of two series (associative)."""
        return StorageSeries(
            capacity=max(self.capacity, other.capacity),
            reservations=self.reservations + other.reservations,
        )


@dataclass
class ClassSeries:
    """One priority class's request population over simulated time.

    Attributes:
        requests: requests in this class, summed across merged runs.
        satisfied: satisfaction events observed.
        cancelled: fault-churn cancellations observed.
        reopened: reopen events observed (reopens carry no simulated
            time, so they adjust the counters but not the drain series).
        slack: per-satisfaction ``(arrival, deadline - arrival)`` points
            — the deadline-slack trajectory of the class.
        drains: simulated times at which one request left the pending
            queue (a satisfaction arrival or a cancellation), in
            emission order.
    """

    requests: int = 0
    satisfied: int = 0
    cancelled: int = 0
    reopened: int = 0
    slack: List[Tuple[float, float]] = field(default_factory=list)
    drains: List[float] = field(default_factory=list)

    def merged(self, other: "ClassSeries") -> "ClassSeries":
        """The element-wise combination of two series (associative)."""
        return ClassSeries(
            requests=self.requests + other.requests,
            satisfied=self.satisfied + other.satisfied,
            cancelled=self.cancelled + other.cancelled,
            reopened=self.reopened + other.reopened,
            slack=self.slack + other.slack,
            drains=self.drains + other.drains,
        )


@dataclass
class RequestForensics:
    """The full observed lifecycle of one request.

    Item-level events (attempts, rejections, bookings) have no request
    id on the wire; the collector attributes them to every request of
    the item that is still pending at that point in the run, so a
    request's ledger answers "what did the scheduler try *for me*, and
    why did each try fail?".

    Attributes:
        scenario: owning scenario's name.
        request_id: the request's scenario-wide id.
        item_id: the requested data item.
        destination: the requesting machine's index.
        priority: the request's priority class.
        deadline: the request's delivery deadline ``Rft``.
        observed: runs that observed this request (merge counter).
        satisfied: satisfaction events across observed runs.
        cancelled: fault-churn cancellations across observed runs.
        reopened: reopen events across observed runs.
        attempts: feasibility searches for the item while pending.
        bookings: transfers booked for the item while pending.
        rejections: rejection-reason tallies while pending (exact even
            when the chain below is truncated).
        arrivals: ``(arrival, deadline - arrival)`` per satisfaction.
        chain: the causal chain, at most :data:`MAX_CHAIN_EVENTS`
            entries (see :data:`ChainEvent` for the entry forms).
        chain_dropped: chain events dropped past the cap — explicit
            truncation, surfaced by :meth:`Timeline.explain`.
    """

    scenario: str = "scenario"
    request_id: int = 0
    item_id: int = 0
    destination: int = 0
    priority: int = 0
    deadline: float = 0.0
    observed: int = 1
    satisfied: int = 0
    cancelled: int = 0
    reopened: int = 0
    attempts: int = 0
    bookings: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    arrivals: List[Tuple[float, float]] = field(default_factory=list)
    chain: List[ChainEvent] = field(default_factory=list)
    chain_dropped: int = 0

    def note_chain(self, event: ChainEvent) -> None:
        """Append one causal-chain entry, honoring the explicit cap."""
        if len(self.chain) < MAX_CHAIN_EVENTS:
            self.chain.append(event)
        else:
            self.chain_dropped += 1

    def merged(self, other: "RequestForensics") -> "RequestForensics":
        """The combined ledger of two observations (associative).

        Chains concatenate keeping the first :data:`MAX_CHAIN_EVENTS`
        entries; the overflow moves into ``chain_dropped`` so the cap
        stays associative (the kept prefix and the dropped count of
        ``(a+b)+c`` and ``a+(b+c)`` coincide).
        """
        chain = self.chain + other.chain
        dropped = self.chain_dropped + other.chain_dropped
        if len(chain) > MAX_CHAIN_EVENTS:
            dropped += len(chain) - MAX_CHAIN_EVENTS
            chain = chain[:MAX_CHAIN_EVENTS]
        return RequestForensics(
            scenario=self.scenario,
            request_id=self.request_id,
            item_id=self.item_id,
            destination=self.destination,
            priority=self.priority,
            deadline=self.deadline,
            observed=self.observed + other.observed,
            satisfied=self.satisfied + other.satisfied,
            cancelled=self.cancelled + other.cancelled,
            reopened=self.reopened + other.reopened,
            attempts=self.attempts + other.attempts,
            bookings=self.bookings + other.bookings,
            rejections=_merge_tallies(self.rejections, other.rejections),
            arrivals=self.arrivals + other.arrivals,
            chain=chain,
            chain_dropped=dropped,
        )

    def dominant_reason(self) -> Optional[str]:
        """The most frequent rejection reason, or
        :data:`~repro.observability.tracer.REASON_NEVER_ATTEMPTED` when
        the request went unsatisfied without a single attempt; ``None``
        for a request satisfied in every observed run."""
        if self.satisfied >= self.observed:
            return None
        if not self.rejections:
            if self.attempts == 0:
                return REASON_NEVER_ATTEMPTED
            return None
        # Highest count wins; ties break lexicographically so the answer
        # is deterministic.
        return min(
            sorted(self.rejections),
            key=lambda reason: (-self.rejections[reason], reason),
        )


def _forensics_key(scenario: str, request_id: int) -> str:
    """The forensics-ledger key: scenario-qualified so request ids from
    different scenarios in one merged sweep never collide."""
    return f"{scenario}#{request_id}"


@dataclass
class Timeline:
    """The serializable simulated-time telemetry of one (or many merged)
    observed runs.

    Attributes:
        horizon: the scheduling horizon (max across merged scenarios).
        runs: observed runs folded into this document.
        links: per-virtual-link activity keyed by link id.
        storage: per-machine reservation series keyed by machine index.
        classes: per-priority-class series keyed by priority.
        forensics: per-request ledgers keyed ``"<scenario>#<request_id>"``.
    """

    KIND: ClassVar[str] = "timeline"
    SCHEMA_VERSION: ClassVar[int] = 1

    horizon: float = 0.0
    runs: int = 0
    links: Dict[int, LinkSeries] = field(default_factory=dict)
    storage: Dict[int, StorageSeries] = field(default_factory=dict)
    classes: Dict[int, ClassSeries] = field(default_factory=dict)
    forensics: Dict[str, RequestForensics] = field(default_factory=dict)

    # -- merging -----------------------------------------------------------

    def merged(self, other: "Timeline") -> "Timeline":
        """The element-wise combination of two timelines (associative)."""
        links = dict(self.links)
        for link_id, series in other.links.items():
            mine = links.get(link_id)
            links[link_id] = series if mine is None else mine.merged(series)
        storage = dict(self.storage)
        for machine, series in other.storage.items():
            held = storage.get(machine)
            storage[machine] = (
                series if held is None else held.merged(series)
            )
        classes = dict(self.classes)
        for priority, series in other.classes.items():
            mine_cls = classes.get(priority)
            classes[priority] = (
                series if mine_cls is None else mine_cls.merged(series)
            )
        forensics = dict(self.forensics)
        for key, ledger in other.forensics.items():
            mine_led = forensics.get(key)
            forensics[key] = (
                ledger if mine_led is None else mine_led.merged(ledger)
            )
        return Timeline(
            horizon=max(self.horizon, other.horizon),
            runs=self.runs + other.runs,
            links=links,
            storage=storage,
            classes=classes,
            forensics=forensics,
        )

    # -- derived series ----------------------------------------------------

    def _bucket_edges(self, points: int) -> List[float]:
        if points < 1:
            raise ConfigurationError(
                f"timeline series need at least 1 bucket, got {points}"
            )
        horizon = self.horizon if self.horizon > 0 else 1.0
        width = horizon / points
        return [index * width for index in range(points + 1)]

    @staticmethod
    def _overlap(start: float, end: float, lo: float, hi: float) -> float:
        return max(0.0, min(end, hi) - max(start, lo))

    def link_utilization_series(
        self, link_id: int, points: int = 48
    ) -> List[Tuple[float, float]]:
        """Per-run link utilization over simulated time.

        Returns ``points`` pairs ``(bucket_start, fraction)`` where the
        fraction is booked seconds inside the bucket divided by the
        bucket seconds the link's window keeps open, averaged over the
        merged runs (0.0 where the window is closed).
        """
        series = self.links.get(link_id)
        if series is None:
            raise ConfigurationError(
                f"timeline observed no virtual link {link_id}"
            )
        edges = self._bucket_edges(points)
        runs = max(self.runs, 1)
        output: List[Tuple[float, float]] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            open_seconds = self._overlap(
                series.window_start, series.window_end, lo, hi
            )
            if open_seconds <= 0.0:
                output.append((lo, 0.0))
                continue
            busy = sum(
                self._overlap(start, end, lo, hi)
                for start, end, _ in series.bookings
            )
            output.append((lo, busy / (open_seconds * runs)))
        return output

    def oversubscription_series(
        self, points: int = 48
    ) -> List[Tuple[float, float]]:
        """Network-wide subscription ratio over simulated time.

        For each bucket: summed booked link-seconds across every virtual
        link, divided by the summed open-window link-seconds.  A
        sustained ratio near 1.0 means the open windows are fully
        booked — the oversubscribed regime the paper studies, where
        demand shows up as the rejection tallies rather than more
        bookings.  Buckets where no window is open report 0.0.
        """
        edges = self._bucket_edges(points)
        output: List[Tuple[float, float]] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            open_seconds = 0.0
            busy = 0.0
            for link_id in sorted(self.links):
                series = self.links[link_id]
                open_seconds += self._overlap(
                    series.window_start, series.window_end, lo, hi
                )
                busy += sum(
                    self._overlap(start, end, lo, hi)
                    for start, end, _ in series.bookings
                )
            runs = max(self.runs, 1)
            ratio = busy / (open_seconds * runs) if open_seconds > 0 else 0.0
            output.append((lo, ratio))
        return output

    def storage_occupancy_series(
        self, machine: int, points: int = 48
    ) -> List[Tuple[float, float]]:
        """Per-run reserved bytes on one machine over simulated time.

        Returns ``points`` pairs ``(bucket_start, bytes)`` sampling the
        summed reserved residencies at each bucket's start, averaged
        over the merged runs.
        """
        series = self.storage.get(machine)
        if series is None:
            raise ConfigurationError(
                f"timeline observed no machine {machine}"
            )
        edges = self._bucket_edges(points)
        runs = max(self.runs, 1)
        output: List[Tuple[float, float]] = []
        for lo in edges[:-1]:
            held = sum(
                amount
                for start, release, amount, _ in series.reservations
                if start <= lo < release
            )
            output.append((lo, held / runs))
        return output

    def pending_depth_series(
        self, priority: int, points: int = 48
    ) -> List[Tuple[float, float]]:
        """Per-run pending-queue depth of one priority class over time.

        Depth at ``t`` is the class's request count minus the drains
        (satisfactions and cancellations) at or before ``t``, averaged
        over the merged runs.  Reopens carry no simulated time on the
        wire, so a reopened request is *not* re-added to the depth (the
        ``reopened`` counter records the undercount).
        """
        series = self.classes.get(priority)
        if series is None:
            raise ConfigurationError(
                f"timeline observed no priority class {priority}"
            )
        edges = self._bucket_edges(points)
        runs = max(self.runs, 1)
        output: List[Tuple[float, float]] = []
        for lo in edges[:-1]:
            drained = sum(1 for when in series.drains if when <= lo)
            output.append((lo, (series.requests - drained) / runs))
        return output

    # -- summaries ---------------------------------------------------------

    def peak_link_utilization(self) -> Tuple[int, float]:
        """``(link_id, fraction)`` of the busiest link overall.

        The fraction is per-run booked seconds over the link's window
        length; ``(-1, 0.0)`` when no link was observed.
        """
        peak_link = -1
        peak = 0.0
        runs = max(self.runs, 1)
        for link_id in sorted(self.links):
            series = self.links[link_id]
            window = series.window_seconds
            if window <= 0.0:
                continue
            fraction = series.busy_seconds / (window * runs)
            if fraction > peak:
                peak = fraction
                peak_link = link_id
        return peak_link, peak

    def total_requests(self) -> int:
        """Requests observed, summed across merged runs."""
        return sum(
            self.classes[priority].requests
            for priority in sorted(self.classes)
        )

    def total_satisfied(self) -> int:
        """Satisfaction events observed, summed across merged runs."""
        return sum(
            self.classes[priority].satisfied
            for priority in sorted(self.classes)
        )

    def top_rejection(self) -> Optional[str]:
        """The most tallied rejection reason across all links."""
        totals: Dict[str, int] = {}
        for link_id in sorted(self.links):
            totals = _merge_tallies(totals, self.links[link_id].rejections)
        if not totals:
            return None
        return min(
            sorted(totals), key=lambda reason: (-totals[reason], reason)
        )

    def summary(self) -> Dict[str, Any]:
        """The compact digest the text and HTML reports print."""
        peak_link, peak = self.peak_link_utilization()
        requests = self.total_requests()
        satisfied = self.total_satisfied()
        return {
            "runs": self.runs,
            "requests": requests,
            "satisfied": satisfied,
            "unsatisfied": requests - satisfied,
            "peak_link": peak_link,
            "peak_utilization": peak,
            "top_rejection": self.top_rejection(),
        }

    # -- forensics ---------------------------------------------------------

    def forensics_for(
        self, request_id: int, scenario: Optional[str] = None
    ) -> RequestForensics:
        """The single ledger for ``request_id``.

        Raises:
            ConfigurationError: when the request was never observed, or
                when the id exists in several merged scenarios and
                ``scenario`` does not disambiguate.
        """
        matches = [
            self.forensics[key]
            for key in sorted(self.forensics)
            if self.forensics[key].request_id == request_id
            and (scenario is None or self.forensics[key].scenario == scenario)
        ]
        if not matches:
            raise ConfigurationError(
                f"timeline holds no forensics for request {request_id}"
                + (f" in scenario {scenario!r}" if scenario else "")
            )
        scenarios = sorted({ledger.scenario for ledger in matches})
        if len(scenarios) > 1:
            raise ConfigurationError(
                f"request {request_id} appears in {len(scenarios)} merged "
                f"scenarios ({', '.join(scenarios)}); pass scenario= to "
                f"disambiguate"
            )
        ledger = matches[0]
        for extra in matches[1:]:
            ledger = ledger.merged(extra)
        return ledger

    def explain(
        self, request_id: int, scenario: Optional[str] = None
    ) -> str:
        """A plain-text reconstruction of one request's causal chain.

        Walks the forensics ledger: identity, final outcome across the
        observed runs, the exact rejection-reason tallies (annotated
        from :data:`REASON_DESCRIPTIONS`), and the event-by-event chain
        (with explicit truncation when the chain overflowed
        :data:`MAX_CHAIN_EVENTS`).
        """
        ledger = self.forensics_for(request_id, scenario)
        lines: List[str] = [
            f"request {ledger.request_id} "
            f"(scenario {ledger.scenario!r}): "
            f"item {ledger.item_id} -> machine {ledger.destination}, "
            f"priority {ledger.priority}, deadline {ledger.deadline:g}",
        ]
        outcome = (
            f"  outcome: satisfied in {ledger.satisfied} of "
            f"{ledger.observed} observed run(s)"
        )
        if ledger.arrivals:
            first = ledger.arrivals[0]
            outcome += f"; first arrival t={first[0]:g} (slack {first[1]:g})"
        if ledger.cancelled:
            outcome += f"; cancelled {ledger.cancelled}x"
        if ledger.reopened:
            outcome += f"; reopened {ledger.reopened}x"
        lines.append(outcome)
        lines.append(
            f"  activity while pending: {ledger.attempts} attempt(s), "
            f"{ledger.bookings} booking(s) toward item {ledger.item_id}"
        )
        dominant = ledger.dominant_reason()
        if ledger.rejections:
            lines.append("  rejection reasons:")
            for reason in sorted(
                ledger.rejections,
                key=lambda name: (-ledger.rejections[name], name),
            ):
                description = REASON_DESCRIPTIONS.get(reason, "")
                lines.append(
                    f"    {reason} x{ledger.rejections[reason]}"
                    + (f" — {description}" if description else "")
                )
        if dominant is not None:
            description = REASON_DESCRIPTIONS.get(dominant, "")
            lines.append(
                f"  dominant cause: {dominant}"
                + (f" — {description}" if description else "")
            )
        if ledger.chain:
            lines.append(
                f"  causal chain ({len(ledger.chain)} event(s)"
                + (
                    f", {ledger.chain_dropped} dropped past the "
                    f"{MAX_CHAIN_EVENTS}-event cap"
                    if ledger.chain_dropped
                    else ""
                )
                + "):"
            )
            for event in ledger.chain:
                lines.append(f"    {_render_chain_event(event)}")
        return "\n".join(lines)


def _render_chain_event(event: ChainEvent) -> str:
    """One causal-chain entry as a human-readable line."""
    kind = event[0]
    if kind == "attempt":
        return f"attempt link={event[1]}"
    if kind == "rejected":
        return f"rejected link={event[1]} reason={event[2]}"
    if kind == "booked":
        return f"booked link={event[1]} [{event[2]:g}, {event[3]:g})"
    if kind == "booking_failed":
        return f"booking failed link={event[1]} reason={event[2]}"
    if kind == "satisfied":
        return f"satisfied at t={event[1]:g} (hops={event[2]})"
    if kind == "cancelled":
        return f"cancelled at t={event[1]:g}"
    if kind == "reopened":
        return "reopened (satisfaction undone)"
    return " ".join(str(part) for part in event)


class TimelineCollector(Tracer):
    """A tracer folding one run's trace stream into a :class:`Timeline`.

    The collector needs the scenario up front: the static structure
    (link windows, storage capacities, the request table) seeds the
    document, and the request table drives the forensics attribution —
    item-level events are credited to every request of that item still
    pending when the event fires.

    One collector observes one scheduler run on one scenario (the
    executor builds one per sweep cell); reuse across runs would
    double-seed the static structure.  Each event goes to the bound
    handler registered for its name; events without one are ignored.
    """

    def __init__(self, scenario: Scenario) -> None:
        timeline = Timeline(horizon=scenario.horizon, runs=1)
        for link in scenario.network.virtual_links:
            timeline.links[link.link_id] = LinkSeries(
                window_start=link.start, window_end=link.end
            )
        for machine in scenario.network.machines:
            timeline.storage[machine.index] = StorageSeries(
                capacity=machine.capacity
            )
        pending: Dict[int, List[int]] = {}
        keys: Dict[int, str] = {}
        for request in scenario.requests:
            series = timeline.classes.get(request.priority)
            if series is None:
                series = ClassSeries()
                timeline.classes[request.priority] = series
            series.requests += 1
            key = _forensics_key(scenario.name, request.request_id)
            timeline.forensics[key] = RequestForensics(
                scenario=scenario.name,
                request_id=request.request_id,
                item_id=request.item_id,
                destination=request.destination,
                priority=request.priority,
                deadline=request.deadline,
            )
            pending.setdefault(request.item_id, []).append(
                request.request_id
            )
            keys[request.request_id] = key
        for request_ids in pending.values():
            request_ids.sort()
        self._timeline = timeline
        self._scenario = scenario
        self._pending = pending
        self._keys = keys
        self._handlers: Dict[str, Callable[..., None]] = {
            "transfer_attempt": self._transfer_attempt,
            "transfer_rejected": self._transfer_rejected,
            "transfer_booked": self._transfer_booked,
            "booking_failed": self._booking_failed,
            "storage_reserved": self._storage_reserved,
            "request_satisfied": self._request_satisfied,
            "request_cancelled": self._request_cancelled,
            "request_reopened": self._request_reopened,
        }

    def emit(self, event: str, *values: Any) -> None:
        """Fold one event into the timeline."""
        handler = self._handlers.get(event)
        if handler is not None:
            handler(*values)

    def _pending_ledgers(self, item_id: int) -> List[RequestForensics]:
        return [
            self._timeline.forensics[self._keys[request_id]]
            for request_id in self._pending.get(item_id, [])
        ]

    def _ledger(self, request_id: int) -> Optional[RequestForensics]:
        key = self._keys.get(request_id)
        if key is None:
            return None
        return self._timeline.forensics[key]

    # -- booking ----------------------------------------------------------

    def _transfer_attempt(self, item_id: int, link_id: int) -> None:
        series = self._timeline.links.get(link_id)
        if series is not None:
            series.attempts += 1
        for ledger in self._pending_ledgers(item_id):
            ledger.attempts += 1
            ledger.note_chain(("attempt", link_id))

    def _transfer_rejected(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        series = self._timeline.links.get(link_id)
        if series is not None:
            series.rejections[reason] = (
                series.rejections.get(reason, 0) + 1
            )
        for ledger in self._pending_ledgers(item_id):
            ledger.rejections[reason] = (
                ledger.rejections.get(reason, 0) + 1
            )
            ledger.note_chain(("rejected", link_id, reason))

    def _transfer_booked(
        self,
        item_id: int,
        link_id: int,
        start: float,
        end: float,
        window_seconds: float,
    ) -> None:
        series = self._timeline.links.get(link_id)
        if series is not None:
            series.bookings.append((start, end, item_id))
        for ledger in self._pending_ledgers(item_id):
            ledger.bookings += 1
            ledger.note_chain(("booked", link_id, start, end))

    def _booking_failed(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        series = self._timeline.links.get(link_id)
        if series is not None:
            series.rejections[reason] = (
                series.rejections.get(reason, 0) + 1
            )
        for ledger in self._pending_ledgers(item_id):
            ledger.rejections[reason] = (
                ledger.rejections.get(reason, 0) + 1
            )
            ledger.note_chain(("booking_failed", link_id, reason))

    # -- storage -----------------------------------------------------------

    def _storage_reserved(
        self, item_id: int, machine: int, amount: float, start: float, release: float
    ) -> None:
        series = self._timeline.storage.get(machine)
        if series is not None:
            series.reservations.append((start, release, amount, item_id))

    # -- request lifecycle -------------------------------------------------

    def _request_satisfied(
        self, request_id: int, at_time: float, hops: int
    ) -> None:
        ledger = self._ledger(request_id)
        if ledger is None:
            return
        ledger.satisfied += 1
        slack = ledger.deadline - at_time
        ledger.arrivals.append((at_time, slack))
        ledger.note_chain(("satisfied", at_time, hops))
        series = self._timeline.classes[ledger.priority]
        series.satisfied += 1
        series.slack.append((at_time, slack))
        series.drains.append(at_time)
        self._drop_pending(ledger.item_id, request_id)

    def _request_cancelled(self, request_id: int, at_time: float) -> None:
        ledger = self._ledger(request_id)
        if ledger is None:
            return
        ledger.cancelled += 1
        ledger.note_chain(("cancelled", at_time))
        series = self._timeline.classes[ledger.priority]
        series.cancelled += 1
        series.drains.append(at_time)
        self._drop_pending(ledger.item_id, request_id)

    def _request_reopened(self, request_id: int) -> None:
        ledger = self._ledger(request_id)
        if ledger is None:
            return
        ledger.reopened += 1
        ledger.note_chain(("reopened",))
        self._timeline.classes[ledger.priority].reopened += 1
        waiting = self._pending.setdefault(ledger.item_id, [])
        if request_id not in waiting:
            waiting.append(request_id)
            waiting.sort()

    def _drop_pending(self, item_id: int, request_id: int) -> None:
        waiting = self._pending.get(item_id)
        if waiting is not None and request_id in waiting:
            waiting.remove(request_id)

    def finalize(self) -> Timeline:
        """The collected timeline document."""
        return self._timeline
