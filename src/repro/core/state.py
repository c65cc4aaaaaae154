"""Mutable scheduling state over an immutable scenario.

:class:`NetworkState` is the single authority on resource availability while
a schedule is being built.  It tracks:

* per virtual link — the booked busy intervals (a link carries one transfer
  at a time), in a set created on the link's first booking or outage;
* per machine — the free-storage timeline ``Cap[i](t)``;
* per data item — the set of machines currently holding a copy, when each
  copy became available, and when it will be garbage-collected;
* which requests have been satisfied so far;
* a monotonically increasing *revision counter* per item, which the
  heuristics use to decide whether a cached shortest-path tree is still
  valid;
* an append-only *mutation journal* of bookings, outage cutoffs and
  storage releases, which the :class:`~repro.heuristics.base.TreeCache`
  replays to revalidate cached trees lazily instead of recomputing them,
  plus a global *capacity epoch* counting copy losses.

All transfers are booked through :meth:`book_transfer`, which enforces every
model constraint (window containment, link exclusivity, receiver capacity
over the full residency, sender residency) and appends the step — plus any
resulting deliveries — to the state's :class:`~repro.core.schedule.Schedule`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.intervals import Interval, IntervalSet
from repro.core.link import VirtualLink
from repro.core.request import Request
from repro.core.schedule import Schedule
from repro.core.scenario import Scenario
from repro.core.timeline import CapacityTimeline
from repro.errors import InfeasibleTransferError, SchedulingError
from repro.observability.tracer import (
    REASON_ALREADY_AT_DESTINATION,
    REASON_LINK_BUSY,
    REASON_LINK_CUTOFF,
    REASON_NO_LINK_SLOT,
    REASON_NO_SENDER_COPY,
    REASON_NO_STORAGE,
    REASON_SENDER_NOT_AVAILABLE,
    REASON_SENDER_RELEASED,
    REASON_STORAGE_CONFLICT,
    REASON_WINDOW_CLOSED,
    REASON_WINDOW_ESCAPE,
    Tracer,
    current_tracer,
)
from repro.faults.context import current_faults
from repro.faults.plan import FaultPlan


class CopyRecord(NamedTuple):
    """One copy of a data item residing on a machine.

    Attributes:
        machine: the holding machine's index.
        available_from: the instant the copy can be forwarded or consumed.
        release: the instant the copy disappears (garbage collection for
            intermediates; the scheduling horizon for sources/destinations).
        hops: number of communication steps between the original source and
            this copy (0 for initial sources).
    """

    machine: int
    available_from: float
    release: float
    hops: int


#: Parallel float lists of an interval set or a timeline (``columns()``).
Columns = Tuple[List[float], List[float]]

#: Stands in, never mutated, for the busy set of a link that no booking or
#: outage has touched: most links never get a set of their own.
_IDLE = IntervalSet()

#: Journal kind: a transfer was booked (link busy interval + receiver
#: storage reservation over the copy's residency).
MUTATION_BOOKING = "booking"
#: Journal kind: a dynamic outage tightened a virtual link's cutoff.
MUTATION_CUTOFF = "cutoff"
#: Journal kind: a lost copy released the rest of its storage reservation
#: to its machine.
MUTATION_LOSS = "loss"


class MutationRecord(NamedTuple):
    """One journalled state mutation, for lazy cache revalidation.

    Bookings (link busy time plus a storage reservation at the receiver)
    and outage cutoffs remove availability.  A release
    (:meth:`NetworkState.remove_copy` of a scheduler-made copy) adds
    storage back at one machine; it can improve only a relaxation into
    that machine whose outcome storage decided, so a cache checks it
    against the machines where its search fell back to the full storage
    probe.

    Attributes:
        kind: :data:`MUTATION_BOOKING`, :data:`MUTATION_CUTOFF` or
            :data:`MUTATION_LOSS`.
        link_id: the virtual link the mutation touched (``-1`` for a
            release).
        busy: the booked transfer interval (bookings only).
        machine: the receiving machine of a booking, or the machine a
            release frees storage on; ``-1`` for a cutoff.
        residency: the receiver-storage reservation interval of a
            booking, or the freed interval of a release.
        cutoff: the new completion cutoff (cutoff records only).
        item_id: the booked or lost item (``-1`` for a cutoff).
    """

    kind: str
    link_id: int
    busy: Optional[Interval] = None
    machine: int = -1
    residency: Optional[Interval] = None
    cutoff: float = float("inf")
    item_id: int = -1


class TransferPlan(NamedTuple):
    """A feasible (but not yet booked) transfer found by :meth:`earliest_transfer`.

    Attributes:
        item_id: the data item to move.
        link: the virtual link to use.
        start: transfer start time.
        end: transfer completion time (``start`` + communication time).
        release: when the receiver's new copy will be released.
    """

    item_id: int
    link: VirtualLink
    start: float
    end: float
    release: float


class BookingResult(NamedTuple):
    """Outcome of a booked transfer.

    Attributes:
        step_id: index of the created communication step.
        copy: the receiver's new copy record.
        satisfied_request_ids: requests newly satisfied by this arrival.
    """

    step_id: int
    copy: CopyRecord
    satisfied_request_ids: Tuple[int, ...]


class NetworkState:
    """Resource and copy-location state during schedule construction."""

    #: Process-wide source of unique state identity tokens; every state —
    #: including every clone — gets its own, so a cache bound to one state
    #: can never silently validate against another whose revision counters
    #: restarted from zero.
    _epoch_source = itertools.count()

    def __init__(
        self,
        scenario: Scenario,
        schedule_name: str = "",
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self._scenario = scenario
        # The ambient tracer is captured once at construction; the default
        # NullTracer keeps every event site down to one branch.
        self._tracer = tracer if tracer is not None else current_tracer()
        # Likewise the ambient fault plan (repro.faults.use_faults); an
        # empty plan normalizes to None so the healthy path is untouched.
        plan = faults if faults is not None else current_faults()
        if plan is not None and plan.is_empty():
            plan = None
        self._faults = plan
        # A state built from its scenario alone (no fault plan, not a
        # clone) starts at its opening; see only_booked.
        self._only_booked = plan is None
        network = scenario.network
        # Per-physical-link degradation factors (sub-1.0 only) and the
        # epoch counting their changes.  The per-virtual-link delivered
        # bandwidth list is derived lazily in effective_bandwidths() and
        # cached until the epoch moves, so tree computations share one
        # list instead of rebuilding it per search.
        self._degradation_factors: Dict[int, float] = {}
        self._degradation_epoch: int = 0
        self._effective_bandwidth: Optional[List[float]] = None
        self._effective_cache_epoch: int = -1
        self._busy: Dict[int, IntervalSet] = {}
        self._busy_columns = [_IDLE.columns()] * len(network.virtual_links)
        self._timelines: List[CapacityTimeline] = [
            CapacityTimeline(machine.capacity) for machine in network.machines
        ]
        self._timeline_columns = [line.columns() for line in self._timelines]
        # copies[item_id] maps machine index -> CopyRecord.
        self._copies: List[Dict[int, CopyRecord]] = [
            {} for _ in scenario.items
        ]
        for item in scenario.items:
            for src in item.sources:
                self._copies[item.item_id][src.machine] = CopyRecord(
                    src.machine, src.available_from, scenario.horizon, 0
                )
        self._satisfied: Dict[int, float] = {}
        self._open_requests: List[int] = [
            len(scenario.requests_for_item(item.item_id))
            for item in scenario.items
        ]
        # Each item's unsatisfied-request tuple, kept until a delivery or
        # a reopen changes the item's satisfied set (None: not built).
        self._unsatisfied: List[Optional[Tuple[Request, ...]]] = [
            None
        ] * len(scenario.items)
        # Per-virtual-link availability cutoff (dynamic outages): no new
        # transfer may *complete* after the cutoff.  inf = never cut.
        self._link_cutoff: List[float] = (
            [float("inf")] * len(network.virtual_links)
        )
        self._item_revision: List[int] = [0] * len(scenario.items)
        self._epoch: int = next(NetworkState._epoch_source)
        self._capacity_epoch: int = 0
        self._journal: List[MutationRecord] = []
        self._schedule = Schedule(name=schedule_name)
        # Destination lookup: (item_id, machine) -> request, for delivery
        # detection on arrival.
        self._destination_requests: Dict[Tuple[int, int], int] = {
            (request.item_id, request.destination): request.request_id
            for request in scenario.requests
        }
        # Copy release times are static (DESIGN.md decision 3/4), and the
        # routing layer asks for them on every edge relaxation — precompute
        # the full item × machine matrix once.
        machine_count = network.machine_count
        self._release_matrix: List[List[float]] = []
        for item in scenario.items:
            gc_release = scenario.gc_release_time(item.item_id)
            row = [gc_release] * machine_count
            for machine in item.source_machines:
                row[machine] = scenario.horizon
            for request in scenario.requests_for_item(item.item_id):
                row[request.destination] = scenario.horizon
            self._release_matrix.append(row)
        if self._faults is not None:
            self._apply_faults(self._faults)

    def _apply_faults(self, plan: FaultPlan) -> None:
        """Mask outage windows and degrade bandwidth per the fault plan.

        Outages become pre-booked busy intervals on every virtual link of
        the affected physical link, so schedulers route around them with
        the same interval machinery that handles contention; degradations
        lower the link's entry in ``_effective_bandwidth``, lengthening
        every duration computed from it.  Only the static (capacity)
        faults apply here — churn is replayed by the dynamic driver.
        """
        plan.check_against(self._scenario)
        factors = plan.bandwidth_factors()
        if factors:
            self._degradation_factors.update(factors)
            self._degradation_epoch += 1
        outages = plan.outages_by_link()
        masked = 0
        degraded = 0
        for link in self._scenario.network.virtual_links:
            if link.physical_id in factors:
                degraded += 1
            for outage in outages.get(link.physical_id, ()):
                clipped = outage.intersection(link.window)
                if clipped is not None and not clipped.is_empty():
                    self._busy_set(link.link_id).add(clipped)
                    masked += 1
        if self._tracer.enabled:
            self._tracer.emit("faults_applied", masked, degraded)

    def _busy_set(self, link_id: int) -> IntervalSet:
        """The link's busy set, created (with its columns) on first use."""
        busy = self._busy.get(link_id)
        if busy is None:
            busy = self._busy[link_id] = IntervalSet()
            self._busy_columns[link_id] = busy.columns()
        return busy

    def clone(self) -> "NetworkState":
        """An independent deep copy (used by exhaustive search).

        The clone shares the immutable scenario but owns private busy sets,
        timelines, copy tables, and a full copy of the schedule built so
        far.  Item revision counters reset to zero (they only order events
        within one state's lifetime, and a fresh tree cache accompanies a
        fresh state); the clone receives a fresh :attr:`epoch` token, so a
        :class:`~repro.heuristics.base.TreeCache` bound to the parent
        refuses to serve the clone instead of silently validating stale
        trees against the restarted counters.
        """
        clone = NetworkState.__new__(NetworkState)
        clone._scenario = self._scenario
        clone._tracer = self._tracer
        clone._faults = self._faults
        clone._only_booked = False
        # The cached bandwidth list is shared (a degradation in either
        # state rebuilds a fresh list rather than mutating the old one);
        # the factor table is copied because degrade_physical_link
        # mutates it in place.
        clone._degradation_factors = dict(self._degradation_factors)
        clone._degradation_epoch = self._degradation_epoch
        clone._effective_bandwidth = self._effective_bandwidth
        clone._effective_cache_epoch = self._effective_cache_epoch
        clone._busy = {key: busy.copy() for key, busy in self._busy.items()}
        clone._busy_columns = list(self._busy_columns)
        for link_id, busy in clone._busy.items():
            clone._busy_columns[link_id] = busy.columns()
        clone._timelines = [timeline.copy() for timeline in self._timelines]
        clone._timeline_columns = [line.columns() for line in clone._timelines]
        clone._copies = [dict(copies) for copies in self._copies]
        clone._satisfied = dict(self._satisfied)
        clone._open_requests = list(self._open_requests)
        clone._unsatisfied = list(self._unsatisfied)
        clone._link_cutoff = list(self._link_cutoff)
        clone._item_revision = [0] * len(self._item_revision)
        clone._epoch = next(NetworkState._epoch_source)
        clone._capacity_epoch = 0
        clone._journal = []
        schedule = Schedule(name=self._schedule.name)
        schedule.extend_from(self._schedule.steps)
        for delivery in self._schedule.deliveries.values():
            schedule.add_delivery(
                request_id=delivery.request_id,
                arrival=delivery.arrival,
                hops=delivery.hops,
            )
        clone._schedule = schedule
        clone._destination_requests = self._destination_requests
        clone._release_matrix = self._release_matrix
        return clone

    # -- read-only accessors --------------------------------------------------

    @property
    def scenario(self) -> Scenario:
        """The immutable problem instance this state belongs to."""
        return self._scenario

    @property
    def schedule(self) -> Schedule:
        """The schedule built so far (owned by this state)."""
        return self._schedule

    @property
    def tracer(self) -> Tracer:
        """The tracer observing this state (NullTracer when disabled)."""
        return self._tracer

    @property
    def faults(self) -> Optional[FaultPlan]:
        """The applied fault plan, or ``None`` for a healthy state."""
        return self._faults

    def effective_bandwidth(self, link_id: int) -> float:
        """Delivered bandwidth of a virtual link (nominal unless degraded)."""
        return self.effective_bandwidths()[link_id]

    def effective_bandwidths(self) -> List[float]:
        """Per-link delivered bandwidth, indexed by ``link_id``.

        The routing layer's relaxation loop indexes this list directly on
        its hot path instead of calling :meth:`effective_bandwidth` per
        edge.  The list is derived from the degradation table once per
        :attr:`degradation_epoch` and cached — a rebuild allocates a fresh
        list, so callers (and clones) may hold the returned one across
        degradations without seeing it change underneath them.  Do not
        mutate.
        """
        cached = self._effective_bandwidth
        if (
            cached is not None
            and self._effective_cache_epoch == self._degradation_epoch
        ):
            return cached
        network = self._scenario.network
        bandwidths = [link.bandwidth for link in network.virtual_links]
        factors = self._degradation_factors
        if factors:
            for link in network.virtual_links:
                factor = factors.get(link.physical_id)
                if factor is not None:
                    bandwidths[link.link_id] = link.bandwidth * factor
        self._effective_bandwidth = bandwidths
        self._effective_cache_epoch = self._degradation_epoch
        return bandwidths

    def copies(self, item_id: int) -> Dict[int, CopyRecord]:
        """Current copies of an item, keyed by machine (snapshot)."""
        return dict(self._copies[item_id])

    def copy_at(self, item_id: int, machine: int) -> Optional[CopyRecord]:
        """The copy of ``item_id`` on ``machine``, or ``None``."""
        return self._copies[item_id].get(machine)

    def holds(self, item_id: int, machine: int) -> bool:
        """True if the machine currently holds a copy of the item."""
        return machine in self._copies[item_id]

    def is_satisfied(self, request_id: int) -> bool:
        """True if the request has been satisfied."""
        return request_id in self._satisfied

    def satisfied_request_ids(self) -> Tuple[int, ...]:
        """Ids of all satisfied requests, ascending."""
        return tuple(sorted(self._satisfied))

    def open_request_counts(self) -> List[int]:
        """``len(unsatisfied_requests_for_item(i))`` per item (live list)."""
        return self._open_requests

    def unsatisfied_requests_for_item(self, item_id: int) -> Tuple[Request, ...]:
        """The item's requests that still lack a delivery.

        Built on first use and kept until a delivery or a reopen changes
        the item's satisfied set.
        """
        unsatisfied = self._unsatisfied[item_id]
        if unsatisfied is None:
            satisfied = self._satisfied
            unsatisfied = self._unsatisfied[item_id] = tuple(
                request
                for request in self._scenario.requests_for_item(item_id)
                if request.request_id not in satisfied
            )
        return unsatisfied

    def link_busy_intervals(self, link_id: int) -> Tuple[Interval, ...]:
        """Booked busy intervals of one virtual link (snapshot)."""
        return self._busy.get(link_id, _IDLE).intervals()

    def machine_timeline(self, machine: int) -> CapacityTimeline:
        """The machine's free-capacity timeline (live object — do not mutate)."""
        return self._timelines[machine]

    def item_revision(self, item_id: int) -> int:
        """Revision counter of an item's copy set."""
        return self._item_revision[item_id]

    @property
    def epoch(self) -> int:
        """This state's unique identity token (fresh per state and clone).

        Revision counters restart at zero in every clone, so two states
        can expose identical counters while holding different resources;
        caches bind to the epoch to tell states apart.
        """
        return self._epoch

    @property
    def degradation_epoch(self) -> int:
        """Bumped whenever a bandwidth degradation is applied or deepened.

        Transfer durations are computed from the effective bandwidths, so
        a moved epoch invalidates every cached duration (and, through the
        :class:`~repro.heuristics.base.TreeCache`, every cached tree) in
        one comparison.  Degradations are not journalled — they change
        durations globally rather than removing one resource — so caches
        must treat a changed bandwidth epoch as a global invalidation.
        """
        return self._degradation_epoch

    @property
    def capacity_epoch(self) -> int:
        """Bumped by every copy loss (:meth:`remove_copy`).

        Caches replay the loss's release record instead (see
        :class:`MutationRecord`).
        """
        return self._capacity_epoch

    @property
    def only_booked(self) -> bool:
        """True while the state is a pure function of its scenario and its
        journalled bookings: built without a fault plan, not a clone, and
        changed by nothing but :meth:`book_transfer` (no cutoff, copy
        loss, degradation or reopened request).  Once false, for good."""
        return self._only_booked

    @property
    def at_opening(self) -> bool:
        """True while the state is what its scenario alone defines:
        :attr:`only_booked` with nothing journalled."""
        return self._only_booked and not self._journal

    def journal_length(self) -> int:
        """Number of mutations journalled so far."""
        return len(self._journal)

    def journal_since(self, position: int) -> Sequence[MutationRecord]:
        """The journal entries appended at or after ``position``."""
        return self._journal[position:]

    def release_row(self, item_id: int) -> List[float]:
        """:meth:`release_time_at` for every machine, indexed by machine.

        The routing kernel reads this row on its hot path instead of
        calling :meth:`release_time_at` per edge.  Live list — do not
        mutate.
        """
        return self._release_matrix[item_id]

    def probe_columns(self) -> Tuple[List[Columns], List[Columns]]:
        """The live ``columns()`` of every busy set (by link id) and every
        timeline (by machine), for the routing kernel.  Do not mutate."""
        return self._busy_columns, self._timeline_columns

    def link_cutoffs(self) -> List[float]:
        """Every virtual link's outage cutoff, indexed by ``link_id``.

        The live list behind :meth:`link_cutoff`:
        :meth:`disable_link_from` updates it in place, so a holder sees
        later outages.  Do not mutate.
        """
        return self._link_cutoff

    def release_time_at(self, item_id: int, machine: int) -> float:
        """How long a new copy of ``item_id`` would persist on ``machine``.

        Requesting destinations (and original sources) hold copies until the
        horizon; every other machine is an intermediate whose copy is
        garbage-collected ``γ`` after the item's latest deadline.
        """
        return self._release_matrix[item_id][machine]

    # -- feasibility search ---------------------------------------------------

    def earliest_transfer(
        self,
        item_id: int,
        link: VirtualLink,
        sender_ready: float,
        duration: Optional[float] = None,
    ) -> Optional[TransferPlan]:
        """Earliest feasible transfer of an item over one virtual link.

        Finds the smallest start time ``s >= max(sender_ready, Lst)`` such
        that:

        * the link is idle during ``[s, s + D)`` where ``D`` is the link's
          communication time for the item;
        * ``s + D <= Let`` (the transfer fits in the window);
        * ``s + D <=`` the sender's copy release time (the sender still holds
          the item when the transfer completes);
        * the receiver has ``|d|`` bytes free during the new copy's entire
          residency ``[s, release)``, and the transfer completes before the
          copy would be released.

        The sender does not need to *currently* hold a copy: the routing
        layer relaxes edges out of hypothetical intermediate holders whose
        copy would be created by earlier hops of the same path.  A
        hypothetical copy's release time equals
        :meth:`release_time_at`, which also equals the actual release time of
        every real copy, so one computation serves both cases.
        :meth:`book_transfer` re-validates that the sender really holds the
        item before mutating anything.

        The compiled routing kernel
        (:func:`~repro.routing.compiled.compute_tree_compiled`) runs the
        rejections below and the first pass of the probe loop —
        ``first_fit``'s scan and the capacity check — inline, with the same
        expressions, order and trace events, and calls this method only
        when that pass settles no feasible start.  A change to those checks
        here, in ``first_fit`` or in ``min_free_span`` must be mirrored
        there.

        Args:
            item_id: the item to move.
            link: the virtual link to try.
            sender_ready: when the sender's copy is (or would be) available.
            duration: the link's communication time for the item, when the
                caller already computed it (the routing layer's relaxation
                loop does); computed from the link otherwise.

        Returns:
            A :class:`TransferPlan`, or ``None`` when no feasible start
            exists on this link.
        """
        if self._tracer.enabled:
            self._tracer.emit("transfer_attempt", item_id, link.link_id)
        if self.holds(item_id, link.destination):
            return self._reject(
                item_id, link.link_id, REASON_ALREADY_AT_DESTINATION
            )
        item = self._scenario.item(item_id)
        if duration is None:
            duration = link.transfer_seconds(
                item.size, self.effective_bandwidths()[link.link_id]
            )
        release = self._release_matrix[item_id][link.destination]
        sender_release = self._release_matrix[item_id][link.source]
        # Completion must respect the window (clipped by any dynamic
        # outage), the sender's residency, and the receiver's residency.
        window_end = min(
            link.end,
            sender_release,
            release,
            self._link_cutoff[link.link_id],
        )
        window_start = link.start
        if window_end <= window_start:
            return self._reject(item_id, link.link_id, REASON_WINDOW_CLOSED)
        item_size = item.size
        timeline = self._timelines[link.destination]
        busy = self._busy.get(link.link_id, _IDLE)
        cursor = sender_ready
        while True:
            start = busy.first_fit(duration, window_start, window_end, cursor)
            if start is None:
                return self._reject(
                    item_id, link.link_id, REASON_NO_LINK_SLOT
                )
            if timeline.can_reserve_span(item_size, start, release):
                return TransferPlan(
                    item_id, link, start, start + duration, release
                )
            next_start = timeline.next_sufficient_start(
                item_size, start, release
            )
            if next_start is None or next_start + duration > window_end:
                return self._reject(
                    item_id, link.link_id, REASON_NO_STORAGE
                )
            if next_start <= start:
                raise SchedulingError(
                    "earliest_transfer failed to make progress at "
                    f"start={start} on link {link.link_id}"
                )
            cursor = next_start

    def _reject(
        self, item_id: int, link_id: int, reason: str
    ) -> Optional[TransferPlan]:
        """Emit an infeasible probe's rejection event; answer ``None``."""
        if self._tracer.enabled:
            self._tracer.emit("transfer_rejected", item_id, link_id, reason)
        return None

    # -- mutation ---------------------------------------------------------------

    def _reject_booking(
        self, item_id: int, link_id: int, reason: str, message: str
    ) -> None:
        """Emit a booking-failure event and raise the diagnostic."""
        if self._tracer.enabled:
            self._tracer.emit("booking_failed", item_id, link_id, reason)
        raise InfeasibleTransferError(message)

    def book_transfer(self, plan: TransferPlan) -> BookingResult:
        """Execute a :class:`TransferPlan`: reserve resources, place the copy.

        Raises:
            InfeasibleTransferError: if the plan no longer fits (it was
                computed against stale state) — states are single-writer, so
                this indicates a scheduler bug, but the precise diagnostic is
                kept because the random baselines book speculatively.
        """
        link = plan.link
        item = self._scenario.item(plan.item_id)
        if self.holds(plan.item_id, link.destination):
            self._reject_booking(
                plan.item_id,
                link.link_id,
                REASON_ALREADY_AT_DESTINATION,
                f"machine {link.destination} already holds item "
                f"{plan.item_id}",
            )
        sender_copy = self._copies[plan.item_id].get(link.source)
        if sender_copy is None:
            self._reject_booking(
                plan.item_id,
                link.link_id,
                REASON_NO_SENDER_COPY,
                f"machine {link.source} holds no copy of item "
                f"{plan.item_id}",
            )
        if plan.start < sender_copy.available_from:
            self._reject_booking(
                plan.item_id,
                link.link_id,
                REASON_SENDER_NOT_AVAILABLE,
                f"transfer starts at {plan.start} before the sender copy is "
                f"available at {sender_copy.available_from}",
            )
        if plan.end > sender_copy.release:
            self._reject_booking(
                plan.item_id,
                link.link_id,
                REASON_SENDER_RELEASED,
                f"transfer ends at {plan.end} after the sender copy is "
                f"released at {sender_copy.release}",
            )
        busy_interval = Interval(plan.start, plan.end)
        busy = self._busy.get(link.link_id, _IDLE)
        if not busy.is_free(busy_interval):
            self._reject_booking(
                plan.item_id,
                link.link_id,
                REASON_LINK_BUSY,
                f"link {link.link_id} is busy during {busy_interval!r}",
            )
        # link.window.contains_interval(busy_interval), building no window.
        if not (link.start <= plan.start and plan.end <= link.end):
            self._reject_booking(
                plan.item_id,
                link.link_id,
                REASON_WINDOW_ESCAPE,
                f"transfer {busy_interval!r} escapes link window "
                f"{link.window!r}",
            )
        if plan.end > self._link_cutoff[link.link_id]:
            self._reject_booking(
                plan.item_id,
                link.link_id,
                REASON_LINK_CUTOFF,
                f"transfer completes at {plan.end} after link "
                f"{link.link_id}'s outage cutoff "
                f"{self._link_cutoff[link.link_id]}",
            )
        residency = Interval(plan.start, plan.release)
        timeline = self._timelines[link.destination]
        if not timeline.can_reserve_span(item.size, plan.start, plan.release):
            self._reject_booking(
                plan.item_id,
                link.link_id,
                REASON_STORAGE_CONFLICT,
                f"machine {link.destination} lacks {item.size} bytes over "
                f"{residency!r}",
            )
        # All checks passed; mutate, without checking again.
        if busy is _IDLE:
            busy = self._busy_set(link.link_id)
        busy.insert_free(plan.start, plan.end)
        timeline.subtract_free(item.size, plan.start, plan.release)
        if self._tracer.enabled:
            self._tracer.emit(
                "storage_reserved",
                plan.item_id,
                link.destination,
                item.size,
                plan.start,
                plan.release,
            )
        copy = CopyRecord(
            link.destination, plan.end, plan.release, sender_copy.hops + 1
        )
        self._copies[plan.item_id][link.destination] = copy
        self._item_revision[plan.item_id] += 1
        self._journal.append(
            MutationRecord(
                MUTATION_BOOKING, link.link_id, busy_interval,
                link.destination, residency, float("inf"), plan.item_id,
            )
        )
        step_id = self._schedule.add_step(
            item_id=plan.item_id,
            source=link.source,
            destination=link.destination,
            link_id=link.link_id,
            start=plan.start,
            end=plan.end,
        )
        if self._tracer.enabled:
            self._tracer.emit(
                "transfer_booked",
                plan.item_id,
                link.link_id,
                plan.start,
                plan.end,
                link.end - link.start,
            )
        # Deliveries are recorded (and their satisfaction events emitted)
        # after the booking event: the transfer that causes a
        # satisfaction precedes it in every trace.
        satisfied = self._record_deliveries(plan.item_id, copy)
        return BookingResult(step_id, copy, satisfied)

    # -- dynamic-simulation surgery ---------------------------------------------

    def link_cutoff(self, link_id: int) -> float:
        """The virtual link's outage cutoff (``inf`` when never cut)."""
        return self._link_cutoff[link_id]

    def disable_link_from(self, link_id: int, at_time: float) -> None:
        """Forbid new transfers on a virtual link from ``at_time`` onwards.

        Models a dynamic link outage: no new transfer may complete after
        the cutoff.  Transfers already booked are grandfathered (an
        in-flight transfer either completes or its loss is modelled
        separately as a :class:`~repro.dynamic.events.CopyLoss` at the
        receiver).  Tightening an existing cutoff is allowed; loosening is
        not (outages are permanent in this model).

        Raises:
            SchedulingError: when attempting to move a cutoff later.
        """
        if at_time > self._link_cutoff[link_id]:
            raise SchedulingError(
                f"link {link_id} cutoff already at "
                f"{self._link_cutoff[link_id]}; cannot loosen to {at_time}"
            )
        self._link_cutoff[link_id] = at_time
        self._only_booked = False
        self._journal.append(
            MutationRecord(
                kind=MUTATION_CUTOFF, link_id=link_id, cutoff=at_time
            )
        )
        if self._tracer.enabled:
            self._tracer.emit("link_disabled", link_id, at_time)

    def degrade_physical_link(self, physical_id: int, factor: float) -> None:
        """Scale a physical link's delivered bandwidth by ``factor``.

        Models a dynamic degradation: every virtual link of the physical
        link delivers ``nominal * factor`` from now on, lengthening all
        future transfer durations.  Like outages, degradations are
        permanent and may only tighten — replacing an existing factor
        with a larger one would shorten durations and is rejected.  Bumps
        the :attr:`degradation_epoch` (callers holding cached duration
        tables or trees must recompute).

        Raises:
            ValueError: if ``factor`` is outside ``(0, 1]``.
            SchedulingError: if the physical link is unknown or the new
                factor does not tighten the existing one.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(
                f"degradation factor must be in (0, 1], got {factor}"
            )
        network = self._scenario.network
        if not any(
            plink.physical_id == physical_id
            for plink in network.physical_links
        ):
            raise SchedulingError(
                f"cannot degrade unknown physical link {physical_id}"
            )
        current = self._degradation_factors.get(physical_id, 1.0)
        if factor >= current:
            raise SchedulingError(
                f"physical link {physical_id} already degraded to "
                f"{current}; cannot loosen to {factor}"
            )
        self._degradation_factors[physical_id] = factor
        self._degradation_epoch += 1
        self._only_booked = False
        degraded = 0
        for link in network.virtual_links:
            if link.physical_id == physical_id:
                degraded += 1
        if self._tracer.enabled:
            self._tracer.emit("faults_applied", 0, degraded)

    def remove_copy(self, item_id: int, machine: int, at_time: float) -> None:
        """Delete a resident copy at ``at_time`` (a dynamic loss event).

        The copy's remaining storage reservation ``[at_time, release)`` is
        returned to the machine and journalled there as a release record
        (a source copy holds no reservation, so its loss journals
        nothing), and the copy disappears from the item's location table.
        The item revision bumps, so the item's cached tree recomputes, and
        so does the capacity epoch (the state is no longer at its
        opening).
        Used only by :mod:`repro.dynamic` — the static model never loses
        copies.

        Raises:
            InfeasibleTransferError: if the machine holds no copy, or the
                loss time falls outside the copy's residency.
        """
        copy = self._copies[item_id].get(machine)
        if copy is None:
            raise InfeasibleTransferError(
                f"machine {machine} holds no copy of item {item_id} "
                f"to lose"
            )
        if not copy.available_from <= at_time < copy.release:
            raise InfeasibleTransferError(
                f"loss at {at_time} outside copy residency "
                f"[{copy.available_from}, {copy.release})"
            )
        item = self._scenario.item(item_id)
        if copy.hops > 0:
            # Only scheduler-created copies carry a storage reservation;
            # initial source copies are not charged against Cap
            # (DESIGN.md decision 3).
            freed = Interval(at_time, copy.release)
            self._timelines[machine].release(item.size, freed)
            self._journal.append(
                MutationRecord(
                    kind=MUTATION_LOSS,
                    link_id=-1,
                    machine=machine,
                    residency=freed,
                    item_id=item_id,
                )
            )
        del self._copies[item_id][machine]
        self._item_revision[item_id] += 1
        self._capacity_epoch += 1
        self._only_booked = False
        if self._tracer.enabled:
            self._tracer.emit("copy_removed", item_id, machine, at_time)

    def reopen_request(self, request_id: int) -> None:
        """Mark a previously satisfied request as unsatisfied again.

        Used by the dynamic driver when a destination loses its copy
        before the deadline.  Bumps the item revision so cached candidate
        evaluations are invalidated.

        Raises:
            SchedulingError: if the request was not satisfied.
        """
        if request_id not in self._satisfied:
            raise SchedulingError(
                f"request {request_id} is not satisfied; nothing to reopen"
            )
        del self._satisfied[request_id]
        self._schedule.remove_delivery(request_id)
        request = self._scenario.request(request_id)
        self._open_requests[request.item_id] += 1
        self._unsatisfied[request.item_id] = None
        self._item_revision[request.item_id] += 1
        # Reopening journals nothing and moves no epoch.
        self._only_booked = False
        if self._tracer.enabled:
            self._tracer.emit("request_reopened", request_id)

    def _record_deliveries(
        self, item_id: int, copy: CopyRecord
    ) -> Tuple[int, ...]:
        """Mark requests satisfied by an arrival at their destination."""
        request_id = self._destination_requests.get((item_id, copy.machine))
        if request_id is None or request_id in self._satisfied:
            return ()
        request = self._scenario.request(request_id)
        if not request.is_satisfied_by_arrival(copy.available_from):
            return ()
        self._satisfied[request_id] = copy.available_from
        self._open_requests[item_id] -= 1
        self._unsatisfied[item_id] = None
        self._schedule.add_delivery(
            request_id=request_id,
            arrival=copy.available_from,
            hops=copy.hops,
        )
        if self._tracer.enabled:
            self._tracer.emit(
                "request_satisfied",
                request_id,
                copy.available_from,
                copy.hops,
            )
        return (request_id,)
