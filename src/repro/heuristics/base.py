"""The shared scheduling engine behind the three §4.5–§4.7 heuristics.

All three heuristics follow the same outer loop:

1. (re)compute the shortest-path tree of every requested item;
2. enumerate the valid next communication steps (candidate groups);
3. price each group with the chosen cost criterion;
4. schedule the cheapest group — *how much* of it is scheduled is the only
   difference between the heuristics (one hop, one full path, or full paths
   to all destinations sharing the next machine);
5. update the state and repeat until no satisfiable request has a valid
   next step.

:class:`TreeCache` implements the re-computation optimization the paper
sketches but does not use (§4.5), sharpened to interval granularity: an
item's tree is recomputed only when the item's own copy set changed or
when a journalled mutation *provably intersects* the tree's interval
footprint — a booking overlapping a planned hop on a footprint link, a
reservation breaking a planned storage residency, or a cutoff undercutting
a planned completion.  Bookings only ever remove availability, so a tree
that survives the journal replay has labels byte-identical to a fresh
recompute — the engine's decisions match the recompute-every-iteration
algorithm.  The item's own bookings of its planned hops do not force a
recompute either: the tree is rebased onto the new copies
(:meth:`TreeCache.rebase`).

The cache also remembers which items have *no* candidate (§4.8 gives no
resources to a step whose every destination misses its deadline).  Every
link is FIFO — storage over ``[s, release)`` only gets easier as ``s``
grows, so a later start never arrives earlier — hence bookings, outage
cutoffs and a later "now" can only delay an item's labels.  An item with
no candidate keeps having none until its copies or open requests change
(its revision), storage is freed (the capacity epoch), bandwidth degrades
(the degradation epoch) or one of its requests becomes visible.

Every run of a scenario opens with the same searches: a state at its
opening (:attr:`~repro.core.state.NetworkState.at_opening`) is a pure
function of its scenario, and so are its deadline targets and the trees
found from it.  The caches of one process therefore share those opening
trees through one memo, weakly keyed on the scenario object.
"""

from __future__ import annotations

import abc
import logging
import time
import weakref
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.intervals import Interval
from repro.core.scenario import Scenario
from repro.core.schedule import Schedule
from repro.core.state import MUTATION_CUTOFF, NetworkState, TransferPlan
from repro.cost.criteria import CostCriterion, CostResult
from repro.cost.weights import EUWeights
from repro.errors import ConfigurationError
from repro.heuristics.candidates import (
    CandidateGroup,
    Priorities,
    RequestFilter,
    enumerate_groups,
    visible_requests,
)
from repro.observability.profiling import (
    PHASE_BOOKING,
    PHASE_SCORING,
    PHASE_TREE,
    span,
)
from repro.observability.tracer import (
    TREE_CACHE_BANDWIDTH_DEGRADED,
    TREE_CACHE_CAPACITY_RELEASED,
    TREE_CACHE_CLEAN,
    TREE_CACHE_COLD,
    TREE_CACHE_CUTOFF_TIGHTENED,
    TREE_CACHE_DISABLED,
    TREE_CACHE_ITEM_CHANGED,
    TREE_CACHE_LINK_CONFLICT,
    TREE_CACHE_RESIDENCY_CONFLICT,
    TREE_CACHE_REVALIDATED,
)
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.routing.paths import Hop, ShortestPathTree

logger = logging.getLogger(__name__)


#: A no-candidate mark: the item revision, capacity epoch and degradation
#: epoch it was proven under, and the visible request ids it covers.
NoCandidateMark = Tuple[int, int, int, FrozenSet[int]]


def has_visible_request(
    state: NetworkState,
    item_id: int,
    priorities: Priorities,
    request_filter: RequestFilter,
) -> bool:
    """True when some open request of the item passes a drain's filters.

    Candidates come only from tree paths to such requests, so a drain
    cannot schedule an item for which this is false.
    """
    if priorities is None and request_filter is None:
        return state.open_request_counts()[item_id] > 0
    return any(
        True
        for _ in visible_requests(state, item_id, priorities, request_filter)
    )


def deadline_targets(state: NetworkState, item_id: int) -> Dict[int, float]:
    """The search's targets: each unsatisfied destination of the item,
    mapped to its request's deadline (a scenario has at most one request
    per item and destination)."""
    return {
        request.destination: request.deadline
        for request in state.unsatisfied_requests_for_item(item_id)
    }


def _visible_request_ids(
    state: NetworkState,
    item_id: int,
    priorities: Priorities,
    request_filter: RequestFilter,
) -> FrozenSet[int]:
    return frozenset(
        request.request_id
        for request in visible_requests(
            state, item_id, priorities, request_filter
        )
    )


@dataclass
class EngineStats:
    """Instrumentation collected during one heuristic run.

    Attributes:
        iterations: number of outer-loop iterations (scheduled choices).
        dijkstra_runs: number of shortest-path trees the run needed,
            whether searched or served from the opening memo (so the
            count does not depend on what the process ran before).
        hops_booked: number of communication steps booked.
        cache_hits: tree requests answered from the cache (clean hits
            plus revalidated keeps).
        revalidations: the subset of ``cache_hits`` where mutations had
            occurred but the journal scan proved they miss the tree's
            footprint (the incremental-revalidation win).
        elapsed_seconds: wall-clock time of the run.
    """

    iterations: int = 0
    dijkstra_runs: int = 0
    hops_booked: int = 0
    cache_hits: int = 0
    revalidations: int = 0
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class HeuristicResult:
    """A finished run: the schedule plus engine instrumentation."""

    schedule: Schedule
    stats: EngineStats


def _overlaps(interval: Interval, start: float, end: float) -> bool:
    """``interval.overlaps(Interval(start, end))``, building no interval."""
    return (
        interval.start < end
        and start < interval.end
        and start < end
        and interval.start < interval.end
    )


@dataclass
class CacheEntry:
    """A cached tree, which is its own interval footprint, and a payload.

    The tree is projected onto its search's targets
    (:meth:`~repro.routing.paths.ShortestPathTree.projected`), so its
    parent tuples are exactly the hops of its target paths.  They record
    *when* the tree relies on each resource, not just *which* resources
    it touches: each planned hop ``(sender, link_id, start, end)`` holds
    its link over ``[start, end)``, and its receiver's storage from
    ``start`` to the item's release time there
    (:meth:`~repro.core.state.NetworkState.release_time_at`, fixed per
    scenario).  The owning :class:`TreeCache` indexes the entry under
    the tree's receivers, and its journal replay leaves its verdict on
    the entry (``conflict``, ``suspects``) for the next request.

    The footprint covers only the paths to destinations that meet their
    deadline: the tree reports the others unreachable, and since bookings,
    cutoffs and a later "now" only delay arrivals, a missed destination
    stays missed while the entry's counters hold.  A booking that delays
    only a missed path therefore leaves the entry valid.

    The payload (the heuristic's scored candidate choice for the item) has
    exactly the same validity as the tree — it is derived from the tree, the
    item's unsatisfied-request set (which only changes with the item
    revision), the drain's filters, and run-constant configuration — so it
    is stored on the entry, keyed by the filters, and discarded with it.

    Attributes:
        tree: the cached shortest-path tree, projected onto its targets.
        item_revision: the item's revision at snapshot time (covers seeds
            and the unsatisfied-destination targets with their deadlines).
        journal_position: how much of the state's mutation journal the
            entry has been validated against; advanced on every
            successful revalidation.
        capacity_epoch: the state's capacity epoch at snapshot time
            (capacity-adding mutations invalidate globally).
        degradation_epoch: the state's bandwidth-degradation epoch at
            snapshot time (degradations change durations globally and are
            not journalled, so they too invalidate globally).
        payload: ``(priorities, request_filter, value)``: the heuristic's
            cached value for the item under those filters (see above).
        conflict: the first ``link_conflict`` or ``cutoff_tightened``
            replayed past ``journal_position``, else ``""``.
        suspects: machines whose planned residency a replayed
            reservation overlapped (rechecked live on the next request).
    """

    tree: ShortestPathTree
    item_revision: int
    journal_position: int
    capacity_epoch: int
    degradation_epoch: int = 0
    payload: Optional[Tuple[Priorities, RequestFilter, Any]] = None
    conflict: str = ""
    suspects: FrozenSet[int] = frozenset()


#: A scenario's opening trees by ``(item_id, not_before)``: each the
#: search's projection onto its targets, shared by every entry it serves.
OpeningTrees = Dict[Tuple[int, float], ShortestPathTree]

#: The process's opening memo: scenario id -> (weak reference, trees).
#: Keyed by identity, because hashing a frozen ``Scenario`` by value costs
#: O(size) per lookup; an entry goes when its scenario is collected.
_OPENING_MEMO: Dict[int, Tuple["weakref.ref[Scenario]", OpeningTrees]] = {}


def _opening_trees(scenario: Scenario) -> OpeningTrees:
    """The scenario's trees in the opening memo, made on first use."""
    memo = _OPENING_MEMO
    key = id(scenario)
    slot = memo.get(key)
    if slot is None or slot[0]() is not scenario:

        def forget(ref: "weakref.ref[Scenario]") -> None:
            if key in memo and memo[key][0] is ref:
                del memo[key]

        slot = memo[key] = (weakref.ref(scenario, forget), {})
    return slot[1]


class TreeCache:
    """Journal-revalidated cache of per-item shortest-path trees.

    Coarse revision counters answer the cheap question ("did *anything*
    about this item change?"); when unrelated mutations have occurred the
    cache does not recompute immediately but replays the state's mutation
    journal against the entry's interval footprint: a booking invalidates
    only when its busy interval overlaps a planned hop on a footprint
    link, or when its storage reservation breaks a planned residency; a
    cutoff only when it undercuts a planned hop's completion.  Bookings
    only ever remove availability, so a tree that survives the replay has
    byte-identical labels and parent pointers along every destination
    path — the engine's decisions match the recompute-every-iteration
    algorithm exactly (pinned by the differential test suites).

    Each search is bounded by the deadlines of the item's unsatisfied
    destinations (:meth:`entry_for`), so a tree holds, and its footprint
    covers, only the paths that can still satisfy a request.

    An item's own planned bookings cost no search either: the drain
    calls :meth:`rebase` after each decision, which carries the tree
    over the new copies exactly as a search would now find it.

    Each record is replayed once per cache, through one index from each
    receiving machine to the entries whose trees plan a hop into it, and
    every request first replays to the journal's end (so a fresh entry
    never sees an older record).

    The cache binds to its state's :attr:`~repro.core.state.NetworkState
    .epoch` token at construction; serving a different state — whose
    revision counters may have restarted from zero (``clone()``) — raises
    :class:`~repro.errors.ConfigurationError` instead of silently
    validating stale trees.

    No-candidate marks (:meth:`mark_no_candidate`) record the counters
    under which an item was proven to have no candidate, and the visible
    requests the proof covered.  A drain leaves out an item whose mark
    still holds (:meth:`has_no_candidate`).  Marks outlive the trees:
    :meth:`advanced` makes the cache for a later pass with fresh trees and
    the same marks.  A disabled cache records no mark, so it stays the
    recompute-everything oracle.

    A search from a state at its opening is shared with every later run
    of the same scenario in the process (the module's opening memo): a
    hit serves the stored projection in a fresh entry, and still counts
    in ``dijkstra_runs``.  A disabled cache and a traced state neither read
    nor write the memo, so the oracle and every event stream search.

    Args:
        state: the scheduling state trees are computed against.
        stats: instrumentation sink.
        enabled: disable to recompute every tree on every request.
        not_before: wall-clock lower bound forwarded to the routing layer;
            a cache instance is bound to one value (dynamic drivers make
            each pass's cache with :meth:`advanced`).
    """

    def __init__(
        self,
        state: NetworkState,
        stats: EngineStats,
        enabled: bool = True,
        not_before: float = 0.0,
    ) -> None:
        self._state = state
        self._stats = stats
        self._enabled = enabled
        self._not_before = not_before
        self._epoch = state.epoch
        self._trees: Dict[int, CacheEntry] = {}
        #: How many journal records the entries' flags already reflect.
        self._replay_position = state.journal_length()
        #: Receiver index: machine -> {item id: entry whose tree plans a
        #: hop into the machine}.
        self._receiver_index: Dict[int, Dict[int, CacheEntry]] = {}
        self._marks: Dict[int, NoCandidateMark] = {}

    @property
    def not_before(self) -> float:
        """The wall-clock lower bound this cache plans at."""
        return self._not_before

    @property
    def enabled(self) -> bool:
        """False when every request recomputes its tree."""
        return self._enabled

    @property
    def epoch(self) -> int:
        """The identity token of the state this cache is bound to."""
        return self._epoch

    def ensure_bound(self, state: NetworkState) -> None:
        """Assert the cache was built for exactly this state.

        Raises:
            ConfigurationError: when ``state`` is a different object (for
                example a ``clone()``) than the one the cache was
                constructed with — its revision counters restarted from
                zero, so cached trees would silently validate against the
                wrong resources.
        """
        if state.epoch != self._epoch:
            raise ConfigurationError(
                f"TreeCache is bound to state epoch {self._epoch} but was "
                f"asked to serve state epoch {state.epoch}; caches do not "
                f"survive clone() — build a fresh TreeCache for the new "
                f"state"
            )

    def advanced(self, now: float) -> "TreeCache":
        """The cache for a later pass at ``now``: no trees, the same marks.

        Plans from an earlier "now" are never reused, but a later "now"
        only delays labels, so a mark stays as valid as its counters.

        Raises:
            ConfigurationError: when ``now`` is earlier than (or not
                comparable with) this cache's instant.
        """
        if not now >= self._not_before:
            raise ConfigurationError(
                f"cannot advance a tree cache from t={self._not_before} "
                f"to the earlier t={now}"
            )
        cache = type(self)(self._state, self._stats, self._enabled, now)
        cache._marks = dict(self._marks)
        return cache

    def mark_no_candidate(
        self,
        item_id: int,
        priorities: Priorities,
        request_filter: RequestFilter,
    ) -> None:
        """Record that the item has no candidate for its visible requests
        under the current counters; a disabled cache records nothing."""
        if not self._enabled:
            return
        state = self._state
        self._marks[item_id] = (
            state.item_revision(item_id),
            state.capacity_epoch,
            state.degradation_epoch,
            _visible_request_ids(state, item_id, priorities, request_filter),
        )

    def has_no_candidate(
        self,
        item_id: int,
        priorities: Priorities,
        request_filter: RequestFilter,
    ) -> bool:
        """True when the item's mark still holds: the same revision and
        epochs, and no visible request the mark does not cover."""
        mark = self._marks.get(item_id)
        if mark is None:
            return False
        state = self._state
        revision, capacity_epoch, degradation_epoch, covered = mark
        return (
            revision == state.item_revision(item_id)
            and capacity_epoch == state.capacity_epoch
            and degradation_epoch == state.degradation_epoch
            and _visible_request_ids(
                state, item_id, priorities, request_filter
            ) <= covered
        )

    def tree_for(self, item_id: int) -> ShortestPathTree:
        """The item's current tree, recomputing only when necessary."""
        return self.entry_for(item_id).tree

    def entry_for(self, item_id: int) -> CacheEntry:
        """The item's cache entry, recomputing the tree only when necessary.

        The search targets the item's unsatisfied destinations, each
        bounded by its deadline (:func:`deadline_targets`): it
        stops once no pending target can still meet its deadline, and a
        target that misses it is reported unreachable.  The entry keeps
        the tree projected onto those targets: labels for other machines
        are never consulted (candidate enumeration and booking only walk
        destination paths), and a missed destination has ``Sat = 0``, so
        it contributes nothing to any decision.
        """
        state = self._state
        tracer = state.tracer
        if self._replay_position < state.journal_length():
            self._replay()
        cached = self._trees.get(item_id) if self._enabled else None
        if not self._enabled:
            reason = TREE_CACHE_DISABLED
        elif cached is None:
            reason = TREE_CACHE_COLD
        elif state.item_revision(item_id) != cached.item_revision:
            reason = TREE_CACHE_ITEM_CHANGED
        elif state.capacity_epoch != cached.capacity_epoch:
            reason = TREE_CACHE_CAPACITY_RELEASED
        elif state.degradation_epoch != cached.degradation_epoch:
            # Degradations lengthen durations globally and are not
            # journalled, so no footprint replay can vouch for the tree.
            reason = TREE_CACHE_BANDWIDTH_DEGRADED
        elif cached.journal_position == self._replay_position:
            reason = TREE_CACHE_CLEAN
        elif cached.conflict:
            reason = cached.conflict
        elif cached.suspects and not self._recheck(cached):
            reason = TREE_CACHE_RESIDENCY_CONFLICT
        else:
            cached.journal_position = self._replay_position
            cached.suspects = frozenset()
            reason = TREE_CACHE_REVALIDATED
        if cached is not None and reason in (
            TREE_CACHE_CLEAN,
            TREE_CACHE_REVALIDATED,
        ):
            self._stats.cache_hits += 1
            if reason == TREE_CACHE_REVALIDATED:
                self._stats.revalidations += 1
            if tracer.enabled:
                tracer.emit("tree_cache", item_id, True, reason)
            return cached
        if tracer.enabled:
            tracer.emit("tree_cache", item_id, False, reason)
        with span(PHASE_TREE, tracer):
            opening = (
                _opening_trees(state.scenario)
                if self._enabled and not tracer.enabled and state.at_opening
                else None
            )
            key = (item_id, self._not_before)
            tree = opening.get(key) if opening is not None else None
            if tree is None:
                targets = deadline_targets(state, item_id)
                tree = compute_shortest_path_tree(
                    state, item_id, targets, not_before=self._not_before
                ).projected(targets)
                if opening is not None:
                    opening[key] = tree
            entry = self._snapshot(tree)
            self._stats.dijkstra_runs += 1
        if self._enabled:
            self._store(item_id, entry)
        return entry

    def rebase(self, item_id: int) -> bool:
        """Carry the item's entry over its own bookings; True on success.

        Called right after the engine booked hops of the item's cached
        tree: §4.5 makes each receiver an additional source, and a search
        would now find the cached tree rebased onto the new copies
        (:meth:`~repro.routing.paths.ShortestPathTree.rebased`).  The new
        entry is current at the journal's end, so the next request reads
        ``clean``.  The next request searches instead after a disabled
        cache, a journal record since the entry's position that is not a
        booking of this item, any other revision change, a moved epoch,
        or seeds the tree cannot vouch for.
        """
        cached = self._trees.get(item_id) if self._enabled else None
        if cached is None:
            return False
        state = self._state
        tracer = state.tracer
        with span(PHASE_TREE, tracer):
            records = state.journal_since(cached.journal_position)
            if self._replay_position < state.journal_length():
                self._replay()
            not_before = self._not_before
            seeds = {
                machine: max(copy.available_from, not_before)
                for machine, copy in state.copies(item_id).items()
                if copy.release > not_before
            }
            if (
                not records
                or state.item_revision(item_id)
                != cached.item_revision + len(records)
                or state.capacity_epoch != cached.capacity_epoch
                or state.degradation_epoch != cached.degradation_epoch
                or any(
                    record.item_id != item_id or record.machine not in seeds
                    for record in records
                )
            ):
                return False
            targets = deadline_targets(state, item_id)
            tree = cached.tree.rebased(seeds, targets)
            if tree is None:
                return False
            self._store(item_id, self._snapshot(tree))
        if tracer.enabled:
            tracer.emit("tree_rebased", item_id, len(seeds))
        return True

    def _replay(self) -> None:
        """Fold the new journal records into the entries they touch.

        A record touches only the entries indexed under its link's
        receiver: a tree plans one hop into each receiver, and a link has
        one receiver, so those are the entries that plan a hop over the
        link or a residency the record's reservation can overlap.  An
        entry keeps its first conflict.  A reservation overlapping a
        planned residency only makes the machine a suspect: reservations
        only subtract, so a passing live recheck proves the planned start
        still the earliest.
        """
        state = self._state
        link = state.scenario.network.link
        records = state.journal_since(self._replay_position)
        self._replay_position += len(records)
        for record in records:
            link_id = record.link_id
            busy, residency = record.busy, record.residency
            receiver = link(link_id).destination
            for entry in self._receiver_index.get(receiver, {}).values():
                if entry.conflict:
                    continue
                tree = entry.tree
                __, planned_link, start, end = tree.planned_hops[receiver]
                if planned_link == link_id:
                    if busy is not None and _overlaps(busy, start, end):
                        entry.conflict = TREE_CACHE_LINK_CONFLICT
                        continue
                    if record.kind == MUTATION_CUTOFF and record.cutoff < end:
                        entry.conflict = TREE_CACHE_CUTOFF_TIGHTENED
                        continue
                if residency is not None and _overlaps(
                    residency,
                    start,
                    state.release_time_at(tree.item_id, receiver),
                ):
                    entry.suspects |= {receiver}

    def _recheck(self, cached: CacheEntry) -> bool:
        """True when every suspect can still hold its planned residency
        (``can_reserve``, in sorted machine order)."""
        state = self._state
        item_id = cached.tree.item_id
        planned = cached.tree.planned_hops
        size = state.scenario.item(item_id).size
        for machine in sorted(cached.suspects):
            free = state.machine_timeline(machine).min_free_span(
                planned[machine][2], state.release_time_at(item_id, machine)
            )
            if not free >= size:
                return False
        return True

    def _store(self, item_id: int, entry: CacheEntry) -> None:
        """Replace the item's entry and move it in the receiver index."""
        index = self._receiver_index
        old = self._trees.get(item_id)
        if old is not None:
            for receiver in old.tree.planned_hops:
                del index[receiver][item_id]
        self._trees[item_id] = entry
        for receiver in entry.tree.planned_hops:
            index.setdefault(receiver, {})[item_id] = entry

    def _snapshot(self, tree: ShortestPathTree) -> CacheEntry:
        """A fresh entry for a tree projected onto its targets, current
        at the replay position."""
        state = self._state
        return CacheEntry(
            tree=tree,
            item_revision=state.item_revision(tree.item_id),
            journal_position=self._replay_position,
            capacity_epoch=state.capacity_epoch,
            degradation_epoch=state.degradation_epoch,
        )


class StagingHeuristic(abc.ABC):
    """Base class of the three Dijkstra-based data staging heuristics.

    Args:
        criterion: the §4.8 cost criterion pricing candidate steps.
        weights: the ``(W_E, W_U)`` pair (ignored by E-U-independent
            criteria such as C3).
        use_tree_cache: disable to force a Dijkstra run per item per
            iteration, exactly as the paper describes (slower, same result).

    Raises:
        ConfigurationError: when the criterion cannot drive this heuristic
            (C1 with the full-path/all-destinations heuristic).
    """

    #: Registry identifier, e.g. ``"partial"``.
    name: str = ""

    #: Label used in the paper's figures, e.g. ``"partial"``.
    figure_label: str = ""

    def __init__(
        self,
        criterion: CostCriterion,
        weights: EUWeights,
        use_tree_cache: bool = True,
    ) -> None:
        if not criterion.supports_all_destinations and self._requires_group_cost():
            raise ConfigurationError(
                f"criterion {criterion.name} does not capture "
                f"multi-destination value and cannot drive {self.name}"
            )
        self._criterion = criterion
        self._weights = weights
        self._use_tree_cache = use_tree_cache

    @property
    def criterion(self) -> CostCriterion:
        """The criterion this heuristic instance schedules with."""
        return self._criterion

    @property
    def weights(self) -> EUWeights:
        """The E-U weights this heuristic instance schedules with."""
        return self._weights

    def label(self) -> str:
        """Human-readable run label, e.g. ``"partial/C4"``."""
        return f"{self.name}/{self._criterion.name}"

    def run(self, scenario: Scenario) -> HeuristicResult:
        """Build a complete schedule for one scenario."""
        started = time.perf_counter()
        stats = EngineStats()
        state = NetworkState(scenario, schedule_name=self.label())
        cache = TreeCache(state, stats, enabled=self._use_tree_cache)
        self.drain(state, cache, stats)
        stats.elapsed_seconds = time.perf_counter() - started
        tracer = state.tracer
        if tracer.enabled:
            tracer.emit("run_end", self.label(), stats.elapsed_seconds)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "%s on %s: %d iterations, %d hops, %d Dijkstra runs "
                "(%d cache hits), %.3fs",
                self.label(),
                scenario.name,
                stats.iterations,
                stats.hops_booked,
                stats.dijkstra_runs,
                stats.cache_hits,
                stats.elapsed_seconds,
            )
        return HeuristicResult(schedule=state.schedule, stats=stats)

    def drain(
        self,
        state: NetworkState,
        cache: TreeCache,
        stats: EngineStats,
        priorities: Priorities = None,
        request_filter: RequestFilter = None,
    ) -> None:
        """Schedule until no (optionally filtered) candidate remains.

        Exposed separately from :meth:`run` so composite schedulers can run
        several passes over one shared state: the §5.4 priority-tier
        baseline filters by ``priorities``, the dynamic driver hides
        unrevealed requests through ``request_filter``.

        Only items with a request the filters let through are searched
        (:func:`has_visible_request`), and not those the cache has proven
        to have no candidate (:meth:`TreeCache.has_no_candidate`).  The
        list is built once; after each decision only the booked item is
        rechecked, because deliveries are recorded only for the booked
        item and the filters are fixed.  An item whose payload comes out
        empty leaves the list (:meth:`_live_payloads`).

        After each decision the booked item's tree is rebased onto its
        new copies (:meth:`TreeCache.rebase`), so its next request is a
        clean hit instead of a search.

        Raises:
            ConfigurationError: when ``cache`` was built for a different
                state than ``state`` (e.g. the parent of a ``clone()``).
        """
        cache.ensure_bound(state)
        debug = logger.isEnabledFor(logging.DEBUG)
        tracer = state.tracer
        tracing = tracer.enabled
        items = [
            item_id
            for item_id in state.scenario.requested_item_ids()
            if has_visible_request(state, item_id, priorities, request_filter)
            and not cache.has_no_candidate(item_id, priorities, request_filter)
        ]
        while True:
            decision_started = time.perf_counter() if tracing else 0.0
            choice = self._best_choice(
                state, cache, items, priorities, request_filter
            )
            if choice is None:
                break
            group, result = choice
            stats.iterations += 1
            with span(PHASE_BOOKING, tracer):
                hops = self._execute(state, cache, group, result)
            cache.rebase(group.item_id)
            stats.hops_booked += hops
            if not has_visible_request(
                state, group.item_id, priorities, request_filter
            ):
                items.remove(group.item_id)
            if tracing:
                tracer.emit(
                    "decision",
                    group.item_id,
                    group.next_machine,
                    result.cost,
                    hops,
                    time.perf_counter() - decision_started,
                )
            if debug:
                logger.debug(
                    "iteration %d: item %d via M[%d]->M[%d] "
                    "(cost %.4g, %d hops booked)",
                    stats.iterations,
                    group.item_id,
                    group.first_hop.sender,
                    group.next_machine,
                    result.cost,
                    hops,
                )

    def _best_choice(
        self,
        state: NetworkState,
        cache: TreeCache,
        items: List[int],
        priorities: Priorities = None,
        request_filter: RequestFilter = None,
    ) -> Optional[Tuple[CandidateGroup, CostResult]]:
        """The cheapest scored candidate over ``items``; the first item in
        order wins a tie."""
        best_key = None
        best: Optional[Tuple[CandidateGroup, CostResult]] = None
        for key, group, result in self._live_payloads(
            state, cache, items, priorities, request_filter
        ):
            if best_key is None or key < best_key:
                best_key = key
                best = (group, result)
        return best

    def _live_payloads(
        self,
        state: NetworkState,
        cache: TreeCache,
        items: List[int],
        priorities: Priorities,
        request_filter: RequestFilter,
    ) -> List[Any]:
        """The non-empty payloads of ``items``, in order.

        An item whose payload is empty has no candidate, and within a
        drain it keeps having none: it is never booked, the filters are
        fixed, and other bookings only delay its arrivals.  So, unless the
        cache is disabled, it is dropped from ``items``.
        """
        payloads = [
            self._payload(state, cache, item_id, priorities, request_filter)
            for item_id in items
        ]
        if cache.enabled and not all(payloads):
            items[:] = [
                item_id
                for item_id, payload in zip(items, payloads)
                if payload
            ]
        return [payload for payload in payloads if payload]

    def _payload(
        self,
        state: NetworkState,
        cache: TreeCache,
        item_id: int,
        priorities: Priorities,
        request_filter: RequestFilter,
    ) -> Any:
        """The item's :meth:`_item_payload`, memoized on its cache entry.

        The memo key carries the tier filter by value and the request
        filter by identity (one filter object per drain pass).  A freshly
        computed empty payload (no candidate group) marks the item in the
        cache (:meth:`TreeCache.mark_no_candidate`).
        """
        entry = cache.entry_for(item_id)
        payload = entry.payload
        if (
            payload is None
            or payload[0] != priorities
            or payload[1] is not request_filter
        ):
            value = self._item_payload(
                state, item_id, entry.tree, priorities, request_filter
            )
            if not value:
                cache.mark_no_candidate(item_id, priorities, request_filter)
            payload = (priorities, request_filter, value)
            entry.payload = payload
        return payload[2]

    def _item_payload(
        self,
        state: NetworkState,
        item_id: int,
        tree: ShortestPathTree,
        priorities: Priorities,
        request_filter: RequestFilter,
    ) -> Any:
        """What :meth:`_best_choice` reads per item: here the item's
        cheapest candidate group under the criterion, as
        ``(key, group, result)``, or ``None``."""
        scenario = state.scenario
        tracer = state.tracer
        tracing = tracer.enabled
        candidates = 0
        best: Optional[Tuple[tuple, CandidateGroup, CostResult]] = None
        with span(PHASE_SCORING, tracer):
            for group in enumerate_groups(
                state,
                item_id,
                tree,
                scenario.weighting,
                priorities,
                request_filter,
            ):
                if tracing:
                    candidates += 1
                result = self._criterion.evaluate(
                    group.evaluations, self._weights
                )
                if result.selected is None:
                    continue
                key = (result.cost,) + group.tie_break_key()
                if best is None or key < best[0]:
                    best = (key, group, result)
        if tracing:
            tracer.emit("item_scored", item_id, candidates)
        return best

    def _book_hop(self, state: NetworkState, item_id: int, hop: Hop) -> None:
        """Book one tree hop exactly at its planned times."""
        link = state.scenario.network.link(hop.link_id)
        plan = TransferPlan(
            item_id=item_id,
            link=link,
            start=hop.start,
            end=hop.end,
            release=state.release_time_at(item_id, hop.receiver),
        )
        state.book_transfer(plan)

    def _book_paths(
        self,
        state: NetworkState,
        item_id: int,
        paths: List[Tuple[Hop, ...]],
    ) -> int:
        """Book the union of several tree paths, each shared hop once.

        Tree paths to different destinations share prefixes; hops are
        deduplicated by receiving machine (a tree has one inbound edge per
        machine) and booked in arrival order so every sender already holds
        its copy when its outbound transfer is booked.
        """
        unique: Dict[int, Hop] = {}
        for hops in paths:
            for hop in hops:
                unique.setdefault(hop.receiver, hop)
        ordered = sorted(unique.values(), key=lambda h: (h.end, h.start))
        for hop in ordered:
            self._book_hop(state, item_id, hop)
        return len(ordered)

    @abc.abstractmethod
    def _execute(
        self,
        state: NetworkState,
        cache: TreeCache,
        group: CandidateGroup,
        result: CostResult,
    ) -> int:
        """Schedule the chosen candidate; return the number of hops booked."""

    def _requires_group_cost(self) -> bool:
        """True when the heuristic schedules toward multiple destinations."""
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}(criterion={self._criterion.name})"
