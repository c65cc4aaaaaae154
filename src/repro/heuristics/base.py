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
reservation breaking a planned storage residency, a cutoff undercutting
a planned completion, or storage freed where the search's storage probe
ran.  Bookings and cutoffs only ever remove availability, so a tree that
survives the journal replay has labels byte-identical to a fresh
recompute — the engine's decisions match the recompute-every-iteration
algorithm.  The item's own bookings of its planned hops do not force a
recompute either: the tree is rebased onto the new copies
(:meth:`TreeCache.rebase`), and a dynamic pass at a later "now" carries
the trees of the pass before (:meth:`TreeCache.advanced`).

A drain keeps what it scored from each item (:class:`Shortlist`), also
when an item has *no* candidate (§4.8 gives no resources to a step whose
every destination misses its deadline).  Every link is FIFO — storage
over ``[s, release)`` only gets easier as ``s`` grows, so a later start
never arrives earlier — hence bookings, outage cutoffs and a later "now"
can only delay an item's labels, and an item with no candidate keeps
having none until its copies or open requests change (its revision),
storage is freed where its search depended on storage (the journal
replay), bandwidth degrades (the degradation epoch) or one of its
requests becomes visible.  A dynamic run keeps one shortlist for all its
passes (:class:`~repro.dynamic.driver.RunShortlist`).

Runs of one scenario make the same searches and candidate groups while
their bookings agree: a state changed by bookings alone
(:attr:`~repro.core.state.NetworkState.only_booked`) is a pure function
of its scenario and its bookings, and so are the trees found from it and
the groups read from them.  The caches of one process share them through
one prefix memo, the chain of the last run's bookings (:class:`MemoNode`).
"""

from __future__ import annotations

import abc
import logging
import time
import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.intervals import Interval
from repro.core.scenario import Scenario
from repro.core.schedule import Schedule
from repro.core.units import time_ne
from repro.core.state import (
    MUTATION_LOSS,
    NetworkState,
    TransferPlan,
)
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
from repro.observability.tracer import (
    TREE_CACHE_BANDWIDTH_DEGRADED,
    TREE_CACHE_CAPACITY_RELEASED,
    TREE_CACHE_CARRIED,
    TREE_CACHE_CLEAN,
    TREE_CACHE_COLD,
    TREE_CACHE_CUTOFF_TIGHTENED,
    TREE_CACHE_DISABLED,
    TREE_CACHE_ITEM_CHANGED,
    TREE_CACHE_LINK_CONFLICT,
    TREE_CACHE_PLAN_EXPIRED,
    TREE_CACHE_RESIDENCY_CONFLICT,
    TREE_CACHE_REVALIDATED,
)
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.routing.paths import Hop, ShortestPathTree

logger = logging.getLogger(__name__)


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


@dataclass
class EngineStats:
    """Instrumentation collected during one heuristic run.

    Attributes:
        iterations: number of outer-loop iterations (scheduled choices).
        dijkstra_runs: number of shortest-path trees the run needed,
            whether searched or served from the prefix memo (so the
            count does not depend on what the process ran before).
        hops_booked: number of communication steps booked.
        cache_hits: tree requests answered from the cache (clean hits,
            revalidated keeps and trees carried into a later pass).
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
    the tree's receivers and under its
    :attr:`~repro.routing.paths.ShortestPathTree.fallback_receivers`, and
    its journal replay leaves its verdict on the entry (``conflict``) for
    the next request.

    The footprint covers only the paths to destinations that meet their
    deadline: the tree reports the others unreachable, and since bookings,
    cutoffs and a later "now" only delay arrivals, a missed destination
    stays missed while the entry's counters hold.  A booking that delays
    only a missed path therefore leaves the entry valid.

    An entry without a conflict stays valid while its counters hold,
    requested or not, so a drain keeps what it scored from the tree
    (:class:`Shortlist`) until the replay reports a conflict.

    Attributes:
        tree: the cached shortest-path tree, projected onto its targets.
        item_revision: the item's revision at snapshot time (covers seeds
            and the unsatisfied-destination targets with their deadlines).
        journal_position: how much of the state's mutation journal the
            entry has been validated against; advanced when a request
            finds it revalidated.
        not_before: the "now" the tree was planned at; an entry from an
            earlier pass is carried (:meth:`TreeCache.entry_for`).
        degradation_epoch: the state's bandwidth-degradation epoch at
            snapshot time (degradations change durations globally and are
            not journalled, so they invalidate globally).
        conflict: the first ``link_conflict``, ``cutoff_tightened``,
            ``capacity_released`` or ``residency_conflict`` the replay
            found, else ``""``.
    """

    # Slotted by hand: ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = (
        "tree", "item_revision", "journal_position", "not_before",
        "degradation_epoch", "conflict",
    )

    tree: ShortestPathTree
    item_revision: int
    journal_position: int
    not_before: float
    degradation_epoch: int
    conflict: str


class MemoNode:
    """A state on the last run's path through a scenario: its projected
    searches and the groups of drains without filters, each by
    ``(item_id, not_before)``, and the run's next booking (``step``, as
    ``(item_id, link_id, start, end)``) with the node it leads to
    (``child``)."""

    __slots__ = ("trees", "groups", "step", "child")

    def __init__(self) -> None:
        self.trees: Dict[Tuple[int, float], ShortestPathTree] = {}
        self.groups: Dict[Tuple[int, float], Tuple[CandidateGroup, ...]] = {}
        self.step: Optional[Tuple[int, int, float, float]] = None
        self.child: Optional[MemoNode] = None

    def after(self, step: Tuple[int, int, float, float]) -> "MemoNode":
        """The node ``step`` leads to; another step than the last run's
        replaces the child, so the chain is one run's path."""
        child = self.child
        if child is None or step != self.step:
            child = self.child = MemoNode()
            self.step = step
        return child


#: The process's prefix memo: scenario id -> (weak reference, opening node).
#: Keyed by identity, because hashing a frozen ``Scenario`` by value costs
#: O(size) per lookup; an entry goes when its scenario is collected.
_PREFIX_MEMO: Dict[int, Tuple["weakref.ref[Scenario]", MemoNode]] = {}


def _opening_node(scenario: Scenario) -> MemoNode:
    """The scenario's opening node, made on first use; every other
    scenario keeps only its opening trees, so the memo holds one run's
    path."""
    memo = _PREFIX_MEMO
    key = id(scenario)
    slot = memo.get(key)
    if slot is None or slot[0]() is not scenario:

        def forget(ref: "weakref.ref[Scenario]") -> None:
            if key in memo and memo[key][0] is ref:
                del memo[key]

        slot = memo[key] = (weakref.ref(scenario, forget), MemoNode())
    for other, (__, node) in list(memo.items()):
        if other != key:
            node.step = node.child = None
            node.groups.clear()
    return slot[1]


class TreeCache:
    """Journal-revalidated cache of per-item shortest-path trees.

    Coarse revision counters answer the cheap question ("did *anything*
    about this item change?"); when unrelated mutations have occurred the
    cache does not recompute immediately but replays the state's mutation
    journal against the entry's interval footprint: a booking invalidates
    only when its busy interval overlaps a planned hop on a footprint
    link, or when its storage reservation breaks a planned residency; a
    cutoff only when it undercuts a planned hop's completion; a release
    of storage (a copy loss) only at a machine the tree plans a hop into
    or one of its search's
    :attr:`~repro.routing.paths.ShortestPathTree.fallback_receivers`.
    Bookings and cutoffs only ever remove availability, and freed storage
    can move only a relaxation that storage decided, so a tree that
    survives the replay has byte-identical labels and parent pointers
    along every destination path — the engine's decisions match the
    recompute-every-iteration algorithm exactly (pinned by the
    differential test suites).

    Each search is bounded by the deadlines of the item's unsatisfied
    destinations (:meth:`entry_for`), so a tree holds, and its footprint
    covers, only the paths that can still satisfy a request.

    An item's own planned bookings cost no search either: the drain
    calls :meth:`rebase` after each decision, which carries the tree of
    an item with an open request left over the new copies exactly as a
    search would now find it.

    Each record is replayed once per cache, through two indexes from
    machines to entries: the receiver index (the entries whose trees plan
    a hop into the machine) and the release index (the entries whose
    searches fell back to the full storage probe there).  Every request
    first replays to the journal's end (so a fresh entry never sees an
    older record).  The replay reports the items whose entries it found
    in conflict, and those where it released storage (:meth:`touched`).

    The cache binds to its state's :attr:`~repro.core.state.NetworkState
    .epoch` token at construction; serving a different state — whose
    revision counters may have restarted from zero (``clone()``) — raises
    :class:`~repro.errors.ConfigurationError` instead of silently
    validating stale trees.

    A dynamic driver makes each pass's cache with :meth:`advanced`, which
    keeps the trees, both indexes and the replay position.  A tree
    planned at an earlier "now" is carried on its first request in the
    later pass (:meth:`entry_for`).

    A cache built at its state's opening follows the prefix memo: each
    replayed booking moves it one node on, and :meth:`advanced` hands
    the node on.  A memo hit serves the stored projection in a fresh
    entry, and still counts in ``dijkstra_runs``.  Any other change
    (:attr:`~repro.core.state.NetworkState.only_booked`) makes the cache
    leave the memo.  A disabled cache, a traced state, a clone and a
    faulted state never use it, so the oracle and every event stream
    search.

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
        #: Receiver index, by machine: link id -> {item id: entry whose
        #: tree plans a hop into the machine over the link}.
        self._receiver_index: List[Dict[int, Dict[int, CacheEntry]]] = [
            {} for _ in range(state.scenario.network.machine_count)
        ]
        #: Release index: machine -> {item id: entry whose search fell
        #: back to the full storage probe into the machine}.
        self._release_index: Dict[int, Dict[int, CacheEntry]] = {}
        #: Items the replay touched since :meth:`touched`: True where it
        #: released storage, else False (a conflict).
        self._touched: Dict[int, bool] = {}
        #: Each item's size, by item id, and the largest: a booking that
        #: leaves that much storage free over its reservation breaks no
        #: planned residency (:meth:`_replay`).
        self._sizes = [item.size for item in state.scenario.items]
        self._largest = max(self._sizes, default=0.0)
        #: The memo node of the state as the replay left it, or None.
        self._node = (
            _opening_node(state.scenario)
            if enabled and not state.tracer.enabled and state.at_opening
            else None
        )

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
        """The cache for a later pass at ``now``.

        The entries, both indexes and the replay position move to the new
        cache.  Each entry is carried on its first request at ``now``
        (:meth:`entry_for`).

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
        cache._trees, self._trees = self._trees, {}
        cache._receiver_index, self._receiver_index = (
            self._receiver_index, cache._receiver_index
        )
        cache._release_index, self._release_index = self._release_index, {}
        cache._replay_position = self._replay_position
        cache._node, self._node = self._node, None
        return cache

    def touched(self) -> Dict[int, bool]:
        """The items the replay touched since the last call, after
        replaying to the journal's end: each maps to True when storage
        was released where its search depended on storage (however its
        entry stood), and to False when the replay found it in conflict."""
        if self._replay_position < self._state.journal_length():
            self._replay()
        touched, self._touched = self._touched, {}
        return touched

    def tree_for(self, item_id: int) -> ShortestPathTree:
        """The item's current tree, recomputing only when necessary."""
        return self.entry_for(item_id).tree

    def entry_for(self, item_id: int) -> CacheEntry:
        """The item's cache entry, recomputing the tree only when necessary.

        The search targets the item's unsatisfied destinations, each
        bounded by its deadline (:func:`deadline_targets`): it
        stops once no pending target can still meet its deadline, and a
        target that misses it is reported unreachable.  The search
        answers its tree projected onto those targets: labels for other
        machines are never consulted (candidate enumeration and booking
        only walk destination paths), and a missed destination has
        ``Sat = 0``, so it contributes nothing to any decision.

        An entry planned at an earlier "now" that the replay left without
        a conflict is carried: re-seeded at this cache's "now"
        (:meth:`~repro.routing.paths.ShortestPathTree.carried`), a
        ``carried`` hit.  Its tree searches again (``plan_expired``) when
        a planned hop starts before the new "now" or the new seed labels
        reorder the seeds.
        """
        state = self._state
        tracer = state.tracer
        node = self._memo()
        cached = self._trees.get(item_id) if self._enabled else None
        if not self._enabled:
            reason = TREE_CACHE_DISABLED
        elif cached is None:
            reason = TREE_CACHE_COLD
        elif state.item_revision(item_id) != cached.item_revision:
            reason = TREE_CACHE_ITEM_CHANGED
        elif state.degradation_epoch != cached.degradation_epoch:
            # Degradations lengthen durations globally and are not
            # journalled, so no footprint replay can vouch for the tree.
            reason = TREE_CACHE_BANDWIDTH_DEGRADED
        elif cached.conflict:
            reason = cached.conflict
        elif time_ne(cached.not_before, self._not_before):
            carried = self._carried(cached)
            if carried is None:
                reason = TREE_CACHE_PLAN_EXPIRED
            else:
                cached = carried
                reason = TREE_CACHE_CARRIED
        elif cached.journal_position == self._replay_position:
            reason = TREE_CACHE_CLEAN
        else:
            cached.journal_position = self._replay_position
            reason = TREE_CACHE_REVALIDATED
        if cached is not None and reason in (
            TREE_CACHE_CLEAN,
            TREE_CACHE_REVALIDATED,
            TREE_CACHE_CARRIED,
        ):
            self._stats.cache_hits += 1
            if reason == TREE_CACHE_REVALIDATED:
                self._stats.revalidations += 1
            if tracer.enabled:
                tracer.emit("tree_cache", item_id, True, reason)
            return cached
        if tracer.enabled:
            tracer.emit("tree_cache", item_id, False, reason)
        key = (item_id, self._not_before)
        tree = node.trees.get(key) if node is not None else None
        if tree is None:
            tree = compute_shortest_path_tree(
                state, item_id, deadline_targets(state, item_id),
                self._not_before,
            )
            if node is not None:
                node.trees[key] = tree
        entry = self._snapshot(tree)
        self._stats.dijkstra_runs += 1
        if self._enabled:
            self._store(item_id, entry)
        return entry

    def groups_for(
        self,
        entry: CacheEntry,
        priorities: Priorities = None,
        request_filter: RequestFilter = None,
    ) -> Tuple[CandidateGroup, ...]:
        """The entry's candidate groups, shared through the prefix memo by
        drains without filters: enumeration reads only destination paths,
        and there an entry's tree equals a fresh search."""
        tree, state = entry.tree, self._state
        unfiltered = priorities is None and request_filter is None
        node = self._memo() if unfiltered else None
        key = (tree.item_id, self._not_before)
        groups = node.groups.get(key) if node is not None else None
        if groups is None:
            groups = enumerate_groups(
                state, tree.item_id, tree, state.scenario.weighting,
                priorities, request_filter,
            )
            if node is not None:
                node.groups[key] = groups
        return groups

    def rebase(self, item_id: int) -> bool:
        """Carry the item's entry over its own bookings; True on success.

        Called right after the engine booked hops of the item's cached
        tree: §4.5 makes each receiver an additional source, and a search
        would now find the cached tree rebased onto the new copies
        (:meth:`~repro.routing.paths.ShortestPathTree.rebased`).  Each
        journal record since the replay position must be a booking of
        this item over a planned hop's link at its planned times, and
        its receiver joins the seeds at its arrival.  The entry is
        refreshed in place, current at the journal's end, so the next
        request reads ``clean``; only the new seeds leave the receiver
        index, as every other planned hop keeps its parent tuple.

        An item left without an open request is not rebased: only a
        reopen brings it back, and a reopen moves its revision, so its
        next request reads ``item_changed`` whatever its entry holds.
        The next request also searches after a disabled cache, a
        conflict, an entry planned at an earlier "now", any other journal
        record since the replay position (an entry without a conflict is
        valid there, however far its ``journal_position`` lags), any
        other revision change or a moved degradation epoch.
        """
        state = self._state
        if not state.open_request_counts()[item_id]:
            return False
        cached = self._trees.get(item_id) if self._enabled else None
        if cached is None:
            return False
        not_before = self._not_before
        if (
            cached.conflict
            or time_ne(cached.not_before, not_before)
            or state.degradation_epoch != cached.degradation_epoch
        ):
            return False
        records = state.journal_since(self._replay_position)
        if not records or state.item_revision(item_id) != (
            cached.item_revision + len(records)
        ):
            return False
        tree = cached.tree
        planned = tree.planned_hops
        arrivals: Dict[int, float] = {}
        for record in records:
            hop = planned.get(record.machine)
            busy, residency = record.busy, record.residency
            if (
                busy is None  # only a booking has a busy interval
                or residency is None
                or record.item_id != item_id
                or hop is None
                or hop[1] != record.link_id
                or time_ne(hop[2], busy.start)
                or time_ne(hop[3], busy.end)
                or not residency.end > not_before
            ):
                return False
            arrivals[record.machine] = max(busy.end, not_before)
        self._replay()
        cached.tree = tree.rebased(arrivals, deadline_targets(state, item_id))
        cached.item_revision = state.item_revision(item_id)
        cached.journal_position = self._replay_position
        cached.conflict = ""  # put there by replaying its own bookings
        for machine in arrivals:
            del self._receiver_index[machine][planned[machine][1]][item_id]
        tracer = state.tracer
        if tracer.enabled:
            tracer.emit(
                "tree_rebased", item_id, len(cached.tree.seed_machines())
            )
        return True

    def _carried(self, cached: CacheEntry) -> Optional[CacheEntry]:
        """The entry's tree carried to this cache's "now" and stored, or
        ``None`` when the new "now" overtakes its plan."""
        item_id = cached.tree.item_id
        tree = cached.tree.carried(
            self._seeds(item_id),
            deadline_targets(self._state, item_id),
            self._not_before,
        )
        if tree is None:
            return None
        entry = self._snapshot(tree)
        self._store(item_id, entry)
        return entry

    def _seeds(self, item_id: int) -> Dict[int, float]:
        """The item's search seeds at this cache's "now", as the kernel
        finds them: each copy not released by then, available at the
        later of its availability and "now"."""
        not_before = self._not_before
        return {
            machine: max(copy.available_from, not_before)
            for machine, copy in self._state.copies(item_id).items()
            if copy.release > not_before
        }

    def _memo(self) -> Optional[MemoNode]:
        """The memo node of the state, replayed to the journal's end;
        ``None`` from the first change that was not a booking on."""
        if self._replay_position < self._state.journal_length():
            self._replay()
        if not self._state.only_booked:
            self._node = None
        return self._node

    def _replay(self) -> None:
        """Fold the new journal records into the entries they touch.

        A booking or cutoff touches only the entries indexed under its
        link's receiver: a tree plans one hop into each receiver, and a
        link has one receiver, so those are the entries that plan a hop
        over the link or a residency the record's reservation can
        overlap.  A booking probes the receiver's storage once, over its
        own reservation (its *headroom*).  The kernel plans a hop only
        where free storage over its residency covers the item, only a
        release adds storage back (which conflicts the entry anyway,
        :meth:`_replay_release`), and a reservation lowers free storage
        only inside its own span.  So when the headroom covers an
        entry's item, the record breaks none of its residencies: an
        entry another record of the batch broke fails that record's
        probe.  When the headroom covers the scenario's largest item
        (and for every cutoff) the replay visits only the entries that
        plan a hop over the record's link; otherwise it scans the
        receiver's entries and settles the residency of each entry whose
        item the headroom does not cover against the live timeline.
        The verdict is final, as reservations only subtract until a
        release.  A conflict puts the entry's item in :meth:`touched`; a
        link, cutoff or release conflict also replaces a residency one,
        so the reason does not depend on when the replay ran.  Each
        booking also moves the cache's memo node on while the state is
        only booked.
        """
        state = self._state
        link, sizes = state.scenario.network.link, self._sizes
        receiver_index = self._receiver_index
        records = state.journal_since(self._replay_position)
        self._replay_position += len(records)
        node = self._node if state.only_booked else None
        for record in records:
            if record.kind == MUTATION_LOSS:
                self._replay_release(record.machine)
                continue
            link_id = record.link_id
            busy, residency = record.busy, record.residency
            if node is not None and busy is not None:
                step = (record.item_id, link_id, busy.start, busy.end)
                node = node.after(step)
            receiver = link(link_id).destination
            planned = receiver_index[receiver]
            if not planned:
                continue
            free = state.machine_timeline(receiver).min_free_span
            headroom = (
                free(residency.start, residency.end)
                if residency is not None
                else float("inf")
            )
            slots: Iterable[Tuple[int, Dict[int, CacheEntry]]]
            if headroom < self._largest:
                slots = planned.items()
            elif link_id in planned:
                slots = ((link_id, planned[link_id]),)
            else:
                continue
            for planned_link, by_item in slots:
                on_link = planned_link == link_id
                for item_id, entry in by_item.items():
                    if entry.conflict not in (
                        "", TREE_CACHE_RESIDENCY_CONFLICT
                    ):
                        continue
                    size = sizes[item_id]
                    if not on_link and headroom >= size:
                        continue
                    __, __, start, end = entry.tree.planned_hops[receiver]
                    conflict = ""
                    if on_link:
                        if busy is not None and _overlaps(busy, start, end):
                            conflict = TREE_CACHE_LINK_CONFLICT
                        elif record.cutoff < end:  # +inf unless a cutoff
                            conflict = TREE_CACHE_CUTOFF_TIGHTENED
                    if (
                        not (conflict or entry.conflict or headroom >= size)
                        and residency is not None
                    ):
                        release = state.release_time_at(item_id, receiver)
                        if _overlaps(residency, start, release) and not (
                            free(start, release) >= size
                        ):
                            conflict = TREE_CACHE_RESIDENCY_CONFLICT
                    if conflict:
                        entry.conflict = conflict
                        self._touched.setdefault(item_id, False)
        self._node = node

    def _replay_release(self, machine: int) -> None:
        """Fold storage freed at ``machine`` into the entries it touches.

        Freed storage moves a search only through a relaxation into the
        machine that storage rejected or delayed, and the kernel records
        every such receiver in the tree's ``fallback_receivers`` (the
        release index).  An entry that plans a hop into the machine (the
        receiver index) is released too, which keeps the replay's
        residency verdicts final.  Every such entry is touched, also one
        already in conflict: a kept empty payload outlives a conflict
        (:meth:`Shortlist.forget`), but not freed storage.
        """
        planned = self._receiver_index[machine].values()
        released = self._release_index.get(machine, {})
        for entry in chain(
            *(by_item.values() for by_item in planned), released.values()
        ):
            if entry.conflict in ("", TREE_CACHE_RESIDENCY_CONFLICT):
                entry.conflict = TREE_CACHE_CAPACITY_RELEASED
            self._touched[entry.tree.item_id] = True

    def _store(self, item_id: int, entry: CacheEntry) -> None:
        """Replace the item's entry and move it in both indexes."""
        receivers, releases = self._receiver_index, self._release_index
        old = self._trees.get(item_id)
        if old is not None:
            for machine, hop in old.tree.planned_hops.items():
                del receivers[machine][hop[1]][item_id]
            for machine in old.tree.fallback_receivers:
                del releases[machine][item_id]
        self._trees[item_id] = entry
        for machine, hop in entry.tree.planned_hops.items():
            by_link = receivers[machine]
            by_item = by_link.get(hop[1])
            if by_item is None:
                by_item = by_link[hop[1]] = {}
            by_item[item_id] = entry
        for machine in entry.tree.fallback_receivers:
            releases.setdefault(machine, {})[item_id] = entry

    def _snapshot(self, tree: ShortestPathTree) -> CacheEntry:
        """A fresh entry for a tree projected onto its targets, current
        at the replay position and this cache's "now"."""
        state = self._state
        return CacheEntry(
            tree, state.item_revision(tree.item_id), self._replay_position,
            self._not_before, state.degradation_epoch, "",
        )


@dataclass
class Shortlist:
    """A drain's live items, in order, and the payload each scored to.

    After a decision only the booked item and the items the replay
    touched (:meth:`TreeCache.touched`) are scored again: any other entry
    would read ``clean`` or ``revalidated``, because within a drain the
    epochs hold and only the booked item's revision moves.  Each drain
    makes its own shortlist (:meth:`of`) unless it is handed one; a
    dynamic run hands every pass the same one.
    """

    items: List[int]
    payloads: Dict[int, Any] = field(default_factory=dict)

    @classmethod
    def of(
        cls,
        state: NetworkState,
        priorities: Priorities = None,
        request_filter: RequestFilter = None,
    ) -> "Shortlist":
        """The items with an open request the filters let through
        (:func:`has_visible_request`), in ``requested_item_ids()`` order,
        none scored yet."""
        return cls(
            [
                item_id
                for item_id in state.scenario.requested_item_ids()
                if has_visible_request(
                    state, item_id, priorities, request_filter
                )
            ]
        )

    def forget(self, touched: Mapping[int, bool]) -> None:
        """Drop the touched items' payloads (:meth:`TreeCache.touched`).

        An empty payload stays unless storage was released where its
        item's search depended on storage: an item with no candidate
        keeps having none through bookings, cutoffs and a later "now",
        which only delay arrivals.
        """
        payloads = self.payloads
        for item_id, released in touched.items():
            if released or payloads.get(item_id):
                payloads.pop(item_id, None)

    def scored(self, entry: CacheEntry) -> None:
        """Called after the drain scored the entry's item from its tree."""


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
        shortlist: Optional[Shortlist] = None,
    ) -> None:
        """Schedule until no (optionally filtered) candidate remains.

        Exposed separately from :meth:`run` so composite schedulers can run
        several passes over one shared state: the §5.4 priority-tier
        baseline filters by ``priorities``, the dynamic driver hides
        unrevealed requests through ``request_filter``.

        Only items with a request the filters let through are searched
        (:meth:`Shortlist.of`, unless the caller hands over the
        ``shortlist`` it keeps for these filters).  The shortlist keeps
        each item's payload across decisions; each choice scans the
        payloads in item order.  After a decision only the booked item is
        rechecked (deliveries are recorded only for it, and the filters
        are fixed), its tree is rebased onto its new copies
        (:meth:`TreeCache.rebase`), and the touched items' payloads are
        dropped (:meth:`Shortlist.forget`).

        Raises:
            ConfigurationError: when ``cache`` was built for a different
                state than ``state`` (e.g. the parent of a ``clone()``).
        """
        cache.ensure_bound(state)
        debug = logger.isEnabledFor(logging.DEBUG)
        tracer = state.tracer
        tracing = tracer.enabled
        if shortlist is None:
            shortlist = Shortlist.of(state, priorities, request_filter)
        while True:
            decision_started = time.perf_counter() if tracing else 0.0
            choice = self._best_choice(
                state, cache, shortlist, priorities, request_filter
            )
            if choice is None:
                break
            group, result = choice
            stats.iterations += 1
            hops = self._execute(state, group, result)
            cache.rebase(group.item_id)
            stats.hops_booked += hops
            shortlist.payloads.pop(group.item_id, None)
            shortlist.forget(cache.touched())
            if not has_visible_request(
                state, group.item_id, priorities, request_filter
            ):
                shortlist.items.remove(group.item_id)
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
        shortlist: Shortlist,
        priorities: Priorities = None,
        request_filter: RequestFilter = None,
    ) -> Optional[Tuple[CandidateGroup, CostResult]]:
        """The cheapest scored candidate over the shortlist; the first
        item in order wins a tie."""
        best: Optional[Tuple[tuple, CandidateGroup, CostResult]] = None
        for payload in self._live_payloads(
            state, cache, shortlist, priorities, request_filter
        ):
            if best is None or payload[0] < best[0]:
                best = payload
        return None if best is None else (best[1], best[2])

    def _live_payloads(
        self,
        state: NetworkState,
        cache: TreeCache,
        shortlist: Shortlist,
        priorities: Priorities,
        request_filter: RequestFilter,
    ) -> Iterator[Any]:
        """The non-empty payloads of the shortlist's items, in order, each
        scored as the walk reaches it.

        Every item loses its payload when the cache is disabled.  Each
        item without one is scored, in order, from its groups
        (:meth:`TreeCache.groups_for`, :meth:`Shortlist.scored`).
        """
        payloads = shortlist.payloads
        if not cache.enabled:
            payloads.clear()
        for item_id in shortlist.items:
            if item_id in payloads:
                payload = payloads[item_id]
            else:
                entry = cache.entry_for(item_id)
                groups = cache.groups_for(entry, priorities, request_filter)
                payload = payloads[item_id] = self._item_payload(
                    state, item_id, groups
                )
                shortlist.scored(entry)
            if payload:
                yield payload

    def _item_payload(
        self,
        state: NetworkState,
        item_id: int,
        groups: Tuple[CandidateGroup, ...],
    ) -> Any:
        """What :meth:`_best_choice` reads per item, from its candidate
        groups: here the cheapest group under the criterion, as
        ``(key, group, result)``, or ``None``."""
        best: Optional[Tuple[tuple, CandidateGroup, CostResult]] = None
        for group in groups:
            result = self._criterion.evaluate(
                group.evaluations, self._weights
            )
            if result.selected is None:
                continue
            key = (result.cost,) + group.tie_break_key()
            if best is None or key < best[0]:
                best = (key, group, result)
        tracer = state.tracer
        if tracer.enabled:
            tracer.emit("item_scored", item_id, len(groups))
        return best

    def _book_hop(self, state: NetworkState, item_id: int, hop: Hop) -> None:
        """Book one tree hop exactly at its planned times."""
        link = state.scenario.network.link(hop.link_id)
        plan = TransferPlan(
            item_id,
            link,
            hop.start,
            hop.end,
            state.release_time_at(item_id, hop.receiver),
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
        group: CandidateGroup,
        result: CostResult,
    ) -> int:
        """Schedule the chosen candidate, booking hops of the tree it was
        read from (``group.tree``); return the number of hops booked."""

    def _requires_group_cost(self) -> bool:
        """True when the heuristic schedules toward multiple destinations."""
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}(criterion={self._criterion.name})"
