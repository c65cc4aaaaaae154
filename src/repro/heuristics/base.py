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
algorithm.
"""

from __future__ import annotations

import abc
import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.intervals import Interval
from repro.core.scenario import Scenario
from repro.core.schedule import Schedule
from repro.core.state import (
    MUTATION_BOOKING,
    MUTATION_CUTOFF,
    NetworkState,
    TransferPlan,
)
from repro.cost.criteria import CostCriterion, CostResult
from repro.cost.weights import EUWeights
from repro.errors import ConfigurationError
from repro.heuristics.candidates import CandidateGroup, enumerate_groups
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


@dataclass
class EngineStats:
    """Instrumentation collected during one heuristic run.

    Attributes:
        iterations: number of outer-loop iterations (scheduled choices).
        dijkstra_runs: number of shortest-path-tree computations.
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


@dataclass
class CacheEntry:
    """A cached tree, its interval footprint, and a derived payload.

    The footprint records *when* the tree relies on each resource, not
    just *which* resources it touches: per footprint link the planned
    transfer interval, per receiving machine the planned storage
    residency.  Revalidation replays the state's mutation journal against
    these intervals to decide whether a mutation could have altered any
    earliest-arrival label.

    The payload (the heuristic's scored candidate choice for the item) has
    exactly the same validity as the tree — it is derived from the tree, the
    item's unsatisfied-request set (which only changes with the item
    revision), and run-constant configuration — so it is stored on the entry
    and discarded with it.

    Attributes:
        tree: the cached shortest-path tree.
        item_revision: the item's revision at snapshot time (covers seeds
            and the unsatisfied-destination target set).
        journal_position: how much of the state's mutation journal the
            entry has been validated against; advanced on every
            successful revalidation.
        capacity_epoch: the state's capacity epoch at snapshot time
            (capacity-adding mutations invalidate globally).
        degradation_epoch: the state's bandwidth-degradation epoch at
            snapshot time (degradations change durations globally and are
            not journalled, so they too invalidate globally).
        hop_intervals: planned transfer interval per footprint link id.
        residencies: planned storage residency per receiving machine.
        item_size: the routed item's size in bytes (for residency
            rechecks).
        payload: the heuristic's cached scored choice (see above).
    """

    tree: ShortestPathTree
    item_revision: int
    journal_position: int
    capacity_epoch: int
    degradation_epoch: int = 0
    hop_intervals: Dict[int, Interval] = field(default_factory=dict)
    residencies: Dict[int, Interval] = field(default_factory=dict)
    item_size: float = 0.0
    payload: object = None


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

    The cache binds to its state's :attr:`~repro.core.state.NetworkState
    .epoch` token at construction; serving a different state — whose
    revision counters may have restarted from zero (``clone()``) — raises
    :class:`~repro.errors.ConfigurationError` instead of silently
    validating stale trees.

    Args:
        state: the scheduling state trees are computed against.
        stats: instrumentation sink.
        enabled: disable to recompute every tree on every request.
        not_before: wall-clock lower bound forwarded to the routing layer;
            a cache instance is bound to one value (dynamic drivers create
            a fresh cache per re-scheduling pass).
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

    @property
    def not_before(self) -> float:
        """The wall-clock lower bound this cache plans at."""
        return self._not_before

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

    def tree_for(self, item_id: int) -> ShortestPathTree:
        """The item's current tree, recomputing only when necessary."""
        return self.entry_for(item_id).tree

    def entry_for(self, item_id: int) -> CacheEntry:
        """The item's cache entry, recomputing the tree only when necessary.

        The search early-exits once every unsatisfied destination of the
        item is finalized — labels for other machines are never consulted
        (candidate enumeration and footprints only walk destination paths).
        """
        tracer = self._state.tracer
        cached = self._trees.get(item_id) if self._enabled else None
        reason = self._validity(item_id, cached)
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
            targets = {
                request.destination
                for request in self._state.unsatisfied_requests_for_item(
                    item_id
                )
            }
            tree = compute_shortest_path_tree(
                self._state,
                item_id,
                targets,
                not_before=self._not_before,
            )
            self._stats.dijkstra_runs += 1
            entry = self._snapshot(item_id, tree)
        if self._enabled:
            self._trees[item_id] = entry
        return entry

    def _validity(self, item_id: int, cached: Optional[CacheEntry]) -> str:
        """Classify the entry: a hit/keep reason or the recompute cause."""
        if not self._enabled:
            return TREE_CACHE_DISABLED
        if cached is None:
            return TREE_CACHE_COLD
        state = self._state
        if state.item_revision(item_id) != cached.item_revision:
            return TREE_CACHE_ITEM_CHANGED
        if state.capacity_epoch != cached.capacity_epoch:
            return TREE_CACHE_CAPACITY_RELEASED
        if state.degradation_epoch != cached.degradation_epoch:
            # Degradations lengthen durations globally and are not
            # journalled, so no footprint replay can vouch for the tree.
            return TREE_CACHE_BANDWIDTH_DEGRADED
        journal_size = state.journal_length()
        if journal_size == cached.journal_position:
            return TREE_CACHE_CLEAN
        return self._revalidate(cached, journal_size)

    def _revalidate(self, cached: CacheEntry, journal_size: int) -> str:
        """Replay journalled mutations against the entry's footprint.

        A kept tree is *provably* byte-identical to a recompute: bookings
        and cutoffs only remove availability, every planned hop still
        fits at exactly its planned time (link slot free, residency
        reservable, cutoff clear), and competing offers can only have
        worsened — so the label-setting search reconstructs the same
        parents with the same tie-breaks.
        """
        state = self._state
        hop_intervals = cached.hop_intervals
        residencies = cached.residencies
        # Receiving machines whose storage gained a reservation that
        # overlaps a planned residency; rechecked against the live
        # timeline after the scan (reservations only subtract, so a
        # passing recheck proves the planned start is still the earliest).
        suspect_machines = set()
        for record in state.journal_since(cached.journal_position):
            if record.kind == MUTATION_BOOKING:
                planned = hop_intervals.get(record.link_id)
                if (
                    planned is not None
                    and record.busy is not None
                    and record.busy.overlaps(planned)
                ):
                    return TREE_CACHE_LINK_CONFLICT
                planned_residency = residencies.get(record.machine)
                if (
                    planned_residency is not None
                    and record.residency is not None
                    and record.residency.overlaps(planned_residency)
                ):
                    suspect_machines.add(record.machine)
            elif record.kind == MUTATION_CUTOFF:
                planned = hop_intervals.get(record.link_id)
                if planned is not None and record.cutoff < planned.end:
                    return TREE_CACHE_CUTOFF_TIGHTENED
        for machine in sorted(suspect_machines):
            timeline = state.machine_timeline(machine)
            if not timeline.can_reserve(
                cached.item_size, residencies[machine]
            ):
                return TREE_CACHE_RESIDENCY_CONFLICT
        cached.journal_position = journal_size
        return TREE_CACHE_REVALIDATED

    def _snapshot(self, item_id: int, tree: ShortestPathTree) -> CacheEntry:
        state = self._state
        destinations = [
            request.destination
            for request in state.unsatisfied_requests_for_item(item_id)
        ]
        hops = tree.destination_hops(destinations)
        return CacheEntry(
            tree=tree,
            item_revision=state.item_revision(item_id),
            journal_position=state.journal_length(),
            capacity_epoch=state.capacity_epoch,
            degradation_epoch=state.degradation_epoch,
            hop_intervals={
                hop.link_id: Interval(hop.start, hop.end)
                for hop in hops.values()
            },
            residencies={
                receiver: Interval(
                    hop.start, state.release_time_at(item_id, receiver)
                )
                for receiver, hop in hops.items()
            },
            item_size=state.scenario.item(item_id).size,
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
        priorities: Optional[FrozenSet[int]] = None,
        request_filter: Optional[Callable[..., bool]] = None,
    ) -> None:
        """Schedule until no (optionally filtered) candidate remains.

        Exposed separately from :meth:`run` so composite schedulers can run
        several passes over one shared state: the §5.4 priority-tier
        baseline filters by ``priorities``, the dynamic driver hides
        unrevealed requests through ``request_filter``.

        Raises:
            ConfigurationError: when ``cache`` was built for a different
                state than ``state`` (e.g. the parent of a ``clone()``).
        """
        cache.ensure_bound(state)
        debug = logger.isEnabledFor(logging.DEBUG)
        tracer = state.tracer
        tracing = tracer.enabled
        while True:
            decision_started = time.perf_counter() if tracing else 0.0
            choice = self._best_choice(state, cache, priorities, request_filter)
            if choice is None:
                break
            group, result = choice
            stats.iterations += 1
            with span(PHASE_BOOKING, tracer):
                hops = self._execute(state, cache, group, result)
            stats.hops_booked += hops
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
        priorities: Optional[FrozenSet[int]] = None,
        request_filter: Optional[Callable[..., bool]] = None,
    ) -> Optional[Tuple[CandidateGroup, CostResult]]:
        scenario = state.scenario
        best_key = None
        best: Optional[Tuple[CandidateGroup, CostResult]] = None
        for item_id in scenario.requested_item_ids():
            if not state.unsatisfied_requests_for_item(item_id):
                continue
            entry = cache.entry_for(item_id)
            # The item's scored best candidate is derived purely from the
            # tree, the unsatisfied-request set, and run constants, so it
            # is cached on the entry.  The key carries the tier filter by
            # value and the request filter by identity (one filter object
            # per drain pass).
            payload = entry.payload
            if (
                not isinstance(payload, tuple)
                or len(payload) != 3
                or payload[0] != priorities
                or payload[1] is not request_filter
            ):
                payload = (
                    priorities,
                    request_filter,
                    self._score_item(
                        state, item_id, entry.tree, priorities, request_filter
                    ),
                )
                entry.payload = payload
            scored = payload[2]
            if scored is None:
                continue
            key, group, result = scored
            if best_key is None or key < best_key:
                best_key = key
                best = (group, result)
        return best

    def _score_item(
        self,
        state: NetworkState,
        item_id: int,
        tree: ShortestPathTree,
        priorities: Optional[FrozenSet[int]],
        request_filter: Optional[Callable[..., bool]] = None,
    ) -> Optional[Tuple[tuple, CandidateGroup, CostResult]]:
        """The item's cheapest candidate group under the criterion."""
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
