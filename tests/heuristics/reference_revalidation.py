"""The per-entry journal revalidation, kept as a differential oracle.

:class:`ReferenceTreeCache` is the :class:`~repro.heuristics.base.TreeCache`
whose every request classifies the item's entry on its own: it checks the
item revision and the degradation epoch, then replays every journal
record appended since the entry was last validated (``journal_since``)
against that entry's footprint.  So each booking is replayed once per
cached item.

Production code replays the journal once per cache, through its receiver
and release indexes, reads each planned hop from the cached tree's parent
tuples, and reads the verdict each entry collected.  This oracle keeps its own
footprint instead, built as production once did: the search's destination
paths (:meth:`~repro.routing.paths.ShortestPathTree.path_to`) turned into
one :class:`~repro.core.intervals.Interval` per planned hop and per
planned residency.  The tests drive both caches through the same mutations
and compare their reason sequences — they must be identical.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.intervals import Interval
from repro.core.state import (
    MUTATION_BOOKING,
    MUTATION_CUTOFF,
    MUTATION_LOSS,
)
from repro.heuristics.base import CacheEntry, TreeCache, deadline_targets
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
from repro.routing.paths import ShortestPathTree

#: An entry's footprint: the planned transfer interval per link id, the
#: planned storage residency per receiving machine, and the item's size.
Footprint = Tuple[Dict[int, Interval], Dict[int, Interval], float]


class ReferenceTreeCache(TreeCache):
    """A tree cache that replays the journal once per entry and request.

    Same constructor, hits, misses and trees as :class:`TreeCache`; only
    the bookkeeping differs.  Entries never enter the receiver index; each
    item's footprint is kept beside its entry.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._footprints: Dict[int, Footprint] = {}

    def entry_for(self, item_id: int) -> CacheEntry:
        """The item's cache entry, recomputing the tree only when necessary.

        The search is bounded by the deadlines of the item's unsatisfied
        destinations, as :meth:`TreeCache.entry_for`'s is.
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
        targets = deadline_targets(self._state, item_id)
        tree = compute_shortest_path_tree(
            self._state, item_id, targets, not_before=self._not_before
        )
        self._stats.dijkstra_runs += 1
        entry = self._snapshot(tree.projected(targets))
        entry.journal_position = self._state.journal_length()
        if self._enabled:
            self._trees[item_id] = entry
            self._footprints[item_id] = self._footprint(tree, targets)
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
        parents with the same tie-breaks.  Storage freed at a planned
        receiver, or at a machine where the search fell back to the full
        storage probe, releases the tree.
        """
        state = self._state
        hop_intervals, residencies, item_size = self._footprints[
            cached.tree.item_id
        ]
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
            elif record.kind == MUTATION_LOSS:
                if (
                    record.machine in residencies
                    or record.machine in cached.tree.fallback_receivers
                ):
                    return TREE_CACHE_CAPACITY_RELEASED
        for machine in sorted(suspect_machines):
            timeline = state.machine_timeline(machine)
            if not timeline.can_reserve(
                item_size, residencies[machine]
            ):
                return TREE_CACHE_RESIDENCY_CONFLICT
        cached.journal_position = journal_size
        return TREE_CACHE_REVALIDATED

    def _footprint(
        self, tree: ShortestPathTree, targets: Mapping[int, float]
    ) -> Footprint:
        """The footprint of the search's paths to ``targets``: each
        reachable target's path hops, each shared hop once."""
        state = self._state
        item_id = tree.item_id
        hops = {}
        for target in targets:
            path = tree.path_to(target)
            if path is not None:
                for hop in path.hops:
                    hops.setdefault(hop.receiver, hop)
        return (
            {
                hop.link_id: Interval(hop.start, hop.end)
                for hop in hops.values()
            },
            {
                receiver: Interval(
                    hop.start, state.release_time_at(item_id, receiver)
                )
                for receiver, hop in hops.items()
            },
            state.scenario.item(item_id).size,
        )
