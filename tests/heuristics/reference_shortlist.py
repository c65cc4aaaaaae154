"""Per-drain shortlists with no-candidate marks, kept as a differential
oracle for the run-long shortlist of dynamic runs.

A :class:`~repro.dynamic.driver.DynamicDriver` hands every pass the same
:class:`~repro.dynamic.driver.RunShortlist`, which keeps each item's
scored payload, empty or not, until an event drops it.  Before that, each
drain built a shortlist of its own: its opening scan read every open
item's visible request ids, and left out an item whose *no-candidate
mark* still held.  A mark recorded, when an item's payload came out
empty, the item's revision, the capacity and degradation epochs, and
the visible request ids the proof covered; it held while those counters
stood and no visible request fell outside the ids.  A disabled cache
recorded no mark.

:func:`use_reference_shortlist` restores that drain for the duration of
a ``with`` block: every drain ignores the shortlist it is handed, and
the marks live here, one table per state.  So the tests can show that
the kept shortlist changes no schedule, no outcome and no record but for
``dijkstra_runs``, which may only fall.

It patches the class attribute, so the switch holds only in this
process: run reference schedules serially and in-process.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, FrozenSet, Iterator, List, Tuple
from unittest import mock

from repro.core.state import NetworkState
from repro.heuristics.base import (
    CacheEntry,
    Shortlist,
    StagingHeuristic,
    TreeCache,
)
from repro.heuristics.candidates import (
    Priorities,
    RequestFilter,
    visible_requests,
)

#: A mark: the item revision, capacity epoch and degradation epoch it
#: was proven under, and the visible request ids it covers.
Mark = Tuple[int, int, int, FrozenSet[int]]


def _visible_ids(
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


def _holds(state: NetworkState, item_id: int, mark: Mark, visible) -> bool:
    revision, capacity_epoch, degradation_epoch, covered = mark
    return (
        revision == state.item_revision(item_id)
        and capacity_epoch == state.capacity_epoch
        and degradation_epoch == state.degradation_epoch
        and visible <= covered
    )


class _MarkingShortlist(Shortlist):
    """A drain's own shortlist that marks each item scored empty."""

    def __init__(
        self,
        items: List[int],
        state: NetworkState,
        cache: TreeCache,
        marks: Dict[int, Mark],
        filters: Tuple[Priorities, RequestFilter],
    ) -> None:
        super().__init__(items)
        self._state, self._cache = state, cache
        self._marks, self._filters = marks, filters

    def scored(self, entry: CacheEntry) -> None:
        item_id = entry.tree.item_id
        if self.payloads[item_id] or not self._cache.enabled:
            return
        state = self._state
        self._marks[item_id] = (
            state.item_revision(item_id),
            state.capacity_epoch,
            state.degradation_epoch,
            _visible_ids(state, item_id, *self._filters),
        )


def drain_items(
    state: NetworkState,
    marks: Dict[int, Mark],
    priorities: Priorities,
    request_filter: RequestFilter,
) -> List[int]:
    """The items a drain started with, in ``requested_item_ids()``
    order: each with an open request the filters let through, and no
    mark that still holds."""
    open_counts = state.open_request_counts()
    items = []
    for item_id in state.scenario.requested_item_ids():
        if not open_counts[item_id]:
            continue
        visible = _visible_ids(state, item_id, priorities, request_filter)
        if not visible:
            continue
        mark = marks.get(item_id)
        if mark is None or not _holds(state, item_id, mark, visible):
            items.append(item_id)
    return items


@contextmanager
def use_reference_shortlist() -> Iterator[None]:
    """Make every drain build its own shortlist, leaving out the items
    whose no-candidate marks hold."""
    drain = StagingHeuristic.drain
    marks_by_state: Dict[int, Dict[int, Mark]] = {}

    def per_drain(
        self: StagingHeuristic,
        state: NetworkState,
        cache: TreeCache,
        stats: Any,
        priorities: Priorities = None,
        request_filter: RequestFilter = None,
        shortlist: Any = None,
    ) -> None:
        marks = marks_by_state.setdefault(state.epoch, {})
        own = _MarkingShortlist(
            drain_items(state, marks, priorities, request_filter),
            state,
            cache,
            marks,
            (priorities, request_filter),
        )
        drain(self, state, cache, stats, priorities, request_filter, own)

    with mock.patch.object(StagingHeuristic, "drain", per_drain):
        yield
