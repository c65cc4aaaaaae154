"""The engine's item selection before any item was skipped.

A drain searches only the items with an open request its filters let
through (:func:`repro.heuristics.base.has_visible_request`) that the tree
cache has not proven to have no candidate
(:meth:`~repro.heuristics.base.TreeCache.has_no_candidate`).  After each
decision it rechecks only the booked item, and it drops every item whose
payload came out empty.  Before that, every decision routed and scored
every item with any open request, in ``requested_item_ids()`` order, and
dropped those whose candidates the filters all removed.
:func:`use_reference_selection` restores that selection for the duration
of a ``with`` block, so the tests can show the skips change no decision.
It bypasses all three: the hidden-item skip, the within-drain drop and
the no-candidate marks carried across dynamic passes (the marks are still
recorded, but only the drain's list reads them).

It patches the ``_best_choice`` methods to ignore the drain's item list,
so the switch holds only in this process: run reference schedules
serially and in-process.

The stream helpers below compare a run against the oracle: a skipped
search may only remove :data:`SEARCH_EVENTS` from the event stream.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Any, Callable, Iterator, List, Optional, Tuple
from unittest import mock

from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.core.state import NetworkState
from repro.heuristics.base import EngineStats, StagingHeuristic
from repro.observability.tracer import RecordingTracer, use_tracer
from repro.serialization import schedule_to_dict

from tests.helpers import neutral_fields

#: Every class that defines its own ``_best_choice``.
CHOOSERS = (StagingHeuristic, RandomDijkstraBaseline)

#: The event kinds a skipped search would have emitted.
SEARCH_EVENTS = frozenset(
    {
        "tree_cache",
        "dijkstra",
        "transfer_attempt",
        "transfer_rejected",
        "item_scored",
        "span_start",
        "span_end",
    }
)

#: One traced event, wall-clock fields neutralized.
StreamEvent = Tuple[str, Any]

#: A traced run: its result, canonical-JSON schedule and event stream.
Traced = Tuple[Any, str, List[StreamEvent]]


@contextmanager
def use_reference_selection() -> Iterator[None]:
    """Make every decision walk every item with an open request."""
    with ExitStack() as stack:
        for owner in CHOOSERS:
            stack.enter_context(
                mock.patch.object(
                    owner,
                    "_best_choice",
                    _every_open_item(owner.__dict__["_best_choice"]),
                )
            )
        yield


def _every_open_item(best_choice: Callable[..., Any]) -> Callable[..., Any]:
    def reference_best_choice(
        self: StagingHeuristic,
        state: NetworkState,
        cache: Any,
        items: Any,
        *filters: Any,
    ) -> Any:
        open_requests = state.open_request_counts()
        every_open_item = [
            item_id
            for item_id in state.scenario.requested_item_ids()
            if open_requests[item_id]
        ]
        return best_choice(self, state, cache, every_open_item, *filters)

    return reference_best_choice


def traced(run: Callable[[], Any], reference: bool) -> Traced:
    """``run()``'s result, its canonical-JSON schedule and its events,
    under the oracle when ``reference`` is set."""
    tracer = RecordingTracer()
    selection = use_reference_selection() if reference else nullcontext()
    with use_tracer(tracer), selection:
        result = run()
    schedule = json.dumps(schedule_to_dict(result.schedule), sort_keys=True)
    stream = [(event.name, neutral_fields(event)) for event in tracer.events]
    return result, schedule, stream


def traced_both(run: Callable[[], Any]) -> Tuple[Traced, Traced]:
    """:func:`traced` under the oracle, then under the change."""
    return traced(run, reference=True), traced(run, reference=False)


def missing_events(
    stream: List[StreamEvent], oracle: List[StreamEvent]
) -> Optional[List[str]]:
    """The names of the oracle events ``stream`` skips, or ``None`` when
    ``stream`` is not a subsequence of ``oracle``."""
    missing = []
    position = 0
    for event in stream:
        while position < len(oracle) and oracle[position] != event:
            missing.append(oracle[position][0])
            position += 1
        if position == len(oracle):
            return None
        position += 1
    missing.extend(name for name, _ in oracle[position:])
    return missing


def assert_skips_only_searches(
    stream: List[StreamEvent], oracle: List[StreamEvent]
) -> None:
    """``stream`` is ``oracle`` with some :data:`SEARCH_EVENTS` left out."""
    missing = missing_events(stream, oracle)
    assert missing is not None, "the stream is not a subsequence"
    assert set(missing) <= SEARCH_EVENTS


def without_searches(stream: List[StreamEvent]) -> List[StreamEvent]:
    """``stream`` with every :data:`SEARCH_EVENTS` kind dropped."""
    return [event for event in stream if event[0] not in SEARCH_EVENTS]


def tree_requests(stats: EngineStats) -> int:
    """How many trees a run asked its cache for (hits plus recomputes)."""
    return stats.cache_hits + stats.dijkstra_runs
