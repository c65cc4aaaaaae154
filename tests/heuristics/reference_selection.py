"""The engine's item selection before any item was skipped or kept.

A drain searches only the items with an open request its filters let
through (:func:`repro.heuristics.base.has_visible_request`) that a
dynamic run's shortlist does not keep as proven to have no candidate
(:class:`~repro.dynamic.driver.RunShortlist`).  After each decision it
rechecks only the booked item.  It keeps each item's payload across
decisions and requests again only the booked item and the items whose
entries the cache's replay touched (the dirty set,
:class:`~repro.heuristics.base.Shortlist`), and never an item whose
payload came out empty (the within-drain drop).  Before all that, every
decision routed and scored every item with any open request, in
``requested_item_ids()`` order, and dropped those whose candidates the
filters all removed.  :func:`use_reference_selection` restores that
selection for the duration of a ``with`` block, so the tests can show the
skips change no decision.  It bypasses all four: the hidden-item skip,
the within-drain drop, the empty payloads a dynamic run keeps across
passes (they are still kept, but only the drain's shortlist reads them)
and the dirty set: every decision requests and scores every open item
afresh.

It patches the ``_best_choice`` methods to ignore the drain's shortlist,
so the switch holds only in this process: run reference schedules
serially and in-process.  :func:`rescore_shortlist` patches them the
same way to bypass only the dirty set, and :func:`without_the_drop`
switches off only the within-drain drop.

The stream helpers below compare a run against the oracle: a skipped
search may only remove :data:`SEARCH_EVENTS` from the event stream.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager, nullcontext
from typing import (
    Any,
    Callable,
    ContextManager,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)
from unittest import mock

from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.core.state import NetworkState
from repro.heuristics.base import EngineStats, Shortlist, StagingHeuristic
from repro.observability.tracer import RecordingTracer, use_tracer
from repro.serialization import document_to_dict

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
    }
)

#: One traced event, wall-clock fields neutralized.
StreamEvent = Tuple[str, Any]

#: A traced run: its result, canonical-JSON schedule and event stream.
Traced = Tuple[Any, str, List[StreamEvent]]


def use_reference_selection() -> ContextManager[None]:
    """Make every decision request and score every item with an open
    request."""
    return _wrapping_choosers(_every_open_item)


def rescore_shortlist() -> ContextManager[None]:
    """Make every decision request and score every item on the drain's
    shortlist that has a candidate, as drains did before the dirty set
    (an item whose payload came out empty stays dropped)."""
    return _wrapping_choosers(_every_shortlisted_item)


@contextmanager
def _wrapping_choosers(
    wrap: Callable[[Callable[..., Any]], Callable[..., Any]]
) -> Iterator[None]:
    with ExitStack() as stack:
        for owner in CHOOSERS:
            stack.enter_context(
                mock.patch.object(
                    owner, "_best_choice", wrap(owner.__dict__["_best_choice"])
                )
            )
        yield


def _every_open_item(best_choice: Callable[..., Any]) -> Callable[..., Any]:
    def reference_best_choice(
        self: StagingHeuristic,
        state: NetworkState,
        cache: Any,
        shortlist: Any,
        *filters: Any,
    ) -> Any:
        open_requests = state.open_request_counts()
        every_open_item = Shortlist(
            [
                item_id
                for item_id in state.scenario.requested_item_ids()
                if open_requests[item_id]
            ]
        )
        return best_choice(self, state, cache, every_open_item, *filters)

    return reference_best_choice


def _every_shortlisted_item(
    best_choice: Callable[..., Any]
) -> Callable[..., Any]:
    def rescoring_best_choice(
        self: StagingHeuristic,
        state: NetworkState,
        cache: Any,
        shortlist: Shortlist,
        *filters: Any,
    ) -> Any:
        shortlist.forget(dict.fromkeys(shortlist.payloads, False))
        return best_choice(self, state, cache, shortlist, *filters)

    return rescoring_best_choice


def _forget_every_payload(self: Shortlist, item_ids: Iterable[int]) -> None:
    for item_id in item_ids:
        self.payloads.pop(item_id, None)


def without_the_drop() -> Any:
    """Make drains score again every touched item, also one whose kept
    payload is empty: the within-drain drop switched off
    (:meth:`~repro.heuristics.base.Shortlist.forget`)."""
    return mock.patch.object(Shortlist, "forget", _forget_every_payload)


def traced(run: Callable[[], Any], reference: bool) -> Traced:
    """``run()``'s result, its canonical-JSON schedule and its events,
    under the oracle when ``reference`` is set."""
    tracer = RecordingTracer()
    selection = use_reference_selection() if reference else nullcontext()
    with use_tracer(tracer), selection:
        result = run()
    schedule = json.dumps(document_to_dict(result.schedule), sort_keys=True)
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
