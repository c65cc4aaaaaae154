"""The engine's item selection before hidden items were skipped.

A drain searches only the items with an open request its filters let
through (:func:`repro.heuristics.base.has_visible_request`), and after
each decision rechecks only the booked item.  Before that, every decision
routed and scored every item with any open request, in
``requested_item_ids()`` order, and dropped those whose candidates the
filters all removed.  :func:`use_reference_selection` restores that
selection for the duration of a ``with`` block, so the tests can show the
skip changes no decision.

It patches the ``_best_choice`` methods to ignore the drain's item list,
so the switch holds only in this process: run reference schedules
serially and in-process.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator
from unittest import mock

from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.core.state import NetworkState
from repro.heuristics.base import StagingHeuristic

#: Every class that defines its own ``_best_choice``.
CHOOSERS = (StagingHeuristic, RandomDijkstraBaseline)


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
