"""Differential property: items proven to have no candidate stay unsearched.

When an item's payload comes out empty (no candidate group: §4.8 gives no
resources to a step whose every destination misses its deadline), the
drain keeps the empty payload: it never scores the item again
(:meth:`~repro.heuristics.base.Shortlist.forget` keeps it through
conflicts).  A dynamic run keeps one shortlist for all its passes
(:class:`~repro.dynamic.driver.RunShortlist`), so the empty payload is
the item's no-candidate mark there: later passes leave the item
unrequested until a reveal of one of its open requests, storage released
in its tree's footprint, a revision move or a degradation drops it.
Bookings, outage cutoffs and a later "now" can only delay arrivals, so
no decision may change.

:func:`~tests.heuristics.reference_selection.use_reference_selection`
walks every open item at every decision, bypassing both skips.  Against
it, every schedule must be byte-identical, and:

- dynamic runs (drawn faults with churn, losses and reopens) with a tree
  cache and a shortlist of their own per pass
  (``tests/heuristics/reference_advance.py``), static runs and
  :class:`~repro.baselines.random_dijkstra.RandomDijkstraBaseline` emit a
  subsequence of the oracle's stream, missing only search events;
- dynamic runs whose passes carry trees and keep one shortlist have
  streams equal to the oracle's once search events are dropped: an item
  the oracle searched in a pass the change skipped may be carried where
  the change searches;
- :class:`~repro.baselines.priority_tier.PriorityTierScheduler`'s streams
  are equal once search events are dropped, and it computes no more trees;
- with the tree cache disabled nothing is dropped: the stream equals the
  oracle's.

The unit tests below pin what drops a kept empty payload (the mark) and
what it survives.
"""

from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.core.state import NetworkState
from repro.dynamic.driver import DynamicDriver, RunShortlist
from repro.errors import ConfigurationError
from repro.faults.context import use_faults
from repro.heuristics.base import EngineStats, TreeCache
from repro.heuristics.registry import make_heuristic
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import (
    dynamic_fault_events,
    line_network,
    make_item,
    make_scenario,
)
from tests.heuristics.reference_advance import use_reference_advance
from tests.heuristics.reference_selection import (
    assert_skips_only_searches,
    traced,
    traced_both,
    without_searches,
    without_the_drop,
)

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())

HEURISTICS = ("partial", "full_one", "full_all")

#: The draw pinned in ``TestPinnedEventStream`` (tests/observability).
PINNED_SEED = 0

#: A tiny draw on which a priority-tier drain drops an item with no
#: candidate whose tree a later booking conflicts with.
DROP_SEED = 11

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _dynamic_run(
    seed, fault_seed, heuristic, intensity, loss_fraction, carried=False
):
    """A traceable dynamic run, each pass with a tree cache of its own
    unless ``carried``."""
    scenario = _GENERATOR.generate(seed)
    events, plan = dynamic_fault_events(
        scenario, fault_seed, intensity, loss_fraction
    )

    def run():
        advance = nullcontext() if carried else use_reference_advance()
        with use_faults(plan), advance:
            return DynamicDriver(heuristic, "C4", 2.0).run(scenario, events)

    return run


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(HEURISTICS),
    intensity=st.sampled_from((0.5, 1.0)),
    loss_fraction=st.sampled_from((0.3, 0.6)),
)
@_SETTINGS
def test_dynamic_runs_skip_only_searches(
    seed, fault_seed, heuristic, intensity, loss_fraction
):
    (_, oracle_schedule, oracle), (_, schedule, stream) = traced_both(
        _dynamic_run(seed, fault_seed, heuristic, intensity, loss_fraction)
    )
    assert schedule == oracle_schedule
    assert_skips_only_searches(stream, oracle)
    (_, oracle_schedule, oracle), (_, schedule, stream) = traced_both(
        _dynamic_run(
            seed, fault_seed, heuristic, intensity, loss_fraction, True
        )
    )
    assert schedule == oracle_schedule
    assert without_searches(stream) == without_searches(oracle)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(HEURISTICS),
    criterion=st.sampled_from(("C1", "C2", "C3", "C4")),
)
@_SETTINGS
def test_static_runs_skip_only_searches(seed, heuristic, criterion):
    if heuristic == "full_all" and criterion == "C1":
        criterion = "C4"  # C1 cannot drive full_all
    scenario = _GENERATOR.generate(seed)
    heuristic_run = make_heuristic(heuristic, criterion, 2.0)
    (_, oracle_schedule, oracle), (_, schedule, stream) = traced_both(
        lambda: heuristic_run.run(scenario)
    )
    assert schedule == oracle_schedule
    assert_skips_only_searches(stream, oracle)


@given(seed=st.integers(min_value=0, max_value=10_000))
@_SETTINGS
def test_random_dijkstra_skips_only_searches(seed):
    """A static run, and two drains over one state whose second cache is
    ``advanced`` from the first: with a tree cache of its own per drain,
    and carrying the trees, where an item the
    oracle searched in the first drain may hit where the change searches,
    so the streams are compared with search events dropped."""
    scenario = _GENERATOR.generate(seed)
    (_, oracle_schedule, oracle), (_, schedule, stream) = traced_both(
        lambda: RandomDijkstraBaseline(seed).run(scenario)
    )
    assert schedule == oracle_schedule
    assert_skips_only_searches(stream, oracle)

    def two_passes():
        state = NetworkState(scenario)
        stats = EngineStats()
        baseline = RandomDijkstraBaseline(seed)
        cache = TreeCache(state, stats)
        baseline.drain(
            state,
            cache,
            stats,
            request_filter=lambda request: request.request_id % 2 == 0,
        )
        baseline.drain(state, cache.advanced(0.0), stats)
        return state

    def two_passes_per_pass():
        with use_reference_advance():
            return two_passes()

    (_, oracle_schedule, oracle), (_, schedule, stream) = traced_both(
        two_passes_per_pass
    )
    assert schedule == oracle_schedule
    assert_skips_only_searches(stream, oracle)
    (_, oracle_schedule, oracle), (_, schedule, stream) = traced_both(
        two_passes
    )
    assert schedule == oracle_schedule
    assert without_searches(stream) == without_searches(oracle)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(HEURISTICS),
)
@_SETTINGS
def test_priority_tiers_change_only_searches(seed, heuristic):
    scenario = _GENERATOR.generate(seed)
    scheduler = PriorityTierScheduler(heuristic, "C4", 0.0)
    (oracle_result, oracle_schedule, oracle), (result, schedule, stream) = (
        traced_both(lambda: scheduler.run(scenario))
    )
    assert schedule == oracle_schedule
    assert without_searches(stream) == without_searches(oracle)
    assert result.stats.dijkstra_runs <= oracle_result.stats.dijkstra_runs


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(HEURISTICS),
)
@_SETTINGS
def test_a_disabled_cache_drops_nothing(seed, heuristic):
    """``use_tree_cache=False`` stays the recompute-everything oracle."""
    scenario = _GENERATOR.generate(seed)
    heuristic_run = make_heuristic(heuristic, "C4", 2.0, use_tree_cache=False)
    (_, oracle_schedule, oracle), (_, schedule, stream) = traced_both(
        lambda: heuristic_run.run(scenario)
    )
    assert schedule == oracle_schedule
    assert stream == oracle


def test_the_skips_fire_on_the_pinned_draws():
    """On a pinned priority-tier draw the within-drain drop saves
    searches, and the faulted run pinned in ``TestPinnedEventStream``
    must reopen requests and keep empty payloads across passes — else
    the properties above would pass vacuously.

    A tier drain's item with no candidate can still have a tree: it
    plans paths to the other tiers' requests, and bookings conflict with
    them.  Without the drop the drain would search it again after each
    such conflict.  (In an unfiltered drain such an item's tree has an
    empty footprint, which the journal replay never touches, so there
    the dirty set alone leaves it unrequested.)"""
    scenario = _GENERATOR.generate(DROP_SEED)
    scheduler = PriorityTierScheduler("partial", "C4", 0.0)
    (_, oracle_schedule, oracle), (result, schedule, stream) = traced_both(
        lambda: scheduler.run(scenario)
    )
    assert schedule == oracle_schedule
    assert without_searches(stream) == without_searches(oracle)
    with without_the_drop():
        rescored, rescored_schedule, _ = traced(
            lambda: scheduler.run(scenario), reference=False
        )
    assert rescored_schedule == schedule
    assert result.stats.dijkstra_runs < rescored.stats.dijkstra_runs

    left_out = []
    refresh = RunShortlist.refresh

    def spy(self, cache):
        refresh(self, cache)
        left_out.extend(i for i in self.items if i in self.payloads)

    run = _dynamic_run(PINNED_SEED, PINNED_SEED, "partial", 0.5, 0.3, True)
    oracle_result, oracle_schedule, oracle = traced(run, reference=True)
    with mock.patch.object(RunShortlist, "refresh", spy):
        result, schedule, stream = traced(run, reference=False)
    assert schedule == oracle_schedule
    assert without_searches(stream) == without_searches(oracle)
    assert result.stats.dijkstra_runs < oracle_result.stats.dijkstra_runs
    assert left_out
    assert any(outcome.reopened for outcome in result.outcomes)


# -- what clears a mark (a kept empty payload) -------------------------------

#: Request ids of the mark scenario.
DEAD, HIDDEN_LATER, OTHER, LATE_REVEAL, LATE_ITEM = 0, 1, 2, 3, 4


def _mark_scenario():
    """A ring 0 -> 1 -> 2 -> 3 -> 0 (1 s per hop) and three items.

    Item 0 starts at 0.  Its request ``DEAD`` (to 2, deadline 1.5) cannot
    be met after the first pass, whose bookings hold links 0 -> 1 and
    1 -> 2 until t=1; ``HIDDEN_LATER`` (to 1) is met in the first pass,
    and ``LATE_REVEAL`` (to 3) stays hidden.
    Item 1 starts at 1 and is delivered to 2 in the first pass (``OTHER``);
    item 2 starts at 2 and is requested at 3 only in a late pass
    (``LATE_ITEM``).
    """
    return make_scenario(
        line_network(4),
        [
            make_item(0, 1000.0, [(0, 0.0)]),
            make_item(1, 1000.0, [(1, 0.0)]),
            make_item(2, 1000.0, [(2, 0.0)]),
        ],
        [
            (0, 2, 2, 1.5),
            (0, 1, 1, 100.0),
            (1, 2, 1, 100.0),
            (0, 3, 1, 100.0),
            (2, 3, 1, 100.0),
        ],
    )


def _marked(enabled=True):
    """Two passes over one run shortlist: the first shows
    ``HIDDEN_LATER`` and ``OTHER`` and delivers both; the second also
    shows ``DEAD``, so item 0 scores to an empty payload, which the
    shortlist keeps.  Returns the state, the second pass's cache, the
    stats, the heuristic, the shortlist and the live set of shown ids."""
    state = NetworkState(_mark_scenario())
    stats = EngineStats()
    heuristic = make_heuristic("partial", "C4", 2.0)
    shown = {HIDDEN_LATER, OTHER}
    shortlist = RunShortlist(state, _showing(shown))
    first = TreeCache(state, stats, enabled=enabled)
    heuristic.drain(
        state, first, stats, request_filter=_showing(shown),
        shortlist=shortlist,
    )
    assert state.is_satisfied(HIDDEN_LATER) and state.is_satisfied(OTHER)
    cache = _next_pass(shortlist, first, 0.5, shown, revealed=(DEAD,))
    heuristic.drain(
        state, cache, stats, request_filter=_showing(shown),
        shortlist=shortlist,
    )
    assert not state.is_satisfied(DEAD)
    return state, cache, stats, heuristic, shortlist, shown


def _showing(shown):
    return lambda request: request.request_id in shown


def _next_pass(shortlist, cache, now, shown, revealed=()):
    """The cache of the pass at ``now``, and the shortlist told of the
    requests ``revealed`` there, as the driver does."""
    shown.update(revealed)
    later = cache.advanced(now)
    shortlist.reveal(revealed)
    shortlist.refresh(later)
    return later


def _kept_empty(shortlist, item_id=0):
    return item_id in shortlist.items and (
        item_id in shortlist.payloads and not shortlist.payloads[item_id]
    )


def test_an_item_with_no_candidate_is_marked():
    state, cache, stats, heuristic, shortlist, shown = _marked()
    assert _kept_empty(shortlist)
    requests = stats.cache_hits + stats.dijkstra_runs
    later = _next_pass(shortlist, cache, 1.0, shown)
    heuristic.drain(
        state, later, stats, request_filter=_showing(shown),
        shortlist=shortlist,
    )
    assert stats.cache_hits + stats.dijkstra_runs == requests
    assert _kept_empty(shortlist)


def test_a_disabled_cache_records_no_mark():
    """A disabled cache scores every item again at every choice, so the
    next pass requests item 0 again."""
    state, cache, stats, heuristic, shortlist, shown = _marked(enabled=False)
    assert not cache.enabled
    runs = stats.dijkstra_runs
    later = _next_pass(shortlist, cache, 1.0, shown)
    heuristic.drain(
        state, later, stats, request_filter=_showing(shown),
        shortlist=shortlist,
    )
    assert stats.dijkstra_runs == runs + 1


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(
            lambda state: state.reopen_request(HIDDEN_LATER),
            id="reopen-of-the-items-request",
        ),
        pytest.param(
            lambda state: state.remove_copy(0, 1, 1.5),
            id="loss-of-the-items-copy",
        ),
        pytest.param(
            lambda state: state.remove_copy(1, 2, 1.5),
            id="loss-elsewhere",
        ),
        pytest.param(
            lambda state: state.degrade_physical_link(2, 0.5),
            id="degradation",
        ),
    ],
)
def test_a_state_change_clears_the_mark(mutate):
    """A reopen or a loss of the item's copy moves its revision; the
    loss of item 1's copy at machine 2 frees storage where item 0's tree
    plans a hop (toward ``LATE_REVEAL``); a degradation moves the epoch."""
    state, cache, _, _, shortlist, shown = _marked()
    mutate(state)
    _next_pass(shortlist, cache, 2.0, shown)
    assert 0 not in shortlist.payloads


def test_a_newly_visible_request_clears_the_mark():
    _, cache, _, _, shortlist, shown = _marked()
    # A request revealed once delivered adds no candidate.
    later = _next_pass(shortlist, cache, 1.0, shown, revealed=(HIDDEN_LATER,))
    assert _kept_empty(shortlist)
    _next_pass(shortlist, later, 1.0, shown, revealed=(LATE_REVEAL,))
    assert 0 not in shortlist.payloads


def test_a_cancellation_delists_an_item_with_no_visible_request_left():
    _, _, _, _, shortlist, shown = _marked()
    shown.discard(DEAD)
    shortlist.follow((DEAD,))
    assert 0 not in shortlist.items and 0 not in shortlist.payloads


def test_the_mark_survives_bookings_and_outages_in_later_passes():
    state, cache, stats, heuristic, shortlist, shown = _marked()
    state.disable_link_from(1, 3.0)
    later = _next_pass(shortlist, cache, 2.0, shown, revealed=(LATE_ITEM,))
    runs = stats.dijkstra_runs
    heuristic.drain(
        state, later, stats, request_filter=_showing(shown),
        shortlist=shortlist,
    )
    assert state.is_satisfied(LATE_ITEM)
    assert stats.dijkstra_runs == runs + 1  # item 2 only
    assert _kept_empty(shortlist)


def test_advancing_to_an_earlier_instant_is_rejected():
    _, cache, _, _, _, _ = _marked()
    with pytest.raises(ConfigurationError):
        cache.advanced(0.25)
    with pytest.raises(ConfigurationError):
        cache.advanced(float("nan"))
    assert cache.advanced(0.5).not_before == 0.5
