"""Differential property: items proven to have no candidate stay unsearched.

When an item's payload comes out empty (no candidate group: §4.8 gives no
resources to a step whose every destination misses its deadline), the
tree cache marks it with its revision, the capacity and degradation
epochs, and the visible requests the proof covered
(:meth:`~repro.heuristics.base.TreeCache.mark_no_candidate`).  A drain
never scores the item again (:meth:`~repro.heuristics.base.Shortlist
.forget` keeps its empty payload), and the dynamic driver's later passes
leave it out while the mark holds (``TreeCache.advanced`` carries the
marks over).
Bookings, outage cutoffs and a later "now" can only delay arrivals, so
no decision may change.

:func:`~tests.heuristics.reference_selection.use_reference_selection`
walks every open item at every decision, bypassing both skips.  Against
it, every schedule must be byte-identical, and:

- dynamic runs (drawn faults with churn, losses and reopens) with a tree
  cache of its own per pass (``tests/heuristics/reference_advance.py``),
  static runs and
  :class:`~repro.baselines.random_dijkstra.RandomDijkstraBaseline` emit a
  subsequence of the oracle's stream, missing only search events;
- dynamic runs whose passes carry trees have streams equal to the
  oracle's once search events are dropped: an item the oracle searched
  in a pass the change skipped may be carried where the change searches;
- :class:`~repro.baselines.priority_tier.PriorityTierScheduler`'s streams
  are equal once search events are dropped, and it computes no more trees;
- with the tree cache disabled nothing is marked or dropped: the stream
  equals the oracle's.

The unit tests below pin what clears a mark and what it survives.
"""

from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.core.state import NetworkState
from repro.dynamic.driver import DynamicDriver
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
    ``advanced`` from the first (so marks cross the passes): with a tree
    cache of its own per drain, and carrying the trees, where an item the
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
    must reopen requests and leave out marked items in later passes —
    else the properties above would pass vacuously.

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
    has_no_candidate = TreeCache.has_no_candidate

    def spy(self, item_id, *filters):
        answer = has_no_candidate(self, item_id, *filters)
        if answer:
            left_out.append(item_id)
        return answer

    run = _dynamic_run(PINNED_SEED, PINNED_SEED, "partial", 0.5, 0.3)
    oracle_result, oracle_schedule, oracle = traced(run, reference=True)
    with mock.patch.object(TreeCache, "has_no_candidate", spy):
        result, schedule, stream = traced(run, reference=False)
    assert schedule == oracle_schedule
    assert_skips_only_searches(stream, oracle)
    assert result.stats.dijkstra_runs < oracle_result.stats.dijkstra_runs
    assert left_out
    assert any(outcome.reopened for outcome in result.outcomes)


# -- what clears a mark ------------------------------------------------------

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


def _showing(*request_ids):
    visible = frozenset(request_ids)
    return lambda request: request.request_id in visible


def _marked(enabled=True):
    """Two passes: the first delivers ``HIDDEN_LATER`` and ``OTHER``; the
    second sees only ``DEAD`` open and marks item 0."""
    state = NetworkState(_mark_scenario())
    stats = EngineStats()
    heuristic = make_heuristic("partial", "C4", 2.0)
    first = TreeCache(state, stats, enabled=enabled)
    heuristic.drain(
        state, first, stats, request_filter=_showing(HIDDEN_LATER, OTHER)
    )
    assert state.is_satisfied(HIDDEN_LATER) and state.is_satisfied(OTHER)
    cache = first.advanced(0.5)
    visible = _showing(DEAD, HIDDEN_LATER, OTHER)
    heuristic.drain(state, cache, stats, request_filter=visible)
    assert not state.is_satisfied(DEAD)
    return state, cache, stats, heuristic, visible


def test_an_item_with_no_candidate_is_marked():
    _, cache, _, _, visible = _marked()
    assert cache.has_no_candidate(0, None, visible)
    assert cache.has_no_candidate(0, None, _showing(DEAD))


def test_a_disabled_cache_records_no_mark():
    _, cache, _, _, visible = _marked(enabled=False)
    assert not cache.enabled
    assert not cache.has_no_candidate(0, None, visible)


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
    state, cache, _, _, _ = _marked()
    mutate(state)
    # Only DEAD is shown, so the visible set alone cannot clear the mark.
    assert not cache.has_no_candidate(0, None, _showing(DEAD))
    assert not cache.advanced(2.0).has_no_candidate(0, None, _showing(DEAD))


def test_a_newly_visible_request_clears_the_mark():
    _, cache, _, _, visible = _marked()
    assert not cache.has_no_candidate(
        0, None, _showing(DEAD, HIDDEN_LATER, OTHER, LATE_REVEAL)
    )
    assert cache.has_no_candidate(0, None, visible)


def test_the_mark_survives_bookings_and_outages_in_later_passes():
    state, cache, stats, heuristic, _ = _marked()
    state.disable_link_from(1, 3.0)
    later = cache.advanced(2.0)
    shown = _showing(DEAD, HIDDEN_LATER, OTHER, LATE_ITEM)
    runs = stats.dijkstra_runs
    heuristic.drain(state, later, stats, request_filter=shown)
    assert state.is_satisfied(LATE_ITEM)
    assert stats.dijkstra_runs == runs + 1  # item 2 only
    assert later.has_no_candidate(0, None, shown)


def test_advancing_to_an_earlier_instant_is_rejected():
    _, cache, _, _, _ = _marked()
    with pytest.raises(ConfigurationError):
        cache.advanced(0.25)
    with pytest.raises(ConfigurationError):
        cache.advanced(float("nan"))
    assert cache.advanced(0.5).not_before == 0.5
