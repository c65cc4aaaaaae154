"""Differential property: skipping hidden items changes no decision.

A drain searches only items with an open request its filters let through
(:func:`repro.heuristics.base.has_visible_request`): revealed and not
cancelled in the dynamic driver, in the current tier in
:class:`~repro.baselines.priority_tier.PriorityTierScheduler`.  Any other
item's candidates are all filtered out, so its search was wasted work.
:func:`~tests.heuristics.reference_selection.use_reference_selection`
restores the old selection, which routed every item with an open request.

Against that oracle, every schedule must be byte-identical.  The event
streams lose only search events:

- a dynamic pass with a tree cache of its own
  (``tests/heuristics/reference_advance.py``) and a single filtered
  drain emit a subsequence of the oracle's stream, and every missing
  event is one of the oracle module's ``SEARCH_EVENTS``;
- the passes of a dynamic run carry trees from pass to pass, so an item
  the oracle searched in a pass the change skipped may be carried where
  the change searches: with ``SEARCH_EVENTS`` dropped the streams are
  equal;
- the tier drains share one tree cache, so an item first searched in a
  later tier starts cold where the oracle may hit its cache.  With
  ``SEARCH_EVENTS`` dropped the two streams are equal, and the change
  computes no more trees;
- unfiltered drains hide nothing, but they request only their dirty set
  (``tests/heuristics/test_dirty_selection_differential.py``), so their
  streams are a subsequence too, and shorter on the pinned seed.
"""

from contextlib import nullcontext

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.core.state import NetworkState
from repro.dynamic.driver import DynamicDriver
from repro.faults.context import use_faults
from repro.heuristics.base import EngineStats, StagingHeuristic, TreeCache
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import dynamic_fault_events
from tests.heuristics.reference_advance import use_reference_advance
from tests.heuristics.reference_selection import (
    CHOOSERS,
    assert_skips_only_searches,
    traced,
    traced_both,
    tree_requests,
    without_searches,
    without_the_drop,
)

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())

#: The draw pinned in ``TestPinnedEventStream`` (tests/observability).
PINNED_SEED = 0

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _dynamic(seed, heuristic, intensity, carried=False):
    """Both sides' traced runs, each pass with a tree cache of its own
    unless ``carried``."""
    scenario = _GENERATOR.generate(seed)
    events, plan = dynamic_fault_events(scenario, seed, intensity)

    def run():
        advance = nullcontext() if carried else use_reference_advance()
        with use_faults(plan), advance:
            return DynamicDriver(heuristic, "C4", 2.0).run(scenario, events)

    return traced_both(run)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(("partial", "full_one", "full_all")),
    intensity=st.sampled_from((0.0, 0.5, 1.0)),
)
@_SETTINGS
def test_dynamic_runs_skip_only_searches(seed, heuristic, intensity):
    (_, oracle_schedule, oracle), (_, schedule, stream) = _dynamic(
        seed, heuristic, intensity
    )
    assert schedule == oracle_schedule
    assert_skips_only_searches(stream, oracle)
    (_, oracle_schedule, oracle), (_, schedule, stream) = _dynamic(
        seed, heuristic, intensity, carried=True
    )
    assert schedule == oracle_schedule
    assert without_searches(stream) == without_searches(oracle)


def test_the_skip_fires_on_the_pinned_draw():
    """The pinned faulted run hides requests, so the change must search
    less — else the property above would pass vacuously."""
    (oracle_result, oracle_schedule, oracle), (result, schedule, stream) = (
        _dynamic(PINNED_SEED, "partial", 0.5)
    )
    assert schedule == oracle_schedule
    assert_skips_only_searches(stream, oracle)
    assert result.stats.dijkstra_runs < oracle_result.stats.dijkstra_runs
    assert len(stream) < len(oracle)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(("partial", "full_one", "full_all")),
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


@given(seed=st.integers(min_value=0, max_value=10_000))
@_SETTINGS
def test_random_dijkstra_skips_only_searches(seed):
    """An unfiltered run (which still drops items with no candidate) and
    a filtered drain (one tree cache) skip only searches."""
    scenario = _GENERATOR.generate(seed)
    (_, oracle_schedule, oracle), (_, schedule, stream) = traced_both(
        lambda: RandomDijkstraBaseline(seed).run(scenario)
    )
    assert schedule == oracle_schedule
    assert_skips_only_searches(stream, oracle)

    def filtered():
        state = NetworkState(scenario)
        stats = EngineStats()
        RandomDijkstraBaseline(seed).drain(
            state,
            TreeCache(state, stats),
            stats,
            request_filter=lambda request: request.request_id % 2 == 0,
        )
        return state

    (_, oracle_schedule, oracle), (_, schedule, stream) = traced_both(filtered)
    assert schedule == oracle_schedule
    assert_skips_only_searches(stream, oracle)


def test_unfiltered_random_dijkstra_searches_less_on_the_pinned_seed():
    """Unfiltered drains hide nothing, yet the pinned run requests fewer
    trees than the oracle: it requests only its dirty set.  What its
    within-drain drop saves there is nothing: an item with no candidate
    in an unfiltered drain has a tree with an empty footprint, which the
    journal replay never touches, so with the drop switched off the run
    requests exactly as many trees (a touched set reporting such items
    would break this)."""
    scenario = _GENERATOR.generate(PINNED_SEED)
    (oracle_result, oracle_schedule, _), (result, schedule, _) = traced_both(
        lambda: RandomDijkstraBaseline(PINNED_SEED).run(scenario)
    )
    assert schedule == oracle_schedule
    assert tree_requests(result.stats) < tree_requests(oracle_result.stats)
    assert result.stats.dijkstra_runs <= oracle_result.stats.dijkstra_runs
    with without_the_drop():
        rescored, rescored_schedule, _ = traced(
            lambda: RandomDijkstraBaseline(PINNED_SEED).run(scenario),
            reference=False,
        )
    assert rescored_schedule == schedule
    assert tree_requests(rescored.stats) == tree_requests(result.stats)


def test_the_oracle_patches_every_chooser():
    """A new ``_best_choice`` override must join ``CHOOSERS``, or the
    oracle would leave it walking the drain's item list."""
    pending, overriding = [StagingHeuristic], set()
    while pending:
        owner = pending.pop()
        pending.extend(owner.__subclasses__())
        if "_best_choice" in vars(owner):
            overriding.add(owner)
    assert overriding == set(CHOOSERS)
