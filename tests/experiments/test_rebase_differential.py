"""Differential property: rebasing the booked item's tree changes no decision.

After each booking a drain rebases the booked item's cached tree onto its
new copies (:meth:`~repro.heuristics.base.TreeCache.rebase`) instead of
leaving the next request to search the item again.  :func:`no_rebase` is
the oracle: every rebase declines, so that request searches.  Against
it every schedule must be byte-identical in canonical JSON, the event
streams must be equal once search events and ``tree_rebased`` are
dropped, and no run may compute more trees.
"""

import json
from contextlib import nullcontext
from typing import Any, Callable
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.dynamic.driver import DynamicDriver
from repro.faults.context import use_faults
from repro.faults.plan import FaultPlan
from repro.heuristics.base import TreeCache
from repro.heuristics.registry import make_heuristic, paper_pairings
from repro.observability.tracer import RecordingTracer, use_tracer
from repro.serialization import document_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import dynamic_fault_events, neutral_fields
from tests.heuristics.reference_selection import SEARCH_EVENTS

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: What a declined rebase adds or removes: its event, and searches.
_REBASE_EVENTS = SEARCH_EVENTS | {"tree_rebased"}


def no_rebase():
    """Make every rebase decline, so the next request searches."""
    return mock.patch.object(
        TreeCache, "rebase", lambda self, item_id: False
    )


def _traced(run: Callable[[], Any], oracle: bool):
    tracer = RecordingTracer()
    switch = no_rebase() if oracle else nullcontext()
    with use_tracer(tracer), switch:
        result = run()
    schedule = json.dumps(document_to_dict(result.schedule), sort_keys=True)
    stream = [
        (event.name, neutral_fields(event))
        for event in tracer.events
        if event.name not in _REBASE_EVENTS
    ]
    rebases = len(tracer.named("tree_rebased"))
    return result, schedule, stream, rebases


def _assert_same_decisions(run: Callable[[], Any]):
    """Run under the oracle and with rebases; return both runs' results
    and the number of rebases."""
    oracle_result, oracle_schedule, oracle, none = _traced(run, oracle=True)
    result, schedule, stream, rebases = _traced(run, oracle=False)
    assert none == 0
    assert schedule == oracle_schedule
    assert stream == oracle
    assert result.stats.dijkstra_runs <= oracle_result.stats.dijkstra_runs
    return oracle_result, result, rebases


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pairing=st.sampled_from(paper_pairings()),
    weights=st.sampled_from((-2.0, 0.0, 2.0)),
    intensity=st.sampled_from((0.0, 0.5)),
)
@_SETTINGS
def test_static_runs_decide_the_same(seed, pairing, weights, intensity):
    scenario = _GENERATOR.generate(seed)
    plan = (
        FaultPlan.generate(scenario, intensity, seed=seed, churn=False)
        if intensity > 0.0
        else None
    )
    scheduler = make_heuristic(*pairing, weights)

    def run():
        with use_faults(plan):
            return scheduler.run(scenario)

    _assert_same_decisions(run)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(("partial", "full_one", "full_all")),
    loss_fraction=st.sampled_from((0.3, 0.6)),
)
@_SETTINGS
def test_dynamic_runs_with_churn_and_losses_decide_the_same(
    seed, fault_seed, heuristic, loss_fraction
):
    scenario = _GENERATOR.generate(seed)
    events, plan = dynamic_fault_events(
        scenario, fault_seed, 0.5, loss_fraction
    )

    def run():
        with use_faults(plan):
            return DynamicDriver(heuristic, "C4", 2.0).run(scenario, events)

    _assert_same_decisions(run)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(("partial", "full_one", "full_all")),
)
@_SETTINGS
def test_priority_tiers_and_the_random_baseline_decide_the_same(
    seed, heuristic
):
    scenario = _GENERATOR.generate(seed)
    scheduler = PriorityTierScheduler(heuristic, "C4", 0.0)
    _assert_same_decisions(lambda: scheduler.run(scenario))
    _assert_same_decisions(lambda: RandomDijkstraBaseline(seed).run(scenario))


def test_the_rebase_saves_searches_on_the_pinned_draws():
    """The two runs pinned in ``TestPinnedEventStream`` decide the same,
    and rebase after every decision there, so they compute fewer trees —
    else the properties above would pass vacuously."""
    scenario = ScenarioGenerator(GeneratorConfig.reduced()).generate(0)
    scheduler = make_heuristic("full_one", "C4", 2.0)
    oracle, result, rebases = _assert_same_decisions(
        lambda: scheduler.run(scenario)
    )
    assert rebases == result.stats.iterations > 0
    assert result.stats.dijkstra_runs < oracle.stats.dijkstra_runs

    scenario = _GENERATOR.generate(0)
    events, plan = dynamic_fault_events(scenario, 0, 0.5)

    def dynamic():
        with use_faults(plan):
            return DynamicDriver("partial", "C4", 2.0).run(scenario, events)

    oracle, result, rebases = _assert_same_decisions(dynamic)
    assert rebases == result.stats.iterations > 0
    assert result.stats.dijkstra_runs < oracle.stats.dijkstra_runs
