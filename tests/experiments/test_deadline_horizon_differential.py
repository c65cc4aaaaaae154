"""Differential property: deadline-bounded searches change no decision.

The tree cache hands each search its targets with their deadlines
(:func:`~repro.heuristics.base.deadline_targets`).  The search stops once
no pending target can still meet its deadline, reports a target that
misses it as unreachable, and the entry's footprint covers only the paths
to targets that meet theirs.  A missed destination has ``Sat = 0``: it
adds nothing to any criterion, to ``full_all``'s booked paths, to the
random baseline's draw or to the exhaustive bound.  Bookings, cutoffs
and a later "now" only delay arrivals, so a miss stays a miss while the
entry's counters hold.  No decision may change.

:func:`use_unbounded_targets` is the oracle: every tree cache passes
``+inf`` deadlines, which is the search before the bound (stop once every
target is finalized; footprint over every reachable target's path).
Against it every schedule must be byte-identical in canonical JSON, the
event streams must be equal once search events are dropped, and no run
may compute more trees.
"""

import json
import math
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.dynamic.driver import DynamicDriver
from repro.faults.context import use_faults
from repro.faults.plan import FaultPlan
from repro.heuristics import base
from repro.heuristics.registry import make_heuristic, paper_pairings
from repro.heuristics.rollout import RolloutScheduler
from repro.observability.tracer import RecordingTracer, use_tracer
from repro.serialization import schedule_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import dynamic_fault_events, neutral_fields
from tests.heuristics.reference_selection import without_searches

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_search = base.compute_shortest_path_tree


@contextmanager
def use_unbounded_targets() -> Iterator[None]:
    """Make every tree cache search with ``+inf`` deadlines.

    The cache looks ``compute_shortest_path_tree`` up in its module
    namespace at call time, so patching that name reroutes every cache
    (the heuristics, the baselines, rollout's beam, the dynamic driver).
    """

    def unbounded(state, item_id, targets=None, not_before=0.0):
        if targets is not None:
            targets = dict.fromkeys(targets, math.inf)
        return _search(state, item_id, targets, not_before=not_before)

    with mock.patch.object(base, "compute_shortest_path_tree", unbounded):
        yield


def _traced(run: Callable[[], Any], oracle: bool):
    tracer = RecordingTracer()
    switch = use_unbounded_targets() if oracle else nullcontext()
    with use_tracer(tracer), switch:
        result = run()
    schedule = json.dumps(schedule_to_dict(result.schedule), sort_keys=True)
    stream = [(event.name, neutral_fields(event)) for event in tracer.events]
    return result, schedule, stream


def _assert_same_decisions(run: Callable[[], Any]):
    """Run under the oracle and under the bound; return both traces."""
    oracle_result, oracle_schedule, oracle = _traced(run, oracle=True)
    result, schedule, stream = _traced(run, oracle=False)
    assert schedule == oracle_schedule
    assert without_searches(stream) == without_searches(oracle)
    assert result.stats.dijkstra_runs <= oracle_result.stats.dijkstra_runs
    return (oracle_result, oracle), (result, stream)


def _fault_plan(scenario, intensity, seed):
    if intensity <= 0.0:
        return None
    return FaultPlan.generate(scenario, intensity, seed=seed, churn=False)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pairing=st.sampled_from(paper_pairings()),
    weights=st.sampled_from((-2.0, 0.0, 2.0)),
    intensity=st.sampled_from((0.0, 0.5)),
)
@_SETTINGS
def test_static_runs_decide_the_same(seed, pairing, weights, intensity):
    scenario = _GENERATOR.generate(seed)
    plan = _fault_plan(scenario, intensity, seed)
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
def test_priority_tiers_decide_the_same(seed, heuristic):
    scenario = _GENERATOR.generate(seed)
    scheduler = PriorityTierScheduler(heuristic, "C4", 0.0)
    _assert_same_decisions(lambda: scheduler.run(scenario))


@given(seed=st.integers(min_value=0, max_value=10_000))
@_SETTINGS
def test_random_dijkstra_draws_the_same(seed):
    scenario = _GENERATOR.generate(seed)
    _assert_same_decisions(lambda: RandomDijkstraBaseline(seed).run(scenario))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(("partial", "full_one")),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_rollout_decides_the_same(seed, heuristic):
    scenario = _GENERATOR.generate(seed)
    scheduler = RolloutScheduler(heuristic, "C4", 2.0, beam_width=2)
    _assert_same_decisions(lambda: scheduler.run(scenario))


def _attempts(stream):
    return sum(1 for name, _ in stream if name == "transfer_attempt")


def test_the_bound_saves_work_on_the_pinned_draws():
    """The two runs pinned in ``TestPinnedEventStream`` decide the same,
    and the bound must actually cut searches short and keep trees there,
    else the properties above would pass vacuously."""
    scenario = ScenarioGenerator(GeneratorConfig.reduced()).generate(0)
    scheduler = make_heuristic("full_one", "C4", 2.0)
    (oracle_result, oracle), (result, stream) = _assert_same_decisions(
        lambda: scheduler.run(scenario)
    )
    assert _attempts(stream) < _attempts(oracle)
    assert result.stats.dijkstra_runs < oracle_result.stats.dijkstra_runs

    scenario = _GENERATOR.generate(0)
    events, plan = dynamic_fault_events(scenario, 0, 0.5)

    def dynamic():
        with use_faults(plan):
            return DynamicDriver("partial", "C4", 2.0).run(scenario, events)

    (_, oracle), (_, stream) = _assert_same_decisions(dynamic)
    assert _attempts(stream) < _attempts(oracle)
