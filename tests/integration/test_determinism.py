"""Determinism audit: everything is a pure function of (scenario, seed).

Reproducible experiments require bit-identical reruns.  These tests run
every scheduler twice on the same inputs (including across serialization)
and require identical schedules — not just identical scores.
"""

import pytest

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.baselines.single_dijkstra_random import SingleDijkstraRandomBaseline
from repro.core.scenario import Scenario
from repro.dynamic.driver import DynamicDriver, reveal_at_item_start
from repro.exhaustive.search import ExhaustiveSearch, SearchLimits
from repro.heuristics.registry import make_heuristic
from repro.heuristics.rollout import RolloutScheduler
from repro.serialization import (
    document_from_dict,
    document_to_dict,
)


def _steps(schedule):
    return [
        (s.item_id, s.source, s.destination, s.link_id, s.start, s.end)
        for s in schedule.steps
    ]


class TestSchedulerDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_heuristic("partial", "C1", 1.0),
            lambda: make_heuristic("full_one", "C4", 2.0),
            lambda: make_heuristic("full_all", "C2", 0.0),
            lambda: RandomDijkstraBaseline(seed=5),
            lambda: SingleDijkstraRandomBaseline(seed=5),
            lambda: PriorityTierScheduler(weights=1.0),
            lambda: RolloutScheduler("full_one", "C4", 2.0, beam_width=2),
        ],
        ids=[
            "partial-C1",
            "full_one-C4",
            "full_all-C2",
            "random_dijkstra",
            "single_dij_random",
            "priority_tier",
            "rollout",
        ],
    )
    def test_identical_reruns(self, factory, tiny_scenarios):
        scenario = tiny_scenarios[0]
        first = factory().run(scenario)
        second = factory().run(scenario)
        assert _steps(first.schedule) == _steps(second.schedule)
        assert (
            first.schedule.satisfied_request_ids()
            == second.schedule.satisfied_request_ids()
        )

    def test_identical_across_serialization(self, tiny_scenarios):
        scenario = tiny_scenarios[1]
        restored = document_from_dict(Scenario, document_to_dict(scenario))
        a = make_heuristic("full_all", "C4", 2.0).run(scenario)
        b = make_heuristic("full_all", "C4", 2.0).run(restored)
        assert _steps(a.schedule) == _steps(b.schedule)


class TestDynamicDeterminism:
    def test_identical_dynamic_reruns(self, tiny_scenarios):
        scenario = tiny_scenarios[2]
        events = reveal_at_item_start(scenario)
        a = DynamicDriver("partial", "C4", 2.0).run(scenario, events)
        b = DynamicDriver("partial", "C4", 2.0).run(scenario, events)
        assert _steps(a.schedule) == _steps(b.schedule)
        assert a.effect.weighted_sum == b.effect.weighted_sum
        assert [o.hops_booked for o in a.outcomes] == [
            o.hops_booked for o in b.outcomes
        ]


class TestExhaustiveDeterminism:
    def test_identical_search_reruns(self, tiny_scenarios):
        scenario = tiny_scenarios[3]
        limits = SearchLimits(max_expansions=5_000, time_limit_seconds=30.0)
        a = ExhaustiveSearch(limits).solve(scenario)
        b = ExhaustiveSearch(limits).solve(scenario)
        assert a.weighted_sum == b.weighted_sum
        assert _steps(a.schedule) == _steps(b.schedule)
        # Note: `complete` runs explore identical node counts.
        if a.complete and b.complete:
            assert a.expansions == b.expansions
