"""The opening memo: trees found from a state at its opening are shared.

Every run of a scenario opens with the same searches, against the same
untouched state, so :class:`~repro.heuristics.base.TreeCache` shares them
through a per-process memo keyed on the scenario object.  These tests pin
that the memo changes nothing a run reports, that it is used only while
the state is at its opening (and never by a traced state or a disabled
cache), and that an entry lives no longer than its scenario.
"""

import gc
import json
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.core.state import NetworkState
from repro.dynamic.driver import DynamicDriver
from repro.experiments.runner import record_result
from repro.faults.plan import FaultPlan, OutageWindow
from repro.heuristics import base
from repro.heuristics.base import EngineStats, TreeCache, deadline_targets
from repro.heuristics.registry import make_heuristic, paper_pairings
from repro.observability.tracer import RecordingTracer
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.serialization import (
    document_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    schedule_to_dict,
)
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import (
    dynamic_fault_events,
    line_network,
    make_item,
    make_scenario,
)
from tests.routing.reference_kernel import use_reference_kernel

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())


@pytest.fixture
def memo():
    """An empty opening memo for the duration of one test."""
    fresh = {}
    with mock.patch.object(base, "_OPENING_MEMO", fresh):
        yield fresh


class _Searches:
    """Counts the searches the tree caches actually run."""

    def __init__(self):
        self.count = 0
        self._search = base.compute_shortest_path_tree

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self._search(*args, **kwargs)


def _counting():
    searches = _Searches()
    return searches, mock.patch.object(
        base, "compute_shortest_path_tree", searches
    )


# -- differential -----------------------------------------------------------


def _static_runners():
    for heuristic, criterion in paper_pairings():
        yield make_heuristic(heuristic, criterion, 1.0)
    yield PriorityTierScheduler("full_one", "C4", 0.0)
    yield RandomDijkstraBaseline(seed=3)


def _static_outcome(scheduler, scenario):
    result = scheduler.run(scenario)
    record = record_result(scenario, result, scheduler=scheduler.label())
    return (
        json.dumps(schedule_to_dict(result.schedule), sort_keys=True),
        json.dumps(document_to_dict(record.without_timing()), sort_keys=True),
    )


def _dynamic_outcome(scenario, events):
    result = DynamicDriver("partial", "C4", 2.0).run(scenario, events)
    stats = asdict(result.stats)
    del stats["elapsed_seconds"]
    return (
        json.dumps(schedule_to_dict(result.schedule), sort_keys=True),
        stats,
    )


def _three_runs(run, scenario, twin):
    """A cold run on ``scenario``, a warm one, and one on its equal twin;
    each with its count of searches actually run."""
    outcomes = []
    for target in (scenario, scenario, twin):
        searches, patch = _counting()
        with patch:
            outcomes.append((run(target), searches.count))
    return outcomes


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_shared_opening_trees_change_no_run(seed):
    """Cold memo, warm memo and an equal but distinct scenario give
    byte-identical schedules and records, ``dijkstra_runs`` included."""
    scenario = _GENERATOR.generate(seed)
    twin = scenario_from_dict(scenario_to_dict(scenario))
    assert scenario_to_dict(twin) == scenario_to_dict(scenario)
    events, _static_plan = dynamic_fault_events(scenario, seed, 0.5)
    runs = [
        lambda target, scheduler=scheduler: _static_outcome(scheduler, target)
        for scheduler in _static_runners()
    ]
    # Churn, copy losses and an outage as events; no static plan, so the
    # driver's first pass starts at the opening.
    runs.append(lambda target: _dynamic_outcome(target, events))
    for run in runs:
        with mock.patch.object(base, "_OPENING_MEMO", {}):
            (cold, cold_searches), (warm, warm_searches), (
                twin_outcome,
                twin_searches,
            ) = _three_runs(run, scenario, twin)
        assert warm == cold
        assert twin_outcome == cold
        assert warm_searches <= cold_searches
        assert twin_searches == cold_searches


def test_a_warm_memo_serves_every_opening_search(memo):
    """The second run of a scenario searches only past its opening; the
    memo holds one entry per scenario object."""
    scenario = _GENERATOR.generate(7)
    heuristic = make_heuristic("partial", "C4", 0.0)
    first, first_patch = _counting()
    with first_patch:
        cold = heuristic.run(scenario)
    second, second_patch = _counting()
    with second_patch:
        warm = heuristic.run(scenario)
    opening = memo[id(scenario)][1]
    assert opening
    warm_stats, cold_stats = asdict(warm.stats), asdict(cold.stats)
    del warm_stats["elapsed_seconds"], cold_stats["elapsed_seconds"]
    assert warm_stats == cold_stats
    assert second.count == first.count - len(opening)
    assert list(memo) == [id(scenario)]


# -- guards -----------------------------------------------------------------


def _guard_scenario():
    """Two items on a three-machine ring, each requested once."""
    items = [make_item(0, 1000.0, [(0, 0.0)]), make_item(1, 1000.0, [(1, 0.0)])]
    return make_scenario(
        line_network(3), items, [(0, 2, 2, 100.0), (1, 0, 1, 100.0)]
    )


def _book_item_one(state):
    link = state.scenario.network.link(1)
    plan = state.earliest_transfer(1, link, 0.0)
    state.book_transfer(plan)


def _cut_link(state):
    state.disable_link_from(2, 50.0)


def _degrade(state):
    state.degrade_physical_link(2, 0.5)


def _lose_copy(state):
    state.remove_copy(1, 1, 10.0)


#: State changes after which the state is no longer at its opening; each
#: leaves item 0's own copies and requests untouched.
MUTATIONS = {
    "booking": _book_item_one,
    "cutoff": _cut_link,
    "degradation": _degrade,
    "remove_copy": _lose_copy,
}


def _entry_for_item_zero(state, enabled=True):
    searches, patch = _counting()
    with patch:
        entry = TreeCache(state, EngineStats(), enabled=enabled).entry_for(0)
    return entry, searches.count


def _warm(scenario):
    """Fill the memo with item 0's opening tree."""
    entry, searches = _entry_for_item_zero(NetworkState(scenario))
    assert searches == 1
    return entry


def _opening(memo, scenario):
    slot = memo.get(id(scenario))
    return {} if slot is None else slot[1]


class TestGuards:
    """The memo is neither read nor written once the state has moved, for
    a clone, a faulted or a traced state, or a disabled cache."""

    def test_a_state_at_its_opening_is_served(self, memo):
        scenario = _guard_scenario()
        cold = _warm(scenario)
        entry, searches = _entry_for_item_zero(NetworkState(scenario))
        again, _ = _entry_for_item_zero(NetworkState(scenario))
        assert searches == 0
        # Each hit is a fresh entry sharing the one immutable tree.
        assert len({id(cold), id(entry), id(again)}) == 3
        assert entry.tree is cold.tree and again.tree is cold.tree
        state = NetworkState(scenario)
        targets = deadline_targets(state, 0)
        projection = compute_shortest_path_tree(state, 0, targets).projected(
            targets
        )
        assert entry.tree.reachable_machines() == (
            projection.reachable_machines()
        )
        for machine in projection.reachable_machines():
            assert entry.tree.arrival(machine) == projection.arrival(machine)
        assert entry.tree.planned_hops == projection.planned_hops

    def test_a_later_instant_is_its_own_entry(self, memo):
        scenario = _guard_scenario()
        _warm(scenario)
        searches, patch = _counting()
        with patch:
            TreeCache(
                NetworkState(scenario), EngineStats(), not_before=50.0
            ).entry_for(0)
        assert searches.count == 1
        assert sorted(_opening(memo, scenario)) == [(0, 0.0), (0, 50.0)]

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_a_moved_state_neither_reads_nor_writes(self, memo, mutation):
        scenario = _guard_scenario()
        state = NetworkState(scenario)
        MUTATIONS[mutation](state)
        assert not state.at_opening
        _, searches = _entry_for_item_zero(state)
        assert searches == 1
        assert _opening(memo, scenario) == {}
        _warm(scenario)
        stored = dict(_opening(memo, scenario))
        _, searches = _entry_for_item_zero(state)
        assert searches == 1
        assert _opening(memo, scenario) == stored

    @pytest.mark.parametrize(
        "make_state",
        [
            lambda scenario: NetworkState(scenario).clone(),
            lambda scenario: NetworkState(
                scenario,
                faults=FaultPlan(outages=(OutageWindow(2, 10.0, 20.0),)),
            ),
            lambda scenario: NetworkState(
                scenario, tracer=RecordingTracer()
            ),
        ],
        ids=["clone", "fault_plan", "tracer"],
    )
    def test_other_states_neither_read_nor_write(self, memo, make_state):
        scenario = _guard_scenario()
        _, searches = _entry_for_item_zero(make_state(scenario))
        assert searches == 1
        assert _opening(memo, scenario) == {}
        _warm(scenario)
        stored = dict(_opening(memo, scenario))
        _, searches = _entry_for_item_zero(make_state(scenario))
        assert searches == 1
        assert _opening(memo, scenario) == stored

    def test_a_disabled_cache_neither_reads_nor_writes(self, memo):
        scenario = _guard_scenario()
        state = NetworkState(scenario)
        assert state.at_opening
        _, searches = _entry_for_item_zero(state, enabled=False)
        assert searches == 1
        assert _opening(memo, scenario) == {}
        _warm(scenario)
        _, searches = _entry_for_item_zero(state, enabled=False)
        assert searches == 1

    def test_a_clone_of_an_opening_state_is_not_at_its_opening(self):
        state = NetworkState(_guard_scenario())
        assert state.at_opening
        assert not state.clone().at_opening


# -- lifetime and the kernel oracle -----------------------------------------


def test_an_entry_goes_with_its_scenario(memo):
    scenario = _guard_scenario()
    make_heuristic("partial", "C4", 0.0).run(scenario)
    key = id(scenario)
    assert _opening(memo, scenario)
    del scenario
    gc.collect()
    assert key not in memo


def test_the_reference_kernel_runs_with_an_empty_memo(memo):
    """Inside ``use_reference_kernel()`` the memo is empty, so the oracle
    really searches the opening; the warm memo is back afterwards."""
    scenario = _guard_scenario()
    _warm(scenario)
    with use_reference_kernel():
        assert base._OPENING_MEMO == {}
        _, searches = _entry_for_item_zero(NetworkState(scenario))
        assert searches == 1
    assert base._OPENING_MEMO is memo
    assert len(_opening(memo, scenario)) == 1
