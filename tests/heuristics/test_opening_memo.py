"""The prefix memo: runs share searches and candidate groups while their
bookings agree.

A state changed by bookings alone is a pure function of its scenario and
its booking sequence, so :class:`~repro.heuristics.base.TreeCache` shares
the trees searched from it, and the candidate groups of drains without
filters, through a per-process memo: per scenario object an opening node
and a chain of nodes along the bookings of the last run.  These tests pin
that the memo changes nothing a run reports, that a cache follows it only
while nothing but bookings changed its state (never a traced state, a
clone, a faulted state or a disabled cache), that it holds no more than
the openings and the last run's path, and that an entry lives no longer
than its scenario.
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
from repro.experiments.scale import CI_LOG_RATIOS, scale_by_name
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
    """An empty prefix memo for the duration of one test."""
    fresh = {}
    with mock.patch.object(base, "_PREFIX_MEMO", fresh):
        yield fresh


class _Work:
    """Counts the searches and candidate-group enumerations the tree
    caches actually run."""

    def __init__(self):
        self.searches = 0
        self.enumerations = 0
        self._search = base.compute_shortest_path_tree
        self._enumerate = base.enumerate_groups

    def search(self, *args, **kwargs):
        self.searches += 1
        return self._search(*args, **kwargs)

    def enumerate(self, *args, **kwargs):
        self.enumerations += 1
        return self._enumerate(*args, **kwargs)

    @property
    def counts(self):
        return self.searches, self.enumerations


def _counting():
    work = _Work()
    patches = mock.patch.multiple(
        base,
        compute_shortest_path_tree=work.search,
        enumerate_groups=work.enumerate,
    )
    return work, patches


def _counted(run, target):
    work, patches = _counting()
    with patches:
        return run(target), work.counts


def _chain(memo, scenario):
    """The scenario's opening node and every node after it, in order."""
    nodes = [memo[id(scenario)][1]]
    while nodes[-1].child is not None:
        nodes.append(nodes[-1].child)
    return nodes


def _steps(memo, scenario):
    return [node.step for node in _chain(memo, scenario)[:-1]]


def _booked(schedule):
    """A schedule's bookings as the memo keys them, in booking order."""
    return [
        (step.item_id, step.link_id, step.start, step.end)
        for step in schedule.steps
    ]


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


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_shared_opening_trees_change_no_run(seed):
    """Each scheduler gives byte-identical schedules and records,
    ``dijkstra_runs`` included, on a cold memo, on the memo the scheduler
    before it left (a path that agrees only in part), on the memo of its
    own run, and on an equal but distinct scenario; no warm run searches
    or enumerates more than the cold one."""
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
    with mock.patch.object(base, "_PREFIX_MEMO", {}):
        for run in runs:
            with mock.patch.object(base, "_PREFIX_MEMO", {}):
                cold, cold_work = _counted(run, scenario)
                twin_outcome, twin_work = _counted(run, twin)
            after_other, other_work = _counted(run, scenario)
            warm, warm_work = _counted(run, scenario)
            assert after_other == cold
            assert warm == cold
            assert twin_outcome == cold
            assert twin_work == cold_work
            for counts in (other_work, warm_work):
                assert all(n <= c for n, c in zip(counts, cold_work))


def test_a_warm_memo_serves_every_opening_search(memo):
    """A second run of the same scheduler searches and enumerates
    nothing; a run at other weights shares the prefix it agrees on."""
    scenario = _GENERATOR.generate(7)
    heuristic = make_heuristic("partial", "C4", 0.0)
    cold, cold_work = _counted(heuristic.run, scenario)
    warm, warm_work = _counted(heuristic.run, scenario)
    assert cold_work[0] > 0 and cold_work[1] > 0
    assert warm_work == (0, 0)
    warm_stats, cold_stats = asdict(warm.stats), asdict(cold.stats)
    del warm_stats["elapsed_seconds"], cold_stats["elapsed_seconds"]
    assert warm_stats == cold_stats
    assert list(memo) == [id(scenario)]
    other = make_heuristic("partial", "C4", 5.0)
    with mock.patch.object(base, "_PREFIX_MEMO", {}):
        alone, alone_work = _counted(other.run, scenario)
    after, after_work = _counted(other.run, scenario)
    assert schedule_to_dict(after.schedule) == schedule_to_dict(
        alone.schedule
    )
    assert after.stats.dijkstra_runs == alone.stats.dijkstra_runs
    assert all(n <= c for n, c in zip(after_work, alone_work))


def test_filtered_drains_share_trees_but_not_groups(memo):
    """Priority tiers drain with filters, so a warm run searches nothing
    but enumerates every group again."""
    scenario = _GENERATOR.generate(7)
    tiers = PriorityTierScheduler("full_one", "C4", 0.0)
    cold, cold_work = _counted(tiers.run, scenario)
    warm, warm_work = _counted(tiers.run, scenario)
    assert _booked(warm.schedule) == _booked(cold.schedule)
    assert warm_work == (0, cold_work[1])


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


def _deliver_item_one(state):
    """Book item 1 over machine 2 to its destination, satisfying request 1."""
    _book_item_one(state)
    link = state.scenario.network.link(2)
    state.book_transfer(state.earliest_transfer(1, link, 1.0))
    assert state.is_satisfied(1)


def _cut_link(state):
    state.disable_link_from(2, 50.0)


def _degrade(state):
    state.degrade_physical_link(2, 0.5)


def _lose_copy(state):
    state.remove_copy(1, 1, 10.0)


def _reopen(state):
    state.reopen_request(1)


#: State changes after which the state is no longer at its opening; each
#: leaves item 0's own copies and requests untouched.
MUTATIONS = {
    "booking": _book_item_one,
    "cutoff": _cut_link,
    "degradation": _degrade,
    "remove_copy": _lose_copy,
}

#: Changes other than a booking, each of which makes a cache leave the
#: memo.  A source copy's loss and a reopened request journal nothing.
EXITS = {
    "cutoff": _cut_link,
    "degradation": _degrade,
    "remove_copy": _lose_copy,
    "reopen_request": _reopen,
}


def _entry_for_item_zero(state, enabled=True):
    work, patches = _counting()
    with patches:
        entry = TreeCache(state, EngineStats(), enabled=enabled).entry_for(0)
    return entry, work.searches


def _warm(scenario):
    """Fill the memo with item 0's opening tree."""
    entry, searches = _entry_for_item_zero(NetworkState(scenario))
    assert searches == 1
    return entry


def _opening(memo, scenario):
    slot = memo.get(id(scenario))
    return {} if slot is None else slot[1].trees


def _searches_for_item_zero(cache):
    work, patches = _counting()
    with patches:
        cache.entry_for(0)
    return work.searches


def _contents(memo, scenario):
    return [
        (node.step, dict(node.trees), dict(node.groups))
        for node in _chain(memo, scenario)
    ]


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
        work, patches = _counting()
        with patches:
            TreeCache(
                NetworkState(scenario), EngineStats(), not_before=50.0
            ).entry_for(0)
        assert work.searches == 1
        assert sorted(_opening(memo, scenario)) == [(0, 0.0), (0, 50.0)]

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_a_moved_state_neither_reads_nor_writes(self, memo, mutation):
        """A cache built after the state left its opening does not follow
        the memo, even when only bookings moved it."""
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

    def test_bookings_move_the_cache_along_the_chain(self, memo):
        """Item 0's search after item 1's delivery is stored two bookings
        past the opening, and served to the next cache that books the
        same two steps."""
        scenario = _guard_scenario()
        for expected in (1, 0):
            state = NetworkState(scenario)
            cache = TreeCache(state, EngineStats())
            _deliver_item_one(state)
            assert state.only_booked
            assert _searches_for_item_zero(cache) == expected
        chain = _chain(memo, scenario)
        assert _steps(memo, scenario) == _booked(state.schedule)
        assert [sorted(node.trees) for node in chain] == [[], [], [(0, 0.0)]]

    @pytest.mark.parametrize("replayed", [True, False])
    @pytest.mark.parametrize("change", sorted(EXITS))
    def test_any_other_change_leaves_the_memo(self, memo, change, replayed):
        """After a cutoff, a degradation, a copy loss or a reopened
        request, whether or not the cache replayed the bookings before
        it, the cache searches and writes nothing to the memo, also on
        later requests."""
        scenario = _guard_scenario()
        warm = NetworkState(scenario)
        cache = TreeCache(warm, EngineStats())
        _deliver_item_one(warm)
        assert _searches_for_item_zero(cache) == 1
        stored = _contents(memo, scenario)
        state = NetworkState(scenario)
        cache = TreeCache(state, EngineStats())
        _deliver_item_one(state)
        if replayed:
            assert cache.touched() == {}  # the replay reached the chain's end
        EXITS[change](state)
        assert not state.only_booked
        assert _searches_for_item_zero(cache) == 1
        cache.entry_for(1)
        later = cache.advanced(5.0)
        assert _searches_for_item_zero(later) == 1
        assert _contents(memo, scenario) == stored

    def test_advancing_hands_the_node_on(self, memo):
        scenario = _guard_scenario()
        for expected in (1, 0):
            state = NetworkState(scenario)
            cache = TreeCache(state, EngineStats())
            _deliver_item_one(state)
            later = cache.advanced(5.0)
            assert _searches_for_item_zero(later) == expected
            assert _searches_for_item_zero(cache.advanced(5.0)) == 1
        assert sorted(_chain(memo, scenario)[-1].trees) == [(0, 5.0)]


# -- the bound, lifetime and the kernel oracle --------------------------------


def test_the_memo_keeps_only_the_last_runs_path(memo):
    """A run that books differently replaces the chain from where it
    parts; a run of another scenario leaves every other scenario its
    opening trees alone."""
    scenario, other = _GENERATOR.generate(0), _GENERATOR.generate(1)
    first = make_heuristic("partial", "C4", 0.0).run(scenario).schedule
    assert _steps(memo, scenario) == _booked(first)
    kept = _chain(memo, scenario)
    second = make_heuristic("full_all", "C4", 0.0).run(scenario).schedule
    parted = next(
        index
        for index, (a, b) in enumerate(zip(_booked(first), _booked(second)))
        if a != b
    )
    assert 0 < parted < len(_booked(first)) - 1
    assert _steps(memo, scenario) == _booked(second)
    chain = _chain(memo, scenario)
    # The nodes up to where the runs part are kept; the rest are new.
    assert chain[: parted + 1] == kept[: parted + 1]
    assert not {id(node) for node in chain[parted + 1 :]} & {
        id(node) for node in kept
    }
    opening = dict(_opening(memo, scenario))
    third = make_heuristic("partial", "C4", 0.0).run(other).schedule
    (root,) = _chain(memo, scenario)
    assert root.step is None and not root.groups
    assert root.trees == opening
    assert _steps(memo, other) == _booked(third)
    assert sorted(memo) == sorted([id(scenario), id(other)])


def test_an_entry_goes_with_its_scenario(memo):
    scenario = _guard_scenario()
    make_heuristic("partial", "C4", 0.0).run(scenario)
    key = id(scenario)
    assert _opening(memo, scenario)
    del scenario
    gc.collect()
    assert key not in memo


def test_the_reference_kernel_runs_with_an_empty_memo(memo):
    """Inside ``use_reference_kernel()`` the whole memo is empty, so the
    oracle really searches every state; the warm memo, chain included, is
    back afterwards."""
    scenario = _guard_scenario()
    heuristic = make_heuristic("partial", "C4", 0.0)
    _, cold_work = _counted(heuristic.run, scenario)
    chain = _contents(memo, scenario)
    assert len(chain) > 1
    with use_reference_kernel():
        assert base._PREFIX_MEMO == {}
        _, work = _counted(heuristic.run, scenario)
        assert work == cold_work
    assert base._PREFIX_MEMO is memo
    assert _contents(memo, scenario) == chain


#: Searches and candidate-group enumerations of ``partial``/C1 over the 6
#: ci E-U ratios on ci case 0, run in ratio order, with the memo shared
#: and with an empty memo for each run.  Deterministic: the same code
#: does the same work on any host.
RATIO_WORK = {"shared": (140, 390), "empty": (325, 686)}


def test_the_ci_ratios_of_one_cell_share_their_work():
    scale = scale_by_name("ci")
    (scenario,) = ScenarioGenerator(scale.config).generate_suite(
        1, scale.base_seed
    )
    assert CI_LOG_RATIOS == scale.log_ratios and len(CI_LOG_RATIOS) == 6
    measured = {}
    schedules = {}
    for mode in ("shared", "empty"):
        totals = [0, 0]
        schedules[mode] = []
        with mock.patch.object(base, "_PREFIX_MEMO", {}):
            for ratio in CI_LOG_RATIOS:
                run = make_heuristic("partial", "C1", ratio).run
                if mode == "empty":
                    base._PREFIX_MEMO.clear()
                result, counts = _counted(run, scenario)
                schedules[mode].append(schedule_to_dict(result.schedule))
                totals = [t + c for t, c in zip(totals, counts)]
        measured[mode] = tuple(totals)
    assert schedules["shared"] == schedules["empty"]
    assert measured == RATIO_WORK, measured
