"""Rebasing the booked item's tree onto its new copies.

After a booking, :meth:`~repro.heuristics.base.TreeCache.rebase` carries
the booked item's cached tree over the copies the booking placed, instead
of leaving the next request to search again.  The property below checks,
after every decision of a drain, that it rebased if and only if its item
keeps an open request, and that each rebased tree answers
``is_reachable``, ``arrival`` and ``path_to`` for every unsatisfied
destination exactly like a fresh
:func:`~repro.routing.dijkstra.compute_shortest_path_tree` on the
post-booking state.  The unit tests pin the cases a rebase must refuse,
so that the next request searches.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.state import NetworkState, TransferPlan
from repro.faults.context import use_faults
from repro.faults.plan import FaultPlan
from repro.heuristics.base import EngineStats, TreeCache, deadline_targets
from repro.heuristics.registry import make_heuristic
from repro.observability.tracer import (
    NULL_TRACER,
    TREE_CACHE_CLEAN,
    TREE_CACHE_DISABLED,
    TREE_CACHE_ITEM_CHANGED,
    RecordingTracer,
    use_tracer,
)
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import (
    line_network,
    make_item,
    make_link,
    make_network,
    make_scenario,
)

#: Tiny draws, and reduced ones with longer multi-hop paths.
_GENERATORS = {
    "tiny": ScenarioGenerator(GeneratorConfig.tiny()),
    "reduced": ScenarioGenerator(GeneratorConfig.reduced()),
}

_rebase = TreeCache.rebase


def _assert_like_a_search(state, cache, item_id):
    """The item's cached tree answers like a fresh search, for every
    unsatisfied destination, without a search of its own."""
    tree = cache.tree_for(item_id)
    targets = deadline_targets(state, item_id)
    fresh = compute_shortest_path_tree(
        state, item_id, targets, not_before=cache.not_before
    )
    for destination in targets:
        assert tree.is_reachable(destination) == fresh.is_reachable(
            destination
        )
        assert tree.arrival(destination) == fresh.arrival(destination)
        assert tree.path_to(destination) == fresh.path_to(destination)


def _drain_checked(scenario, heuristic, plan=None, tracer=None):
    """Drain ``scenario`` (traced into ``tracer``, if given): each decision
    must rebase exactly when its item keeps an open request, and each
    rebase is checked against a search.  Return the state, the cache, the
    stats, the steps each decision booked and whether each rebased."""
    with use_faults(plan), use_tracer(tracer or NULL_TRACER):
        state = NetworkState(scenario)
    stats = EngineStats()
    cache = TreeCache(state, stats)
    steps, rebases = [], []

    def checked(self, item_id):
        rebased = _rebase(self, item_id)
        assert rebased == (state.open_request_counts()[item_id] > 0)
        steps.append(state.schedule.step_count - sum(steps))
        rebases.append(rebased)
        if rebased:
            runs = stats.dijkstra_runs
            _assert_like_a_search(state, self, item_id)
            assert stats.dijkstra_runs == runs
        return rebased

    with mock.patch.object(TreeCache, "rebase", checked):
        make_heuristic(heuristic, "C4", 2.0).drain(state, cache, stats)
    assert len(steps) == stats.iterations
    return state, cache, stats, steps, rebases


@given(
    scale=st.sampled_from(sorted(_GENERATORS)),
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(("partial", "full_one", "full_all")),
    intensity=st.sampled_from((0.0, 0.5)),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_rebase_answers_like_a_search(
    scale, seed, heuristic, intensity
):
    scenario = _GENERATORS[scale].generate(seed)
    plan = (
        FaultPlan.generate(scenario, intensity, seed=seed, churn=False)
        if intensity > 0.0
        else None
    )
    _drain_checked(scenario, heuristic, plan)


# -- pinned cases ----------------------------------------------------------


def _late_relay_scenario():
    """A ring 0 -> 1 -> 2 -> 0 at 1 s per hop; item 0 at machine 0 is
    requested at 1 by t=0.5 (missed) and at 2 by t=100, through 1."""
    return make_scenario(
        line_network(3),
        [make_item(0, 1000.0, [(0, 0.0)])],
        [(0, 1, 2, 0.5), (0, 2, 2, 100.0)],
    )


@pytest.mark.parametrize("heuristic", ["partial", "full_one"])
def test_a_booked_destination_past_its_deadline_stays_unreachable(heuristic):
    state, _, _, steps, _ = _drain_checked(_late_relay_scenario(), heuristic)
    assert state.holds(0, 1)
    assert not state.is_satisfied(0) and state.is_satisfied(1)
    assert sum(steps) == 2


def _fan_out_scenario(stranded=False):
    """Machine 0 feeds 2 and 3 through 1 (links 0-2) and 4 directly
    (link 3); item 0 at 0 is wanted at 2 and 3 urgently, at 4 later, and
    with ``stranded`` also at 5, which no link reaches."""
    network = make_network(
        6 if stranded else 5,
        [
            make_link(0, 0, 1),
            make_link(1, 1, 2),
            make_link(2, 1, 3),
            make_link(3, 0, 4, bandwidth=100.0),
        ],
    )
    requests = [(0, 2, 2, 10.0), (0, 3, 2, 10.0), (0, 4, 0, 100.0)]
    if stranded:
        requests.append((0, 5, 0, 100.0))
    return make_scenario(network, [make_item(0, 1000.0, [(0, 0.0)])], requests)


def test_a_full_all_multi_path_booking_rebases():
    state, _, _, steps, rebases = _drain_checked(
        _fan_out_scenario(stranded=True), "full_all"
    )
    assert steps == [3, 1]  # 0 -> 1, 1 -> 2 and 1 -> 3 in one decision
    assert rebases == [True, True]  # the request at 5 stays open
    assert all(state.is_satisfied(request) for request in (0, 1, 2))
    assert not state.is_satisfied(3)


def test_a_finished_item_is_not_rebased_and_a_reopen_searches_it():
    tracer = RecordingTracer()
    state, cache, stats, steps, rebases = _drain_checked(
        _fan_out_scenario(), "full_all", tracer=tracer
    )
    assert steps == [3, 1]
    assert rebases == [True, False]  # the last decision satisfies all
    assert len(tracer.named("tree_rebased")) == 1
    arrival = state.copy_at(0, 4).available_from
    state.remove_copy(0, 4, arrival)
    state.reopen_request(2)
    runs = stats.dijkstra_runs
    cache.entry_for(0)
    assert _last_probe(tracer) == (False, TREE_CACHE_ITEM_CHANGED)
    assert stats.dijkstra_runs == runs + 1


# -- fallbacks -------------------------------------------------------------

#: Item 1's link in the fallback scenario (virtual and physical id: one
#: window per physical link).
DISJOINT = 2


def _fallback_scenario():
    """Item 0 routes 0 -> 1 -> 2 over links 0 and 1; item 1 routes
    3 -> 4 over link 2, apart from item 0."""
    network = make_network(
        5, [make_link(0, 0, 1), make_link(1, 1, 2), make_link(2, 3, 4)]
    )
    items = [
        make_item(0, 1000.0, [(0, 0.0)]),
        make_item(1, 1000.0, [(3, 0.0)]),
    ]
    return make_scenario(network, items, [(0, 2, 2, 100.0), (1, 4, 1, 100.0)])


def _chosen(enabled=True):
    """A state and cache right after item 0's tree served a choice, and
    that tree."""
    tracer = RecordingTracer()
    with use_tracer(tracer):
        state = NetworkState(_fallback_scenario())
    stats = EngineStats()
    cache = TreeCache(state, stats, enabled=enabled)
    return state, cache, stats, tracer, cache.tree_for(0)


def _book_first_hop(state, tree, delay=0.0):
    """Book the first hop of the tree item 0 was chosen on, ``delay``
    seconds late."""
    hop = tree.path_to(2).hops[0]
    state.book_transfer(
        TransferPlan(
            item_id=0,
            link=state.scenario.network.link(hop.link_id),
            start=hop.start + delay,
            end=hop.end + delay,
            release=state.release_time_at(0, hop.receiver),
        )
    )


def _book_other_item(state):
    link = state.scenario.network.link(DISJOINT)
    state.book_transfer(state.earliest_transfer(1, link, 0.0))


def _last_probe(tracer):
    event = tracer.named("tree_cache")[-1]
    return event["hit"], event["reason"]


def test_an_own_booking_rebases_and_the_next_request_is_clean():
    state, cache, stats, tracer, tree = _chosen()
    _book_first_hop(state, tree)
    assert cache.rebase(0)
    assert [
        (event["item_id"], event["seeds"])
        for event in tracer.named("tree_rebased")
    ] == [(0, 2)]
    _assert_like_a_search(state, cache, 0)
    assert _last_probe(tracer) == (True, TREE_CACHE_CLEAN)
    assert stats.dijkstra_runs == 1


@pytest.mark.parametrize(
    "foreign",
    [
        pytest.param(
            lambda state: state.disable_link_from(DISJOINT, 50.0),
            id="cutoff",
        ),
        pytest.param(_book_other_item, id="other-items-booking"),
    ],
)
@pytest.mark.parametrize("foreign_first", [False, True])
def test_a_foreign_journal_record_falls_back_to_a_search(
    foreign, foreign_first
):
    state, cache, stats, tracer, tree = _chosen()
    if foreign_first:
        foreign(state)
    _book_first_hop(state, tree)
    if not foreign_first:
        foreign(state)
    assert not cache.rebase(0)
    assert not tracer.named("tree_rebased")
    cache.entry_for(0)
    assert _last_probe(tracer) == (False, TREE_CACHE_ITEM_CHANGED)
    assert stats.dijkstra_runs == 2


def test_a_degradation_falls_back_to_a_search():
    state, cache, stats, tracer, tree = _chosen()
    _book_first_hop(state, tree)
    state.degrade_physical_link(DISJOINT, 0.5)
    assert not cache.rebase(0)
    cache.entry_for(0)
    assert stats.dijkstra_runs == 2


def test_an_off_plan_booking_falls_back_to_a_search():
    state, cache, stats, tracer, tree = _chosen()
    _book_first_hop(state, tree, delay=0.5)
    assert not cache.rebase(0)
    cache.entry_for(0)
    assert stats.dijkstra_runs == 2


def test_a_disabled_cache_never_rebases():
    state, cache, stats, tracer, tree = _chosen(enabled=False)
    _book_first_hop(state, tree)
    assert not cache.rebase(0)
    assert not tracer.named("tree_rebased")
    cache.entry_for(0)
    assert _last_probe(tracer) == (False, TREE_CACHE_DISABLED)
