"""Journal revalidation, clone-epoch guards, and transfer probes.

Unit coverage for the incremental :class:`~repro.heuristics.base.TreeCache`:
every hit/miss reason in ``TREE_CACHE_REASONS`` is driven by a concrete
mutation (the two a dynamic pass's carry reports, ``carried`` and
``plan_expired``, in ``tests/heuristics/test_carried_trees.py``), and the
clone-epoch guard rejects serving a ``clone()``'d state.
``earliest_transfer`` keeps no memo, so its probes are pinned directly:
repeated probes agree, a booking changes the next probe, and each probe
emits one attempt event plus at most one rejection.  The receiver index
is pinned to list exactly the live entries' receivers, and the release
index exactly their searches' fallback receivers.
"""

from unittest import mock

import pytest

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.core.evaluation import evaluate_schedule
from repro.core.state import NetworkState
from repro.cost.criteria import get_criterion
from repro.cost.weights import EUWeights
from repro.dynamic.driver import DynamicDriver
from repro.errors import ConfigurationError
from repro.exhaustive.search import ExhaustiveSearch, SearchLimits
from repro.heuristics.base import EngineStats, TreeCache
from repro.heuristics.partial_path import PartialPathHeuristic
from repro.heuristics.registry import make_heuristic
from repro.heuristics.rollout import RolloutScheduler
from repro.observability.tracer import (
    REASON_ALREADY_AT_DESTINATION,
    REASON_NO_LINK_SLOT,
    REASON_WINDOW_CLOSED,
    TREE_CACHE_CAPACITY_RELEASED,
    TREE_CACHE_CLEAN,
    TREE_CACHE_COLD,
    TREE_CACHE_CUTOFF_TIGHTENED,
    TREE_CACHE_DISABLED,
    TREE_CACHE_ITEM_CHANGED,
    TREE_CACHE_LINK_CONFLICT,
    TREE_CACHE_REASONS,
    TREE_CACHE_RESIDENCY_CONFLICT,
    TREE_CACHE_REVALIDATED,
    RecordingTracer,
    use_tracer,
)
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import (
    assert_index_exact,
    dynamic_fault_events,
    make_item,
    make_link,
    make_network,
    make_scenario,
)

#: Link ids of the revalidation scenario (virtual ids follow physical ids
#: because every link has a single always-open window).
HOP_A1, HOP_A2, PARALLEL, DISJOINT = 0, 1, 2, 3


def _reval_scenario(hub_capacity=1_000_000.0):
    """Three items with controlled footprint overlaps.

    * item 0 routes 0 -> 1 -> 2 over links 0 and 1 (its footprint);
    * item 1 sits at 0 with a request at 1; the slower parallel link 2
      (0 -> 1) lets tests book it without touching item 0's footprint
      links while still landing a residency on the shared hub machine 1;
    * item 2 routes 3 -> 4 over link 3, fully disjoint from item 0.
    """
    network = make_network(
        5,
        [
            make_link(0, 0, 1),
            make_link(1, 1, 2),
            make_link(2, 0, 1, bandwidth=500.0),
            make_link(3, 3, 4),
        ],
        capacities={1: hub_capacity},
    )
    items = [
        make_item(0, 1000.0, [(0, 0.0)]),
        make_item(1, 1000.0, [(0, 0.0)]),
        make_item(2, 1000.0, [(3, 0.0)]),
    ]
    specs = [(0, 2, 2, 100.0), (1, 1, 1, 100.0), (2, 4, 1, 100.0)]
    return make_scenario(network, items, specs)


def _state_and_cache(scenario, enabled=True):
    tracer = RecordingTracer()
    with use_tracer(tracer):
        state = NetworkState(scenario)
    stats = EngineStats()
    return state, TreeCache(state, stats, enabled=enabled), stats, tracer


def _book(state, item_id, link_id, sender_ready=0.0):
    link = state.scenario.network.link(link_id)
    plan = state.earliest_transfer(item_id, link, sender_ready)
    assert plan is not None
    state.book_transfer(plan)
    return plan


def _last_probe(tracer):
    event = tracer.named("tree_cache")[-1]
    return event["hit"], event["reason"]


class TestRevalidationReasons:
    def test_first_probe_is_cold(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        cache.entry_for(0)
        assert _last_probe(tracer) == (False, TREE_CACHE_COLD)
        assert stats.dijkstra_runs == 1

    def test_unmutated_reprobe_is_clean(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        first = cache.entry_for(0)
        second = cache.entry_for(0)
        assert _last_probe(tracer) == (True, TREE_CACHE_CLEAN)
        assert second.tree is first.tree
        assert stats.cache_hits == 1 and stats.revalidations == 0

    def test_disjoint_booking_keeps_the_tree(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        first = cache.entry_for(0)
        _book(state, 2, DISJOINT)
        second = cache.entry_for(0)
        assert _last_probe(tracer) == (True, TREE_CACHE_REVALIDATED)
        assert second.tree is first.tree
        assert stats.dijkstra_runs == 1
        assert stats.revalidations == 1

    def test_revalidation_advances_the_journal_position(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        cache.entry_for(0)
        _book(state, 2, DISJOINT)
        cache.entry_for(0)
        # The same journal entries are not rescanned on the next probe.
        cache.entry_for(0)
        assert _last_probe(tracer) == (True, TREE_CACHE_CLEAN)

    def test_booking_on_footprint_link_recomputes(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        cache.entry_for(0)
        # Item 1 over link 0 occupies [0, 1), item 0's own planned slot.
        _book(state, 1, HOP_A1)
        cache.entry_for(0)
        assert _last_probe(tracer) == (False, TREE_CACHE_LINK_CONFLICT)
        assert stats.dijkstra_runs == 2

    def test_cutoff_below_planned_completion_recomputes(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        cache.entry_for(0)
        # Item 0's second hop is planned over [1, 2); a fault cutting
        # link 1 at t=1.5 lands mid-transfer.
        state.disable_link_from(HOP_A2, 1.5)
        cache.entry_for(0)
        assert _last_probe(tracer) == (False, TREE_CACHE_CUTOFF_TIGHTENED)

    def test_cutoff_after_planned_completion_keeps_the_tree(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        cache.entry_for(0)
        state.disable_link_from(HOP_A2, 50.0)
        cache.entry_for(0)
        assert _last_probe(tracer) == (True, TREE_CACHE_REVALIDATED)

    def test_residency_overlap_with_ample_storage_keeps_the_tree(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        cache.entry_for(0)
        # Item 1 reaches the hub over the parallel link: no footprint
        # link is touched but its residency overlaps item 0's planned
        # stay on machine 1 — the storage recheck still passes.
        _book(state, 1, PARALLEL)
        cache.entry_for(0)
        assert _last_probe(tracer) == (True, TREE_CACHE_REVALIDATED)

    def test_residency_conflict_recomputes(self):
        state, cache, stats, tracer = _state_and_cache(
            _reval_scenario(hub_capacity=1500.0)
        )
        cache.entry_for(0)
        # Same overlap, but the hub can hold only one of the two copies.
        _book(state, 1, PARALLEL)
        cache.entry_for(0)
        assert _last_probe(tracer) == (
            False,
            TREE_CACHE_RESIDENCY_CONFLICT,
        )

    def test_own_booking_is_item_changed(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        cache.entry_for(0)
        _book(state, 0, HOP_A1)
        cache.entry_for(0)
        assert _last_probe(tracer) == (False, TREE_CACHE_ITEM_CHANGED)

    def test_capacity_release_at_a_planned_receiver_is_a_miss(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        _book(state, 1, PARALLEL)
        cache.entry_for(0)
        assert 1 in cache.tree_for(0).planned_hops
        # Item 1's copy on the hub frees its storage: the hub receives
        # item 0's planned hop, so the tree is released.
        state.remove_copy(1, 1, state.copy_at(1, 1).available_from)
        cache.entry_for(0)
        assert _last_probe(tracer) == (
            False,
            TREE_CACHE_CAPACITY_RELEASED,
        )

    def test_capacity_release_where_storage_decided_is_a_miss(self):
        state, cache, stats, tracer = _state_and_cache(
            _reval_scenario(hub_capacity=1500.0)
        )
        _book(state, 1, PARALLEL)
        # The hub holds item 1 until the horizon, so item 0 finds no
        # storage there: the kernel hands both relaxations into the hub
        # to earliest_transfer, and the tree plans no hop at all.
        tree = cache.tree_for(0)
        assert dict(tree.planned_hops) == {}
        assert tree.fallback_receivers == {1}
        state.remove_copy(1, 1, state.copy_at(1, 1).available_from)
        cache.entry_for(0)
        assert _last_probe(tracer) == (
            False,
            TREE_CACHE_CAPACITY_RELEASED,
        )

    def test_capacity_release_elsewhere_keeps_the_tree(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        _book(state, 2, DISJOINT)
        cache.entry_for(0)
        # Freed storage on machine 4, which item 0's search never
        # probed, cannot move its labels.
        state.remove_copy(2, 4, state.copy_at(2, 4).available_from)
        cache.entry_for(0)
        assert _last_probe(tracer) == (True, TREE_CACHE_REVALIDATED)
        # A source copy holds no reservation: its loss journals nothing.
        length = state.journal_length()
        state.remove_copy(2, 3, 10.0)
        assert state.journal_length() == length
        cache.entry_for(0)
        assert _last_probe(tracer) == (True, TREE_CACHE_CLEAN)

    def test_disabled_cache_recomputes_every_probe(self):
        state, cache, stats, tracer = _state_and_cache(
            _reval_scenario(), enabled=False
        )
        cache.entry_for(0)
        cache.entry_for(0)
        reasons = [e["reason"] for e in tracer.named("tree_cache")]
        assert reasons == [TREE_CACHE_DISABLED, TREE_CACHE_DISABLED]
        assert stats.dijkstra_runs == 2 and stats.cache_hits == 0

    def test_emitted_reasons_are_registered(self):
        state, cache, stats, tracer = _state_and_cache(_reval_scenario())
        cache.entry_for(0)
        _book(state, 2, DISJOINT)
        cache.entry_for(0)
        _book(state, 0, HOP_A1)
        cache.entry_for(0)
        for event in tracer.named("tree_cache"):
            assert event["reason"] in TREE_CACHE_REASONS


class TestCloneEpochGuard:
    def test_clone_gets_a_fresh_epoch(self):
        state = NetworkState(_reval_scenario())
        assert state.clone().epoch != state.epoch

    def test_ensure_bound_accepts_its_own_state(self):
        state = NetworkState(_reval_scenario())
        cache = TreeCache(state, EngineStats())
        cache.ensure_bound(state)  # must not raise

    def test_ensure_bound_rejects_a_clone(self):
        state = NetworkState(_reval_scenario())
        cache = TreeCache(state, EngineStats())
        with pytest.raises(ConfigurationError, match="epoch"):
            cache.ensure_bound(state.clone())

    def test_drain_on_a_cloned_state_raises(self):
        scenario = _reval_scenario()
        heuristic = PartialPathHeuristic(
            criterion=get_criterion("C4"),
            weights=EUWeights.from_log_ratio(0.0),
        )
        state = NetworkState(scenario)
        stats = EngineStats()
        cache = TreeCache(state, stats)
        with pytest.raises(ConfigurationError, match="clone"):
            heuristic.drain(state.clone(), cache, stats)

    def test_rollout_clone_paths_build_fresh_caches(self):
        # The rollout scheduler clones per simulated candidate; each
        # clone must get its own cache (the guard would throw otherwise).
        scenario = _reval_scenario()
        result = RolloutScheduler("partial", "C4", 0.0, beam_width=2).run(
            scenario
        )
        effect = evaluate_schedule(scenario, result.schedule)
        assert effect.satisfied_count == 3

    def test_exhaustive_clone_paths_build_fresh_caches(self):
        scenario = _reval_scenario()
        result = ExhaustiveSearch(
            SearchLimits(max_expansions=2000, time_limit_seconds=10.0)
        ).solve(scenario)
        assert result.schedule.satisfied_request_ids()


class TestTransferProbes:
    def test_repeated_probes_agree(self):
        state = NetworkState(_reval_scenario())
        link = state.scenario.network.link(HOP_A1)
        first = state.earliest_transfer(0, link, 0.0)
        second = state.earliest_transfer(0, link, 0.0)
        assert first is not None and second == first

    def test_repeated_rejections_agree(self):
        scenario = _reval_scenario()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            state = NetworkState(scenario)
        link = state.scenario.network.link(HOP_A1)
        beyond = scenario.horizon * 2.0
        assert state.earliest_transfer(0, link, beyond) is None
        assert state.earliest_transfer(0, link, beyond) is None
        rejected = tracer.named("transfer_rejected")
        assert len(rejected) == 2
        assert rejected[0].as_dict() == rejected[1].as_dict()

    def test_one_attempt_per_probe(self):
        scenario = _reval_scenario()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            state = NetworkState(scenario)
        network = state.scenario.network
        state.disable_link_from(DISJOINT, 0.0)
        _book(state, 1, PARALLEL)
        probes = [
            (0, HOP_A1, 0.0, None),
            (0, HOP_A1, 0.0, None),
            (1, HOP_A1, 0.0, REASON_ALREADY_AT_DESTINATION),
            (2, DISJOINT, 0.0, REASON_WINDOW_CLOSED),
            (0, HOP_A1, scenario.horizon, REASON_NO_LINK_SLOT),
        ]
        for item_id, link_id, ready, reason in probes:
            before = len(tracer.events)
            plan = state.earliest_transfer(
                item_id, network.link(link_id), ready
            )
            events = tracer.events[before:]
            assert events[0].name == "transfer_attempt"
            if reason is None:
                assert plan is not None and len(events) == 1
            else:
                assert plan is None and len(events) == 2
                assert events[1].name == "transfer_rejected"
                assert dict(events[1].fields)["reason"] == reason

    def test_booking_changes_next_probe(self):
        state = NetworkState(_reval_scenario())
        link = state.scenario.network.link(HOP_A1)
        before = state.earliest_transfer(0, link, 0.0)
        assert before is not None
        # Item 1 books the planned slot; the re-probe must see it.
        _book(state, 1, HOP_A1)
        after = state.earliest_transfer(0, link, 0.0)
        assert after is not None
        assert after.start > before.start

    def test_clone_bookings_stay_private(self):
        state = NetworkState(_reval_scenario())
        link = state.scenario.network.link(HOP_A1)
        assert state.earliest_transfer(0, link, 0.0) is not None
        clone = state.clone()
        _book(clone, 1, HOP_A1)
        parent_plan = state.earliest_transfer(0, link, 0.0)
        clone_plan = clone.earliest_transfer(0, link, 0.0)
        assert parent_plan is not None and clone_plan is not None
        assert clone_plan.start > parent_plan.start


# -- the receiver index -------------------------------------------------------


def _index_checked_runs(seed, release=False, fallbacks=None):
    """Static drains and a dynamic run under churn, losses and an outage,
    with the index checked after every store; ``fallbacks`` collects how
    many fallback receivers each stored tree has."""
    scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(seed)
    events, _static_plan = dynamic_fault_events(scenario, seed, 0.5)
    stores = []
    store = TreeCache._store

    def checked_store(cache, item_id, entry):
        store(cache, item_id, entry)
        assert_index_exact(cache, release)
        stores.append(item_id)
        if fallbacks is not None:
            fallbacks.append(len(entry.tree.fallback_receivers))

    with mock.patch.object(TreeCache, "_store", checked_store):
        for heuristic in ("partial", "full_one", "full_all"):
            make_heuristic(heuristic, "C4", 1.0).run(scenario)
        PriorityTierScheduler("full_one", "C4", 0.0).run(scenario)
        DynamicDriver("partial", "C4", 2.0).run(scenario, events)
    return stores


@pytest.mark.parametrize("seed", range(4))
def test_the_receiver_index_lists_exactly_the_live_receivers(seed):
    stores = _index_checked_runs(seed)
    # Entries are replaced (searches after a conflict), not only added,
    # so stale slots had a chance to appear.
    assert len(stores) > len(set(stores))


def test_the_release_index_lists_exactly_the_live_fallback_receivers():
    fallbacks = []
    for seed in range(4):
        stores = _index_checked_runs(seed, release=True, fallbacks=fallbacks)
        assert len(stores) > len(set(stores))
    # Some stored tree fell back somewhere, so slots were filled at all.
    assert any(fallbacks)
