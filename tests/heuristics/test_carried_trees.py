"""Carried and rebased trees equal a fresh search, and release soundly.

A dynamic pass's tree cache keeps the trees of the pass before
(:meth:`~repro.heuristics.base.TreeCache.advanced`) and carries each on
its first request at the later "now"
(:meth:`~repro.routing.paths.ShortestPathTree.carried`); a booking rebases
the booked item's tree (:meth:`~repro.heuristics.base.TreeCache.rebase`).
The property below spies on both over drawn dynamic runs (faults, churn,
copy losses and reopens, tight storage): every carried or rebased entry
must equal the projection of a search made at that moment, seeds,
labels and parents.

Both keep the release set (``fallback_receivers``) of the search that
made the tree, and a search made now can fall back at more machines:
other items' bookings since then can make a relaxation that the inline
probe settled fall back now.  Such a relaxation was settled at the
link's first free slot, which no storage can move earlier, so the set
stays sound without containing the new one.  The property checks that
directly: it frees all storage on every machine outside the entry's
set, on a clone, and searches again — the projection must not change.

The unit tests pin each ``tree_cache`` reason a carry reports, and each
way a later "now" overtakes a plan.
"""

from contextlib import nullcontext
from typing import Dict, List, Tuple
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import units
from repro.core.state import NetworkState
from repro.dynamic.driver import DynamicDriver, RunShortlist
from repro.faults.context import use_faults
from repro.heuristics.base import (
    CacheEntry,
    EngineStats,
    TreeCache,
    deadline_targets,
)
from repro.observability.tracer import (
    TREE_CACHE_CARRIED,
    TREE_CACHE_CLEAN,
    TREE_CACHE_PLAN_EXPIRED,
    RecordingTracer,
    use_tracer,
)
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.routing.paths import ShortestPathTree
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import (
    dynamic_fault_events,
    line_network,
    make_item,
    make_scenario,
    unbounded_storage_outside,
)
from tests.heuristics.reference_shortlist import use_reference_shortlist

#: Tiny draws, and tiny draws whose machines hold only one to three large
#: items, so storage rejects and delays relaxations.
_GENERATORS = {
    "tiny": ScenarioGenerator(GeneratorConfig.tiny()),
    "tight": ScenarioGenerator(
        GeneratorConfig.tiny().replace(
            capacity_bytes=(units.megabytes(100), units.megabytes(300))
        )
    ),
}


def _fresh(state: NetworkState, item_id: int, now: float) -> ShortestPathTree:
    """A search made now, projected onto its targets, as a miss makes it."""
    targets = deadline_targets(state, item_id)
    return compute_shortest_path_tree(
        state, item_id, targets, not_before=now
    ).projected(targets)


def _same_tree(tree: ShortestPathTree, fresh: ShortestPathTree) -> bool:
    return (
        tree._seeds == fresh._seeds
        and list(tree._labels.items()) == list(fresh._labels.items())
        and dict(tree.planned_hops) == dict(fresh.planned_hops)
    )


def _spying(checked: Dict[str, int], wider: List[Tuple[int, int]]):
    """Patches that check every carried and rebased entry as it is
    stored; ``checked`` counts them by kind, and ``wider`` collects
    ``(item, machine)`` pairs a fresh search's release set adds to the
    entry's."""
    carried = TreeCache._carried
    rebase = TreeCache.rebase

    def check(cache: TreeCache, entry: CacheEntry, kind: str) -> None:
        state = cache._state
        item_id = entry.tree.item_id
        fresh = _fresh(state, item_id, cache.not_before)
        assert _same_tree(entry.tree, fresh), (kind, item_id)
        extra = fresh.fallback_receivers - entry.tree.fallback_receivers
        wider.extend((item_id, machine) for machine in extra)
        released = unbounded_storage_outside(
            state, entry.tree.fallback_receivers
        )
        assert _same_tree(
            entry.tree, _fresh(released, item_id, cache.not_before)
        ), (kind, item_id)
        checked[kind] = checked.get(kind, 0) + 1

    def carried_spy(self: TreeCache, cached: CacheEntry):
        entry = carried(self, cached)
        if entry is not None:
            check(self, entry, "carried")
        return entry

    def rebase_spy(self: TreeCache, item_id: int) -> bool:
        done = rebase(self, item_id)
        if done:
            check(self, self._trees[item_id], "rebased")
        return done

    return (
        mock.patch.object(TreeCache, "_carried", carried_spy),
        mock.patch.object(TreeCache, "rebase", rebase_spy),
    )


def _run_checked(scale, seed, heuristic, intensity, loss_fraction):
    scenario = _GENERATORS[scale].generate(seed)
    events, plan = dynamic_fault_events(
        scenario, seed, intensity, loss_fraction
    )
    checked: Dict[str, int] = {}
    wider: List[Tuple[int, int]] = []
    carried_patch, rebase_patch = _spying(checked, wider)
    with use_faults(plan), carried_patch, rebase_patch:
        DynamicDriver(heuristic, "C4", 2.0).run(scenario, events)
    return checked, wider


@given(
    scale=st.sampled_from(sorted(_GENERATORS)),
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(("partial", "full_one", "full_all")),
    intensity=st.sampled_from((0.0, 0.5, 1.0)),
    loss_fraction=st.sampled_from((0.3, 0.6)),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_carried_and_rebased_entries_equal_a_fresh_search(
    scale, seed, heuristic, intensity, loss_fraction
):
    _run_checked(scale, seed, heuristic, intensity, loss_fraction)


def test_the_property_checks_carried_and_rebased_entries():
    """The spies must see both kinds on a few pinned draws, else the
    property above could pass without checking anything; and a fresh
    search must fall back somewhere the entry's search did not, else
    the release check would add nothing to set containment.  A run
    keeps one shortlist, so it requests (and carries) an item in a later
    pass only after something dropped its payload; the per-pass
    shortlists of ``use_reference_shortlist`` request every listed item
    in every pass, and there the carry meets wider release sets."""
    totals: Dict[str, int] = {}
    wider: List[Tuple[int, int]] = []
    for per_pass in (False, True):
        for seed in range(4):
            with use_reference_shortlist() if per_pass else nullcontext():
                checked, extra = _run_checked(
                    "tight", seed, "partial", 0.5, 0.3
                )
            wider.extend(extra)
            for kind, count in checked.items():
                totals[kind] = totals.get(kind, 0) + count
    assert totals.get("carried", 0) > 0
    assert totals.get("rebased", 0) > 0
    assert wider


# -- the reasons a carry reports ----------------------------------------------


def _late_scenario():
    """Item 0 appears at machine 0 at t=10 and is requested at 2; the ring
    0 -> 1 -> 2 takes 1 s per hop, so its plan starts at t=10."""
    return make_scenario(
        line_network(3),
        [make_item(0, 1000.0, [(0, 10.0)])],
        [(0, 2, 1, 100.0)],
    )


def _traced_cache():
    tracer = RecordingTracer()
    with use_tracer(tracer):
        state = NetworkState(_late_scenario())
    stats = EngineStats()
    return state, TreeCache(state, stats), stats, tracer


def _reasons(tracer):
    return [
        (event["hit"], event["reason"])
        for event in tracer.named("tree_cache")
    ]


def test_a_later_pass_carries_a_plan_that_starts_after_its_now():
    state, cache, stats, tracer = _traced_cache()
    first = cache.tree_for(0)
    later = cache.advanced(5.0)
    carried = later.tree_for(0)
    later.tree_for(0)
    assert _reasons(tracer) == [
        (False, "cold"),
        (True, TREE_CACHE_CARRIED),
        (True, TREE_CACHE_CLEAN),
    ]
    assert stats.dijkstra_runs == 1 and stats.cache_hits == 2
    assert dict(carried.planned_hops) == dict(first.planned_hops)
    assert _same_tree(carried, _fresh(state, 0, 5.0))


def test_a_plan_starting_before_the_later_now_is_searched_again():
    state, cache, stats, tracer = _traced_cache()
    cache.tree_for(0)
    later = cache.advanced(10.5)
    tree = later.tree_for(0)
    assert _reasons(tracer)[-1] == (False, TREE_CACHE_PLAN_EXPIRED)
    assert stats.dijkstra_runs == 2
    assert _same_tree(tree, _fresh(state, 0, 10.5))


def test_a_later_now_that_reorders_the_seeds_overtakes_the_plan():
    # Seeds 1 (label 0) and 0 (label 2) pop 1 first; at now=3 both read 3
    # and a search pops machine 0 first, so a tie could go the other way.
    tree = ShortestPathTree(
        0,
        {1: 0.0, 0: 2.0},
        {1: 0.0, 0: 2.0, 2: 6.0},
        {2: (1, 5, 4.0, 6.0)},
    )
    targets = {2: 100.0}
    assert tree.carried({1: 3.0, 0: 3.0}, targets, 3.0) is None
    kept = tree.carried({1: 1.0, 0: 2.0}, targets, 1.0)
    assert kept is not None
    assert kept._labels == {1: 1.0, 0: 2.0, 2: 6.0}
    assert dict(kept.planned_hops) == {2: (1, 5, 4.0, 6.0)}
    # A seed released by the new "now" leaves the tree when no plan
    # starts from it.
    assert tree.carried({1: 3.5}, targets, 3.5) is not None


def test_advancing_moves_the_entries_and_keeps_the_marks():
    """``advanced`` moves the entries to the later cache; what marks an
    item with no candidate, its kept empty payload, lives in the run's
    shortlist and stays there."""
    state, cache, stats, tracer = _traced_cache()
    cache.tree_for(0)
    shortlist = RunShortlist(state, lambda request: True)
    shortlist.payloads[0] = None
    shortlist.scored(cache.entry_for(0))
    later = cache.advanced(5.0)
    shortlist.refresh(later)
    assert list(later._trees) == [0] and cache._trees == {}
    assert shortlist.items == [0] and shortlist.payloads == {0: None}
