"""Differential property: dirty-set selection changes no decision.

A drain keeps each live item's payload across its decisions.  After a
decision it requests and scores again only the booked item and the items
whose entries the tree cache's journal replay found in conflict (the
dirty set: :class:`~repro.heuristics.base.Shortlist`,
:meth:`~repro.heuristics.base.TreeCache.touched`); each choice scans the
kept payloads.  Two oracles request more:

- :func:`~tests.heuristics.reference_selection.use_reference_selection`:
  every decision requests and scores every open item, so it bypasses the
  dirty set and every skip;
- :func:`~tests.heuristics.reference_selection.rescore_shortlist`:
  every decision requests and scores every item on the drain's
  shortlist that has a candidate, as drains did before the dirty set, so
  it searches exactly as the change does.

Over every paper pairing, ``random_dijkstra``, priority tiers, rollout
and dynamic runs with churn and copy losses, each at fault intensity 0
and 0.5, schedules and ``RunRecord``s are byte-identical to both
oracles', and the event streams lose only search events.  (Priority
tiers share one tree cache, so against the every-open-item oracle their
streams are compared with search events dropped, as in the hidden-item
differential.  So do the passes of a dynamic run, which carry trees
from pass to pass: an item the oracle searched in a pass the change
skipped may be carried where the change searches.  Dynamic runs are
compared once more with a tree cache holding no tree at the start of
each pass (``tests/heuristics/reference_advance.py``), where every
assertion below holds as for a single drain.)  Against the shortlist
oracle the records match including ``dijkstra_runs``; the
every-open-item oracle also searches hidden items and items proven to
have no candidate, so against it ``dijkstra_runs`` may only fall (but
for carried dynamic runs), and must match on unfiltered drains.

The property below checks the dirty set's premise directly: after each
decision, a fresh request for every item outside it reads ``clean`` or
``revalidated``, and its tree scores to the payload the drain kept.  An
item whose kept payload is empty is never requested again (the
within-drain drop); a fresh search must find it still without a
candidate.
"""

import json
from contextlib import contextmanager, nullcontext
from typing import Iterator, List, Tuple
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.core import units
from repro.dynamic.driver import DynamicDriver
from repro.experiments.runner import record_result
from repro.faults.context import use_faults
from repro.faults.plan import FaultPlan
from repro.heuristics.base import (
    StagingHeuristic,
    TreeCache,
    deadline_targets,
)
from repro.heuristics.candidates import enumerate_groups
from repro.heuristics.registry import make_heuristic, paper_pairings
from repro.heuristics.rollout import RolloutScheduler
from repro.observability.tracer import (
    TREE_CACHE_CLEAN,
    TREE_CACHE_REVALIDATED,
    RecordingTracer,
    use_tracer,
)
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.serialization import document_to_dict, schedule_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import dynamic_fault_events, neutral_fields
from tests.heuristics.reference_advance import use_reference_advance
from tests.heuristics.reference_selection import (
    assert_skips_only_searches,
    rescore_shortlist,
    use_reference_selection,
    without_searches,
)

#: Tiny draws, and tiny draws whose machines hold only one to three large
#: items, so residency conflicts reach the dirty set as well as link ones.
_GENERATORS = {
    "tiny": ScenarioGenerator(GeneratorConfig.tiny()),
    "tight": ScenarioGenerator(
        GeneratorConfig.tiny().replace(
            capacity_bytes=(units.megabytes(100), units.megabytes(300))
        )
    ),
}

#: Every scheduler kind whose drains keep payloads: each paper pairing,
#: the random baseline, priority tiers, rollout and the dynamic driver.
KINDS: Tuple[Tuple[str, ...], ...] = (
    tuple(("pairing",) + pairing for pairing in paper_pairings())
    + (
        ("random_dijkstra",),
        ("priority_tier", "full_one"),
        ("priority_tier", "partial"),
        ("rollout", "full_one"),
        ("dynamic", "partial"),
        ("dynamic", "full_all"),
    )
)

#: Kinds whose drains are unfiltered: the every-open-item oracle has
#: nothing more to search there, so ``dijkstra_runs`` must match it too.
_UNFILTERED = frozenset({"pairing", "random_dijkstra", "rollout"})

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_of(kind, scale, seed, intensity):
    """``(scenario, run, label)`` for one drawn scheduler kind, faulted
    at ``intensity``."""
    scenario = _GENERATORS[scale].generate(seed)
    if kind[0] == "dynamic":
        events, plan = dynamic_fault_events(scenario, seed, intensity)
        scheduler = DynamicDriver(kind[1], "C4", 2.0)

        def run():
            with use_faults(plan):
                return scheduler.run(scenario, events)

        return scenario, run, scheduler.label()
    plan = (
        FaultPlan.generate(scenario, intensity, seed=seed, churn=False)
        if intensity > 0.0
        else None
    )
    if kind[0] == "pairing":
        scheduler = make_heuristic(kind[1], kind[2], 2.0)
    elif kind[0] == "random_dijkstra":
        scheduler = RandomDijkstraBaseline(seed)
    elif kind[0] == "priority_tier":
        scheduler = PriorityTierScheduler(kind[1], "C4", 0.0)
    else:
        scheduler = RolloutScheduler(kind[1], "C4", 2.0, beam_width=2)

    def run():
        with use_faults(plan):
            return scheduler.run(scenario)

    return scenario, run, scheduler.label()


def _traced(scenario, run, label, selection):
    """The run's canonical schedule, its ``RunRecord`` document and its
    event stream under ``selection``."""
    tracer = RecordingTracer()
    with use_tracer(tracer), selection:
        result = run()
    schedule = json.dumps(schedule_to_dict(result.schedule), sort_keys=True)
    record = document_to_dict(
        record_result(scenario, result, scheduler=label).without_timing()
    )
    stream = [(event.name, neutral_fields(event)) for event in tracer.events]
    return schedule, record, stream


@given(
    kind=st.sampled_from(KINDS),
    scale=st.sampled_from(sorted(_GENERATORS)),
    seed=st.integers(min_value=0, max_value=10_000),
    intensity=st.sampled_from((0.0, 0.5)),
)
@_SETTINGS
def test_dirty_set_selection_matches_both_oracles(
    kind, scale, seed, intensity
):
    scenario, run, label = _run_of(kind, scale, seed, intensity)
    _match_both_oracles(kind, scenario, run, label, carried=True)
    if kind[0] == "dynamic":

        def per_pass():
            with use_reference_advance():
                return run()

        _match_both_oracles(kind, scenario, per_pass, label, carried=False)


def _match_both_oracles(kind, scenario, run, label, carried):
    """The run against the shortlist and the every-open-item oracles;
    ``carried`` when a dynamic run's passes carry trees."""
    schedule, record, stream = _traced(scenario, run, label, nullcontext())

    shortlist_schedule, shortlist_record, shortlist_stream = _traced(
        scenario, run, label, rescore_shortlist()
    )
    assert schedule == shortlist_schedule
    assert record == shortlist_record
    assert_skips_only_searches(stream, shortlist_stream)

    oracle_schedule, oracle_record, oracle_stream = _traced(
        scenario, run, label, use_reference_selection()
    )
    assert schedule == oracle_schedule
    runs, oracle_runs = record.pop("dijkstra_runs"), oracle_record.pop(
        "dijkstra_runs"
    )
    assert record == oracle_record
    shared = kind[0] == "priority_tier" or (kind[0] == "dynamic" and carried)
    if kind[0] in _UNFILTERED:
        assert runs == oracle_runs
    elif not (kind[0] == "dynamic" and carried):
        assert runs <= oracle_runs
    if shared:
        # The tiers (and carried passes) share one tree cache, so an
        # item first searched in a later drain starts cold where the
        # oracle may hit its cache.
        assert without_searches(stream) == without_searches(oracle_stream)
    else:
        assert_skips_only_searches(stream, oracle_stream)


# -- the premise: an item outside the dirty set would read clean -----------


@contextmanager
def checking_kept_payloads(checked: List[int]) -> Iterator[None]:
    """After each selection of a drain with an enabled cache, request
    every shortlisted item with a candidate that the selection did not
    request: the entry must read ``clean`` or ``revalidated`` (no
    search), and its tree must score to the kept payload.  An item kept
    without a candidate must have none in a fresh search either.  Each
    checked item id is appended to ``checked``."""
    live_payloads = StagingHeuristic._live_payloads
    entry_for = TreeCache.entry_for
    requested: List[int] = []

    def spy(self, item_id):
        requested.append(item_id)
        return entry_for(self, item_id)

    def checked_live_payloads(
        self, state, cache, shortlist, priorities, request_filter
    ):
        requested.clear()
        live = live_payloads(
            self, state, cache, shortlist, priorities, request_filter
        )
        if not cache.enabled:
            return live
        tracer = RecordingTracer()
        with mock.patch.object(state, "_tracer", tracer):
            for item_id in shortlist.items:
                if item_id in requested:
                    continue
                if not shortlist.payloads[item_id]:
                    targets = deadline_targets(state, item_id)
                    tree = compute_shortest_path_tree(
                        state, item_id, targets, cache.not_before
                    ).projected(targets)
                    assert not self._item_payload(
                        state,
                        item_id,
                        enumerate_groups(
                            state,
                            item_id,
                            tree,
                            state.scenario.weighting,
                            priorities,
                            request_filter,
                        ),
                    )
                    continue
                entry = entry_for(cache, item_id)
                (event,) = tracer.named("tree_cache")
                assert event["hit"], (item_id, event["reason"])
                assert event["reason"] in (
                    TREE_CACHE_CLEAN,
                    TREE_CACHE_REVALIDATED,
                )
                tracer.events.clear()
                fresh = self._item_payload(
                    state,
                    item_id,
                    enumerate_groups(
                        state,
                        item_id,
                        entry.tree,
                        state.scenario.weighting,
                        priorities,
                        request_filter,
                    ),
                )
                assert fresh == shortlist.payloads[item_id]
                checked.append(item_id)
        return live

    with mock.patch.object(TreeCache, "entry_for", spy), mock.patch.object(
        StagingHeuristic, "_live_payloads", checked_live_payloads
    ):
        yield


@given(
    kind=st.sampled_from(KINDS),
    scale=st.sampled_from(sorted(_GENERATORS)),
    seed=st.integers(min_value=0, max_value=10_000),
    intensity=st.sampled_from((0.0, 0.5)),
)
@_SETTINGS
def test_items_outside_the_dirty_set_would_read_clean(
    kind, scale, seed, intensity
):
    scenario, run, _ = _run_of(kind, scale, seed, intensity)
    with checking_kept_payloads([]):
        run()


def test_the_dirty_set_keeps_payloads_on_the_pinned_draws():
    """Both properties above pass vacuously unless drains keep payloads:
    on pinned draws, items outside the dirty set are checked, and the
    change requests far fewer trees than the shortlist oracle while
    searching exactly as often."""
    checked: List[int] = []
    for kind in (("pairing", "partial", "C4"), ("dynamic", "partial")):
        for scale in sorted(_GENERATORS):
            _, run, _ = _run_of(kind, scale, 0, 0.5)
            with checking_kept_payloads(checked):
                run()
    assert len(checked) > 50

    _, run, _ = _run_of(("pairing", "full_one", "C4"), "tiny", 0, 0.0)
    with rescore_shortlist():
        oracle = run().stats
    stats = run().stats
    assert stats.dijkstra_runs == oracle.dijkstra_runs
    assert 4 * stats.cache_hits < oracle.cache_hits
