"""Differential property: one shortlist per dynamic run changes no decision.

A :class:`~repro.dynamic.driver.DynamicDriver` hands every pass the same
:class:`~repro.dynamic.driver.RunShortlist`.  A drain ends only when no
listed item has a candidate, so a pass hands the next one the item set
and the empty payloads of the items proven to have none; each stays
unrequested until a reveal, a release in its footprint, a revision move
or a degradation drops it.
:func:`~tests.heuristics.reference_shortlist.use_reference_shortlist`
restores the drain before: a shortlist of its own per drain, whose
opening scan left out the items whose no-candidate marks held.

Over drawn dynamic runs (outages, degradations, cancellations, late
arrivals, copy losses and reopens, with roomy and tight storage) the
schedules, the per-pass outcomes, the effects and the ``RunRecord``\\ s
must be byte-identical to the oracle's, but for ``dijkstra_runs``, which
may only fall; and every schedule must pass the
:class:`~repro.core.validation.ScheduleValidator` given the run's
losses.  Every pass must start with the items a fresh shortlist would
list and with empty payloads only, which is why no payload needs an
expiry instant, and each payload kept through a pass's
refresh must still be empty in a fresh search, also with unlimited
storage wherever the journal replay would not report a release.
Priority tiers still drain with a shortlist each, and must search
exactly as the oracle in every tier.
"""

import json
from contextlib import nullcontext
from typing import Any, Callable, List
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.core import units
from repro.core.validation import ScheduleValidator
from repro.dynamic.driver import DynamicDriver, RunShortlist
from repro.dynamic.events import CopyLoss
from repro.experiments.runner import record_result
from repro.faults.context import use_faults
from repro.heuristics.base import (
    Shortlist,
    StagingHeuristic,
    deadline_targets,
)
from repro.heuristics.candidates import enumerate_groups
from repro.heuristics.registry import make_heuristic
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.serialization import document_to_dict, schedule_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import dynamic_fault_events, unbounded_storage_outside
from tests.heuristics.reference_selection import tree_requests
from tests.heuristics.reference_shortlist import use_reference_shortlist

_GENERATORS = {
    "tiny": ScenarioGenerator(GeneratorConfig.tiny()),
    "tight": ScenarioGenerator(
        GeneratorConfig.tiny().replace(
            capacity_bytes=(units.megabytes(100), units.megabytes(300))
        )
    ),
}

HEURISTICS = ("partial", "full_one", "full_all")

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _checking_kept(heuristic: str) -> Any:
    """Check each pass's shortlist: it lists exactly the items with a
    visible open request, as a fresh one would; no kept payload has a
    candidate before the refresh (a drain ends only when none has); and
    each payload kept after it is still right, in a fresh search at the
    pass's "now" and in one where every machine outside its entry's
    release set has unlimited storage (every release the replay would
    not report, at once)."""
    refresh = RunShortlist.refresh
    scorer = make_heuristic(heuristic, "C4", 2.0)

    def checked(self: RunShortlist, cache: Any) -> None:
        state = self._state
        assert self.items == Shortlist.of(state, None, self._filter).items
        assert not any(self.payloads.values())
        refresh(self, cache)
        for item_id in self.items:
            if item_id not in self.payloads:
                continue
            kept = cache._trees[item_id].tree.fallback_receivers
            for probe in (state, unbounded_storage_outside(state, kept)):
                targets = deadline_targets(probe, item_id)
                tree = compute_shortest_path_tree(
                    probe, item_id, targets, cache.not_before
                ).projected(targets)
                assert not scorer._item_payload(
                    probe,
                    item_id,
                    enumerate_groups(
                        probe,
                        item_id,
                        tree,
                        probe.scenario.weighting,
                        None,
                        self._filter,
                    ),
                )

    return mock.patch.object(RunShortlist, "refresh", checked)


def _run(draw, reference: bool):
    """One dynamic run under the oracle or the change: the result, its
    canonical schedule and its ``RunRecord`` document."""
    scale, seed, heuristic, intensity, loss_fraction = draw
    scenario = _GENERATORS[scale].generate(seed)
    events, plan = dynamic_fault_events(
        scenario, seed, intensity, loss_fraction
    )
    driver = DynamicDriver(heuristic, "C4", 2.0)
    selection = (
        use_reference_shortlist() if reference else _checking_kept(heuristic)
    )
    with use_faults(plan), selection:
        result = driver.run(scenario, events)
    if not reference:
        losses = [event for event in events if isinstance(event, CopyLoss)]
        ScheduleValidator(scenario, plan, losses=losses).validate(
            result.schedule
        )
    schedule = json.dumps(schedule_to_dict(result.schedule), sort_keys=True)
    record = document_to_dict(
        record_result(scenario, result, scheduler=driver.label())
        .without_timing()
    )
    return result, schedule, record


@given(
    scale=st.sampled_from(sorted(_GENERATORS)),
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(HEURISTICS),
    intensity=st.sampled_from((0.0, 0.5, 1.0)),
    loss_fraction=st.sampled_from((0.3, 0.6)),
)
@_SETTINGS
def test_one_shortlist_per_run_changes_only_searches(
    scale, seed, heuristic, intensity, loss_fraction
):
    draw = (scale, seed, heuristic, intensity, loss_fraction)
    oracle_result, oracle_schedule, oracle_record = _run(draw, True)
    result, schedule, record = _run(draw, False)
    assert schedule == oracle_schedule
    assert result.outcomes == oracle_result.outcomes
    assert result.effect == oracle_result.effect
    assert record.pop("dijkstra_runs") <= oracle_record.pop("dijkstra_runs")
    assert record == oracle_record


def _per_tier(run: Callable[[], Any], reference: bool) -> List[int]:
    """The trees each drain of ``run()`` searched, in order."""
    searched: List[int] = []
    selection = use_reference_shortlist() if reference else nullcontext()
    with selection:
        drain = StagingHeuristic.drain

        def counted(self, state, cache, stats, *args, **kwargs):
            before = stats.dijkstra_runs
            drain(self, state, cache, stats, *args, **kwargs)
            searched.append(stats.dijkstra_runs - before)

        with mock.patch.object(StagingHeuristic, "drain", counted):
            run()
    return searched


@given(
    scale=st.sampled_from(sorted(_GENERATORS)),
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(HEURISTICS),
)
@_SETTINGS
def test_priority_tiers_search_as_before_in_every_tier(
    scale, seed, heuristic
):
    scenario = _GENERATORS[scale].generate(seed)
    scheduler = PriorityTierScheduler(heuristic, "C4", 0.0)
    tiers = _per_tier(lambda: scheduler.run(scenario), reference=False)
    assert tiers == _per_tier(lambda: scheduler.run(scenario), True)


def test_kept_empty_payloads_save_requests_on_a_pinned_draw():
    """Else the property above could pass with nothing kept: on the
    draw pinned in ``TestPinnedEventStream`` the run must request and
    search fewer trees than the oracle, and reopen requests."""
    draw = ("tiny", 0, "partial", 0.5, 0.3)
    oracle_result, oracle_schedule, _ = _run(draw, True)
    result, schedule, _ = _run(draw, False)
    assert schedule == oracle_schedule
    assert tree_requests(result.stats) < tree_requests(oracle_result.stats)
    assert result.stats.dijkstra_runs < oracle_result.stats.dijkstra_runs
    assert any(outcome.reopened for outcome in result.outcomes)
