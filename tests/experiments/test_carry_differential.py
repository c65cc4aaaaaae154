"""Differential property: carrying trees across passes changes no decision.

A :class:`~repro.dynamic.driver.DynamicDriver` makes each pass's tree
cache with :meth:`~repro.heuristics.base.TreeCache.advanced`, which keeps
the trees of the pass before and carries each on its first request at
the later "now", unless the journal replay found it in conflict (a
booking, an outage cutoff, storage freed where its search depended on
storage) or the new "now" overtakes its plan.
:func:`~tests.heuristics.reference_advance.use_reference_advance`
restores per-pass caches, which searched every item a pass requested.

Over drawn dynamic runs (outages, degradations, cancellations, late
arrivals, copy losses and reopens, with roomy and tight storage) the
schedules, the per-pass outcomes and the ``RunRecord``\\ s must be
byte-identical to the oracle's, but for ``dijkstra_runs``; the event
streams must be equal once search events are dropped.  The pinned draw
must carry trees and search less, else the property would pass
vacuously.
"""

import json
from contextlib import nullcontext

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import units
from repro.dynamic.driver import DynamicDriver
from repro.experiments.runner import record_result
from repro.faults.context import use_faults
from repro.observability.tracer import (
    TREE_CACHE_CARRIED,
    RecordingTracer,
    use_tracer,
)
from repro.serialization import document_to_dict, schedule_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import dynamic_fault_events, neutral_fields
from tests.heuristics.reference_advance import use_reference_advance
from tests.heuristics.reference_selection import without_searches

_GENERATORS = {
    "tiny": ScenarioGenerator(GeneratorConfig.tiny()),
    "tight": ScenarioGenerator(
        GeneratorConfig.tiny().replace(
            capacity_bytes=(units.megabytes(100), units.megabytes(300))
        )
    ),
}

#: A tiny draw whose passes carry trees.  The draw pinned in
#: ``TestPinnedEventStream`` (seed 0) carries none: a dynamic run keeps
#: one shortlist, so a later pass requests an item again only after its
#: kept payload was dropped, and there each such item had changed.
CARRY_SEED = 3


def _traced(scale, seed, heuristic, intensity, loss_fraction, reference):
    """One dynamic run under the oracle or the change: the run's result,
    its canonical schedule, ``RunRecord`` document and event stream."""
    scenario = _GENERATORS[scale].generate(seed)
    events, plan = dynamic_fault_events(
        scenario, seed, intensity, loss_fraction
    )
    driver = DynamicDriver(heuristic, "C4", 2.0)
    tracer = RecordingTracer()
    advance = use_reference_advance() if reference else nullcontext()
    with use_faults(plan), use_tracer(tracer), advance:
        result = driver.run(scenario, events)
    schedule = json.dumps(schedule_to_dict(result.schedule), sort_keys=True)
    record = document_to_dict(
        record_result(scenario, result, scheduler=driver.label())
        .without_timing()
    )
    stream = [(event.name, neutral_fields(event)) for event in tracer.events]
    return result, schedule, record, stream


def _both(*draw):
    return [_traced(*draw, reference) for reference in (True, False)]


@given(
    scale=st.sampled_from(sorted(_GENERATORS)),
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(("partial", "full_one", "full_all")),
    intensity=st.sampled_from((0.0, 0.5, 1.0)),
    loss_fraction=st.sampled_from((0.3, 0.6)),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_carried_trees_change_only_searches(
    scale, seed, heuristic, intensity, loss_fraction
):
    oracle, change = _both(scale, seed, heuristic, intensity, loss_fraction)
    oracle_result, oracle_schedule, oracle_record, oracle_stream = oracle
    result, schedule, record, stream = change
    assert schedule == oracle_schedule
    assert result.outcomes == oracle_result.outcomes
    assert result.effect == oracle_result.effect
    oracle_record.pop("dijkstra_runs")
    record.pop("dijkstra_runs")
    assert record == oracle_record
    assert without_searches(stream) == without_searches(oracle_stream)


def test_the_carry_fires_on_the_pinned_draw():
    oracle, change = _both("tiny", CARRY_SEED, "partial", 0.5, 0.3)
    oracle_result, oracle_schedule, _, oracle_stream = oracle
    result, schedule, _, stream = change
    assert schedule == oracle_schedule
    assert without_searches(stream) == without_searches(oracle_stream)
    carried = [
        fields
        for name, fields in stream
        if name == "tree_cache"
        and dict(fields)["reason"] == TREE_CACHE_CARRIED
    ]
    assert carried
    assert result.stats.dijkstra_runs < oracle_result.stats.dijkstra_runs
    assert any(outcome.reopened for outcome in result.outcomes)
