"""Differential property: the compiled kernel is invisible to dynamic runs.

The compiled kernel (:mod:`repro.routing.compiled`) rejects dead edges
inline, reading state that only the dynamic driver mutates between
passes: the live link-cutoff list (``disable_link_from``) and the item's
held-copy set (copy losses, re-deliveries).  For any scenario, fault
draw and heuristic, a :class:`~repro.dynamic.driver.DynamicDriver` run
must therefore produce a byte-identical schedule and a byte-identical
:class:`RecordingTracer` event stream — every ``transfer_attempt`` /
``transfer_rejected`` pair and its reason included — to the same run
under ``use_reference_kernel()``, which routes every search through the
object-walking oracle (:mod:`tests.routing.reference_kernel`).  Only
wall timings may differ.

Each run combines link outages, outage windows and bandwidth
degradations from a static plan installed with ``use_faults``, copy
losses, and cancellations and late arrivals from
``FaultPlan.generate(..., churn=True)``.
"""

import json
from contextlib import nullcontext

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamic.driver import DynamicDriver
from repro.faults.context import use_faults
from repro.observability.tracer import (
    REASON_ALREADY_AT_DESTINATION,
    REASON_NO_LINK_SLOT,
    REASON_WINDOW_CLOSED,
    RecordingTracer,
    use_tracer,
)
from repro.serialization import schedule_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import dynamic_fault_events, neutral_fields
from tests.routing.reference_kernel import use_reference_kernel

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())

#: A draw (scenario, faults, losses and outage) in which every fault kind
#: fires and every inline rejection reason is emitted.  (Seed 0 stopped
#: emitting ``already_at_destination`` once a booking rebased the booked
#: item's tree instead of searching it again: those rejections came from
#: searching the item right after its own booking.  Seed 11 stopped once
#: dynamic passes carried trees instead of searching every item again,
#: and seed 265 once a run kept one shortlist, so that an item proven to
#: have no candidate stays unrequested through losses elsewhere; 284 is
#: the first seed from 0 that reaches every kind again.)
SEED_WITH_EVERY_FAULT = 284


def _run(scenario, events, plan, heuristic, reference):
    """One dynamic run: its schedule as canonical JSON, and its events."""
    tracer = RecordingTracer()
    driver = DynamicDriver(heuristic, "C4", 2.0)
    kernel = use_reference_kernel() if reference else nullcontext()
    with use_faults(plan), use_tracer(tracer), kernel:
        result = driver.run(scenario, events)
    schedule = json.dumps(schedule_to_dict(result.schedule), sort_keys=True)
    stream = [(event.name, neutral_fields(event)) for event in tracer.events]
    return schedule, stream


def _both(seed, heuristic, intensity):
    scenario = _GENERATOR.generate(seed)
    events, plan = dynamic_fault_events(scenario, seed, intensity)
    return [
        _run(scenario, events, plan, heuristic, reference)
        for reference in (True, False)
    ]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(("partial", "full_one", "full_all")),
    intensity=st.sampled_from((0.0, 0.5, 1.0)),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dynamic_compiled_equals_reference(seed, heuristic, intensity):
    (reference_schedule, reference_stream), (schedule, stream) = _both(
        seed, heuristic, intensity
    )
    assert schedule == reference_schedule
    assert stream == reference_stream


def test_the_differential_exercises_every_inline_rejection():
    """A pinned draw where every mutation and inline reason occurs, so the
    property above cannot pass by never reaching the inlined checks."""
    (_, reference_stream), (_, stream) = _both(
        seed=SEED_WITH_EVERY_FAULT, heuristic="partial", intensity=0.5
    )
    assert stream == reference_stream
    names = {name for name, _ in stream}
    assert {
        "link_disabled",
        "copy_removed",
        "request_cancelled",
        "request_reopened",
        "faults_applied",
    } <= names
    reasons = {
        dict(fields)["reason"]
        for name, fields in stream
        if name == "transfer_rejected"
    }
    assert {
        REASON_ALREADY_AT_DESTINATION,
        REASON_WINDOW_CLOSED,
        REASON_NO_LINK_SLOT,
    } <= reasons
    degraded = [
        dict(fields)["degraded_links"]
        for name, fields in stream
        if name == "faults_applied"
    ]
    assert any(count > 0 for count in degraded)
