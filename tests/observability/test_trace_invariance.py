"""Observation never perturbs scheduling (satellite property test).

Tracers are pure observers: running any heuristic under a recording
tracer, a metrics collector, or a fan-out of both must produce a schedule
byte-identical to the untraced run.  Pinned with hypothesis across random
scenarios, heuristics, criteria, and E-U points.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics.registry import heuristic_names, make_heuristic
from repro.observability import (
    MetricsCollector,
    RecordingTracer,
    TeeTracer,
    use_tracer,
)
from repro.serialization import schedule_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator


def _schedule_text(scenario, heuristic, criterion, ratio):
    scheduler = make_heuristic(heuristic, criterion, ratio)
    result = scheduler.run(scenario)
    return json.dumps(
        schedule_to_dict(result.schedule), sort_keys=True
    )


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(sorted(heuristic_names())),
    criterion=st.sampled_from(["C2", "C3", "C4"]),
    ratio=st.sampled_from([float("-inf"), -2.0, 0.0, 2.0, float("inf")]),
)
def test_tracing_never_changes_the_schedule(seed, heuristic, criterion, ratio):
    scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(seed)
    baseline = _schedule_text(scenario, heuristic, criterion, ratio)

    recorder = RecordingTracer()
    with use_tracer(recorder):
        recorded = _schedule_text(scenario, heuristic, criterion, ratio)
    assert recorded == baseline
    assert recorder.events  # the run really was observed

    collector = MetricsCollector()
    with use_tracer(TeeTracer((collector, RecordingTracer()))):
        collected = _schedule_text(scenario, heuristic, criterion, ratio)
    assert collected == baseline
    assert collector.finalize().counter("runs") == 1
