"""Differential property: the compiled routing kernel never alters results.

The array-backed kernel (:mod:`repro.routing.compiled`) flattens the
virtual-link multigraph into CSR arrays and amortizes transfer-duration
arithmetic, but it is a *pure* optimization: for any scenario, heuristic,
fault intensity, worker count, and cache-replay state, the produced
schedule — and therefore the :class:`~repro.experiments.runner.RunRecord`
— must be byte-identical to the reference object-graph loop, which the
tests keep as an oracle (:mod:`tests.routing.reference_kernel`) and
switch in with ``use_reference_kernel()``.  Reference runs are serial
and in-process, so the switch covers every search they make.

Unlike the tree-cache differential, ``dijkstra_runs`` is **kept** in the
comparison: the compiled kernel changes how each search executes, never
how many searches run.  Only wall timing may differ.

The parallel worker count honours ``REPRO_WORKERS`` (default 4) so CI
can run a cheap ``workers=2`` smoke pass of this module.
"""

import os
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cost.weights import as_weights
from repro.experiments.executor import SweepCell, SweepExecutor
from repro.experiments.runner import record_result
from repro.faults.context import use_faults
from repro.faults.plan import FaultPlan
from repro.heuristics.registry import make_heuristic
from repro.observability.tracer import RecordingTracer, use_tracer
from repro.serialization import document_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import neutral_fields
from tests.routing.reference_kernel import use_reference_kernel

PARALLEL_WORKERS = int(os.environ.get("REPRO_WORKERS", "4"))

PAIRS = (
    ("partial", "C4"),
    ("full_one", "C4"),
    ("full_all", "C4"),
    ("partial", "C2"),
)

#: Healthy and heavily faulted, per the compiled-kernel acceptance bar.
FAULT_INTENSITIES = (0.0, 0.5)

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())


def _neutralized(record):
    """The record's identity dict with timing/observability nulled.

    ``dijkstra_runs`` stays: the compiled kernel must run *exactly* the
    same searches as the reference loop, so even the search count is part
    of the contract (contrast the tree-cache differential, which drops
    it).
    """
    return document_to_dict(record.without_timing())


def _fault_plan(scenario, intensity, seed):
    if intensity <= 0.0:
        return None
    return FaultPlan.generate(scenario, intensity, seed=seed, churn=False)


def _reference_record(scenario, heuristic, criterion, plan):
    """One run of the reference object-graph kernel."""
    eu = as_weights(0.0)
    scheduler = make_heuristic(heuristic, criterion=criterion, weights=eu)
    with use_faults(plan), use_reference_kernel():
        result = scheduler.run(scenario)
    label = "-" if scheduler.criterion.eu_independent else eu.label()
    return record_result(
        scenario, result, scheduler=scheduler.label(), eu_label=label
    )


@pytest.fixture(scope="module")
def parallel_executor():
    """One pooled executor shared by every example (pool spin-up is paid
    once, not per Hypothesis example)."""
    with SweepExecutor(workers=PARALLEL_WORKERS) as executor:
        yield executor


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pair=st.sampled_from(PAIRS),
    intensity=st.sampled_from(FAULT_INTENSITIES),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_compiled_equals_reference_at_any_parallelism(
    parallel_executor, seed, pair, intensity
):
    heuristic, criterion = pair
    scenarios = _GENERATOR.generate_suite(2, base_seed=seed)
    plans = [
        _fault_plan(scenario, intensity, seed=seed + case)
        for case, scenario in enumerate(scenarios)
    ]
    reference = [
        _neutralized(
            _reference_record(scenario, heuristic, criterion, plan)
        )
        for scenario, plan in zip(scenarios, plans)
    ]
    # Executor cells run the compiled kernel.
    cells = [
        SweepCell(
            scenario=scenario,
            heuristic=heuristic,
            criterion=criterion,
            weights=as_weights(0.0),
            faults=plan,
        )
        for scenario, plan in zip(scenarios, plans)
    ]
    with SweepExecutor(workers=1) as serial_executor:
        serial = serial_executor.run_cells(cells)
    parallel = parallel_executor.run_cells(cells)
    assert [_neutralized(r) for r in serial] == reference
    assert [_neutralized(r) for r in parallel] == reference


def test_compiled_equals_reference_under_cache_replay(tmp_path):
    """Cache replay of a compiled run still matches the reference kernel."""
    scenarios = _GENERATOR.generate_suite(2, base_seed=23)
    plans = [
        _fault_plan(scenario, 0.5, seed=23 + case)
        for case, scenario in enumerate(scenarios)
    ]
    reference = [
        _neutralized(_reference_record(scenario, "partial", "C4", plan))
        for scenario, plan in zip(scenarios, plans)
    ]
    cells = [
        SweepCell(
            scenario=scenario,
            heuristic="partial",
            criterion="C4",
            weights=as_weights(0.0),
            faults=plan,
        )
        for scenario, plan in zip(scenarios, plans)
    ]
    with SweepExecutor(workers=1, cache_dir=tmp_path) as executor:
        first = executor.run_cells(cells)
        replayed = executor.run_cells(cells)
    assert not any(record.cache_hit for record in first)
    assert all(record.cache_hit for record in replayed)
    assert [_neutralized(r) for r in first] == reference
    assert [_neutralized(r) for r in replayed] == reference


def _event_stream(scenario, reference):
    """The partial/C4 run's trace events, wall timing dropped."""
    scheduler = make_heuristic(
        "partial", criterion="C4", weights=as_weights(0.0)
    )
    tracer = RecordingTracer()
    kernel = use_reference_kernel() if reference else nullcontext()
    with use_tracer(tracer), kernel:
        scheduler.run(scenario)
    return [(event.name, neutral_fields(event)) for event in tracer.events]


def test_compiled_trace_parity():
    """Both kernels emit identical event streams, field for field.

    The trace is a stronger oracle than the final record: it pins the
    order of searches, transfers, and reservations, not just the summed
    outcome.
    """
    scenario = _GENERATOR.generate_suite(1, base_seed=41)[0]
    reference = _event_stream(scenario, reference=True)
    compiled = _event_stream(scenario, reference=False)
    assert compiled == reference
    assert any(name == "dijkstra" for name, _ in compiled)
