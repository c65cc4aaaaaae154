"""Property: a zero-intensity FaultPlan is indistinguishable from no plan.

The executor keys its run cache on the fault-plan fingerprint, with an
empty plan normalized to the no-plan identity — so a zero-intensity plan
must produce *byte-identical* records (and identical cache keys) to a
healthy run, for every registered heuristic, serially and under process
fan-out.  Any drift here would silently split the cache and break the
chaos study's healthy baseline.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cost.weights import as_weights
from repro.experiments.executor import RunCache, SweepCell, SweepExecutor
from repro.faults import FaultPlan
from repro.heuristics.registry import heuristic_names
from repro.serialization import document_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def generator():
    return ScenarioGenerator(GeneratorConfig.tiny())


@pytest.fixture(scope="module")
def executors():
    serial = SweepExecutor(workers=1)
    parallel = SweepExecutor(workers=4)
    yield {1: serial, 4: parallel}
    serial.close()
    parallel.close()


def _cells(scenario, faults):
    return [
        SweepCell(
            scenario=scenario,
            heuristic=heuristic,
            criterion="C4",
            weights=as_weights(2.0),
            faults=faults,
        )
        for heuristic in heuristic_names()
    ]


def _canonical(records):
    return [
        json.dumps(
            document_to_dict(record.without_timing()), sort_keys=True
        )
        for record in records
    ]


@pytest.mark.parametrize("workers", [1, 4])
@given(seed=st.integers(min_value=0, max_value=10_000))
@_SETTINGS
def test_zero_intensity_plan_is_byte_identical_to_no_plan(
    generator, executors, workers, seed
):
    scenario = generator.generate(seed)
    zero = FaultPlan.generate(scenario, 0.0, seed=seed)
    assert zero.is_empty()
    executor = executors[workers]
    healthy = executor.run_cells(_cells(scenario, None))
    faulted = executor.run_cells(_cells(scenario, zero))
    assert _canonical(healthy) == _canonical(faulted)


@given(seed=st.integers(min_value=0, max_value=10_000))
@_SETTINGS
def test_zero_intensity_plan_shares_the_cache_key(
    generator, tmp_path_factory, seed
):
    scenario = generator.generate(seed)
    cache = RunCache(tmp_path_factory.mktemp("zero-intensity"))
    zero = FaultPlan.generate(scenario, 0.0, seed=seed)
    for heuristic in heuristic_names():
        healthy_cell = SweepCell(
            scenario=scenario,
            heuristic=heuristic,
            criterion="C4",
            weights=as_weights(2.0),
        )
        zero_cell = SweepCell(
            scenario=scenario,
            heuristic=heuristic,
            criterion="C4",
            weights=as_weights(2.0),
            faults=zero,
        )
        assert cache.key_for(healthy_cell) == cache.key_for(zero_cell)
        nonzero = FaultPlan.generate(scenario, 0.8, seed=seed, churn=False)
        if not nonzero.is_empty():
            faulted_cell = SweepCell(
                scenario=scenario,
                heuristic=heuristic,
                criterion="C4",
                weights=as_weights(2.0),
                faults=nonzero,
            )
            assert cache.key_for(faulted_cell) != cache.key_for(zero_cell)
