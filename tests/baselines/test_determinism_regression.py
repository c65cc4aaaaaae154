"""Regression: repeated runs on one instance give identical schedules.

The run-record cache and the parallel sweep executor assume a scheduler
is a pure function of ``(scenario, scheduler)``.  The random baselines
hold private seeded RNGs, which makes a subtle failure possible: an RNG
that carries state *across* ``run()`` calls produces a different
schedule the second time the same object runs (this was a real bug in
``RandomDijkstraBaseline``, fixed by reseeding per run).  These tests
pin the per-run reseeding contract for both random baselines and the
workload generator.
"""

from __future__ import annotations

from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.baselines.single_dijkstra_random import (
    SingleDijkstraRandomBaseline,
)
from repro.serialization import document_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator
from repro.workload.presets import badd_theater


def _schedule_signature(result):
    schedule = result.schedule
    return (schedule.steps, sorted(schedule.deliveries.items()))


def test_random_dijkstra_is_identical_across_two_runs():
    scenario = badd_theater()
    baseline = RandomDijkstraBaseline(seed=7)
    first = baseline.run(scenario)
    second = baseline.run(scenario)
    assert _schedule_signature(first) == _schedule_signature(second)


def test_random_dijkstra_same_seed_fresh_instances_agree():
    scenario = badd_theater()
    first = RandomDijkstraBaseline(seed=7).run(scenario)
    second = RandomDijkstraBaseline(seed=7).run(scenario)
    assert _schedule_signature(first) == _schedule_signature(second)


def test_single_dijkstra_random_is_identical_across_two_runs():
    scenario = badd_theater()
    baseline = SingleDijkstraRandomBaseline(seed=11)
    first = baseline.run(scenario)
    second = baseline.run(scenario)
    assert _schedule_signature(first) == _schedule_signature(second)


def test_generator_is_identical_across_two_calls():
    generator = ScenarioGenerator(GeneratorConfig.tiny())
    first = generator.generate(seed=3)
    second = generator.generate(seed=3)
    assert document_to_dict(first) == document_to_dict(second)


def test_generator_fresh_instances_agree():
    config = GeneratorConfig.tiny()
    first = ScenarioGenerator(config).generate(seed=3)
    second = ScenarioGenerator(config).generate(seed=3)
    assert document_to_dict(first) == document_to_dict(second)
