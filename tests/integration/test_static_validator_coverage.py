"""Every static scheduler's schedule passes the independent validator,
healthy and under faults.

The schedulers are each heuristic with each criterion it accepts, both
random baselines and the priority tier.  Each runs on tiny scenarios
under a static fault plan (``FaultPlan.generate`` without churn) at
intensity 0, which is the empty plan, and at 0.5, and its schedule must
pass ``ScheduleValidator(scenario, faults=plan)``.  Dynamic schedules
are covered with their losses by the run-shortlist differential.
"""

import pytest

from repro.baselines.priority_tier import PriorityTierScheduler
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.baselines.single_dijkstra_random import (
    SingleDijkstraRandomBaseline,
)
from repro.core.validation import ScheduleValidator
from repro.cost.criteria import criterion_names
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, use_faults
from repro.heuristics.registry import heuristic_names, make_heuristic
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

SCENARIOS = ScenarioGenerator(GeneratorConfig.tiny()).generate_suite(5, 40)


def _accepts(heuristic, criterion):
    try:
        make_heuristic(heuristic, criterion, 0.0)
    except ConfigurationError:
        return False
    return True


#: ``label -> factory`` of every static scheduler.
SCHEDULERS = {
    f"{heuristic}/{criterion}": (
        lambda heuristic=heuristic, criterion=criterion: make_heuristic(
            heuristic, criterion, 1.0
        )
    )
    for heuristic in heuristic_names()
    for criterion in criterion_names()
    if _accepts(heuristic, criterion)
}
SCHEDULERS["random_dijkstra"] = lambda: RandomDijkstraBaseline(seed=3)
SCHEDULERS["single_dij_random"] = lambda: SingleDijkstraRandomBaseline(seed=3)
SCHEDULERS["priority_tier"] = PriorityTierScheduler


def test_every_heuristic_criterion_pair_is_covered():
    assert len(SCHEDULERS) == 11 + 3
    assert "full_all/C1" not in SCHEDULERS


@pytest.mark.parametrize("intensity", [0.0, 0.5])
@pytest.mark.parametrize("label", sorted(SCHEDULERS))
def test_static_schedules_pass_the_validator(label, intensity):
    booked = 0
    for index, scenario in enumerate(SCENARIOS):
        plan = FaultPlan.generate(
            scenario, intensity, seed=index, churn=False
        )
        assert plan.is_empty() == (intensity == 0.0)
        with use_faults(plan):
            result = SCHEDULERS[label]().run(scenario)
        ScheduleValidator(scenario, faults=plan).validate(result.schedule)
        booked += result.schedule.step_count
    assert booked > 0
