"""The engine's small records: immutable, equal by value, picklable.

The search, scoring and booking paths build these records by position,
and callers (a criterion registered from outside included) may still
build them by keyword.
"""

import pickle
from unittest import mock

import pytest

from repro.core.intervals import Interval
from repro.core.state import (
    MUTATION_BOOKING,
    BookingResult,
    CopyRecord,
    MutationRecord,
    NetworkState,
    TransferPlan,
)
from repro.cost import criteria
from repro.cost.criteria import Cost4, CostResult, get_criterion
from repro.cost.terms import DestinationEvaluation, evaluate_destination
from repro.heuristics.candidates import CandidateGroup, enumerate_groups
from repro.heuristics.registry import make_heuristic
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.routing.paths import Hop
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import single_item_line_scenario


def _groups():
    scenario = single_item_line_scenario()
    state = NetworkState(scenario)
    tree = compute_shortest_path_tree(state, 0)
    return enumerate_groups(state, 0, tree, scenario.weighting)


def _records():
    """One record of each kind, built by keyword."""
    scenario = single_item_line_scenario()
    (group,) = _groups()
    link = scenario.network.link(0)
    copy = CopyRecord(machine=1, available_from=1.0, release=9.0, hops=1)
    return [
        Hop(sender=0, receiver=1, link_id=0, start=0.0, end=1.0),
        evaluate_destination(
            scenario.requests[0], group.tree, scenario.weighting
        ),
        group,
        CostResult(cost=-1.5, selected=group.evaluations[0]),
        copy,
        MutationRecord(
            kind=MUTATION_BOOKING,
            link_id=0,
            busy=Interval(0.0, 1.0),
            machine=1,
            residency=Interval(0.0, 9.0),
            item_id=0,
        ),
        TransferPlan(item_id=0, link=link, start=0.0, end=1.0, release=9.0),
        BookingResult(step_id=0, copy=copy, satisfied_request_ids=(0,)),
    ]


@pytest.mark.parametrize(
    "record", _records(), ids=lambda record: type(record).__name__
)
class TestRecordSemantics:
    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)

    def test_equal_and_hashed_by_value(self, record):
        twin = type(record)(*record)
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)

    def test_pickling_round_trips(self, record):
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is type(record)
        assert restored == record


def test_a_candidate_group_ignores_its_tree():
    (group,) = _groups()
    other_tree = compute_shortest_path_tree(
        NetworkState(single_item_line_scenario()), 0
    )
    twin = group._replace(tree=other_tree)
    assert twin.tree is not group.tree
    assert twin == group and not twin != group
    assert hash(twin) == hash(group)
    moved = group._replace(next_machine=group.next_machine + 1)
    assert moved != group and not moved == group


def test_a_destination_evaluation_keeps_its_derived_terms():
    evaluation = _records()[1]
    assert isinstance(evaluation, DestinationEvaluation)
    assert evaluation.slack == (
        evaluation.request.deadline - evaluation.arrival
    )
    assert evaluation.guarded_urgency <= evaluation.urgency


class KeywordC4(Cost4):
    """C4, answering through a :class:`CostResult` built by keyword."""

    name = "TEST-KEYWORD-C4"

    def evaluate(self, evaluations, weights):
        result = super().evaluate(evaluations, weights)
        return CostResult(cost=result.cost, selected=result.selected)


def test_a_registered_keyword_criterion_drives_a_run():
    scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(3)
    with mock.patch.dict(criteria._CRITERIA):
        criteria.register_criterion(KeywordC4)
        keyword = make_heuristic(
            "full_one", get_criterion(KeywordC4.name), 0.0
        ).run(scenario)
    reference = make_heuristic("full_one", "C4", 0.0).run(scenario)
    assert keyword.schedule.steps
    assert keyword.schedule.steps == reference.schedule.steps
    assert keyword.schedule.deliveries == reference.schedule.deliveries
