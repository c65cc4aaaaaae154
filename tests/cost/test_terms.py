"""Unit tests for ``Sat``, ``Efp``, and ``Urgency``."""


from repro.core.priority import WEIGHTING_1_10_100
from repro.core.request import Request
from repro.cost.terms import (
    URGENCY_EPSILON,
    evaluate_destination,
    most_urgent_satisfiable,
)
from repro.routing.paths import ShortestPathTree


def _request(request_id=0, destination=1, priority=2, deadline=50.0):
    return Request(
        request_id=request_id,
        item_id=0,
        destination=destination,
        priority=priority,
        deadline=deadline,
    )


def _tree(arrivals):
    """A degenerate tree exposing fixed arrival labels."""
    labels = dict(arrivals)
    seeds = {machine: t for machine, t in labels.items()}
    return ShortestPathTree(
        item_id=0, seeds=seeds, labels=labels, parents={}
    )


class TestEvaluateDestination:
    def test_satisfiable_request(self):
        evaluation = evaluate_destination(
            _request(deadline=50.0), _tree({1: 30.0}), WEIGHTING_1_10_100
        )
        assert evaluation.satisfiable
        assert evaluation.arrival == 30.0
        assert evaluation.effective_priority == 100.0
        assert evaluation.urgency == -20.0
        assert evaluation.slack == 20.0

    def test_arrival_exactly_at_deadline_is_satisfiable(self):
        evaluation = evaluate_destination(
            _request(deadline=50.0), _tree({1: 50.0}), WEIGHTING_1_10_100
        )
        assert evaluation.satisfiable
        assert evaluation.urgency == 0.0

    def test_unsatisfiable_request_contributes_zero(self):
        evaluation = evaluate_destination(
            _request(deadline=50.0), _tree({1: 60.0}), WEIGHTING_1_10_100
        )
        assert not evaluation.satisfiable
        assert evaluation.effective_priority == 0.0
        assert evaluation.urgency == 0.0
        assert evaluation.slack == float("inf")

    def test_unreachable_destination_is_unsatisfiable(self):
        evaluation = evaluate_destination(
            _request(destination=9), _tree({1: 0.0}), WEIGHTING_1_10_100
        )
        assert not evaluation.satisfiable

    def test_priority_weight_applied(self):
        evaluation = evaluate_destination(
            _request(priority=1, deadline=50.0),
            _tree({1: 10.0}),
            WEIGHTING_1_10_100,
        )
        assert evaluation.effective_priority == 10.0

    def test_guarded_urgency_bounded_away_from_zero(self):
        evaluation = evaluate_destination(
            _request(deadline=50.0), _tree({1: 50.0}), WEIGHTING_1_10_100
        )
        assert evaluation.guarded_urgency == -URGENCY_EPSILON
        tight = evaluate_destination(
            _request(deadline=50.0), _tree({1: 30.0}), WEIGHTING_1_10_100
        )
        assert tight.guarded_urgency == -20.0


class TestMostUrgentSatisfiable:
    def _eval(self, request_id, arrival, deadline=50.0):
        return evaluate_destination(
            _request(request_id=request_id, deadline=deadline),
            _tree({1: arrival}),
            WEIGHTING_1_10_100,
        )

    def test_smallest_slack_wins(self):
        evaluations = (
            self._eval(0, arrival=10.0),  # slack 40
            self._eval(1, arrival=45.0),  # slack 5  <- most urgent
            self._eval(2, arrival=30.0),  # slack 20
        )
        assert most_urgent_satisfiable(evaluations).request.request_id == 1

    def test_unsatisfiable_ignored(self):
        evaluations = (
            self._eval(0, arrival=60.0),  # unsatisfiable
            self._eval(1, arrival=10.0),
        )
        assert most_urgent_satisfiable(evaluations).request.request_id == 1

    def test_none_when_all_unsatisfiable(self):
        evaluations = (self._eval(0, arrival=60.0),)
        assert most_urgent_satisfiable(evaluations) is None
        assert most_urgent_satisfiable(()) is None

    def test_tie_breaks_on_request_id(self):
        evaluations = (
            self._eval(3, arrival=40.0),
            self._eval(1, arrival=40.0),
            self._eval(2, arrival=40.0),
        )
        assert most_urgent_satisfiable(evaluations).request.request_id == 1
