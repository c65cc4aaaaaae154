"""Unit tests for the four §4.8 cost criteria."""

import pytest

from repro.core.priority import WEIGHTING_1_10_100
from repro.core.request import Request
from repro.cost.criteria import (
    Cost1,
    Cost2,
    Cost3,
    Cost4,
    CostCriterion,
    CostResult,
    criterion_names,
    get_criterion,
    register_criterion,
)
from repro.cost.terms import evaluate_destination
from repro.cost.weights import EUWeights
from repro.errors import ConfigurationError
from repro.routing.paths import ShortestPathTree


def _evaluation(request_id, arrival, deadline, priority=2, destination=1):
    request = Request(
        request_id=request_id,
        item_id=0,
        destination=destination,
        priority=priority,
        deadline=deadline,
    )
    tree = ShortestPathTree(
        item_id=0,
        seeds={destination: arrival},
        labels={destination: arrival},
        parents={},
    )
    return evaluate_destination(request, tree, WEIGHTING_1_10_100)


#: Two satisfiable destinations: high priority with slack 20 and medium
#: priority with slack 5; plus one unsatisfiable high-priority destination.
def _mixed_group():
    return (
        _evaluation(0, arrival=30.0, deadline=50.0, priority=2),   # slack 20
        _evaluation(1, arrival=45.0, deadline=50.0, priority=1),   # slack 5
        _evaluation(2, arrival=99.0, deadline=50.0, priority=2),   # Sat=0
    )


UNIT = EUWeights(1.0, 1.0)


class TestCost1:
    def test_best_single_destination_prices_group(self):
        result = Cost1().evaluate(_mixed_group(), UNIT)
        # Cost per destination: -Efp + slack => d0: -100+20=-80,
        # d1: -10+5=-5.  d0 wins.
        assert result.cost == -80.0
        assert result.selected.request.request_id == 0

    def test_urgency_only_weights_flip_choice(self):
        result = Cost1().evaluate(_mixed_group(), EUWeights(0.0, 1.0))
        # Costs are just the slacks: d1 (5) beats d0 (20).
        assert result.cost == 5.0
        assert result.selected.request.request_id == 1

    def test_unsatisfiable_group_returns_no_selection(self):
        group = (_evaluation(0, arrival=99.0, deadline=50.0),)
        result = Cost1().evaluate(group, UNIT)
        assert result.selected is None
        assert result.cost == float("inf")

    def test_does_not_support_all_destinations(self):
        assert not Cost1().supports_all_destinations


class TestCost2:
    def test_sums_priorities_takes_most_urgent(self):
        result = Cost2().evaluate(_mixed_group(), UNIT)
        # Efp sum = 110; most urgent satisfiable urgency = -5.
        assert result.cost == -110.0 + 5.0
        assert result.selected.request.request_id == 1

    def test_unsatisfiable_destinations_contribute_nothing(self):
        group = (
            _evaluation(0, arrival=30.0, deadline=50.0, priority=2),
            _evaluation(1, arrival=99.0, deadline=50.0, priority=2),
        )
        result = Cost2().evaluate(group, UNIT)
        assert result.cost == -100.0 + 20.0

    def test_priority_weight_scales_first_term(self):
        result = Cost2().evaluate(_mixed_group(), EUWeights(10.0, 1.0))
        assert result.cost == -1100.0 + 5.0


class TestCost3:
    def test_ratio_sum_over_satisfiable(self):
        result = Cost3().evaluate(_mixed_group(), UNIT)
        # 100/(-20) + 10/(-5) = -5 - 2 = -7.
        assert result.cost == pytest.approx(-7.0)
        assert result.selected.request.request_id == 1

    def test_independent_of_weights(self):
        group = _mixed_group()
        a = Cost3().evaluate(group, EUWeights(1000.0, 1.0))
        b = Cost3().evaluate(group, EUWeights(0.0, 1.0))
        assert a.cost == b.cost
        assert Cost3().eu_independent

    def test_zero_slack_guarded(self):
        group = (_evaluation(0, arrival=50.0, deadline=50.0, priority=2),)
        result = Cost3().evaluate(group, UNIT)
        # Division guarded by epsilon: very negative but finite.
        assert result.cost < -1e4
        assert result.cost != float("-inf")


class TestCost4:
    def test_sums_both_terms(self):
        result = Cost4().evaluate(_mixed_group(), UNIT)
        # Efp sum 110; urgency sum -25.
        assert result.cost == -110.0 + 25.0
        assert result.selected.request.request_id == 1

    def test_differentiates_many_urgent_from_one_urgent(self):
        # Paper's §4.8 example: four identically urgent requests vs four
        # requests of which only one is urgent — C2 ties, C4 prefers the
        # first.
        urgent_all = tuple(
            _evaluation(i, arrival=48.0, deadline=50.0, priority=1)
            for i in range(4)
        )
        urgent_one = (
            _evaluation(0, arrival=48.0, deadline=50.0, priority=1),
        ) + tuple(
            _evaluation(i, arrival=10.0, deadline=50.0, priority=1)
            for i in range(1, 4)
        )
        c2_all = Cost2().evaluate(urgent_all, UNIT).cost
        c2_one = Cost2().evaluate(urgent_one, UNIT).cost
        c4_all = Cost4().evaluate(urgent_all, UNIT).cost
        c4_one = Cost4().evaluate(urgent_one, UNIT).cost
        assert c2_all == c2_one  # C2 cannot tell them apart
        assert c4_all < c4_one  # C4 schedules the all-urgent item first

    def test_no_satisfiable_returns_none(self):
        group = (_evaluation(0, arrival=99.0, deadline=50.0),)
        assert Cost4().evaluate(group, UNIT).selected is None


class TestRegistry:
    def test_names(self):
        assert set(criterion_names()) >= {"C1", "C2", "C3", "C4"}

    def test_lookup_case_insensitive(self):
        assert isinstance(get_criterion("c3"), Cost3)
        assert isinstance(get_criterion("C1"), Cost1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_criterion("C9")

    def test_register_custom_criterion(self):
        class AlwaysZero(CostCriterion):
            name = "TEST-ZERO"

            def evaluate(self, evaluations, weights):
                satisfiable = [e for e in evaluations if e.satisfiable]
                selected = satisfiable[0] if satisfiable else None
                return CostResult(cost=0.0, selected=selected)

        register_criterion(AlwaysZero)
        assert isinstance(get_criterion("test-zero"), AlwaysZero)
        with pytest.raises(ConfigurationError):
            register_criterion(AlwaysZero)  # duplicate

    def test_register_unnamed_rejected(self):
        class NoName(CostCriterion):
            name = ""

            def evaluate(self, evaluations, weights):  # pragma: no cover
                return CostResult(0.0, None)

        with pytest.raises(ConfigurationError):
            register_criterion(NoName)
