"""The paper's qualitative claims, asserted end-to-end on small suites.

These tests pin the *shape* of the reproduction — who wins, what is flat,
what dominates what — on small random suites, so a regression that
silently flipped a comparison would fail CI long before anyone reruns the
full benchmark harness.
"""

import pytest

from repro.baselines.bounds import possible_satisfy, upper_bound
from repro.baselines.random_dijkstra import RandomDijkstraBaseline
from repro.baselines.single_dijkstra_random import SingleDijkstraRandomBaseline
from repro.core.evaluation import evaluate_schedule
from repro.exhaustive.search import ExhaustiveSearch, SearchLimits
from repro.experiments.runner import run_pair
from repro.experiments.scale import scale_by_name
from repro.experiments.studies import (
    priority_tier_comparison,
    weighting_comparison,
)
from repro.experiments.sweep import sweep_pair
from repro.heuristics.registry import make_heuristic
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

RATIOS = (float("-inf"), 0.0, 2.0, float("inf"))


@pytest.fixture(scope="module")
def suite():
    """A moderately loaded suite where contention is real."""
    config = GeneratorConfig(
        machines=(7, 8),
        out_degree=(2, 3),
        requests_per_machine=(5, 7),
    )
    return ScenarioGenerator(config).generate_suite(5, base_seed=8000)


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


class TestBoundsSandwich:
    def test_single_dijkstra_below_heuristics_below_possible(self, suite):
        heuristic_means = []
        single_means = []
        for index, scenario in enumerate(suite):
            record = run_pair(scenario, "full_one", "C4", 2.0)
            heuristic_means.append(record.weighted_sum)
            single = SingleDijkstraRandomBaseline(seed=index).run(scenario)
            single_means.append(
                evaluate_schedule(scenario, single.schedule).weighted_sum
            )
            assert record.weighted_sum <= possible_satisfy(scenario) + 1e-9
            assert possible_satisfy(scenario) <= upper_bound(scenario)
        assert _mean(heuristic_means) > _mean(single_means)

    def test_random_dijkstra_between(self, suite):
        # Cost guidance helps: random step choice loses to C4 on average.
        cost_driven = []
        random_choice = []
        for index, scenario in enumerate(suite):
            cost_driven.append(
                run_pair(scenario, "partial", "C4", 2.0).weighted_sum
            )
            random_run = RandomDijkstraBaseline(seed=index).run(scenario)
            random_choice.append(
                evaluate_schedule(scenario, random_run.schedule).weighted_sum
            )
        assert _mean(cost_driven) >= _mean(random_choice)


class TestCriterionShape:
    def test_c3_is_flat_across_ratios(self, suite):
        records = sweep_pair(suite[:2], "full_one", "C3", RATIOS)
        by_case = {}
        for record in records:
            by_case.setdefault(record.scenario, set()).add(
                record.weighted_sum
            )
        assert all(len(values) == 1 for values in by_case.values())

    def test_ratio_extremes_are_worse_than_interior(self, suite):
        # The figures dip at -inf (urgency only); the interior should be
        # at least as good on average.
        records = sweep_pair(suite, "full_one", "C4", RATIOS)
        by_ratio = {}
        for record in records:
            by_ratio.setdefault(record.eu_label, []).append(
                record.weighted_sum
            )
        assert _mean(by_ratio["2"]) >= _mean(by_ratio["-inf"]) - 1e-9


class TestHeuristicRelations:
    def test_full_all_uses_fewest_dijkstra_runs(self, suite):
        partial_runs = []
        full_all_runs = []
        for scenario in suite:
            partial_runs.append(
                make_heuristic("partial", "C4", 2.0)
                .run(scenario)
                .stats.dijkstra_runs
            )
            full_all_runs.append(
                make_heuristic("full_all", "C4", 2.0)
                .run(scenario)
                .stats.dijkstra_runs
            )
        assert _mean(full_all_runs) <= _mean(partial_runs)

    def test_full_all_value_comparable_to_full_one(self, suite):
        # §4.7: full_all was "expected to generate results comparable to"
        # full_one.  Within 5% on average qualifies as comparable.
        full_one = _mean(
            run_pair(s, "full_one", "C4", 2.0).weighted_sum for s in suite
        )
        full_all = _mean(
            run_pair(s, "full_all", "C4", 2.0).weighted_sum for s in suite
        )
        assert full_all >= 0.95 * full_one


class TestOversubscription:
    def test_suite_is_oversubscribed(self, suite):
        gaps = [
            upper_bound(scenario) - possible_satisfy(scenario)
            for scenario in suite
        ]
        assert _mean(gaps) > 0


class TestClaim10NearOptimal:
    """EXPERIMENTS.md claim 10: on tiny instances the heuristics reach
    the exhaustive optimum (ABL-O, ``benchmarks/bench_optimality_gap.py``
    at ci scale)."""

    PAIRS = (
        ("partial", "C4"),
        ("full_one", "C4"),
        ("full_all", "C4"),
        ("full_one", "C3"),
    )

    def test_claim_10_heuristics_equal_the_exhaustive_optimum(self):
        config = GeneratorConfig(
            machines=(4, 5),
            out_degree=(1, 2),
            requests_per_machine=(2, 3),
            sources_per_item=(1, 1),
            destinations_per_item=(1, 2),
        )
        # No wall-clock budget: completeness depends on the expansion
        # budget alone, so the claim holds on any host.
        search = ExhaustiveSearch(
            SearchLimits(
                max_expansions=60_000, time_limit_seconds=float("inf")
            )
        )
        for scenario in ScenarioGenerator(config).generate_suite(
            6, base_seed=4000
        ):
            exact = search.solve(scenario)
            assert exact.complete, scenario.name
            assert exact.weighted_sum > 0.0, scenario.name
            for heuristic, criterion in self.PAIRS:
                run = make_heuristic(heuristic, criterion, 2.0).run(scenario)
                value = evaluate_schedule(scenario, run.schedule).weighted_sum
                assert value == exact.weighted_sum, (
                    scenario.name, heuristic, criterion
                )


class TestClaims8And9AtCiScale:
    """EXPERIMENTS.md claims 8 and 9 on the cells behind
    ``benchmarks/results/ci/tab_weightings.txt`` and
    ``tab_priority_tier.txt``: full_one/C4 at log10(E-U)=2 on the ci
    cases."""

    @pytest.fixture(scope="class")
    def ci(self):
        return scale_by_name("ci")

    def test_claim_8_steeper_weighting_favours_high_priority(self, ci):
        seeds = range(ci.base_seed, ci.base_seed + ci.cases)
        outcomes = {
            outcome.weighting: outcome
            for outcome in weighting_comparison(
                ScenarioGenerator(ci.config),
                seeds,
                heuristic="full_one",
                criterion="C4",
                weights=2.0,
            )
        }
        light = outcomes["1-5-10"].mean_satisfied_by_priority
        heavy = outcomes["1-10-100"].mean_satisfied_by_priority
        high, low = 2, 0
        assert heavy[high] >= light[high]
        assert heavy[low] <= light[low]

    def test_claim_9_heuristic_never_loses_to_the_tier_scheme(self, ci):
        scenarios = ScenarioGenerator(ci.config).generate_suite(
            ci.cases, ci.base_seed
        )
        comparison = priority_tier_comparison(
            scenarios, heuristic="full_one", criterion="C4", weights=2.0
        )
        assert comparison.cases == ci.cases
        assert comparison.wins + comparison.ties == comparison.cases
