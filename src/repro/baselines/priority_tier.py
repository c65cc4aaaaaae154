"""The simplified priority-tier scheduler of §5.4.

Schedules *all* highest-priority requests before considering any
medium-priority request, and all medium before any low — a "cost-guided
(versus arbitrary) approach to basing scheduling decisions only on the
priority of individual requests".  Within a tier the requests are scheduled
by a regular heuristic/criterion pair sharing the same network state, so
the only difference from the paper's heuristics is the rigid tier ordering.

The paper reports that every heuristic/criterion combination beats this
scheme on the weighted-priority measure; the ``TAB-PT`` benchmark
reproduces that comparison.
"""

from __future__ import annotations

import time
from typing import Union

from repro.core.scenario import Scenario
from repro.core.state import NetworkState
from repro.cost.criteria import CostCriterion
from repro.cost.weights import EUWeights
from repro.heuristics.base import EngineStats, HeuristicResult, TreeCache
from repro.heuristics.registry import make_heuristic


class PriorityTierScheduler:
    """All higher-priority requests strictly before lower-priority ones.

    Args:
        heuristic: name of the inner heuristic running each tier
            (default ``"full_one"``, the paper's strongest).
        criterion: criterion name or instance used inside each tier.
        weights: E-U weights or raw ``log10`` ratio for the inner criterion.
    """

    name = "priority_tier"
    figure_label = "priority_tier"

    def __init__(
        self,
        heuristic: str = "full_one",
        criterion: Union[str, CostCriterion] = "C4",
        weights: Union[float, EUWeights] = 0.0,
    ) -> None:
        self._inner = make_heuristic(
            heuristic, criterion=criterion, weights=weights
        )

    def label(self) -> str:
        """Run label used in schedule names and reports."""
        return f"{self.name}({self._inner.label()})"

    def run(self, scenario: Scenario) -> HeuristicResult:
        """Build a schedule: one full drain per priority tier, descending."""
        started = time.perf_counter()
        stats = EngineStats()
        state = NetworkState(scenario, schedule_name=self.label())
        cache = TreeCache(state, stats)
        for priority in range(scenario.weighting.highest_priority, -1, -1):
            self._inner.drain(
                state, cache, stats, priorities=frozenset({priority})
            )
        stats.elapsed_seconds = time.perf_counter() - started
        return HeuristicResult(schedule=state.schedule, stats=stats)
