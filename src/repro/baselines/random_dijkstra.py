"""The Dijkstra random baseline (paper §5.2) — the tighter lower bound.

Identical to the partial path heuristic except that the next communication
step is drawn uniformly at random from the valid candidates instead of
being chosen by a cost criterion.  The gap between this baseline and the
cost-driven heuristics isolates the value of the cost criteria themselves.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.scenario import Scenario
from repro.core.state import NetworkState
from repro.cost.criteria import Cost4, CostResult
from repro.cost.terms import most_urgent_satisfiable
from repro.cost.weights import EUWeights
from repro.heuristics.base import HeuristicResult, Shortlist, TreeCache
from repro.heuristics.candidates import (
    CandidateGroup,
    Priorities,
    RequestFilter,
)
from repro.heuristics.partial_path import PartialPathHeuristic


class RandomDijkstraBaseline(PartialPathHeuristic):
    """Partial-path scheduling with uniformly random step selection.

    Args:
        seed: seed of the private RNG; runs with the same seed and scenario
            are identical.
    """

    name = "random_dijkstra"
    figure_label = "random_Dijkstra"

    def __init__(self, seed: int = 0) -> None:
        # The criterion is never consulted; Cost4 with neutral weights only
        # satisfies the base-class constructor.
        super().__init__(
            criterion=Cost4(),
            weights=EUWeights(1.0, 1.0),
        )
        self._seed = seed
        self._rng = random.Random(seed)

    def label(self) -> str:
        """Run label used in schedule names and reports."""
        return self.name

    def run(self, scenario: Scenario) -> HeuristicResult:
        """Build a schedule, reseeding the private RNG per run.

        The RNG is reset from the stored seed on every invocation so
        repeated runs of one baseline instance produce identical
        schedules — the same-(scenario, scheduler) determinism contract
        the run cache relies on, and that rule R1 of
        ``tests/test_source_rules.py`` holds every module to.
        (Previously the instance RNG carried state across runs, so a
        second ``run()`` on the same object diverged.)
        """
        self._rng = random.Random(self._seed)
        return super().run(scenario)

    def _best_choice(
        self,
        state: NetworkState,
        cache: TreeCache,
        shortlist: Shortlist,
        priorities: Priorities = None,
        request_filter: RequestFilter = None,
    ) -> Optional[Tuple[CandidateGroup, CostResult]]:
        groups: List[CandidateGroup] = []
        for payload in self._live_payloads(
            state, cache, shortlist, priorities, request_filter
        ):
            groups.extend(payload)
        if not groups:
            return None
        group = self._rng.choice(groups)
        selected = most_urgent_satisfiable(group.evaluations)
        return group, CostResult(cost=0.0, selected=selected)

    def _item_payload(
        self,
        state: NetworkState,
        item_id: int,
        groups: Tuple[CandidateGroup, ...],
    ) -> Tuple[CandidateGroup, ...]:
        """Every valid candidate of the item (the draw is over all)."""
        return groups
