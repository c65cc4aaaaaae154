"""The Dijkstra random baseline (paper §5.2) — the tighter lower bound.

Identical to the partial path heuristic except that the next communication
step is drawn uniformly at random from the valid candidates instead of
being chosen by a cost criterion.  The gap between this baseline and the
cost-driven heuristics isolates the value of the cost criteria themselves.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Optional, Tuple

from repro.core.scenario import Scenario
from repro.core.state import NetworkState
from repro.cost.criteria import Cost4, CostResult
from repro.cost.terms import most_urgent_satisfiable
from repro.cost.weights import EUWeights
from repro.heuristics.base import HeuristicResult, TreeCache
from repro.heuristics.candidates import CandidateGroup, enumerate_groups
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
        the run cache and the staticcheck R1 rule enforce everywhere
        else.  (Previously the instance RNG carried state across runs,
        so a second ``run()`` on the same object diverged.)
        """
        self._rng = random.Random(self._seed)
        return super().run(scenario)

    def _best_choice(
        self,
        state: NetworkState,
        cache: TreeCache,
        priorities: Optional[FrozenSet[int]] = None,
        request_filter=None,
    ) -> Optional[Tuple[CandidateGroup, CostResult]]:
        scenario = state.scenario
        groups = []
        for item_id in scenario.requested_item_ids():
            if not state.unsatisfied_requests_for_item(item_id):
                continue
            entry = cache.entry_for(item_id)
            payload = entry.payload
            if (
                not isinstance(payload, tuple)
                or len(payload) != 3
                or payload[0] != priorities
                or payload[1] is not request_filter
            ):
                payload = (
                    priorities,
                    request_filter,
                    enumerate_groups(
                        state,
                        item_id,
                        entry.tree,
                        scenario.weighting,
                        priorities,
                        request_filter,
                    ),
                )
                entry.payload = payload
            groups.extend(payload[2])
        if not groups:
            return None
        group = self._rng.choice(groups)
        selected = most_urgent_satisfiable(group.evaluations)
        return group, CostResult(cost=0.0, selected=selected)
