"""Rollout (one-step lookahead) scheduling on top of the paper heuristics.

The paper's heuristics pick each communication step by a *myopic* cost
criterion.  A classic strengthening is the rollout policy: for each of the
top-k candidate steps, simulate booking it and completing the schedule
with the greedy base heuristic, then commit to the candidate whose
*finished* schedule scores best.  One-step lookahead with a greedy
completion can never do worse than the greedy base policy when the base
policy's own first choice is among the candidates evaluated — which it
always is here (the beam is seeded with the criterion's best step).

Cost: every scheduling decision runs up to ``beam_width`` full greedy
completions, so the rollout scheduler is two to three orders of magnitude
slower than its base heuristic.  It is an *extension* intended for small
instances and for quantifying how much headroom the myopic criteria leave
(see ``benchmarks/bench_rollout.py``).
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple, Union

from repro.core.evaluation import evaluate_satisfied
from repro.core.scenario import Scenario
from repro.core.state import NetworkState
from repro.cost.criteria import CostCriterion
from repro.cost.weights import EUWeights
from repro.errors import ConfigurationError, SchedulingError
from repro.heuristics.base import EngineStats, HeuristicResult, TreeCache
from repro.heuristics.candidates import CandidateGroup, enumerate_groups
from repro.heuristics.registry import make_heuristic
from repro.routing.dijkstra import compute_shortest_path_tree


class RolloutScheduler:
    """One-step lookahead over a greedy base heuristic.

    Args:
        heuristic: base heuristic registry name (used both to complete
            rollout simulations and to execute the committed step).
        criterion: criterion name or instance pricing candidate steps.
        weights: E-U weights or raw ``log10`` ratio.
        beam_width: number of cheapest candidate steps simulated per
            decision (1 reduces to the base heuristic, just slower).
    """

    name = "rollout"

    def __init__(
        self,
        heuristic: str = "full_one",
        criterion: Union[str, CostCriterion] = "C4",
        weights: Union[float, EUWeights] = 2.0,
        beam_width: int = 3,
    ) -> None:
        if beam_width < 1:
            raise ConfigurationError(
                f"beam_width must be >= 1, got {beam_width}"
            )
        self._inner = make_heuristic(
            heuristic, criterion=criterion, weights=weights
        )
        self._beam_width = beam_width

    def label(self) -> str:
        """Run label, e.g. ``"rollout(full_one/C4, k=3)"``."""
        return f"rollout({self._inner.label()}, k={self._beam_width})"

    def run(self, scenario: Scenario) -> HeuristicResult:
        """Build a schedule with one greedy completion per beam candidate."""
        started = time.perf_counter()
        stats = EngineStats()
        state = NetworkState(scenario, schedule_name=self.label())
        while True:
            beam = self._beam(state, stats)
            if not beam:
                break
            stats.iterations += 1
            chosen = self._choose(scenario, state, beam, stats)
            stats.hops_booked += self._commit(state, chosen)
        stats.elapsed_seconds = time.perf_counter() - started
        return HeuristicResult(schedule=state.schedule, stats=stats)

    # -- internals ----------------------------------------------------------

    def _beam(
        self, state: NetworkState, stats: EngineStats
    ) -> List[CandidateGroup]:
        """The ``beam_width`` cheapest candidate groups, best first."""
        scenario = state.scenario
        cache = TreeCache(state, stats, enabled=True)
        scored: List[Tuple[tuple, CandidateGroup]] = []
        for item_id in scenario.requested_item_ids():
            if not state.unsatisfied_requests_for_item(item_id):
                continue
            tree = cache.tree_for(item_id)
            for group in enumerate_groups(
                state, item_id, tree, scenario.weighting
            ):
                result = self._inner.criterion.evaluate(
                    group.evaluations, self._inner.weights
                )
                if result.selected is None:
                    continue
                key = (result.cost,) + group.tie_break_key()
                scored.append((key, group))
        scored.sort(key=lambda pair: pair[0])
        return [group for __, group in scored[: self._beam_width]]

    def _choose(
        self,
        scenario: Scenario,
        state: NetworkState,
        beam: List[CandidateGroup],
        stats: EngineStats,
    ) -> CandidateGroup:
        """Simulate each beam candidate to completion; keep the best."""
        if len(beam) == 1:
            return beam[0]
        best_group: Optional[CandidateGroup] = None
        best_value = float("-inf")
        for group in beam:
            simulation = state.clone()
            self._commit(simulation, group)
            sim_stats = EngineStats()
            sim_cache = TreeCache(simulation, sim_stats, enabled=True)
            self._inner.drain(simulation, sim_cache, sim_stats)
            stats.dijkstra_runs += sim_stats.dijkstra_runs
            value = evaluate_satisfied(
                scenario, simulation.satisfied_request_ids()
            ).weighted_sum
            if value > best_value:
                best_value = value
                best_group = group
        assert best_group is not None
        return best_group

    def _commit(self, state: NetworkState, group: CandidateGroup) -> int:
        """Book the full path to the group's selected destination."""
        result = self._inner.criterion.evaluate(
            group.evaluations, self._inner.weights
        )
        if result.selected is None:
            raise SchedulingError(
                "rollout committed a group without satisfiable destinations"
            )
        destination = result.selected.request.destination
        tree = compute_shortest_path_tree(
            state, group.item_id, targets={destination: math.inf}
        )
        path = tree.path_to(destination)
        if path is None or not path.hops:
            raise SchedulingError(
                f"no path to committed destination M[{destination}] for "
                f"item {group.item_id}"
            )
        return self._inner._book_paths(state, group.item_id, [path.hops])
