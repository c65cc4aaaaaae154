"""The full path / all destinations heuristic (paper §4.7).

Builds on the full path / one destination heuristic: when a candidate group
is chosen, the paths to *every* satisfiable destination in ``Drq[i,r]`` —
all of which share the next machine ``M[r]`` as their first hop — are booked
at once.  Fewer Dijkstra executions are needed than for the other two
heuristics, at the price of committing more transfers per cost evaluation.

``Cost1`` cannot drive this heuristic because it prices a single
destination and "does not capture the fact that a data item can be sent to
multiple destinations" (§4.8); constructing the combination raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from repro.core.state import NetworkState
from repro.cost.criteria import CostResult
from repro.errors import SchedulingError
from repro.heuristics.base import StagingHeuristic
from repro.heuristics.candidates import CandidateGroup


class FullPathAllDestinationsHeuristic(StagingHeuristic):
    """Schedule paths to every satisfiable destination sharing ``M[r]``."""

    name = "full_all"
    figure_label = "full_all"

    def _execute(
        self,
        state: NetworkState,
        group: CandidateGroup,
        result: CostResult,
    ) -> int:
        paths = []
        for evaluation in group.satisfiable_evaluations():
            destination = evaluation.request.destination
            path = group.tree.path_to(destination)
            if path is None or not path.hops:
                raise SchedulingError(
                    f"satisfiable destination M[{destination}] has no path "
                    f"for item {group.item_id}"
                )
            paths.append(path.hops)
        if not paths:
            raise SchedulingError(
                "full_all chose a group without satisfiable destinations"
            )
        return self._book_paths(state, group.item_id, paths)

    def _requires_group_cost(self) -> bool:
        return True
