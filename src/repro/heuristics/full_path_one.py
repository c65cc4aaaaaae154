"""The full path / one destination heuristic (paper §4.6).

Once a candidate group is chosen, *all* hops needed to carry the data item
to the group's selected destination are booked before Dijkstra runs again.
This avoids the partial path heuristic's pathology of half-built paths that
block other items, at the price of committing a whole path based on one
cost evaluation.

For ``Cost1`` the selected destination is the one whose per-destination
cost priced the group; for the grouped criteria (C2–C4) it is the most
urgent satisfiable destination in ``Drq[i,r]`` (see DESIGN.md §4, decision
6).
"""

from __future__ import annotations

from repro.core.state import NetworkState
from repro.cost.criteria import CostResult
from repro.errors import SchedulingError
from repro.heuristics.base import StagingHeuristic
from repro.heuristics.candidates import CandidateGroup


class FullPathOneDestinationHeuristic(StagingHeuristic):
    """Schedule the whole path to the chosen destination per iteration."""

    name = "full_one"
    figure_label = "full_one"

    def _execute(
        self,
        state: NetworkState,
        group: CandidateGroup,
        result: CostResult,
    ) -> int:
        if result.selected is None:
            raise SchedulingError(
                "full_one chose a group without a satisfiable destination"
            )
        destination = result.selected.request.destination
        path = group.tree.path_to(destination)
        if path is None or not path.hops:
            raise SchedulingError(
                f"selected destination M[{destination}] has no path for item "
                f"{group.item_id}"
            )
        return self._book_paths(state, group.item_id, [path.hops])
