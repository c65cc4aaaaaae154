"""The partial path heuristic (paper §4.5).

Each iteration schedules exactly one hop: the data item of the cheapest
candidate group is moved one machine further along its shortest path, the
receiving machine becomes an additional source of the item, and every
shortest-path tree affected by the booking is recomputed before the next
choice.  A partial path that later becomes blocked is left in place (the
transfers were justified when booked, and in a dynamic system the request
might become satisfiable again).
"""

from __future__ import annotations

from repro.core.state import NetworkState
from repro.cost.criteria import CostResult
from repro.heuristics.base import StagingHeuristic
from repro.heuristics.candidates import CandidateGroup


class PartialPathHeuristic(StagingHeuristic):
    """Schedule the single most valuable next hop per iteration."""

    name = "partial"
    figure_label = "partial"

    def _execute(
        self,
        state: NetworkState,
        group: CandidateGroup,
        result: CostResult,
    ) -> int:
        self._book_hop(state, group.item_id, group.first_hop)
        return 1
