"""The adapted multiple-source shortest-path algorithm of §4.2.

For one requested data item the algorithm computes, against the *current*
scheduling state, the earliest time a copy could arrive at every machine.
It is Dijkstra's algorithm on a time-dependent graph:

* the source set is the item's current copy holders, seeded with the times
  their copies become available;
* relaxing edge ``L[u,v][k]`` from a machine labelled ``t`` asks the state
  for the earliest feasible transfer start at or after ``t`` — respecting
  the link's availability window, its already-booked transfers, the
  receiver's storage over the copy's full residency (including garbage
  collection), and the sender's residency;
* the arrival label of ``v`` is the minimum completion time over all
  inbound virtual links.

Label-setting is correct because the earliest-completion function is
monotone in the ready time (waiting never lets a transfer finish earlier):
once a machine is popped its label is final.  Machines that already hold the
item are never relaxed *into* (a machine stores at most one copy).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.state import NetworkState
from repro.routing.compiled import compute_tree_compiled
from repro.routing.paths import ShortestPathTree


def compute_shortest_path_tree(
    state: NetworkState,
    item_id: int,
    targets: Optional[Mapping[int, float]] = None,
    not_before: float = 0.0,
) -> ShortestPathTree:
    """Earliest-arrival tree for one data item over the current state.

    The search runs in the array-backed kernel
    :func:`~repro.routing.compiled.compute_tree_compiled`.

    Args:
        state: the scheduling state to plan against (not mutated).
        item_id: the data item to route.
        targets: optional target machines, each mapped to its latest
            useful arrival (its deadline; ``math.inf`` for none).  The
            search stops once every target is finalized or the next label
            is past every pending target's deadline.  The tree returned
            is then already projected onto the targets
            (:meth:`~repro.routing.paths.ShortestPathTree.projected`):
            it holds the seeds and the exact paths to the targets that
            meet their deadlines, and every other machine, a missed
            target included, reads unreachable, so only pass ``targets``
            when paths to other machines are genuinely not needed.
        not_before: wall-clock lower bound on every planned transfer start
            (the "now" of a dynamic re-scheduling pass).  Copies whose
            release precedes it cannot seed the search.

    Returns:
        The :class:`~repro.routing.paths.ShortestPathTree` with exact
        earliest arrivals for every reachable machine; for a targeted
        search, its projection onto ``targets``.
    """
    return compute_tree_compiled(state, item_id, targets, not_before)
