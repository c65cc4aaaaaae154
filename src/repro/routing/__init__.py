"""Time-dependent multiple-source shortest paths (paper §4.2).

The routing layer answers one question for the heuristics: *given the
current bookings, how early could this data item reach each machine, and
along which hops?*  See :func:`compute_shortest_path_tree`.
"""

from repro.routing.dijkstra import compute_shortest_path_tree
from repro.routing.paths import Hop, Path, ShortestPathTree

__all__ = [
    "Hop",
    "Path",
    "ShortestPathTree",
    "compute_shortest_path_tree",
]
