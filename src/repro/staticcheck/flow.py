"""Reachability over the project call graph.

:func:`reachable_from` walks forward from a set of entry points, with
breadth-first parent pointers so a rule can render the *shortest* call
chain from an entry to any reached function.  Sorted frontier expansion
keeps chains deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.staticcheck.graph import ProjectGraph


def reachable_from(
    graph: ProjectGraph, entries: Sequence[str]
) -> Dict[str, Tuple[str, ...]]:
    """Functions reachable from ``entries``, with their shortest chains.

    Returns a mapping ``qname -> call chain`` (entry first, ``qname``
    last).  Entries map to their one-element chains.  Ties between
    equal-length chains break toward the lexicographically earlier
    entry/parent because expansion is breadth-first over sorted names.
    """
    chains: Dict[str, Tuple[str, ...]] = {}
    frontier: List[str] = []
    for entry in sorted(set(entries)):
        if entry in graph.functions and entry not in chains:
            chains[entry] = (entry,)
            frontier.append(entry)
    while frontier:
        next_frontier: List[str] = []
        for current in frontier:
            successors: Set[str] = set()
            for site in graph.callees(current):
                successors.update(site.targets)
            for successor in sorted(successors):
                if successor in chains:
                    continue
                chains[successor] = chains[current] + (successor,)
                next_frontier.append(successor)
        frontier = next_frontier
    return chains


def render_chain(chain: Sequence[str]) -> str:
    """Human-readable call chain (function tails joined by arrows)."""
    return " -> ".join(part.split("::", 1)[-1] for part in chain)
