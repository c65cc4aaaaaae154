"""A small worklist dataflow engine over the project call graph.

Two query shapes cover the interprocedural rules:

* :func:`solve` — a monotone fixpoint over call-graph facts.  Each
  function's fact is recomputed from its local contribution and its
  callees' current facts by a rule-supplied transfer function; when a
  fact changes, the function's callers re-enter the worklist.  Because
  transfer functions are monotone joins over finite fact sets, the
  fixpoint is unique — worklist order affects only running time, never
  the result.

* :func:`reachable_from` — forward reachability from a set of entry
  points, with breadth-first parent pointers so rules can render the
  *shortest* call chain from an entry to any reached function.  Sorted
  frontier expansion keeps chains deterministic.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.staticcheck.graph import ProjectGraph

F = TypeVar("F")

#: A transfer function: ``(qname, current facts) -> new fact``.  It must
#: be monotone in the callee facts it reads (only ever grow its result
#: as they grow) for :func:`solve` to terminate at the unique fixpoint.
Transfer = Callable[[str, Mapping[str, F]], F]


def solve(
    graph: ProjectGraph,
    bottom: F,
    transfer: Transfer[F],
) -> Dict[str, F]:
    """Iterate ``transfer`` over every function to its unique fixpoint.

    Args:
        graph: the project call graph.
        bottom: the initial (empty) fact every function starts from.
        transfer: recomputes one function's fact; it may read any other
            function's current fact from the mapping it is handed.

    Returns:
        The fixpoint fact per qualified function name.
    """
    facts: Dict[str, F] = {
        qname: bottom for qname in sorted(graph.functions)
    }
    pending: List[str] = sorted(graph.functions)
    queued: Set[str] = set(pending)
    while pending:
        qname = pending.pop(0)
        queued.discard(qname)
        updated = transfer(qname, facts)
        if updated == facts[qname]:
            continue
        facts[qname] = updated
        for caller in graph.callers(qname):
            if caller not in queued:
                queued.add(caller)
                pending.append(caller)
    return facts


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
