"""Enumeration of valid next communication steps (paper §4.3).

After the shortest-path trees of all requested items are (re)computed, the
*valid next communication steps* are, for each item ``Rq[i]``, the first
hops of the tree paths leading to unsatisfied, still-reachable destinations.
Destinations sharing the same next machine ``M[r]`` form the paper's
``Drq[i,r]`` set; each such set — together with the concrete first hop and
the §4.8 destination evaluations — is one :class:`CandidateGroup` that the
cost criteria price and the heuristics schedule.

A drain keeps each item's groups across decisions and enumerates them
again only for items it booked or whose trees the journal replay found
in conflict (:class:`~repro.heuristics.base.Shortlist`).  Only requests
that pass a drain's filters (:func:`visible_requests`) contribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.priority import PriorityWeighting
from repro.core.request import Request
from repro.core.schedule import reduce_by_fields
from repro.core.state import NetworkState
from repro.cost.terms import DestinationEvaluation, evaluate_destination
from repro.errors import SchedulingError
from repro.routing.paths import Hop, ShortestPathTree

#: A drain's request filters: the tier's priority classes and a predicate.
Priorities = Optional[FrozenSet[int]]
RequestFilter = Optional[Callable[..., bool]]


@dataclass(frozen=True, eq=False)
class CandidateGroup:
    """One valid next communication step and the destinations it serves.

    Attributes:
        item_id: the data item to move.
        next_machine: the paper's ``M[r]`` — receiver of the first hop.
        first_hop: the concrete transfer (sender, link, planned times).
        evaluations: §4.8 terms for every unsatisfied destination whose
            current shortest path starts with ``first_hop`` (the ``Drq[i,r]``
            set), ordered by request id.
        tree: the tree the step was read from (not part of its identity:
            equality and hashing read the other fields).
    """

    # Slotted: the tree caches' prefix memo holds the groups of a run.
    __slots__ = (
        "item_id", "next_machine", "first_hop", "evaluations", "tree"
    )
    __reduce__ = reduce_by_fields

    item_id: int
    next_machine: int
    first_hop: Hop
    evaluations: Tuple[DestinationEvaluation, ...]
    tree: ShortestPathTree

    def _key(self) -> Tuple[object, ...]:
        return (
            self.item_id, self.next_machine, self.first_hop, self.evaluations
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidateGroup):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def has_satisfiable_destination(self) -> bool:
        """True when scheduling this step can help at least one request."""
        return any(e.satisfiable for e in self.evaluations)

    def satisfiable_evaluations(self) -> Tuple[DestinationEvaluation, ...]:
        """The subset of evaluations with ``Sat = 1``."""
        return tuple(e for e in self.evaluations if e.satisfiable)

    def tie_break_key(self) -> Tuple[int, int, int]:
        """Deterministic ordering key used when costs tie."""
        return (self.item_id, self.next_machine, self.first_hop.link_id)


def visible_requests(
    state: NetworkState,
    item_id: int,
    priorities: Priorities = None,
    request_filter: RequestFilter = None,
) -> Iterator[Request]:
    """The item's unsatisfied requests that pass a drain's filters.

    Args:
        priorities: when given, only requests of these priority classes
            pass (used by the §5.4 priority-tier baseline).
        request_filter: arbitrary additional predicate over requests (used
            by the dynamic driver to hide not-yet-revealed requests).
    """
    for request in state.unsatisfied_requests_for_item(item_id):
        if priorities is not None and request.priority not in priorities:
            continue
        if request_filter is not None and not request_filter(request):
            continue
        yield request


def enumerate_groups(
    state: NetworkState,
    item_id: int,
    tree: ShortestPathTree,
    weighting: PriorityWeighting,
    priorities: Priorities = None,
    request_filter: RequestFilter = None,
) -> Tuple[CandidateGroup, ...]:
    """Build the ``Drq[i,r]`` candidate groups for one item.

    Only groups containing at least one *satisfiable* destination are
    returned — per §4.8, a step whose every destination misses its deadline
    receives no resources.

    Args:
        state: current scheduling state (supplies unsatisfied requests).
        item_id: the item whose tree is being expanded.
        tree: the item's up-to-date shortest-path tree.
        weighting: the scenario's priority weighting.
        priorities, request_filter: the drain's filters (see
            :func:`visible_requests`).

    Raises:
        SchedulingError: if a destination's path is cyclic or does not
            start at a seed (a tree bug).
    """
    parents = tree.planned_hops
    seeds = tree.seed_machines()
    grouped: Dict[int, List[DestinationEvaluation]] = {}
    first_hops: Dict[int, Hop] = {}
    # In request-id order (a scenario's ids are dense and in order), so
    # each group's evaluations are too.
    requests: Iterable[Request] = (
        state.unsatisfied_requests_for_item(item_id)
        if priorities is None and request_filter is None
        else visible_requests(state, item_id, priorities, request_filter)
    )
    for request in requests:
        receiver, sender = None, request.destination
        if not tree.is_reachable(sender):
            continue
        for _ in range(len(parents)):  # up to the path's first hop
            if sender not in parents:
                break
            receiver, sender = sender, parents[sender][0]
        if sender in parents or sender not in seeds:
            raise SchedulingError(
                f"the path to M[{request.destination}] of item {item_id} "
                f"is cyclic or does not start at a seed"
            )
        if receiver is None:
            continue  # the destination already holds a (late) copy
        if receiver not in first_hops:
            __, link_id, start, end = parents[receiver]
            first_hops[receiver] = Hop(sender, receiver, link_id, start, end)
        evaluation = evaluate_destination(request, tree, weighting)
        grouped.setdefault(receiver, []).append(evaluation)
    groups = []
    for next_machine in sorted(grouped):
        evaluations = grouped[next_machine]
        if any(evaluation.satisfiable for evaluation in evaluations):
            groups.append(
                CandidateGroup(
                    item_id=item_id,
                    next_machine=next_machine,
                    first_hop=first_hops[next_machine],
                    evaluations=tuple(evaluations),
                    tree=tree,
                )
            )
    return tuple(groups)
