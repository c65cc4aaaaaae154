"""Shortest-path trees and path reconstruction for one data item.

The adapted Dijkstra of §4.2 produces, for one requested data item, the
earliest time a copy could reach every machine (the ``A_T`` values of §4.8)
together with parent pointers.  :class:`ShortestPathTree` packages those
labels, reconstructs hop-by-hop :class:`Path` objects toward requesting
destinations, and reports the *resource footprint* of the tree — the links
and storage machines its destination paths rely on — which the heuristics
use to decide when a cached tree must be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.core.units import time_eq
from repro.errors import SchedulingError


@dataclass(frozen=True)
class Hop:
    """One planned transfer along a shortest path.

    Attributes:
        sender: the transmitting machine.
        receiver: the receiving machine.
        link_id: the virtual link the tree selected.
        start: planned transfer start time.
        end: planned arrival time at ``receiver``.
    """

    sender: int
    receiver: int
    link_id: int
    start: float
    end: float


@dataclass(frozen=True)
class Path:
    """A hop sequence from a current copy holder to a target machine.

    Attributes:
        item_id: the data item the path moves.
        origin: the copy-holding machine the path starts from.
        hops: the transfers, in travel order; empty when ``origin`` is the
            target itself (the item is already there).
    """

    item_id: int
    origin: int
    hops: Tuple[Hop, ...]

    @property
    def target(self) -> int:
        """The machine the path delivers to."""
        if not self.hops:
            return self.origin
        return self.hops[-1].receiver

    @property
    def arrival(self) -> Optional[float]:
        """Arrival time at the target (``None`` for an empty path)."""
        if not self.hops:
            return None
        return self.hops[-1].end

    @property
    def first_hop(self) -> Optional[Hop]:
        """The next transfer to book, or ``None`` for an empty path."""
        return self.hops[0] if self.hops else None

    def machines(self) -> Tuple[int, ...]:
        """All machines on the path, origin first."""
        return (self.origin,) + tuple(hop.receiver for hop in self.hops)

    def __len__(self) -> int:
        return len(self.hops)


class ShortestPathTree:
    """Earliest-arrival labels plus parent pointers for one data item.

    Built by :func:`repro.routing.dijkstra.compute_shortest_path_tree`; the
    heuristics only read it.  Parent pointers are the search's plain
    ``(sender, link_id, start, end)`` tuples; :meth:`path_to` turns the
    ones on a requested path into :class:`Hop` objects.

    Attributes are exposed through methods so the internal dictionaries stay
    private and the object can be safely shared across heuristic iterations.
    """

    def __init__(
        self,
        item_id: int,
        seeds: Mapping[int, float],
        labels: Mapping[int, float],
        parents: Mapping[int, Tuple[int, int, float, float]],
    ) -> None:
        self._item_id = item_id
        self._seeds = dict(seeds)
        self._labels = dict(labels)
        self._parents = dict(parents)
        # The tree is immutable, so reconstructed paths are memoized:
        # candidate enumeration, footprint capture, and booking all walk
        # the same destination paths every engine iteration.
        self._paths: Dict[int, Optional[Path]] = {}

    @property
    def item_id(self) -> int:
        """The data item this tree routes."""
        return self._item_id

    def seed_machines(self) -> Tuple[int, ...]:
        """Machines that already hold a copy (the multi-source set)."""
        return tuple(sorted(self._seeds))

    def arrival(self, machine: int) -> float:
        """Earliest arrival ``A_T`` at a machine (``inf`` if unreachable)."""
        return self._labels.get(machine, float("inf"))

    def is_reachable(self, machine: int) -> bool:
        """True if the item can reach the machine at all."""
        return machine in self._labels

    def path_to(self, machine: int) -> Optional[Path]:
        """The shortest path delivering the item to ``machine``.

        Returns ``None`` when the machine is unreachable; returns an empty
        path when the machine already holds a copy.

        Raises:
            SchedulingError: if the parent pointers are cyclic (tree bug).
        """
        if machine in self._paths:
            return self._paths[machine]
        if machine not in self._labels:
            self._paths[machine] = None
            return None
        hops = []
        cursor = machine
        visited = {machine}
        while cursor not in self._seeds:
            parent = self._parents.get(cursor)
            if parent is None:
                raise SchedulingError(
                    f"machine {cursor} has a label but no parent and is not "
                    f"a seed (item {self._item_id})"
                )
            sender, link_id, start, end = parent
            hops.append(Hop(sender, cursor, link_id, start, end))
            cursor = sender
            if cursor in visited:
                raise SchedulingError(
                    f"cyclic parent pointers at machine {cursor} "
                    f"(item {self._item_id})"
                )
            visited.add(cursor)
        hops.reverse()
        path = Path(item_id=self._item_id, origin=cursor, hops=tuple(hops))
        self._paths[machine] = path
        return path

    def next_hop_toward(self, machine: int) -> Optional[Hop]:
        """The first transfer on the path to ``machine``.

        ``None`` when the machine is unreachable or already holds the item.
        """
        path = self.path_to(machine)
        if path is None:
            return None
        return path.first_hop

    def destination_hops(
        self, destinations: Iterable[int]
    ) -> Dict[int, Hop]:
        """Every planned hop on the paths to ``destinations``, by receiver.

        A tree has at most one inbound edge per machine, so the union of
        the destination paths is a receiver-keyed hop map; paths sharing a
        prefix contribute each shared hop once.  Unreachable destinations
        contribute nothing.  This is the cache's *interval footprint*: the
        concrete link occupations and storage residencies the tree's
        labels depend on.
        """
        hops: Dict[int, Hop] = {}
        for destination in destinations:
            path = self.path_to(destination)
            if path is None:
                continue
            for hop in path.hops:
                hops.setdefault(hop.receiver, hop)
        return hops

    def footprint(
        self, destinations: Iterable[int]
    ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """Resources the tree's paths to ``destinations`` depend on.

        Returns:
            ``(link_ids, storage_machines)`` where ``storage_machines`` are
            the machines that would *receive* a copy along any of the paths
            (their free capacity influenced the labels).  Unreachable
            destinations contribute nothing.
        """
        hops = self.destination_hops(destinations)
        return (
            frozenset(hop.link_id for hop in hops.values()),
            frozenset(hops),
        )

    def rebased(
        self, seeds: Mapping[int, float], targets: Mapping[int, float]
    ) -> Optional["ShortestPathTree"]:
        """This tree once the item also sits on some of its machines.

        ``seeds`` must keep every seed of this tree at its availability
        and add only machines this tree finalized, each available at its
        label here; otherwise the answer is ``None``.  A search from those
        seeds pops the same ``(label, machine)`` sequence, and only the
        relaxations into the new seeds change, so every other machine
        keeps its label and parent.  The result keeps each reachable
        target's path from its last seed (``targets`` are the search's,
        with their deadlines), and reports a seed target past its
        deadline unreachable, as the search does.
        """
        if any(machine not in seeds for machine in self._seeds):
            return None
        for machine, available in seeds.items():
            known = self._seeds.get(machine)
            if known is None and machine in self._parents:
                known = self._parents[machine][3]
            if known is None or not time_eq(known, available):
                return None
        return self._keeping(seeds, targets)

    def projected(self, targets: Mapping[int, float]) -> "ShortestPathTree":
        """A fresh tree holding only this tree's paths to ``targets``.

        This tree rebased onto its own seeds: each reachable target keeps
        its label and path, every other machine but a seed reads
        unreachable, and the path memo starts empty.
        """
        return self._keeping(self._seeds, targets)

    def _keeping(
        self, seeds: Mapping[int, float], targets: Mapping[int, float]
    ) -> "ShortestPathTree":
        """The tree from ``seeds`` that keeps each reachable target's
        path from its last seed (see :meth:`rebased`)."""
        labels = {
            machine: available
            for machine, available in seeds.items()
            if not available > targets.get(machine, float("inf"))
        }
        parents: Dict[int, Tuple[int, int, float, float]] = {}
        for target in targets:
            if target not in self._labels:
                continue
            cursor = target
            while cursor not in seeds and cursor not in parents:
                parent = self._parents[cursor]
                parents[cursor] = parent
                if cursor in self._labels:
                    labels[cursor] = self._labels[cursor]
                cursor = parent[0]
        return ShortestPathTree(self._item_id, seeds, labels, parents)

    def reachable_machines(self) -> Tuple[int, ...]:
        """All machines with a finite label, ascending."""
        return tuple(sorted(self._labels))

    def __repr__(self) -> str:
        return (
            f"ShortestPathTree(item={self._item_id}, "
            f"seeds={sorted(self._seeds)}, reachable={len(self._labels)})"
        )


def make_tree(
    item_id: int,
    seeds: Mapping[int, float],
    labels: Mapping[int, float],
    parents: Mapping[int, Tuple[int, int, float, float]],
) -> ShortestPathTree:
    """Assemble a tree from plain tuples (used by the Dijkstra driver).

    Args:
        item_id: the routed item.
        seeds: machine -> availability time for current copy holders.
        labels: machine -> earliest arrival (must include the seeds).
        parents: machine -> ``(sender, link_id, start, end)`` for every
            non-seed labelled machine.
    """
    return ShortestPathTree(
        item_id=item_id, seeds=seeds, labels=labels, parents=parents
    )
