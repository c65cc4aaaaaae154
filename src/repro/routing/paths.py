"""Shortest-path trees and path reconstruction for one data item.

The adapted Dijkstra of §4.2 produces, for one requested data item, the
earliest time a copy could reach every machine (the ``A_T`` values of §4.8)
together with parent pointers.  :class:`ShortestPathTree` packages those
labels and reconstructs hop-by-hop :class:`Path` objects toward requesting
destinations.  A tree projected onto its search's targets
(:meth:`ShortestPathTree.projected`) holds only the hops of its target
paths, so its parent tuples are the planned link occupations and storage
residencies its labels rest on: the heuristics' tree cache reads them
straight from :attr:`ShortestPathTree.planned_hops`, and reads the
machines where freed storage could change the search from
:attr:`ShortestPathTree.fallback_receivers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.core.schedule import reduce_by_fields
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

    # Slotted, like every type the tree caches' prefix memo holds many of.
    __slots__ = ("sender", "receiver", "link_id", "start", "end")
    __reduce__ = reduce_by_fields

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


#: Shared by every tree without fallback receivers (most projections):
#: an empty frozenset is not a singleton.
_EMPTY: FrozenSet[int] = frozenset()


class ShortestPathTree:
    """Earliest-arrival labels plus parent pointers for one data item.

    Built by :func:`repro.routing.dijkstra.compute_shortest_path_tree`; the
    heuristics only read it.  Parent pointers are the search's plain
    ``(sender, link_id, start, end)`` tuples; :meth:`path_to` turns the
    ones on a requested path into :class:`Hop` objects.

    The tree is immutable: attributes are exposed through methods so the
    internal dictionaries stay private, and one tree can be shared across
    heuristic iterations, cache entries and runs.
    """

    __slots__ = (
        "_item_id", "_seeds", "_labels", "_parents", "_fallback_receivers"
    )

    def __init__(
        self,
        item_id: int,
        seeds: Mapping[int, float],
        labels: Mapping[int, float],
        parents: Mapping[int, Tuple[int, int, float, float]],
        fallback_receivers: Iterable[int] = (),
    ) -> None:
        self._item_id = item_id
        self._seeds = dict(seeds)
        self._labels = dict(labels)
        self._parents = dict(parents)
        self._fallback_receivers = frozenset(fallback_receivers) or _EMPTY

    @classmethod
    def _owning(
        cls,
        item_id: int,
        seeds: Dict[int, float],
        labels: Dict[int, float],
        parents: Dict[int, Tuple[int, int, float, float]],
        fallback_receivers: FrozenSet[int],
    ) -> "ShortestPathTree":
        """A tree that takes ownership of its arguments, copying nothing:
        for the kernel and the tree's own transforms, which build them
        fresh (or share a tree's own, which no tree mutates)."""
        tree = cls.__new__(cls)
        tree._item_id = item_id
        tree._seeds = seeds
        tree._labels = labels
        tree._parents = parents
        tree._fallback_receivers = fallback_receivers or _EMPTY
        return tree

    @property
    def item_id(self) -> int:
        """The data item this tree routes."""
        return self._item_id

    @property
    def planned_hops(self) -> Mapping[int, Tuple[int, int, float, float]]:
        """Every non-seed labelled machine's inbound hop, by receiver, as
        ``(sender, link_id, start, end)``; read only.

        A tree has one inbound hop per receiver, and each virtual link
        has one receiver, so a link appears here at most once.
        """
        return self._parents

    @property
    def fallback_receivers(self) -> FrozenSet[int]:
        """The receivers of the search's relaxations that the kernel's
        inline probe did not settle and handed to
        :meth:`~repro.core.state.NetworkState.earliest_transfer`.

        Every relaxation that storage rejected or delayed is among them:
        one the inline probe settles starts at the link's first free slot,
        which no amount of storage could move earlier.  So freeing
        storage at any other machine leaves the search as it was.  A
        projected, rebased or carried tree keeps its search's set.
        """
        return self._fallback_receivers

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
        if machine not in self._labels:
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
        return Path(item_id=self._item_id, origin=cursor, hops=tuple(hops))

    def rebased(
        self, seeds: Dict[int, float], targets: Mapping[int, float]
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
        deadline unreachable, as the search does.  The result holds
        ``seeds`` itself, so the caller must not change it afterwards.
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

    def carried(
        self,
        seeds: Dict[int, float],
        targets: Mapping[int, float],
        now: float,
    ) -> Optional["ShortestPathTree"]:
        """This tree as a search from a later ``now`` would find it.

        ``seeds`` are the item's seeds at ``now``, each available at
        ``max(available_from, now)``: this tree's seeds less those
        released by then.  The answer is ``None`` when a planned hop
        starts before ``now``, or when the later seed labels change the
        order in which a search pops the seeds (labels that tie at
        ``now`` pop by machine id).  Otherwise a later "now" only raises
        labels (every link is FIFO), every planned hop still starts no
        earlier than its sender's label, and every competing relaxation
        pops in the same order as before, so each reachable target keeps
        its label and path; the result is :meth:`projected` at the new
        seeds, provided nothing else changed since this tree's search.
        Like :meth:`rebased`, the result holds ``seeds`` itself.
        """
        if any(machine not in self._seeds for machine in seeds):
            return None
        for parent in self._parents.values():
            if parent[2] < now:
                return None
        old = self._seeds
        if sorted(seeds, key=lambda machine: (old[machine], machine)) != (
            sorted(seeds, key=lambda machine: (seeds[machine], machine))
        ):
            return None
        return self._keeping(seeds, targets)

    def projected(self, targets: Mapping[int, float]) -> "ShortestPathTree":
        """A fresh tree holding only this tree's paths to ``targets``.

        This tree rebased onto its own seeds: each reachable target keeps
        its label and path, and every other machine but a seed or one on
        a kept path reads unreachable.  So :attr:`planned_hops` is then
        the union of the target paths, each shared hop once.
        """
        return self._keeping(self._seeds, targets)

    def _keeping(
        self, seeds: Dict[int, float], targets: Mapping[int, float]
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
        return ShortestPathTree._owning(
            self._item_id, seeds, labels, parents, self._fallback_receivers
        )

    def reachable_machines(self) -> Tuple[int, ...]:
        """All machines with a finite label, ascending."""
        return tuple(sorted(self._labels))

    def __repr__(self) -> str:
        return (
            f"ShortestPathTree(item={self._item_id}, "
            f"seeds={sorted(self._seeds)}, reachable={len(self._labels)})"
        )

