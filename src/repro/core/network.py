"""The communication system's topology graph ``G_nt``.

A :class:`Network` owns the machines and physical links, materializes the
virtual links (one per availability window), and maintains the adjacency
indexes the routing layer needs:

* ``outgoing(i)`` — all virtual links leaving machine ``M[i]``;
* ``links_between(i, j)`` — all virtual links from ``M[i]`` to ``M[j]``
  (the model's ``L[i,j][0..Nl[i,j]-1]``);
* ``link(link_id)`` — lookup by network-wide virtual link id.

The network is immutable after construction; all time-varying scheduling
state (busy intervals, free capacity) lives in
:class:`repro.core.state.NetworkState`.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.link import PhysicalLink, VirtualLink
from repro.core.machine import Machine
from repro.errors import ModelError


class Network:
    """An immutable communication system: machines plus links.

    Args:
        machines: the machines, whose ``index`` fields must form the dense
            range ``0..m-1`` (in any order).
        physical_links: the unidirectional facilities; their endpoints must
            reference existing machines and their ``physical_id`` fields must
            be unique.

    Raises:
        ModelError: on any structural inconsistency.
    """

    #: The fields a document writes for a network and their types (see
    #: :mod:`repro.serialization`): each is a property and a constructor
    #: argument.
    FIELDS: ClassVar[Dict[str, Any]] = {
        "machines": Tuple[Machine, ...],
        "physical_links": Tuple[PhysicalLink, ...],
    }

    def __init__(
        self,
        machines: Sequence[Machine],
        physical_links: Sequence[PhysicalLink],
    ) -> None:
        machines = sorted(machines, key=lambda mach: mach.index)
        if not machines:
            raise ModelError("a network needs at least one machine")
        indices = [mach.index for mach in machines]
        if indices != list(range(len(machines))):
            raise ModelError(
                f"machine indices must be dense 0..m-1, got {indices}"
            )
        self._machines: Tuple[Machine, ...] = tuple(machines)

        seen_physical: Set[int] = set()
        for plink in physical_links:
            if plink.physical_id in seen_physical:
                raise ModelError(
                    f"duplicate physical link id {plink.physical_id}"
                )
            seen_physical.add(plink.physical_id)
            for endpoint in (plink.source, plink.destination):
                if endpoint >= len(machines):
                    raise ModelError(
                        f"physical link {plink.physical_id} references "
                        f"unknown machine {endpoint}"
                    )
        self._physical_links: Tuple[PhysicalLink, ...] = tuple(physical_links)

        virtual: List[VirtualLink] = []
        for plink in self._physical_links:
            virtual.extend(plink.virtual_links(first_link_id=len(virtual)))
        self._virtual_links: Tuple[VirtualLink, ...] = tuple(virtual)

        self._outgoing: Tuple[Tuple[VirtualLink, ...], ...] = tuple(
            tuple(vl for vl in virtual if vl.source == mach.index)
            for mach in self._machines
        )
        pair_index: Dict[Tuple[int, int], List[VirtualLink]] = {}
        for vlink in virtual:
            pair_index.setdefault(
                (vlink.source, vlink.destination), []
            ).append(vlink)
        self._pair_index: Dict[Tuple[int, int], Tuple[VirtualLink, ...]] = {
            pair: tuple(links) for pair, links in pair_index.items()
        }

    # -- basic accessors ----------------------------------------------------

    @property
    def machine_count(self) -> int:
        """The number of machines ``m``."""
        return len(self._machines)

    @property
    def machines(self) -> Tuple[Machine, ...]:
        """All machines, ordered by index."""
        return self._machines

    @property
    def physical_links(self) -> Tuple[PhysicalLink, ...]:
        """All physical links."""
        return self._physical_links

    @property
    def virtual_links(self) -> Tuple[VirtualLink, ...]:
        """All virtual links, ordered by ``link_id``."""
        return self._virtual_links

    def machine(self, index: int) -> Machine:
        """The machine ``M[index]``.

        Raises:
            ModelError: if the index is out of range.
        """
        if not 0 <= index < len(self._machines):
            raise ModelError(f"no machine with index {index}")
        return self._machines[index]

    def link(self, link_id: int) -> VirtualLink:
        """The virtual link with the given network-wide id.

        Raises:
            ModelError: if the id is out of range.
        """
        if not 0 <= link_id < len(self._virtual_links):
            raise ModelError(f"no virtual link with id {link_id}")
        return self._virtual_links[link_id]

    def outgoing(self, machine_index: int) -> Tuple[VirtualLink, ...]:
        """All virtual links whose source is ``M[machine_index]``."""
        if not 0 <= machine_index < len(self._machines):
            raise ModelError(f"no machine with index {machine_index}")
        return self._outgoing[machine_index]

    def links_between(
        self, source: int, destination: int
    ) -> Tuple[VirtualLink, ...]:
        """All virtual links from ``M[source]`` to ``M[destination]``."""
        return self._pair_index.get((source, destination), ())

    def out_degree(self, machine_index: int) -> int:
        """Number of distinct machines reachable over one physical link."""
        return len(
            {
                plink.destination
                for plink in self._physical_links
                if plink.source == machine_index
            }
        )

    # -- graph-level queries --------------------------------------------------

    def physical_adjacency(self) -> Dict[int, Set[int]]:
        """Directed adjacency over physical links (ignoring windows)."""
        adjacency: Dict[int, Set[int]] = {
            mach.index: set() for mach in self._machines
        }
        for plink in self._physical_links:
            adjacency[plink.source].add(plink.destination)
        return adjacency

    def is_strongly_connected(self) -> bool:
        """True if every machine can reach every other over physical links.

        The §5.3 generator guarantees this; the check itself is a plain
        double BFS (forward from machine 0 and over reversed edges).
        """
        if len(self._machines) == 1:
            return True
        forward = self.physical_adjacency()
        backward: Dict[int, Set[int]] = {
            mach.index: set() for mach in self._machines
        }
        for source, targets in forward.items():
            for target in targets:
                backward[target].add(source)
        return self._reaches_all(forward) and self._reaches_all(backward)

    def _reaches_all(self, adjacency: Dict[int, Set[int]]) -> bool:
        visited = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in visited:
                    visited.add(nxt)
                    frontier.append(nxt)
        return len(visited) == len(self._machines)

    def to_networkx(self) -> Any:
        """Export the virtual-link multigraph as a ``networkx.MultiDiGraph``.

        Nodes carry ``capacity``; edges carry the virtual link attributes.
        Intended for ad-hoc analysis and example notebooks, not used by the
        schedulers themselves.
        """
        import networkx as nx

        graph = nx.MultiDiGraph()
        for mach in self._machines:
            graph.add_node(mach.index, capacity=mach.capacity, name=mach.name)
        for vlink in self._virtual_links:
            graph.add_edge(
                vlink.source,
                vlink.destination,
                key=vlink.link_id,
                start=vlink.start,
                end=vlink.end,
                bandwidth=vlink.bandwidth,
                latency=vlink.latency,
                physical_id=vlink.physical_id,
            )
        return graph

    def __repr__(self) -> str:
        return (
            f"Network(machines={len(self._machines)}, "
            f"physical_links={len(self._physical_links)}, "
            f"virtual_links={len(self._virtual_links)})"
        )


def machines_with_uniform_capacity(
    count: int, capacity: float
) -> Tuple[Machine, ...]:
    """Convenience constructor for ``count`` identical machines."""
    return tuple(Machine(index=i, capacity=capacity) for i in range(count))


def validate_links_reference_machines(
    machines: Iterable[Machine], links: Iterable[PhysicalLink]
) -> None:
    """Standalone validation used by scenario loaders before construction.

    Raises:
        ModelError: if any link endpoint is not a known machine index.
    """
    known = {mach.index for mach in machines}
    for plink in links:
        if plink.source not in known or plink.destination not in known:
            raise ModelError(
                f"physical link {plink.physical_id} references unknown "
                f"machine(s): {plink.source}->{plink.destination}"
            )
