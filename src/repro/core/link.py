"""Physical and virtual communication links.

A *physical link* is a unidirectional transmission facility between two
machines that is available only part of the day (e.g. a satellite pass).  The
model represents each availability window of a physical link as a separate
*virtual link* ``L[i,j][k]`` with window ``[Lst, Let)``; all virtual links of
one physical link share its bandwidth and latency.  A bidirectional facility
is modelled as two physical links, one per direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core import units
from repro.core.intervals import Interval
from repro.errors import ModelError


@dataclass(frozen=True)
class VirtualLink:
    """One availability window of a physical link — the model's ``L[i,j][k]``.

    Attributes:
        link_id: identifier unique across the whole network (assigned by
            :class:`repro.core.network.Network`); used as the key for busy-
            interval bookkeeping.
        source: index of the sending machine ``M[i]``.
        destination: index of the receiving machine ``M[j]``.
        start: ``Lst[i,j][k]`` — the instant the window opens (seconds).
        end: ``Let[i,j][k]`` — the instant the window closes (seconds).
        bandwidth: bytes per second available inside the window.
        latency: fixed per-transfer overhead in seconds (network latency plus
            data-format conversion, per the paper's ``D[i,j][k]``).
        physical_id: index of the owning physical link, shared by sibling
            windows of the same facility (-1 when constructed stand-alone).
    """

    link_id: int
    source: int
    destination: int
    start: float
    end: float
    bandwidth: float
    latency: float = 0.0
    physical_id: int = -1

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ModelError(
                f"virtual link {self.link_id} loops on machine {self.source}"
            )
        if self.source < 0 or self.destination < 0:
            raise ModelError(
                f"virtual link {self.link_id} has a negative endpoint"
            )
        if self.end <= self.start:
            raise ModelError(
                f"virtual link {self.link_id} window [{self.start}, "
                f"{self.end}) is empty or inverted"
            )
        if not self.bandwidth > 0:
            raise ModelError(
                f"virtual link {self.link_id} bandwidth must be positive, "
                f"got {self.bandwidth}"
            )
        if not self.latency >= 0:
            raise ModelError(
                f"virtual link {self.link_id} latency must be >= 0, "
                f"got {self.latency}"
            )

    @property
    def window(self) -> Interval:
        """The availability window ``[Lst, Let)`` as an interval."""
        return Interval(self.start, self.end)

    def transfer_seconds(
        self, size_bytes: float, bandwidth: Optional[float] = None
    ) -> float:
        """Communication time ``D`` for a data item of the given size.

        This is transmission time plus the link's fixed latency.  An
        explicit ``bandwidth`` overrides the link's nominal rate — the
        hook fault injection uses to price transfers on a degraded link
        (see :mod:`repro.faults`); everything downstream of the duration
        (window fitting, exclusivity, validation) is rate-agnostic.
        """
        rate = self.bandwidth if bandwidth is None else bandwidth
        return units.transfer_seconds(size_bytes, rate) + self.latency

    def can_ever_carry(self, size_bytes: float) -> bool:
        """True if an item of this size fits in the window at all."""
        return self.transfer_seconds(size_bytes) <= self.window.duration

    def __str__(self) -> str:
        return (
            f"L[{self.source},{self.destination}]#{self.link_id}"
            f"[{units.format_time(self.start)}..{units.format_time(self.end)}"
            f" @{units.format_size(self.bandwidth)}/s]"
        )


@dataclass(frozen=True)
class PhysicalLink:
    """A unidirectional transmission facility and its availability windows.

    Scenario generators build physical links first (choosing bandwidth,
    latency, and the daily availability pattern) and then derive the virtual
    links; the network only schedules on virtual links, but keeping the
    physical grouping allows reports such as "average links traversed".

    Attributes:
        physical_id: identifier unique within a network.
        source: index of the sending machine.
        destination: index of the receiving machine.
        bandwidth: bytes/second, shared by all windows.
        latency: per-transfer overhead in seconds, shared by all windows.
        windows: the availability windows, ascending and non-overlapping.
    """

    physical_id: int
    source: int
    destination: int
    bandwidth: float
    latency: float
    windows: Tuple[Interval, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ModelError(
                f"physical link {self.physical_id} loops on machine "
                f"{self.source}"
            )
        if not self.bandwidth > 0:
            raise ModelError(
                f"physical link {self.physical_id} bandwidth must be "
                f"positive, got {self.bandwidth}"
            )
        if not self.latency >= 0:
            raise ModelError(
                f"physical link {self.physical_id} latency must be >= 0, "
                f"got {self.latency}"
            )
        windows = tuple(self.windows)
        object.__setattr__(self, "windows", windows)
        if windows and windows[0].start < 0:
            raise ModelError(
                f"physical link {self.physical_id} window {windows[0]!r} "
                f"opens before time 0"
            )
        for earlier, later in zip(windows, windows[1:]):
            if later.start < earlier.end:
                raise ModelError(
                    f"physical link {self.physical_id} windows overlap or "
                    f"are unsorted: {earlier!r}, {later!r}"
                )

    def virtual_links(self, first_link_id: int) -> Tuple[VirtualLink, ...]:
        """Materialize one :class:`VirtualLink` per availability window.

        Args:
            first_link_id: network-wide id assigned to the first window;
                subsequent windows get consecutive ids.
        """
        return tuple(
            VirtualLink(
                link_id=first_link_id + k,
                source=self.source,
                destination=self.destination,
                start=window.start,
                end=window.end,
                bandwidth=self.bandwidth,
                latency=self.latency,
                physical_id=self.physical_id,
            )
            for k, window in enumerate(self.windows)
        )

    def __str__(self) -> str:
        return (
            f"P[{self.source}->{self.destination}]#{self.physical_id}"
            f"({len(self.windows)} windows)"
        )
