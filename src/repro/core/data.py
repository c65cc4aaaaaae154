"""Data items and their initial source locations.

A :class:`DataItem` is the model's ``δ[i]`` — a uniquely named block of
information with a size and one or more initial locations.  A
:class:`SourceLocation` is one entry of the data-location table:
``(Source[i,j], δst[i,j])`` — the machine holding the copy and the time at
which the copy becomes available there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core import units
from repro.errors import ModelError


@dataclass(frozen=True)
class SourceLocation:
    """One initial location of a data item.

    Attributes:
        machine: index of the machine holding the initial copy.
        available_from: ``δst`` — the time the copy exists on that machine.
    """

    machine: int
    available_from: float = 0.0

    def __post_init__(self) -> None:
        if self.machine < 0:
            raise ModelError(
                f"source machine index must be >= 0, got {self.machine}"
            )
        if not self.available_from >= 0:
            raise ModelError(
                f"source available_from must be >= 0, "
                f"got {self.available_from}"
            )


@dataclass(frozen=True)
class DataItem:
    """A uniquely named data item ``δ[i]`` with its initial locations.

    Attributes:
        item_id: index of the item within its scenario (the ``i`` of
            ``δ[i]``); unique per scenario.
        name: the distinctive identifier of the item (e.g.
            ``"weather-map-europe-1400"``); unique per scenario.
        size: ``|δ[i]|`` in bytes.
        sources: the initial locations; at least one, with distinct machines.
    """

    item_id: int
    name: str
    size: float
    sources: Tuple[SourceLocation, ...]

    def __post_init__(self) -> None:
        if self.item_id < 0:
            raise ModelError(f"item id must be >= 0, got {self.item_id}")
        if not self.name:
            raise ModelError("data items need a non-empty name")
        if not self.size > 0:
            raise ModelError(
                f"data item {self.name!r} size must be positive, "
                f"got {self.size}"
            )
        sources = tuple(self.sources)
        object.__setattr__(self, "sources", sources)
        if not sources:
            raise ModelError(f"data item {self.name!r} has no sources")
        machines = [src.machine for src in sources]
        if len(set(machines)) != len(machines):
            raise ModelError(
                f"data item {self.name!r} lists machine(s) "
                f"{sorted(machines)} more than once as a source"
            )

    @property
    def source_machines(self) -> Tuple[int, ...]:
        """Indices of the machines initially holding the item."""
        return tuple(src.machine for src in self.sources)

    def earliest_availability(self) -> float:
        """The earliest ``δst`` across all initial locations."""
        return min(src.available_from for src in self.sources)

    def __str__(self) -> str:
        return f"{self.name}({units.format_size(self.size)})"
