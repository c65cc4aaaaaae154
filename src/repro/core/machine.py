"""Machines — the nodes ``M[i]`` of the communication system.

A machine may simultaneously act as a source of data items, an intermediate
staging node, and a requesting destination; the roles are determined by the
data-location and request tables, not by the machine object itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import units
from repro.errors import ModelError


@dataclass(frozen=True)
class Machine:
    """A node of the communication system.

    Attributes:
        index: the machine number ``i`` of ``M[i]``; unique within a network.
        capacity: available storage capacity in bytes (the ceiling of the
            free-capacity function ``Cap[i](t)``).
        name: optional human-readable label used in reports; defaults to
            ``"M[i]"``.
    """

    index: int
    capacity: float
    name: str = field(default="")

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ModelError(f"machine index must be >= 0, got {self.index}")
        if not self.capacity >= 0:
            raise ModelError(
                f"machine capacity must be >= 0, got {self.capacity}"
            )
        if not self.name:
            object.__setattr__(self, "name", f"M[{self.index}]")

    def __str__(self) -> str:
        return f"{self.name}({units.format_size(self.capacity)})"
