"""Request priorities and priority weighting schemes.

The paper uses three priority classes (low / medium / high) and two weighting
schemes: ``W = (1, 5, 10)`` and ``W = (1, 10, 100)``.  The model supports any
number of classes ``0..P`` with arbitrary non-negative weights; the two paper
schemes are provided as ready-made constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ModelError


class Priority(enum.IntEnum):
    """The three-level priority scale used in the paper's experiments.

    Higher numeric value means more important (``HIGH`` is the paper's ``P``).
    """

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


@dataclass(frozen=True)
class PriorityWeighting:
    """Relative weights ``W[0..P]`` of the priority classes.

    ``weights[p]`` is the contribution of one satisfied priority-``p`` request
    to the objective (the negated schedule effect ``-E[S_h]``).

    Raises:
        ModelError: if no weights are given, any weight is negative, or the
            weights are not non-decreasing in priority (a higher priority
            class must never be worth less than a lower one).
    """

    weights: Tuple[float, ...]
    name: str = ""

    def __init__(self, weights: Sequence[float], name: str = "") -> None:
        weights = tuple(float(w) for w in weights)
        if not weights:
            raise ModelError("a weighting needs at least one priority class")
        if not all(w >= 0 for w in weights):
            raise ModelError(f"priority weights must be non-negative: {weights}")
        if any(a > b for a, b in zip(weights, weights[1:])):
            raise ModelError(
                f"priority weights must be non-decreasing: {weights}"
            )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(
            self, "name", name or "-".join(f"{w:g}" for w in weights)
        )

    @property
    def highest_priority(self) -> int:
        """The paper's ``P`` — index of the most important class."""
        return len(self.weights) - 1

    def weight(self, priority: int) -> float:
        """``W[priority]`` for an integer or :class:`Priority` value.

        Raises:
            ModelError: if the priority is outside ``0..P``.
        """
        if not 0 <= priority <= self.highest_priority:
            raise ModelError(
                f"priority {priority} outside 0..{self.highest_priority}"
            )
        return self.weights[priority]

    def __str__(self) -> str:
        return self.name


#: The paper's first weighting scheme: low=1, medium=5, high=10.
WEIGHTING_1_5_10 = PriorityWeighting((1, 5, 10), name="1-5-10")

#: The paper's second weighting scheme: low=1, medium=10, high=100.
#: All figures in the paper use this scheme.
WEIGHTING_1_10_100 = PriorityWeighting((1, 10, 100), name="1-10-100")
