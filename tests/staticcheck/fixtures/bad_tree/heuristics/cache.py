"""Seeded R7 violation: a tree-cache journal replay that draws."""

import random
from typing import List


class TreeCache:
    """A cache whose replay verdict depends on the global RNG."""

    def __init__(self) -> None:
        self.conflicts: List[float] = []

    def _replay(self) -> None:
        """Fold journal records into the entries (deliberately impure)."""
        self.conflicts.append(random.random())
