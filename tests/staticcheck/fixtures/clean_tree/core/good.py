"""Clean fixture: seeded RNG, units comparators, sorted iteration.

Every construct here is the sanctioned counterpart of a seeded
violation in the sibling ``bad_tree`` fixture.
"""

import random
from typing import FrozenSet, List, Sequence

from repro.core.units import time_eq


def pick(seed: int, values: Sequence[int]) -> int:
    """Draw from a private, seeded RNG (R1-clean)."""
    rng = random.Random(seed)
    return rng.choice(list(values))


def coincides(start_time: float, end_time: float) -> bool:
    """Compare times through the units comparator (R2-clean)."""
    return time_eq(start_time, end_time)


def drain(ids: FrozenSet[int]) -> List[int]:
    """Iterate the set in sorted order (R5-clean)."""
    return [request_id for request_id in sorted(ids)]
