"""Clean fixture: seeded RNG, units comparators, sorted iteration.

Every construct here is the sanctioned counterpart of a seeded
violation in the sibling ``bad_tree`` fixture.
"""

import random
from typing import Dict, FrozenSet, List, Sequence

from repro.core.units import time_eq

SCHEMA_VERSION = 1


def pick(seed: int, values: Sequence[int]) -> int:
    """Draw from a private, seeded RNG (R1-clean)."""
    rng = random.Random(seed)
    return rng.choice(list(values))


def coincides(start_time: float, end_time: float) -> bool:
    """Compare times through the units comparator (R2-clean)."""
    return time_eq(start_time, end_time)


def emit(tracer: object) -> None:
    """Emit a registered event name (R3-clean)."""
    tracer.emit("transfer_booked", 0, 0)


def payload_to_dict(value: float) -> Dict[str, float]:
    """Encode under a module schema version (R4-clean)."""
    return {"value": value}


def payload_from_dict(doc: Dict[str, float]) -> float:
    """Decode the field set the encoder writes (R4-clean)."""
    return doc["value"]


def drain(ids: FrozenSet[int]) -> List[int]:
    """Iterate the set in sorted order (R5-clean)."""
    return [request_id for request_id in sorted(ids)]
