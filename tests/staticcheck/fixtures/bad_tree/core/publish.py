"""Seeded R8 violation: mutating a record after publishing it."""

from typing import Any, Dict, List


def publish_record(cache: Any, record: Dict[str, float]) -> None:
    """Insert then mutate (deliberately bad)."""
    cache.store(record)
    record["elapsed"] = 1.0


def publish_payload(tracer: Any, payload: List[float]) -> None:
    """Hand a payload to the tracer then grow it (deliberately bad)."""
    tracer.emit("transfer_booked", payload)
    payload.append(2.0)
