"""Sanctioned R8 counterpart: finish the object, then publish it."""

from typing import Any, Dict, List


def publish_record(cache: Any, record: Dict[str, float]) -> None:
    """Mutate first, insert last: the published object stays frozen."""
    record["elapsed"] = 1.0
    cache.store(record)


def publish_copy(tracer: Any, payload: List[float]) -> None:
    """Publish a snapshot; keep mutating the private original."""
    snapshot = list(payload)
    tracer.emit("transfer_booked", snapshot)
    payload.append(2.0)
