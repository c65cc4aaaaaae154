"""Seeded R3 violation: a misspelled event-name literal."""


def emit(tracer: object) -> None:
    """Emit a typo'd event (deliberately bad)."""
    tracer.emit("transfer_boked", 0, 0)
