"""Fixture tracer registry — the R3 source of truth for this tree."""

EVENTS = {"transfer_booked": ("item_id", "link_id")}

REASON_WINDOW_CLOSED = "window_closed"

REASON_CODES = (REASON_WINDOW_CLOSED,)
