"""Every rejection of :meth:`NetworkState.book_transfer` checks before it
mutates.

One case per rejection reason, each on a state that already holds a
booking: the booking raises :class:`InfeasibleTransferError`, emits
``booking_failed`` with that reason, and leaves the busy and timeline
columns, the journal, the schedule and the item's revision as they were.
"""

import pytest

import repro.core.state as state_module
from repro.core.intervals import Interval
from repro.core.state import NetworkState, TransferPlan
from repro.errors import InfeasibleTransferError
from repro.observability.tracer import (
    REASON_ALREADY_AT_DESTINATION,
    REASON_LINK_BUSY,
    REASON_LINK_CUTOFF,
    REASON_NO_SENDER_COPY,
    REASON_SENDER_NOT_AVAILABLE,
    REASON_SENDER_RELEASED,
    REASON_STORAGE_CONFLICT,
    REASON_WINDOW_ESCAPE,
    RecordingTracer,
)

from tests.helpers import make_item, make_link, make_network, make_scenario

#: Link 0 (machine 0 -> 1) is open over [0, 50); links 1 (1 -> 2) and
#: 2 (2 -> 0) always.  Every item takes 1 s per hop, and machine 1 stores
#: one item at a time.
_SCENARIO = make_scenario(
    make_network(
        3,
        [
            make_link(0, 0, 1, windows=(Interval(0.0, 50.0),)),
            make_link(1, 1, 2),
            make_link(2, 2, 0),
        ],
        capacities={1: 1500.0},
    ),
    [
        make_item(0, 1000.0, [(0, 5.0)]),
        make_item(1, 1000.0, [(0, 0.0), (1, 0.0)]),
        make_item(2, 1000.0, [(0, 0.0)]),
    ],
    [(0, 2, 2, 100.0), (1, 2, 2, 100.0), (2, 2, 2, 100.0)],
)


def _cut_link_0(state):
    state.disable_link_from(0, 30.0)


#: ``(reason, item, link, start, end, setup)``; the prepared state holds
#: item 2's booking over link 0 during [5, 6), which leaves machine 1
#: 500 bytes until the copy's release.
CASES = [
    (REASON_ALREADY_AT_DESTINATION, 1, 0, 10.0, 11.0, None),
    (REASON_NO_SENDER_COPY, 0, 1, 10.0, 11.0, None),
    (REASON_SENDER_NOT_AVAILABLE, 0, 0, 1.0, 2.0, None),
    (REASON_SENDER_RELEASED, 0, 0, 5.0, 2e6, None),
    (REASON_LINK_BUSY, 0, 0, 5.5, 6.5, None),
    (REASON_WINDOW_ESCAPE, 0, 0, 49.5, 50.5, None),
    (REASON_LINK_CUTOFF, 0, 0, 29.5, 30.5, _cut_link_0),
    (REASON_STORAGE_CONFLICT, 0, 0, 10.0, 11.0, None),
]


def _prepared(tracer):
    state = NetworkState(_SCENARIO, tracer=tracer)
    state.book_transfer(
        TransferPlan(
            2, _SCENARIO.network.link(0), 5.0, 6.0,
            state.release_time_at(2, 1),
        )
    )
    return state


def _snapshot(state, item_id):
    busy, timelines = state.probe_columns()
    return (
        [(list(starts), list(ends)) for starts, ends in busy],
        [(list(times), list(values)) for times, values in timelines],
        state.journal_length(),
        state.schedule.step_count,
        state.item_revision(item_id),
    )


@pytest.mark.parametrize(
    "reason, item_id, link_id, start, end, setup",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_a_rejected_booking_changes_nothing(
    reason, item_id, link_id, start, end, setup
):
    tracer = RecordingTracer()
    state = _prepared(tracer)
    if setup is not None:
        setup(state)
    link = _SCENARIO.network.link(link_id)
    plan = TransferPlan(
        item_id, link, start, end,
        state.release_time_at(item_id, link.destination),
    )
    before = _snapshot(state, item_id)
    with pytest.raises(InfeasibleTransferError):
        state.book_transfer(plan)
    (failure,) = tracer.named("booking_failed")
    assert (failure["item_id"], failure["link_id"], failure["reason"]) == (
        item_id, link_id, reason
    )
    assert _snapshot(state, item_id) == before


def test_every_booking_rejection_reason_has_a_case():
    booking_reasons = {
        value
        for name, value in vars(state_module).items()
        if name.startswith("REASON_")
    } - {
        # earliest_transfer's own rejections, never a booking's.
        "window_closed", "no_link_slot", "no_storage",
    }
    assert booking_reasons == {case[0] for case in CASES}
