"""Edge cases of the compiled kernel's inline feasible probe.

:func:`~repro.routing.compiled.compute_tree_compiled` runs the first pass
of :meth:`~repro.core.state.NetworkState.earliest_transfer` inline — the
busy-column scan of ``IntervalSet.first_fit`` and the receiver's
``min_free_span`` check — and calls ``earliest_transfer`` for every other
outcome.  Each case below builds one probe on the edge ``0 -> 1`` and
checks three things:

* the tree's parent of machine 1 carries exactly the start and end that
  ``earliest_transfer`` returns for that edge (or there is no parent when
  it returns ``None``);
* the traced event list equals the reference search's, event for event;
* the probe took the path the case is about: answered inline, or handed
  to ``earliest_transfer``.
"""

from unittest import mock

import pytest

from repro.core.intervals import Interval
from repro.core.state import NetworkState
from repro.observability.tracer import RecordingTracer, use_tracer
from repro.routing.compiled import compute_tree_compiled

from tests.helpers import (
    make_item,
    make_link,
    make_network,
    make_scenario,
    neutral_fields,
)
from tests.routing.reference_kernel import reference_tree

#: Item 0 is probed; items 1 and 2 occupy the link or the receiver first.
PROBED = 0
LINK = 0


def _traced_state(scenario):
    tracer = RecordingTracer()
    with use_tracer(tracer):
        state = NetworkState(scenario)
    return state, tracer


def _occupy(state, item_id, ready):
    """Book ``item_id`` over the probed link at its earliest slot."""
    link = state.scenario.network.link(LINK)
    plan = state.earliest_transfer(item_id, link, ready)
    assert plan is not None
    state.book_transfer(plan)
    return plan


def zero_duration():
    """An infinitely fast link: the transfer takes no time at all."""
    network = make_network(2, [make_link(0, 0, 1, bandwidth=float("inf"))])
    scenario = make_scenario(
        network, [make_item(0, 1000.0, [(0, 5.0)])], [(0, 1, 1, 100.0)]
    )
    return _traced_state(scenario), True


def short_first_gaps():
    """The ready time lands inside a booking, and the gap after it is
    0.5 s; the probe needs 1 s."""
    network = make_network(2, [make_link(0, 0, 1)])
    items = [
        make_item(0, 1000.0, [(0, 2.5)]),
        make_item(1, 1000.0, [(0, 0.0)]),
        make_item(2, 1000.0, [(0, 0.0)]),
    ]
    specs = [(0, 1, 1, 100.0), (1, 1, 1, 100.0), (2, 1, 1, 100.0)]
    state, tracer = _traced_state(make_scenario(network, items, specs))
    assert _occupy(state, 1, 2.0).start == 2.0
    assert _occupy(state, 2, 3.5).start == 3.5
    return (state, tracer), False


def storage_deficit():
    """The receiver is full until an intermediate copy is collected, so
    ``earliest_transfer`` retries at ``next_sufficient_start``."""
    network = make_network(
        3,
        [make_link(0, 0, 1), make_link(1, 1, 2)],
        capacities={1: 1500.0},
    )
    items = [
        make_item(0, 1000.0, [(0, 0.0)]),
        make_item(1, 1000.0, [(0, 0.0)]),
    ]
    # Item 1 stays on machine 1 as an intermediate until 10 + 5.
    specs = [(0, 1, 1, 100.0), (1, 2, 1, 10.0)]
    scenario = make_scenario(network, items, specs, gc_delay=5.0)
    state, tracer = _traced_state(scenario)
    _occupy(state, 1, 0.0)
    return (state, tracer), True


def empty_residency():
    """The receiver's copy would be collected the instant the transfer
    starts: a 1 ns transfer at 2**30 s rounds to a zero-length stay."""
    available = float(2**30)
    window = (Interval(0.0, 2.0e9),)
    network = make_network(
        3,
        [
            make_link(0, 0, 1, bandwidth=1.0e9, windows=window),
            make_link(1, 1, 2, bandwidth=1.0e9, windows=window),
        ],
    )
    # Machine 1 is an intermediate: its copy goes at deadline + gc_delay.
    scenario = make_scenario(
        network,
        [make_item(0, 1.0, [(0, available)])],
        [(0, 2, 1, available - 360.0)],
        horizon=2.0e9,
    )
    state, tracer = _traced_state(scenario)
    assert state.release_time_at(PROBED, 1) == available
    return (state, tracer), True


def _cut_link(ready):
    network = make_network(2, [make_link(0, 0, 1)])
    items = [
        make_item(0, 1000.0, [(0, ready)]),
        make_item(1, 1000.0, [(0, 0.0)]),
    ]
    specs = [(0, 1, 1, 100.0), (1, 1, 1, 100.0)]
    state, tracer = _traced_state(make_scenario(network, items, specs))
    state.disable_link_from(LINK, 10.0)
    return state, tracer


def cutoff_leaves_room():
    """A cutoff inside the window still admits the earliest slot."""
    return _cut_link(ready=2.0), False


def cutoff_blocks_the_slot():
    """The only slot behind a booking would complete after the cutoff."""
    state, tracer = _cut_link(ready=8.0)
    assert _occupy(state, 1, 8.5).start == 8.5
    return (state, tracer), True


CASES = (
    zero_duration,
    short_first_gaps,
    storage_deficit,
    empty_residency,
    cutoff_leaves_room,
    cutoff_blocks_the_slot,
)


def _hop_into_one(tree):
    path = tree.path_to(1)
    return path.hops[-1] if path is not None else None


def _events(tracer, before):
    return [
        (event.name, neutral_fields(event))
        for event in tracer.events[before:]
    ]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_inline_probe_agrees_with_earliest_transfer(case):
    (state, tracer), falls_back = case()
    before = len(tracer.events)
    with mock.patch.object(
        state, "earliest_transfer", wraps=state.earliest_transfer
    ) as probe:
        tree = compute_tree_compiled(state, PROBED, None, 0.0)
    assert probe.called == falls_back
    compiled_events = _events(tracer, before)

    before = len(tracer.events)
    oracle = reference_tree(state, PROBED, None, 0.0)
    assert compiled_events == _events(tracer, before)
    assert tree._labels == oracle._labels
    assert tree._parents == oracle._parents

    link = state.scenario.network.link(LINK)
    plan = state.earliest_transfer(PROBED, link, tree.arrival(0))
    hop = _hop_into_one(tree)
    if plan is None:
        assert hop is None
    else:
        assert (hop.sender, hop.link_id, hop.start, hop.end) == (
            0, LINK, plan.start, plan.end
        )


def test_the_storage_retry_moves_the_start():
    (state, _), _ = storage_deficit()
    hop = _hop_into_one(compute_tree_compiled(state, PROBED, None, 0.0))
    # The link is free from 1 s, but machine 1 has room only from 15 s.
    assert (hop.start, hop.end) == (15.0, 16.0)


def test_the_empty_residency_plan_starts_at_the_release():
    (state, _), _ = empty_residency()
    hop = _hop_into_one(compute_tree_compiled(state, PROBED, None, 0.0))
    assert (hop.start, hop.end) == (float(2**30), float(2**30))
