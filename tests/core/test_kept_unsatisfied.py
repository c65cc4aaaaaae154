"""Property: each item's kept unsatisfied-request tuple is never stale.

:meth:`~repro.core.state.NetworkState.unsatisfied_requests_for_item`
builds an item's tuple once and keeps it until a delivery or a reopen
changes the item's satisfied set; ``clone()`` copies the kept tuples.
Hypothesis interleaves path bookings (which deliver), copy losses,
reopens and clones, mutating a clone on its own too, and after every
operation each item's tuple must equal one recomputed from
:meth:`~repro.core.state.NetworkState.is_satisfied`, on the state and on
every clone.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.state import NetworkState, TransferPlan
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())

OPERATIONS = ("read", "book_path", "lose", "reopen", "clone")


def _recomputed(state, item_id):
    return tuple(
        request
        for request in state.scenario.requests_for_item(item_id)
        if not state.is_satisfied(request.request_id)
    )


def _assert_kept(state):
    for item in state.scenario.items:
        assert state.unsatisfied_requests_for_item(
            item.item_id
        ) == _recomputed(state, item.item_id)


def _book_path(state, pick):
    """Book a fresh tree's path to one open destination."""
    open_requests = [
        request
        for item_id in state.scenario.requested_item_ids()
        for request in state.unsatisfied_requests_for_item(item_id)
    ]
    if not open_requests:
        return
    request = open_requests[pick % len(open_requests)]
    path = compute_shortest_path_tree(state, request.item_id).path_to(
        request.destination
    )
    if path is None:
        return
    network = state.scenario.network
    for hop in path.hops:
        state.book_transfer(
            TransferPlan(
                item_id=path.item_id,
                link=network.link(hop.link_id),
                start=hop.start,
                end=hop.end,
                release=state.release_time_at(path.item_id, hop.receiver),
            )
        )


def _lose(state, pick):
    """Lose one scheduler-made copy; reopen a request it had satisfied,
    as the dynamic driver does."""
    copies = [
        (item.item_id, record)
        for item in state.scenario.items
        for record in state.copies(item.item_id).values()
        if record.hops > 0 and record.available_from < record.release
    ]
    if not copies:
        return
    item_id, record = copies[pick % len(copies)]
    state.remove_copy(item_id, record.machine, record.available_from)
    for request in state.scenario.requests_for_item(item_id):
        if request.destination == record.machine and state.is_satisfied(
            request.request_id
        ):
            state.reopen_request(request.request_id)


def _reopen(state, pick):
    satisfied = state.satisfied_request_ids()
    if satisfied:
        state.reopen_request(satisfied[pick % len(satisfied)])


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    operations=st.lists(
        st.tuples(
            st.sampled_from(OPERATIONS),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kept_tuples_equal_recomputed_ones(seed, operations):
    states = [NetworkState(_GENERATOR.generate(seed))]
    for operation, pick in operations:
        state = states[pick % len(states)]
        if operation == "read":
            _assert_kept(state)
        elif operation == "book_path":
            _book_path(state, pick)
        elif operation == "lose":
            _lose(state, pick)
        elif operation == "reopen":
            _reopen(state, pick)
        else:
            states.append(state.clone())
        for each in states:
            _assert_kept(each)
