"""Property: bookings, outage cutoffs and a later "now" only delay arrivals.

Every link is FIFO: a transfer that is ready later never finishes
earlier, and the storage a copy needs over ``[start, release)`` only gets
easier to find as ``start`` grows.  A booking only takes link time and
storage away, and a cutoff only closes windows.  So after any of them,
and after a later ``not_before``, every label of a full search is no
earlier than before, and an unreachable machine stays unreachable.  The
booked item is the exception: its revision changes, because it gained a
copy.

Three things rest on this property: the tree cache's journal
revalidation, the empty payloads a dynamic run keeps for items with no
candidate, and the deadline-bounded search (a target that misses its
deadline keeps missing it).  Each is keyed on the item revision, the
degradation epoch and the journal's release records, because a copy
loss can lower a label and a reopen adds a target back.  The last two
tests pin both exceptions.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.state import NetworkState, TransferPlan
from repro.heuristics.base import deadline_targets
from repro.observability.tracer import RecordingTracer
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import (
    line_network,
    make_item,
    make_link,
    make_network,
    make_scenario,
)

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())

MUTATIONS = ("booking", "cutoff", "later_now")


def _full_trees(state, not_before):
    return {
        item_id: compute_shortest_path_tree(state, item_id, None, not_before)
        for item_id in state.scenario.requested_item_ids()
    }


def _planned_hops(trees):
    """``(link id, planned end)`` of every hop the trees' paths use."""
    return sorted(
        {
            (hop.link_id, hop.end)
            for tree in trees.values()
            for path in map(tree.path_to, tree.reachable_machines())
            for hop in path.hops
        }
    )


def _book_a_first_hop(state, item_id, pick, not_before):
    """Book the first hop of one of the item's tree paths at its planned
    times; ``False`` when the tree has no hop to book."""
    tree = compute_shortest_path_tree(state, item_id, None, not_before)
    hops = sorted(
        {
            path.hops[0]
            for path in map(tree.path_to, tree.reachable_machines())
            if path.hops
        },
        key=lambda hop: (hop.receiver, hop.link_id),
    )
    if not hops:
        return False
    hop = hops[pick % len(hops)]
    state.book_transfer(
        TransferPlan(
            item_id=item_id,
            link=state.scenario.network.link(hop.link_id),
            start=hop.start,
            end=hop.end,
            release=state.release_time_at(item_id, hop.receiver),
        )
    )
    return True


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    warmup=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_labels_only_move_later(seed, warmup, data):
    scenario = _GENERATOR.generate(seed)
    state = NetworkState(scenario)
    items = scenario.requested_item_ids()
    machines = range(scenario.network.machine_count)
    links = scenario.network.virtual_links
    for step in range(warmup):
        _book_a_first_hop(state, items[step % len(items)], seed + step, 0.0)

    now = 0.0
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        before = _full_trees(state, now)
        revisions = {item: state.item_revision(item) for item in items}
        epochs = (state.capacity_epoch, state.degradation_epoch)
        kind = data.draw(st.sampled_from(MUTATIONS))
        if kind == "booking":
            item_id = data.draw(st.sampled_from(items))
            pick = data.draw(st.integers(min_value=0, max_value=50))
            _book_a_first_hop(state, item_id, pick, now)
        elif kind == "cutoff":
            # Cut a link some tree relies on, before its planned hop ends.
            hops = _planned_hops(before) or [
                (link.link_id, scenario.horizon) for link in links
            ]
            link_id, end = data.draw(st.sampled_from(hops))
            at_time = data.draw(st.floats(min_value=0.0, max_value=end))
            state.disable_link_from(
                link_id, min(at_time, state.link_cutoff(link_id))
            )
        else:
            now += data.draw(st.floats(min_value=0.0, max_value=3_600.0))
        assert (state.capacity_epoch, state.degradation_epoch) == epochs
        after = _full_trees(state, now)
        for item_id in items:
            if state.item_revision(item_id) != revisions[item_id]:
                continue  # the booked item gained a copy
            for machine in machines:
                assert after[item_id].arrival(machine) >= (
                    before[item_id].arrival(machine)
                ), (kind, item_id, machine)


def test_a_copy_loss_may_lower_another_items_label():
    """Machine 1 stores one item at a time.  While item 0's copy sits
    there, item 1 cannot pass through it; losing that copy frees the
    storage, so item 1 arrives earlier — hence the release record (and
    the capacity epoch)."""
    network = make_network(
        3,
        [make_link(0, 0, 1), make_link(1, 1, 2), make_link(2, 2, 0)],
        capacities={1: 1000.0},
    )
    scenario = make_scenario(
        network,
        [make_item(0, 1000.0, [(0, 0.0)]), make_item(1, 1000.0, [(0, 0.0)])],
        [(0, 1, 2, 500.0), (1, 2, 2, 500.0)],
    )
    state = NetworkState(scenario)
    assert _book_a_first_hop(state, 0, 0, 0.0)
    held = compute_shortest_path_tree(state, 1).arrival(2)
    epoch = state.capacity_epoch
    state.remove_copy(0, 1, 5.0)
    freed = compute_shortest_path_tree(state, 1).arrival(2)
    assert freed < held
    assert state.capacity_epoch > epoch


def test_a_reopen_puts_a_destination_back_in_the_search():
    """A reopen changes no label, but it puts the destination back among
    the item's targets.  A deadline-bounded search that had no reason to
    reach it then finds it reachable — hence the item revision."""
    scenario = make_scenario(
        line_network(4),
        [make_item(0, 1000.0, [(0, 0.0)])],
        [(0, 1, 2, 50.0), (0, 3, 2, 60.0)],
    )
    tracer = RecordingTracer()
    state = NetworkState(scenario, tracer=tracer)
    for _ in range(3):
        assert _book_a_first_hop(state, 0, 0, 0.0)
    assert state.is_satisfied(1)
    searches = len(tracer.named("dijkstra"))
    bounded = compute_shortest_path_tree(
        state, 0, deadline_targets(state, 0)
    )
    (searched,) = tracer.named("dijkstra")[searches:]
    revision = state.item_revision(0)

    state.remove_copy(0, 3, 3.5)
    state.reopen_request(1)
    assert state.item_revision(0) > revision
    reopened = compute_shortest_path_tree(
        state, 0, deadline_targets(state, 0)
    )
    # With no target the search popped nothing and planned no hop; the
    # reopened destination, no longer a seed, is reached by a path.
    assert (searched["relaxations"], searched["finalized"]) == (0, 0)
    assert bounded.planned_hops == {}
    assert 3 not in reopened.seed_machines()
    assert reopened.arrival(3) < math.inf
    assert 3 in reopened.planned_hops
