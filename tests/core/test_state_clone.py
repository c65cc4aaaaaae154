"""Tests for NetworkState.clone() independence and fidelity."""

from repro.core.state import NetworkState
from repro.core.validation import ScheduleValidator
from repro.routing.dijkstra import compute_shortest_path_tree

from tests.helpers import (
    line_network,
    make_item,
    make_link,
    make_network,
    make_scenario,
)


def _scenario():
    return make_scenario(
        line_network(3),
        [
            make_item(0, 1000.0, [(0, 0.0)]),
            make_item(1, 1000.0, [(1, 0.0)]),
        ],
        [(0, 2, 2, 100.0), (1, 0, 1, 100.0)],
        gc_delay=50.0,
        horizon=1000.0,
    )


class TestCloneFidelity:
    def test_clone_replicates_bookings_and_schedule(self):
        scenario = _scenario()
        state = NetworkState(scenario, schedule_name="orig")
        network = scenario.network
        state.book_transfer(state.earliest_transfer(0, network.link(0), 0.0))
        clone = state.clone()
        assert clone.holds(0, 1)
        assert clone.copy_at(0, 1).available_from == 1.0
        assert clone.schedule.step_count == 1
        assert clone.schedule.name == "orig"
        assert clone.link_busy_intervals(0) == state.link_busy_intervals(0)
        assert (
            clone.machine_timeline(1).free_at(10.0)
            == state.machine_timeline(1).free_at(10.0)
        )

    def test_clone_replicates_deliveries(self):
        scenario = _scenario()
        state = NetworkState(scenario)
        network = scenario.network
        state.book_transfer(state.earliest_transfer(0, network.link(0), 0.0))
        state.book_transfer(state.earliest_transfer(0, network.link(1), 1.0))
        clone = state.clone()
        assert clone.is_satisfied(0)
        assert clone.schedule.delivery(0).arrival == 2.0
        ScheduleValidator(scenario).validate(clone.schedule)


class TestCloneIndependence:
    def test_booking_on_clone_leaves_original_untouched(self):
        scenario = _scenario()
        state = NetworkState(scenario)
        clone = state.clone()
        link = scenario.network.link(0)
        clone.book_transfer(clone.earliest_transfer(0, link, 0.0))
        assert clone.holds(0, 1)
        assert not state.holds(0, 1)
        assert state.schedule.step_count == 0
        assert state.link_busy_intervals(0) == ()
        # The original still sees the link as free at t=0.
        plan = state.earliest_transfer(0, link, 0.0)
        assert plan.start == 0.0

    def test_booking_on_original_leaves_clone_untouched(self):
        scenario = _scenario()
        state = NetworkState(scenario)
        clone = state.clone()
        link = scenario.network.link(0)
        state.book_transfer(state.earliest_transfer(0, link, 0.0))
        assert not clone.holds(0, 1)
        assert clone.schedule.step_count == 0

    def test_routing_reads_each_states_own_busy_links(self):
        # Three 1-second items share one link; the parent books one
        # before the clone exists, the clone books a second after.
        scenario = make_scenario(
            make_network(2, [make_link(0, 0, 1)]),
            [make_item(i, 1000.0, [(0, 0.0)]) for i in range(3)],
            [(i, 1, 1, 100.0) for i in range(3)],
        )
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        state.book_transfer(state.earliest_transfer(1, link, 0.0))
        clone = state.clone()
        clone.book_transfer(clone.earliest_transfer(2, link, 0.0))
        assert compute_shortest_path_tree(state, 0).arrival(1) == 2.0
        assert compute_shortest_path_tree(clone, 0).arrival(1) == 3.0

    def test_clone_shares_immutable_release_matrix(self):
        scenario = _scenario()
        state = NetworkState(scenario)
        clone = state.clone()
        for item_id in (0, 1):
            for machine in range(3):
                assert clone.release_time_at(
                    item_id, machine
                ) == state.release_time_at(item_id, machine)
