"""Unit tests for the time-dependent multiple-source Dijkstra."""

import math

from repro.core.intervals import Interval
from repro.core.state import NetworkState
from repro.observability.tracer import RecordingTracer, use_tracer
from repro.routing.dijkstra import compute_shortest_path_tree

from tests.helpers import (
    line_network,
    make_item,
    make_link,
    make_network,
    make_scenario,
)


class TestSingleSource:
    def test_line_arrivals(self):
        scenario = make_scenario(
            line_network(4),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 3, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        assert tree.arrival(0) == 0.0
        assert tree.arrival(1) == 1.0
        assert tree.arrival(2) == 2.0
        assert tree.arrival(3) == 3.0

    def test_latency_included(self):
        network = make_network(
            2, [make_link(0, 0, 1, latency=0.25), make_link(1, 1, 0)]
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        assert tree.arrival(1) == 1.25

    def test_source_availability_delays_start(self):
        scenario = make_scenario(
            line_network(3),
            [make_item(0, 1000.0, [(0, 12.0)])],
            [(0, 2, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        assert tree.arrival(0) == 12.0
        assert tree.arrival(1) == 13.0

    def test_unreachable_machine(self):
        # No link into machine 2 at all.
        network = make_network(
            3, [make_link(0, 0, 1), make_link(1, 1, 0)]
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        assert not tree.is_reachable(2)
        assert tree.arrival(2) == float("inf")


class TestParallelLinksAndWindows:
    def test_fastest_parallel_link_wins(self):
        network = make_network(
            2,
            [
                make_link(0, 0, 1, bandwidth=100.0),
                make_link(1, 0, 1, bandwidth=2000.0),
                make_link(2, 1, 0),
            ],
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        assert tree.arrival(1) == 0.5
        assert tree.path_to(1).hops[0].link_id == 1

    def test_waits_for_window_when_faster(self):
        # Slow always-open link vs fast link opening at t=5.
        network = make_network(
            2,
            [
                make_link(0, 0, 1, bandwidth=50.0),  # 20 s transfer
                make_link(
                    1, 0, 1, bandwidth=1000.0, windows=[Interval(5, 100)]
                ),
                make_link(2, 1, 0),
            ],
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        # Fast link: start 5, arrive 6.  Slow link: arrive 20.
        assert tree.arrival(1) == 6.0

    def test_second_window_used_when_first_missed(self):
        network = make_network(
            2,
            [
                make_link(
                    0,
                    0,
                    1,
                    windows=[Interval(0, 10), Interval(50, 60)],
                ),
                make_link(1, 1, 0),
            ],
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 30.0)])],  # available after window 1
            [(0, 1, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        assert tree.arrival(1) == 51.0

    def test_longer_path_beats_congested_direct_link(self):
        # Direct 0->2 is very slow; 0->1->2 is faster despite two hops.
        network = make_network(
            3,
            [
                make_link(0, 0, 2, bandwidth=10.0),  # 100 s
                make_link(1, 0, 1, bandwidth=1000.0),
                make_link(2, 1, 2, bandwidth=1000.0),
                make_link(3, 2, 0),
            ],
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 300.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        assert tree.arrival(2) == 2.0
        assert [h.receiver for h in tree.path_to(2).hops] == [1, 2]


class TestMultipleSources:
    def test_nearest_source_serves_each_machine(self):
        scenario = make_scenario(
            line_network(4),
            [make_item(0, 1000.0, [(0, 0.0), (2, 0.0)])],
            [(0, 3, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        assert tree.arrival(1) == 1.0  # from source 0
        assert tree.arrival(3) == 1.0  # from source 2
        assert tree.path_to(3).origin == 2
        assert set(tree.seed_machines()) == {0, 2}

    def test_later_source_still_best_when_closer(self):
        scenario = make_scenario(
            line_network(4),
            [make_item(0, 1000.0, [(0, 0.0), (2, 5.0)])],
            [(0, 3, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        # Via source 2 (ready at 5): arrive 6.  Via source 0: 0->1->2->3 but
        # machine 2 already holds the item, so the path 0->1->2 is blocked at
        # 2; arrival at 3 must come from source 2.
        assert tree.arrival(3) == 6.0


class TestStateInteraction:
    def test_busy_link_pushes_arrival(self):
        scenario = make_scenario(
            line_network(3),
            [
                make_item(0, 1000.0, [(0, 0.0)]),
                make_item(1, 1000.0, [(0, 0.0)]),
            ],
            [(0, 2, 2, 100.0), (1, 2, 0, 100.0)],
        )
        state = NetworkState(scenario)
        state.book_transfer(
            state.earliest_transfer(0, scenario.network.link(0), 0.0)
        )
        tree = compute_shortest_path_tree(state, 1)
        assert tree.arrival(1) == 2.0  # serialized behind item 0

    def test_capacity_exhausted_machine_is_routed_around(self):
        # Machine 1 cannot store the item; 0 -> 3 -> 2 must be used.
        network = make_network(
            4,
            [
                make_link(0, 0, 1),
                make_link(1, 1, 2),
                make_link(2, 0, 3, bandwidth=500.0),
                make_link(3, 3, 2, bandwidth=500.0),
                make_link(4, 2, 0),
            ],
            capacities={1: 10.0},
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        assert not tree.is_reachable(1)
        assert tree.arrival(2) == 4.0  # two 2-second hops via machine 3
        assert [h.receiver for h in tree.path_to(2).hops] == [3, 2]

    def test_seeded_holder_not_relaxed_into(self):
        scenario = make_scenario(
            line_network(3),
            [make_item(0, 1000.0, [(0, 0.0), (1, 50.0)])],
            [(0, 2, 2, 100.0)],
        )
        tree = compute_shortest_path_tree(NetworkState(scenario), 0)
        # Machine 1 already holds a copy (from t=50); no transfer into it.
        assert tree.arrival(1) == 50.0
        assert tree.path_to(1).hops == ()


class TestEarlyExit:
    def test_targets_are_exact(self):
        scenario = make_scenario(
            line_network(5),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0)],
        )
        state = NetworkState(scenario)
        full = compute_shortest_path_tree(state, 0)
        early = compute_shortest_path_tree(state, 0, targets={2: math.inf})
        assert early.arrival(2) == full.arrival(2)
        assert [h.link_id for h in early.path_to(2).hops] == [
            h.link_id for h in full.path_to(2).hops
        ]

    def test_unfinalized_machines_reported_unreachable(self):
        scenario = make_scenario(
            line_network(5),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 2, 100.0)],
        )
        early = compute_shortest_path_tree(
            NetworkState(scenario), 0, targets={1: math.inf}
        )
        assert early.is_reachable(1)
        # Machine 4 was never finalized before the early exit.
        assert not early.is_reachable(4)


def _line_item(sources=((0, 0.0),)):
    """Machines 0 -> 1 -> 2 -> 3 -> 4, one second per hop."""
    return make_scenario(
        line_network(5),
        [make_item(0, 1000.0, list(sources))],
        [(0, 4, 2, 100.0)],
    )


def _traced_search(scenario, targets, not_before=0.0):
    """The tree and its ``dijkstra`` event's fields."""
    tracer = RecordingTracer()
    with use_tracer(tracer):
        tree = compute_shortest_path_tree(
            NetworkState(scenario), 0, targets, not_before
        )
    (event,) = tracer.named("dijkstra")
    return tree, event


class TestDeadlineHorizon:
    """Targets map to deadlines: the search stops once no pending target
    can still meet its deadline, and a target that misses it is reported
    unreachable."""

    def test_a_label_equal_to_the_deadline_is_kept(self):
        tree = compute_shortest_path_tree(
            NetworkState(_line_item()), 0, targets={2: 2.0}
        )
        assert tree.is_reachable(2)
        assert tree.arrival(2) == 2.0

    def test_a_label_past_the_deadline_is_unreachable(self):
        tree = compute_shortest_path_tree(
            NetworkState(_line_item()), 0, targets={2: 1.5}
        )
        assert not tree.is_reachable(2)
        assert tree.path_to(2) is None

    def test_a_missed_target_on_the_path_to_a_satisfiable_one(self):
        state = NetworkState(_line_item())
        full = compute_shortest_path_tree(state, 0)
        tree = compute_shortest_path_tree(
            state, 0, targets={1: 0.5, 3: 10.0}
        )
        assert not tree.is_reachable(1)
        assert tree.arrival(3) == 3.0
        # The missed target keeps its parent, so the path through it
        # resolves exactly as in the full tree.
        assert tree.path_to(3).hops == full.path_to(3).hops
        assert [hop.receiver for hop in tree.path_to(3).hops] == [1, 2, 3]

    def test_relaxations_past_the_horizon_are_pruned(self):
        bounded, event = _traced_search(_line_item(), {4: 2.5})
        assert not bounded.is_reachable(4)
        # 0->1 and 1->2 arrive by 2.5; 2->3 cannot, and ends the search.
        assert (event["relaxations"], event["pruned"]) == (2, 1)
        __, unbounded = _traced_search(_line_item(), {4: math.inf})
        assert unbounded["relaxations"] == 4

    def test_the_horizon_falls_as_targets_are_finalized(self):
        tree, event = _traced_search(_line_item(), {1: 100.0, 3: 2.5})
        assert tree.arrival(1) == 1.0
        assert not tree.is_reachable(3)
        # Once machine 1 is finalized the horizon is 3's deadline, 2.5:
        # 1->2 still arrives by it, 2->3 cannot.
        assert (event["relaxations"], event["pruned"]) == (2, 1)

    def test_empty_targets_search_nothing(self):
        tree, event = _traced_search(_line_item(), {})
        # The projection keeps the unpopped seed; no other machine reads
        # reachable, and the search popped nothing.
        assert tree.reachable_machines() == (0,)
        assert tree.seed_machines() == (0,)
        assert tree.planned_hops == {}
        assert (event["relaxations"], event["finalized"]) == (0, 0)

    def test_a_seed_past_the_horizon_is_never_expanded(self):
        scenario = _line_item(sources=((0, 0.0), (2, 50.0)))
        tree, event = _traced_search(scenario, {1: 10.0, 3: 20.0})
        assert tree.arrival(1) == 1.0
        # Machine 3 is reachable only through the seed at 2, which is
        # ready at 50: past every pending deadline, so never popped (the
        # projection still lists the seed itself).
        assert not tree.is_reachable(3)
        assert tree.seed_machines() == (0, 2)
        assert tree.reachable_machines() == (0, 1, 2)
        assert (event["finalized"], event["seeds"]) == (2, 2)

    def test_deadlines_before_not_before_search_nothing(self):
        tree, event = _traced_search(_line_item(), {2: 5.0}, not_before=10.0)
        assert tree.reachable_machines() == (0,)
        assert not tree.is_reachable(2)
        assert (event["relaxations"], event["finalized"]) == (0, 0)
        later = compute_shortest_path_tree(
            NetworkState(_line_item()), 0, {2: math.inf}, not_before=10.0
        )
        assert later.arrival(2) == 12.0
