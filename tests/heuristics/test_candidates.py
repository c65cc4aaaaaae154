"""Unit tests for candidate-group enumeration (the ``Drq[i,r]`` sets)."""

import pytest

from repro.core.state import NetworkState
from repro.errors import SchedulingError
from repro.heuristics.candidates import enumerate_groups
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.routing.paths import ShortestPathTree
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import make_item, make_link, make_network, make_scenario


def _star_scenario(deadlines=(100.0, 100.0), priorities=(2, 1)):
    """Item at 0; requests at 2 and 3, both via intermediate machine 1."""
    network = make_network(
        4,
        [
            make_link(0, 0, 1),
            make_link(1, 1, 2),
            make_link(2, 1, 3),
        ],
    )
    return make_scenario(
        network,
        [make_item(0, 1000.0, [(0, 0.0)])],
        [
            (0, 2, priorities[0], deadlines[0]),
            (0, 3, priorities[1], deadlines[1]),
        ],
    )


def _groups(scenario, item_id=0, priorities=None):
    state = NetworkState(scenario)
    tree = compute_shortest_path_tree(state, item_id)
    return enumerate_groups(
        state, item_id, tree, scenario.weighting, priorities
    )


class TestGrouping:
    def test_destinations_sharing_next_machine_grouped(self):
        groups = _groups(_star_scenario())
        assert len(groups) == 1
        group = groups[0]
        assert group.next_machine == 1
        assert group.first_hop.sender == 0
        assert [e.request.request_id for e in group.evaluations] == [0, 1]

    def test_distinct_next_machines_distinct_groups(self):
        # Two disjoint routes: 0 -> 1 -> 2 and 0 -> 3 -> 4.
        network = make_network(
            5,
            [
                make_link(0, 0, 1),
                make_link(1, 1, 2),
                make_link(2, 0, 3),
                make_link(3, 3, 4),
            ],
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0), (0, 4, 1, 100.0)],
        )
        groups = _groups(scenario)
        assert len(groups) == 2
        assert [g.next_machine for g in groups] == [1, 3]

    def test_group_without_satisfiable_destination_dropped(self):
        groups = _groups(_star_scenario(deadlines=(0.5, 0.5)))
        assert groups == ()

    def test_mixed_satisfiability_group_kept(self):
        groups = _groups(_star_scenario(deadlines=(100.0, 0.5)))
        assert len(groups) == 1
        group = groups[0]
        assert any(e.satisfiable for e in group.evaluations)
        flags = [e.satisfiable for e in group.evaluations]
        assert flags == [True, False]
        assert len(group.satisfiable_evaluations()) == 1

    def test_unreachable_destination_contributes_nothing(self):
        network = make_network(
            4,
            [make_link(0, 0, 1), make_link(1, 1, 2)],  # no route to 3
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0), (0, 3, 2, 100.0)],
        )
        groups = _groups(scenario)
        assert len(groups) == 1
        assert [e.request.request_id for e in groups[0].evaluations] == [0]


class TestFilters:
    def test_priority_filter(self):
        scenario = _star_scenario(priorities=(2, 1))
        high_only = _groups(scenario, priorities=frozenset({2}))
        assert len(high_only) == 1
        assert [e.request.priority for e in high_only[0].evaluations] == [2]
        low_only = _groups(scenario, priorities=frozenset({0}))
        assert low_only == ()

    def test_satisfied_requests_excluded(self):
        scenario = _star_scenario()
        state = NetworkState(scenario)
        network = scenario.network
        # Deliver request 0 (destination 2) manually.
        state.book_transfer(state.earliest_transfer(0, network.link(0), 0.0))
        state.book_transfer(state.earliest_transfer(0, network.link(1), 1.0))
        assert state.is_satisfied(0)
        tree = compute_shortest_path_tree(state, 0)
        groups = enumerate_groups(state, 0, tree, scenario.weighting)
        assert len(groups) == 1
        assert [e.request.request_id for e in groups[0].evaluations] == [1]
        # The remaining path starts from the staged copy at machine 1.
        assert groups[0].first_hop.sender == 1
        assert groups[0].next_machine == 3


class TestDeterminism:
    def test_groups_sorted_by_next_machine_and_request_id(self):
        scenario = _star_scenario()
        a = _groups(scenario)
        b = _groups(scenario)
        assert [g.tie_break_key() for g in a] == [
            g.tie_break_key() for g in b
        ]


    @pytest.mark.parametrize("seed", range(4))
    def test_every_groups_evaluations_are_in_request_id_order(self, seed):
        # Enumeration does not sort a group: requests reach it in id
        # order, since a scenario's request ids are dense and in order.
        scenario = ScenarioGenerator(GeneratorConfig.reduced()).generate(seed)
        state = NetworkState(scenario)
        shared = 0
        for priorities, request_filter in (
            (None, None),
            (frozenset({0, 2}), None),
            (None, lambda request: request.request_id % 3 != 1),
        ):
            for item_id in scenario.requested_item_ids():
                tree = compute_shortest_path_tree(state, item_id)
                for group in enumerate_groups(
                    state,
                    item_id,
                    tree,
                    scenario.weighting,
                    priorities,
                    request_filter,
                ):
                    ids = [e.request.request_id for e in group.evaluations]
                    assert ids == sorted(ids)
                    shared += len(ids) > 1
        assert shared


class TestFirstHopWalk:
    """Groups read their first hop off the tree's parent tuples; each must
    be the first hop of the destination's ``path_to`` path, and the walk
    keeps ``path_to``'s guards against tree bugs."""

    @pytest.mark.parametrize("seed", range(8))
    def test_first_hops_match_the_paths(self, seed):
        scenario = ScenarioGenerator(GeneratorConfig.reduced()).generate(seed)
        state = NetworkState(scenario)
        grouped = 0
        for item_id in scenario.requested_item_ids():
            tree = compute_shortest_path_tree(state, item_id)
            for group in enumerate_groups(
                state, item_id, tree, scenario.weighting
            ):
                assert group.tree is tree
                for evaluation in group.evaluations:
                    path = tree.path_to(evaluation.request.destination)
                    assert path.hops[0] == group.first_hop
                    grouped += 1
        assert grouped

    def _groups_of(self, parents, labels):
        scenario = _star_scenario()
        tree = ShortestPathTree(0, {0: 0.0}, labels, parents)
        state = NetworkState(scenario)
        return enumerate_groups(state, 0, tree, scenario.weighting)

    def test_a_cyclic_parent_chain_is_rejected(self):
        with pytest.raises(SchedulingError, match="cyclic"):
            self._groups_of(
                {1: (2, 0, 0.0, 1.0), 2: (1, 1, 1.0, 2.0)},
                {0: 0.0, 1: 1.0, 2: 2.0},
            )

    def test_a_first_hop_from_a_non_seed_is_rejected(self):
        with pytest.raises(SchedulingError, match="seed"):
            self._groups_of(
                {1: (4, 0, 0.0, 1.0), 2: (1, 1, 1.0, 2.0)},
                {0: 0.0, 1: 1.0, 2: 2.0, 4: 0.0},
            )

    def test_a_labelled_destination_without_a_parent_is_rejected(self):
        with pytest.raises(SchedulingError, match="seed"):
            self._groups_of({}, {0: 0.0, 2: 2.0})
