"""Unit tests for shortest-path trees and path reconstruction."""

import pytest

from repro.errors import SchedulingError
from repro.routing.paths import ShortestPathTree


class TestShortestPathTree:
    def _tree(self):
        # Seeds {0}; 0 -> 1 -> 2 and 0 -> 3.
        return ShortestPathTree(
            item_id=7,
            seeds={0: 0.0},
            labels={0: 0.0, 1: 1.0, 2: 2.0, 3: 4.0},
            parents={
                1: (0, 10, 0.0, 1.0),
                2: (1, 11, 1.0, 2.0),
                3: (0, 12, 3.0, 4.0),
            },
        )

    def test_arrivals(self):
        tree = self._tree()
        assert tree.arrival(0) == 0.0
        assert tree.arrival(2) == 2.0
        assert tree.arrival(9) == float("inf")
        assert tree.item_id == 7

    def test_path_reconstruction(self):
        tree = self._tree()
        path = tree.path_to(2)
        assert path.origin == 0
        assert [h.link_id for h in path.hops] == [10, 11]
        assert [h.receiver for h in path.hops] == [1, 2]

    def test_path_to_seed_is_empty(self):
        assert self._tree().path_to(0).hops == ()

    def test_path_to_unreachable_is_none(self):
        assert self._tree().path_to(9) is None

    @staticmethod
    def _footprint(tree, targets):
        """``(links, receivers)`` of the tree projected onto ``targets``."""
        projection = tree.projected(dict.fromkeys(targets, float("inf")))
        hops = projection.planned_hops
        return {hop[1] for hop in hops.values()}, set(hops)

    def test_footprint_covers_destination_paths_only(self):
        tree = self._tree()
        links, machines = self._footprint(tree, [2])
        assert links == {10, 11}
        assert machines == {1, 2}
        links, machines = self._footprint(tree, [3])
        assert links == {12}
        assert machines == {3}

    def test_footprint_union_and_unreachable(self):
        tree = self._tree()
        links, machines = self._footprint(tree, [2, 3, 9])
        assert links == {10, 11, 12}
        assert machines == {1, 2, 3}

    def test_reachable_machines(self):
        assert self._tree().reachable_machines() == (0, 1, 2, 3)

    def test_missing_parent_raises(self):
        tree = ShortestPathTree(
            item_id=0, seeds={0: 0.0}, labels={0: 0.0, 1: 1.0}, parents={}
        )
        with pytest.raises(SchedulingError):
            tree.path_to(1)

    def test_cyclic_parents_raise(self):
        tree = ShortestPathTree(
            item_id=0,
            seeds={9: 0.0},
            labels={1: 1.0, 2: 2.0, 9: 0.0},
            parents={1: (2, 0, 0.0, 1.0), 2: (1, 1, 1.0, 2.0)},
        )
        with pytest.raises(SchedulingError):
            tree.path_to(2)
