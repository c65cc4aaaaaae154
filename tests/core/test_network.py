"""Unit tests for the network topology graph."""

import pytest

from repro.core.intervals import Interval
from repro.core.machine import Machine
from repro.core.network import Network, machines_with_uniform_capacity
from repro.errors import ModelError

from tests.helpers import line_network, make_link, make_network


class TestConstruction:
    def test_machine_indices_must_be_dense(self):
        machines = (Machine(0, 1.0), Machine(2, 1.0))
        with pytest.raises(ModelError):
            Network(machines, ())

    def test_machines_sorted_by_index(self):
        machines = (Machine(1, 1.0), Machine(0, 2.0))
        network = Network(machines, ())
        assert [m.index for m in network.machines] == [0, 1]

    def test_empty_network_rejected(self):
        with pytest.raises(ModelError):
            Network((), ())

    def test_duplicate_physical_id_rejected(self):
        with pytest.raises(ModelError):
            make_network(
                3, [make_link(0, 0, 1), make_link(0, 1, 2)]
            )

    def test_link_to_unknown_machine_rejected(self):
        with pytest.raises(ModelError, match="unknown machine 5"):
            make_network(2, [make_link(0, 0, 5)])
        with pytest.raises(ModelError, match="unknown machine 2"):
            make_network(2, [make_link(0, 2, 1)])

    def test_link_to_negative_machine_rejected(self):
        # Network.__init__ bounds endpoints from above; the virtual link
        # it derives refuses a negative one.
        with pytest.raises(ModelError, match="negative endpoint"):
            make_network(2, [make_link(0, 0, -1)])
        with pytest.raises(ModelError, match="negative endpoint"):
            make_network(2, [make_link(0, -1, 1)])

    def test_virtual_link_ids_are_dense(self):
        link_a = make_link(
            0, 0, 1, windows=[Interval(0, 10), Interval(20, 30)]
        )
        link_b = make_link(1, 1, 0, windows=[Interval(5, 15)])
        network = make_network(2, [link_a, link_b])
        assert [v.link_id for v in network.virtual_links] == [0, 1, 2]


class TestAccessors:
    def test_machine_lookup(self):
        network = line_network(3)
        assert network.machine(1).index == 1
        with pytest.raises(ModelError):
            network.machine(3)

    def test_link_lookup(self):
        network = line_network(3)
        assert network.link(0).link_id == 0
        with pytest.raises(ModelError):
            network.link(99)

    def test_outgoing(self):
        network = line_network(3)
        outgoing = network.outgoing(1)
        assert all(v.source == 1 for v in outgoing)
        assert {v.destination for v in outgoing} == {2}
        with pytest.raises(ModelError):
            network.outgoing(5)

    def test_links_between(self):
        two_links = [
            make_link(0, 0, 1),
            make_link(1, 0, 1, bandwidth=500.0),
            make_link(2, 1, 0),
        ]
        network = make_network(2, two_links)
        assert len(network.links_between(0, 1)) == 2
        assert len(network.links_between(1, 0)) == 1
        assert network.links_between(0, 0) == ()

    def test_out_degree_counts_distinct_targets(self):
        links = [
            make_link(0, 0, 1),
            make_link(1, 0, 1, bandwidth=2000.0),  # parallel: same target
            make_link(2, 0, 2),
            make_link(3, 1, 0),
            make_link(4, 2, 0),
        ]
        network = make_network(3, links)
        assert network.out_degree(0) == 2
        assert network.out_degree(1) == 1


class TestConnectivity:
    def test_ring_is_strongly_connected(self):
        assert line_network(4).is_strongly_connected()

    def test_one_way_chain_is_not(self):
        links = [make_link(0, 0, 1), make_link(1, 1, 2)]
        network = make_network(3, links)
        assert not network.is_strongly_connected()

    def test_unreachable_node_is_not(self):
        links = [make_link(0, 0, 1), make_link(1, 1, 0)]
        network = make_network(3, links)
        assert not network.is_strongly_connected()

    def test_single_machine_trivially_connected(self):
        network = make_network(1, [])
        assert network.is_strongly_connected()

    def test_physical_adjacency(self):
        network = line_network(3)
        assert network.physical_adjacency() == {0: {1}, 1: {2}, 2: {0}}


class TestNetworkxExport:
    def test_multigraph_shape(self):
        network = make_network(
            2, [make_link(0, 0, 1), make_link(1, 0, 1), make_link(2, 1, 0)]
        )
        graph = network.to_networkx()
        assert graph.number_of_nodes() == 2
        assert graph.number_of_edges() == 3
        assert graph.nodes[0]["capacity"] == 1_000_000.0

    def test_edge_attributes(self):
        network = line_network(3, bandwidth=750.0)
        graph = network.to_networkx()
        __, __, data = next(iter(graph.edges(data=True)))
        assert data["bandwidth"] == 750.0
        assert "start" in data and "end" in data


class TestHelpers:
    def test_uniform_capacity_constructor(self):
        machines = machines_with_uniform_capacity(4, 123.0)
        assert len(machines) == 4
        assert all(m.capacity == 123.0 for m in machines)
