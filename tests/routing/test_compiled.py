"""Unit tests for the compiled routing kernel.

The differential suite (``tests/experiments/test_compiled_differential``)
pins whole-schedule equivalence; these tests pin the compiled artifacts
themselves — CSR layout, memo identity, and the per-run durations a
bandwidth degradation must reach — so a regression is reported at the
layer that broke rather than as a distant schedule mismatch.  Tree-level
equality is checked against the reference loop the tests keep as their
oracle (:mod:`tests.routing.reference_kernel`), and a guard test checks
that ``use_reference_kernel()`` really reroutes a heuristic's searches to
it.
"""

import math
from unittest import mock

import pytest

from repro.core.intervals import Interval
from repro.core.state import NetworkState
from repro.errors import SchedulingError
from repro.heuristics.registry import make_heuristic
from repro.routing.compiled import (
    compile_network,
    compiled_for,
    compute_tree_compiled,
)

from tests.helpers import (
    line_network,
    make_item,
    make_link,
    make_network,
    make_scenario,
)
from tests.routing import reference_kernel
from tests.routing.reference_kernel import (
    reference_tree,
    use_reference_kernel,
)


def _windowed_network():
    """Two machines, a multigraph: parallel links and split windows."""
    return make_network(
        3,
        [
            make_link(0, 0, 1, bandwidth=100.0, latency=0.5),
            make_link(
                1, 0, 1, bandwidth=2000.0,
                windows=(Interval(0.0, 10.0), Interval(20.0, 50.0)),
            ),
            make_link(2, 1, 2, bandwidth=500.0),
            make_link(3, 2, 0, bandwidth=500.0),
        ],
    )


class TestCompileNetwork:
    def test_csr_mirrors_outgoing_order(self):
        network = _windowed_network()
        compiled = compile_network(network)
        assert compiled.machine_count == network.machine_count
        assert len(compiled.offsets) == network.machine_count + 1
        assert compiled.offsets[0] == 0
        assert compiled.edge_count == len(network.virtual_links)
        for machine in range(network.machine_count):
            lo = compiled.offsets[machine]
            hi = compiled.offsets[machine + 1]
            reference = network.outgoing(machine)
            assert hi - lo == len(reference)
            for slot, link in enumerate(reference):
                edge = lo + slot
                # The link's own objects, not copies of their values.
                assert compiled.link_ids[edge] is link.link_id
                assert compiled.window_starts[edge] is link.start
                assert compiled.window_ends[edge] is link.end
            # Each run's receiver and latency are its links'.
            for start, end, receiver, first_link, latency in compiled.runs[
                machine
            ]:
                assert first_link == compiled.link_ids[start]
                for link_id in compiled.link_ids[start:end]:
                    link = network.virtual_links[link_id]
                    assert link.destination == receiver
                    assert link.latency == latency

    def test_run_ends_group_each_physical_links_windows(self):
        network = _windowed_network()
        compiled = compile_network(network)
        # Machine 0: physical 0 (one window, edge 0) and physical 1 (two
        # windows, edges 1-2) join the same pair but form two runs; the
        # one-window links of machines 1 and 2 are runs of one.
        assert compiled.runs == [
            ((0, 1, 1, 0, 0.5), (1, 3, 1, 1, 0.0)),
            ((3, 4, 2, 3, 0.0),),
            ((4, 5, 0, 4, 0.0),),
        ]
        physical = [
            network.virtual_links[link_id].physical_id
            for link_id in compiled.link_ids
        ]
        assert physical == [0, 1, 1, 2, 3]

    def test_each_physical_link_is_one_run(self, tiny_scenarios):
        for scenario in tiny_scenarios:
            network = scenario.network
            compiled = compile_network(network)
            runs = {}
            for machine in range(network.machine_count):
                edge = compiled.offsets[machine]
                for start, run_end, _, _, _ in compiled.runs[machine]:
                    assert start == edge
                    assert edge < run_end <= compiled.offsets[machine + 1]
                    links = [
                        network.virtual_links[link_id]
                        for link_id in compiled.link_ids[edge:run_end]
                    ]
                    (physical_id,) = {link.physical_id for link in links}
                    assert physical_id not in runs
                    runs[physical_id] = [link.start for link in links]
                    edge = run_end
                assert edge == compiled.offsets[machine + 1]
            # Every run holds all of its facility's windows, in order.
            assert runs == {
                plink.physical_id: [window.start for window in plink.windows]
                for plink in network.physical_links
                if plink.windows
            }

    def test_compiled_for_memoizes_per_network(self):
        first = _windowed_network()
        second = _windowed_network()
        assert compiled_for(first) is compiled_for(first)
        assert compiled_for(first) is not compiled_for(second)


def _assert_trees_equal(compiled_tree, oracle_tree):
    # White-box on purpose: byte-identity includes the dicts' insertion
    # order, which no public accessor exposes.
    assert compiled_tree.item_id == oracle_tree.item_id
    assert compiled_tree._seeds == oracle_tree._seeds
    assert compiled_tree._labels == oracle_tree._labels
    assert compiled_tree._parents == oracle_tree._parents
    assert list(compiled_tree._labels) == list(oracle_tree._labels)
    assert list(compiled_tree._parents) == list(oracle_tree._parents)


class TestDegradedDurations:
    """The kernel computes each run's duration from the state's current
    bandwidths, so a degradation is seen by the very next search."""

    def _scenario(self):
        return make_scenario(
            _windowed_network(),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0)],
        )

    def test_search_after_degradation_matches_oracle(self):
        state = NetworkState(self._scenario())
        before = compute_tree_compiled(state, 0, None, 0.0)
        _assert_trees_equal(before, reference_tree(state, 0, None, 0.0))
        # Machine 1 is first reached over physical link 1's first window.
        assert before.path_to(1).hops[0].link_id == 1

        # At 20 B/s the 1000-byte item no longer fits either window of
        # physical link 1, so the route must move to physical link 0.
        state.degrade_physical_link(1, 0.01)
        after = compute_tree_compiled(state, 0, None, 0.0)
        _assert_trees_equal(after, reference_tree(state, 0, None, 0.0))
        assert after.path_to(1).hops[0].link_id == 0
        assert after.arrival(1) > before.arrival(1)

    def test_degrading_a_clone_leaves_its_sibling_unchanged(self):
        state = NetworkState(self._scenario())
        degraded, sibling = state.clone(), state.clone()
        before = compute_tree_compiled(sibling, 0, None, 0.0)

        degraded.degrade_physical_link(1, 0.25)
        _assert_trees_equal(
            compute_tree_compiled(degraded, 0, None, 0.0),
            reference_tree(degraded, 0, None, 0.0),
        )
        for untouched in (sibling, state):
            tree = compute_tree_compiled(untouched, 0, None, 0.0)
            _assert_trees_equal(tree, before)
            _assert_trees_equal(
                tree, reference_tree(untouched, 0, None, 0.0)
            )
        assert compute_tree_compiled(
            degraded, 0, None, 0.0
        ).arrival(1) > before.arrival(1)

    def test_uncontended_hop_lasts_size_over_bandwidth_plus_latency(self):
        scenario = make_scenario(
            line_network(3, latency=0.25),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0)],
        )
        state = NetworkState(scenario)
        expected = {1000.0: 1.25, 250.0: 4.25}
        for degrade in (False, True):
            if degrade:
                state.degrade_physical_link(0, 0.25)
                state.degrade_physical_link(1, 0.25)
            tree = compute_tree_compiled(state, 0, None, 0.0)
            for hop in tree.path_to(2).hops:
                bandwidth = state.effective_bandwidth(hop.link_id)
                assert hop.end - hop.start == 1000.0 / bandwidth + 0.25
                assert hop.end - hop.start == expected[bandwidth]


class TestKernelEquivalence:
    """Tree-level equality against the reference loop on hand networks."""

    def _scenarios(self):
        yield make_scenario(
            line_network(4),
            [make_item(0, 1000.0, [(0, 0.0), (2, 5.0)])],
            [(0, 3, 2, 100.0)],
        )
        yield make_scenario(
            _windowed_network(),
            [make_item(0, 4000.0, [(0, 1.0)])],
            [(0, 2, 2, 200.0)],
        )

    def test_full_search(self):
        for scenario in self._scenarios():
            _assert_trees_equal(
                compute_tree_compiled(NetworkState(scenario), 0, None, 0.0),
                reference_tree(NetworkState(scenario), 0, None, 0.0),
            )

    def test_targeted_early_exit(self):
        for scenario in self._scenarios():
            for targets in ({1}, {2}, {1, 2}):
                _assert_trees_equal(
                    compute_tree_compiled(
                        NetworkState(scenario),
                        0,
                        dict.fromkeys(targets, math.inf),
                        0.0,
                    ),
                    reference_tree(
                        NetworkState(scenario),
                        0,
                        dict.fromkeys(targets, math.inf),
                        0.0,
                    ),
                )

    def test_deadline_bounded(self):
        for scenario in self._scenarios():
            for targets in (
                {},
                {1: 0.5},
                {2: 3.0},
                {1: 0.5, 2: 30.0},
                {1: 25.0, 2: 6.0},
            ):
                _assert_trees_equal(
                    compute_tree_compiled(
                        NetworkState(scenario), 0, targets, 0.0
                    ),
                    reference_tree(NetworkState(scenario), 0, targets, 0.0),
                )

    def test_not_before(self):
        for scenario in self._scenarios():
            for now in (0.5, 3.0, 30.0):
                _assert_trees_equal(
                    compute_tree_compiled(
                        NetworkState(scenario), 0, None, now
                    ),
                    reference_tree(NetworkState(scenario), 0, None, now),
                )

    def test_degraded_state(self):
        scenario = next(iter(self._scenarios()))
        compiled_state = NetworkState(scenario)
        reference_state = NetworkState(scenario)
        for state in (compiled_state, reference_state):
            state.degrade_physical_link(1, 0.25)
        _assert_trees_equal(
            compute_tree_compiled(compiled_state, 0, None, 0.0),
            reference_tree(reference_state, 0, None, 0.0),
        )

    def test_reference_switch_reroutes_every_search(self, tiny_scenarios):
        """Inside ``use_reference_kernel()`` every search of a heuristic
        run goes through the oracle; otherwise the differentials would
        compare the compiled kernel with itself and still pass."""
        calls = []

        def counting(*args):
            calls.append(args)
            return reference_tree(*args)

        heuristic = make_heuristic("partial", criterion="C4")
        with mock.patch.object(reference_kernel, "reference_tree", counting):
            with use_reference_kernel():
                result = heuristic.run(tiny_scenarios[0])
        assert result.stats.dijkstra_runs > 0
        assert len(calls) == result.stats.dijkstra_runs


class TestDegradeValidation:
    def _state(self):
        scenario = make_scenario(
            line_network(3),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0)],
        )
        return NetworkState(scenario)

    def test_rejects_out_of_range_factor(self):
        state = self._state()
        with pytest.raises(ValueError):
            state.degrade_physical_link(0, 0.0)
        with pytest.raises(ValueError):
            state.degrade_physical_link(0, 1.5)

    def test_rejects_unknown_link(self):
        with pytest.raises(SchedulingError):
            self._state().degrade_physical_link(99, 0.5)

    def test_rejects_loosening(self):
        state = self._state()
        state.degrade_physical_link(0, 0.5)
        with pytest.raises(SchedulingError):
            state.degrade_physical_link(0, 0.75)
        # Tightening further is allowed and bumps the epoch again.
        before = state.degradation_epoch
        state.degrade_physical_link(0, 0.25)
        assert state.degradation_epoch == before + 1
