"""Differential tests for the compiled kernel's physical-link run exits.

The compiled kernel walks the windows of one physical link as one run
and leaves the run early at its first pruned edge, and — when tracing is
off — at an ``already_at_destination`` rejection or a ``window_closed``
rejection caused by the residency bounds.  A ``window_closed`` caused by
a single virtual link's cutoff must *not* end the run: a later window of
the same facility may still carry the transfer.  The dynamic driver
always cuts a whole facility at once, so these tests cut one virtual
link in the middle of a run by hand and compare the compiled kernel with
the reference loop kept as the tests' oracle
(:func:`tests.routing.reference_kernel.reference_tree`), untraced (trees)
and traced (whole event streams, including the ``dijkstra`` event's
``relaxations`` and ``pruned``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval
from repro.core.state import NetworkState
from repro.observability.tracer import RecordingTracer
from repro.routing.compiled import compute_tree_compiled

from tests.helpers import (
    make_item,
    make_link,
    make_network,
    make_scenario,
    neutral_fields,
)
from tests.routing.reference_kernel import reference_tree


def _run_scenario():
    """One source whose outgoing runs hit every exit of the kernel.

    Item 0 (5 s per hop at 1000 B/s) is at machine 0 from t=12 and at
    machine 3 from t=500; machine 4 requests it by t=100, so copies on
    the intermediates 1 and 2 are released at t=110.

    * ``0->1`` (physical 0) has five windows; the second is cut at its
      own start, so the walk sees ``no_link_slot``, a cutoff
      ``window_closed``, a feasible window, and then two pruned ones.
      Physical 4 is a slow parallel run into the same receiver.
    * ``0->2`` (physical 1) has a too-short window and then two windows
      past machine 2's release, which close for the rest of the run.
    * ``0->3`` (physical 2) leads into a holder of the item.
    """
    network = make_network(
        5,
        [
            make_link(
                0, 0, 1,
                windows=(
                    Interval(0.0, 10.0),
                    Interval(20.0, 30.0),
                    Interval(40.0, 50.0),
                    Interval(60.0, 70.0),
                    Interval(80.0, 90.0),
                ),
            ),
            make_link(
                1, 0, 2,
                windows=(
                    Interval(50.0, 54.0),
                    Interval(120.0, 130.0),
                    Interval(140.0, 150.0),
                ),
            ),
            make_link(
                2, 0, 3,
                windows=(Interval(0.0, 100.0), Interval(200.0, 300.0)),
            ),
            make_link(3, 1, 4),
            make_link(4, 0, 1, bandwidth=100.0),
            make_link(5, 2, 4),
            make_link(6, 3, 4),
        ],
    )
    return make_scenario(
        network,
        [make_item(0, 5000.0, [(0, 12.0), (3, 500.0)])],
        [(0, 4, 2, 100.0)],
        gc_delay=10.0,
    )


def _search(scenario, compiled, tracing, not_before, cuts):
    """One search over a fresh state with ``cuts`` applied.

    Returns the tree and, when tracing, the recorded event stream (with
    wall timing dropped).
    """
    tracer = RecordingTracer() if tracing else None
    state = NetworkState(scenario, tracer=tracer)
    for link_id, at_time in cuts:
        state.disable_link_from(link_id, at_time)
    kernel = compute_tree_compiled if compiled else reference_tree
    tree = kernel(state, 0, None, not_before)
    events = (
        [(event.name, neutral_fields(event)) for event in tracer.events]
        if tracer is not None
        else []
    )
    return tree, events


def _tree_key(tree):
    # White-box on purpose: byte-identity includes the dicts' insertion
    # order, which no public accessor exposes.
    return (
        list(tree._seeds.items()),
        list(tree._labels.items()),
        list(tree._parents.items()),
    )


def _assert_kernels_agree(scenario, not_before, cuts):
    for tracing in (False, True):
        compiled_tree, compiled_events = _search(
            scenario, True, tracing, not_before, cuts
        )
        oracle_tree, oracle_events = _search(
            scenario, False, tracing, not_before, cuts
        )
        assert _tree_key(compiled_tree) == _tree_key(oracle_tree)
        assert compiled_events == oracle_events


def _mid_run_cut(scenario):
    """The cut of the second window of physical link 0, at its start."""
    link = scenario.network.links_between(0, 1)[1]
    assert link.physical_id == 0
    return ((link.link_id, link.start),)


class TestMidRunCutoff:
    def test_cut_window_does_not_end_the_run(self):
        scenario = _run_scenario()
        cuts = _mid_run_cut(scenario)
        tree, events = _search(scenario, True, True, 0.0, cuts)
        # Machine 1 is reached through the third window of the cut run.
        (hop,) = tree.path_to(1).hops
        assert (hop.sender, hop.link_id) == (0, 2)
        assert (hop.start, hop.end) == (40.0, 45.0)
        rejected = [
            dict(fields)
            for name, fields in events
            if name == "transfer_rejected"
        ]
        assert {"item_id": 0, "link_id": 1, "reason": "window_closed"} in (
            rejected
        )
        # The run's last two windows are pruned after the feasible one.
        (dijkstra,) = [
            dict(fields) for name, fields in events if name == "dijkstra"
        ]
        assert dijkstra["relaxations"] > 0 and dijkstra["pruned"] >= 2

    def test_kernels_agree_with_a_mid_run_cut(self):
        scenario = _run_scenario()
        cuts = _mid_run_cut(scenario)
        for not_before in (0.0, 12.0, 25.0, 45.0, 130.0):
            _assert_kernels_agree(scenario, not_before, cuts)


@st.composite
def _multi_window_cases(draw):
    """A small random multigraph of multi-window links, plus cuts."""
    machine_count = draw(st.integers(min_value=3, max_value=5))
    links = []
    for physical_id in range(draw(st.integers(min_value=3, max_value=9))):
        source = draw(st.integers(0, machine_count - 1))
        destination = draw(
            st.integers(0, machine_count - 2).map(
                lambda index, source=source: index + (index >= source)
            )
        )
        # Ascending, disjoint windows on a 10 s grid.
        slots = sorted(
            draw(
                st.sets(st.integers(0, 30), min_size=1, max_size=5)
            )
        )
        widths = st.sampled_from((4.0, 7.0, 10.0))
        windows = tuple(
            Interval(10.0 * slot, 10.0 * slot + draw(widths))
            for slot in slots
        )
        bandwidth = draw(st.sampled_from((250.0, 1000.0, 2000.0)))
        links.append(
            make_link(
                physical_id, source, destination,
                bandwidth=bandwidth, windows=windows,
            )
        )
    network = make_network(machine_count, links)
    holders = draw(
        st.lists(
            st.tuples(
                st.integers(0, machine_count - 1),
                st.sampled_from((0.0, 15.0, 60.0)),
            ),
            min_size=1,
            max_size=2,
            unique_by=lambda source: source[0],
        )
    )
    destination = draw(
        st.integers(0, machine_count - 1).filter(
            lambda machine: machine not in {m for m, _ in holders}
        )
    )
    scenario = make_scenario(
        network,
        [make_item(0, 2000.0, holders)],
        [(0, destination, 2, draw(st.sampled_from((80.0, 200.0))))],
        gc_delay=20.0,
    )
    virtual = network.virtual_links
    cut_ids = draw(
        st.lists(
            st.integers(0, len(virtual) - 1), max_size=3, unique=True
        )
    )
    cuts = tuple(
        (
            link_id,
            virtual[link_id].start
            + draw(st.sampled_from((0.0, 2.0, 5.0))),
        )
        for link_id in cut_ids
    )
    not_before = draw(st.sampled_from((0.0, 20.0, 100.0)))
    return scenario, not_before, cuts


@given(case=_multi_window_cases())
@settings(max_examples=80, deadline=None)
def test_kernels_agree_on_random_multi_window_networks(case):
    scenario, not_before, cuts = case
    _assert_kernels_agree(scenario, not_before, cuts)
