"""MICRO — engineering micro-benchmarks of the hot code paths.

These are conventional pytest-benchmark timings (many rounds) of the three
operations that dominate scheduling cost: the time-dependent Dijkstra
query, capacity-timeline reservations, and scenario generation.  They
track performance regressions rather than paper results.
"""

import pytest

from repro.core.intervals import Interval, IntervalSet
from repro.core.state import NetworkState
from repro.core.timeline import CapacityTimeline
from repro.heuristics.registry import make_heuristic
from repro.routing.compiled import compute_tree_compiled
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.routing.reference_kernel import reference_tree


@pytest.fixture(scope="module")
def reduced_scenario():
    return ScenarioGenerator(GeneratorConfig.reduced()).generate(0)


def test_dijkstra_single_item(benchmark, reduced_scenario):
    state = NetworkState(reduced_scenario)
    item_id = reduced_scenario.requested_item_ids()[0]
    tree = benchmark(compute_shortest_path_tree, state, item_id)
    assert tree.seed_machines()


def test_dijkstra_all_items(benchmark, reduced_scenario):
    state = NetworkState(reduced_scenario)
    items = reduced_scenario.requested_item_ids()

    def plan_all():
        return [
            compute_shortest_path_tree(state, item_id) for item_id in items
        ]

    trees = benchmark(plan_all)
    assert len(trees) == len(items)


def test_timeline_reserve_and_query(benchmark):
    def exercise():
        timeline = CapacityTimeline(1_000_000.0)
        for k in range(200):
            start = float((k * 37) % 1000)
            timeline.reserve(100.0, Interval(start, start + 50.0))
        total = 0.0
        for k in range(200):
            total += timeline.min_free(Interval(float(k), float(k + 60)))
        return total

    assert benchmark(exercise) >= 0.0


def test_dijkstra_reference_kernel(benchmark, reduced_scenario):
    """The object-walking test oracle, for comparison against the CSR
    kernel timed by :func:`test_dijkstra_single_item`."""
    state = NetworkState(reduced_scenario)
    item_id = reduced_scenario.requested_item_ids()[0]
    tree = benchmark(reference_tree, state, item_id, None, 0.0)
    assert tree.seed_machines()


@pytest.fixture(scope="module")
def probe_heavy_state():
    """A paper-scale state after 50 bookings, and a late search instant.

    Each booking is the first hop of a request's earliest path.  Searched
    from the median deadline, most edges that survive the prune test are
    dead (closed windows, released copies, destinations already served),
    so the run times the kernel's inline rejections.
    """
    scenario = ScenarioGenerator(GeneratorConfig.paper()).generate(0)
    state = NetworkState(scenario)
    network = scenario.network
    booked = 0
    for request in scenario.requests:
        if booked == 50:
            break
        tree = compute_shortest_path_tree(state, request.item_id)
        path = tree.path_to(request.destination)
        if path is None or not path.hops:
            continue
        hop = path.hops[0]
        plan = state.earliest_transfer(
            request.item_id,
            network.link(hop.link_id),
            tree.arrival(hop.sender),
        )
        if plan is not None:
            state.book_transfer(plan)
            booked += 1
    deadlines = sorted(request.deadline for request in scenario.requests)
    return state, deadlines[len(deadlines) // 2]


def test_compiled_kernel_probe_heavy(benchmark, probe_heavy_state):
    """The compiled kernel where dead edges dominate its relaxations.

    Every round searches a fresh clone, built in the untimed setup, so no
    round reuses work a previous round left on the state.  The timed
    searches include computing each run's transfer duration.
    """
    state, not_before = probe_heavy_state
    items = state.scenario.requested_item_ids()[:20]

    def fresh_clone():
        return (state.clone(),), {}

    def search(clone):
        return [
            compute_tree_compiled(clone, item_id, None, not_before)
            for item_id in items
        ]

    trees = benchmark.pedantic(search, setup=fresh_clone, rounds=40)
    assert len(trees) == len(items)


def _earliest_fit_probe(busy, window, count):
    total = 0.0
    for k in range(count):
        start = busy.first_fit(7.0, window.start, window.end, float(k * 3))
        if start is not None:
            total += start
    return total


def test_earliest_fit_dense(benchmark):
    """Rejection-heavy probing of a set with many short busy intervals."""
    busy = IntervalSet(
        Interval(float(k * 10), float(k * 10 + 8)) for k in range(100)
    )
    window = Interval(0.0, 1000.0)
    assert benchmark(_earliest_fit_probe, busy, window, 200) >= 0.0


def test_earliest_fit_sparse(benchmark):
    """Mostly-free link: probes should return at the first gap."""
    busy = IntervalSet(
        Interval(float(k * 200), float(k * 200 + 5)) for k in range(5)
    )
    window = Interval(0.0, 1000.0)
    assert benchmark(_earliest_fit_probe, busy, window, 200) >= 0.0


def test_min_free_span_probe(benchmark):
    """The storage feasibility probe of ``earliest_transfer``."""
    timeline = CapacityTimeline(1_000_000.0)
    for k in range(200):
        start = float((k * 37) % 1000)
        timeline.reserve(100.0, Interval(start, start + 50.0))

    def probe():
        total = 0.0
        for k in range(400):
            total += timeline.min_free_span(float(k), float(k + 60))
        return total

    assert benchmark(probe) >= 0.0


def test_scenario_generation(benchmark):
    generator = ScenarioGenerator(GeneratorConfig.reduced())
    scenario = benchmark(generator.generate, 42)
    assert scenario.network.is_strongly_connected()


def test_full_one_c4_single_case(benchmark, reduced_scenario):
    def run():
        return make_heuristic("full_one", "C4", 0.0).run(reduced_scenario)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.schedule.step_count > 0
