"""Property-based tests (hypothesis) on the core data structures and
algorithms: interval sets, capacity timelines, Dijkstra optimality, the
generator's invariants, end-to-end schedule feasibility, and one
metamorphic relation: an unreachable request changes no booking."""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data import DataItem, SourceLocation
from repro.core.evaluation import evaluate_schedule
from repro.core.intervals import Interval, IntervalSet
from repro.core.machine import Machine
from repro.core.network import Network
from repro.core.request import Request
from repro.core.state import NetworkState
from repro.core.timeline import CapacityTimeline
from repro.core.validation import ScheduleValidator
from repro.baselines.bounds import possible_satisfy, upper_bound
from repro.heuristics.registry import make_heuristic, paper_pairings
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator


# ---------------------------------------------------------------------------
# IntervalSet vs a brute-force reference
# ---------------------------------------------------------------------------

interval_strategy = st.tuples(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=10),
).map(lambda pair: Interval(float(pair[0]), float(pair[0] + pair[1])))


@given(st.lists(interval_strategy, max_size=12))
def test_interval_set_members_stay_disjoint(candidates):
    busy = IntervalSet()
    accepted = []
    for interval in candidates:
        if busy.is_free(interval):
            busy.add(interval)
            accepted.append(interval)
    members = busy.intervals()
    assert sorted(members) == list(members)
    for earlier, later in zip(members, members[1:]):
        assert earlier.end <= later.start
    assert len(members) == len(accepted)


@given(
    st.lists(interval_strategy, max_size=10),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=40),
)
def test_earliest_fit_matches_brute_force(candidates, duration, earliest):
    busy = IntervalSet()
    for interval in candidates:
        if busy.is_free(interval):
            busy.add(interval)
    window = Interval(0.0, 80.0)
    result = busy.earliest_fit(
        float(duration), window, earliest=float(earliest)
    )
    # Brute force over half-integer start times (all boundaries are
    # integers, so the optimum is integral).
    brute = None
    start = max(0.0, float(earliest))
    while start + duration <= window.end:
        if busy.is_free(Interval(start, start + duration)):
            brute = start
            break
        start += 0.5
    assert result == brute
    if result is not None:
        assert busy.is_free(Interval(result, result + duration))
        assert result >= earliest


# ---------------------------------------------------------------------------
# CapacityTimeline vs a per-point reference
# ---------------------------------------------------------------------------

reservation_strategy = st.tuples(
    st.integers(min_value=0, max_value=30),  # start
    st.integers(min_value=1, max_value=10),  # length
    st.integers(min_value=1, max_value=60),  # amount
)


@given(st.lists(reservation_strategy, max_size=15))
def test_timeline_matches_pointwise_reference(reservations):
    capacity = 100.0
    timeline = CapacityTimeline(capacity)
    accepted = []
    for start, length, amount in reservations:
        interval = Interval(float(start), float(start + length))
        if timeline.can_reserve(float(amount), interval):
            timeline.reserve(float(amount), interval)
            accepted.append((interval, float(amount)))
    for t in range(0, 45):
        instant = t + 0.25  # probe off the breakpoints too
        expected = capacity - sum(
            amount
            for interval, amount in accepted
            if interval.contains(instant)
        )
        assert timeline.free_at(instant) == expected
        assert expected >= 0.0  # reservations never oversubscribe


@given(st.lists(reservation_strategy, max_size=12))
def test_timeline_min_free_is_pointwise_minimum(reservations):
    timeline = CapacityTimeline(100.0)
    for start, length, amount in reservations:
        interval = Interval(float(start), float(start + length))
        if timeline.can_reserve(float(amount), interval):
            timeline.reserve(float(amount), interval)
    probe = Interval(5.0, 25.0)
    probes = [5.0 + k * 0.5 for k in range(40)]
    assert timeline.min_free(probe) == min(
        timeline.free_at(t) for t in probes
    )


# ---------------------------------------------------------------------------
# Dijkstra optimality vs exhaustive path enumeration
# ---------------------------------------------------------------------------

def _all_path_arrivals(state, item_id, destination):
    """Earliest arrival over every simple path, by exhaustive DFS."""
    network = state.scenario.network
    best = math.inf
    copies = state.copies(item_id)

    def explore(machine, ready, visited):
        nonlocal best
        if machine == destination:
            best = min(best, ready)
            return
        for link in network.outgoing(machine):
            if link.destination in visited or link.destination in copies:
                continue
            plan = state.earliest_transfer(item_id, link, ready)
            if plan is None or plan.end >= best:
                continue
            explore(
                link.destination,
                plan.end,
                visited | {link.destination},
            )

    if destination in copies:
        return copies[destination].available_from
    for machine, record in copies.items():
        explore(machine, record.available_from, {machine})
    return best


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_dijkstra_matches_exhaustive_search(seed):
    config = GeneratorConfig(
        machines=(4, 5),
        out_degree=(1, 2),
        requests_per_machine=(2, 3),
        sources_per_item=(1, 2),
        destinations_per_item=(1, 2),
    )
    scenario = ScenarioGenerator(config).generate(seed)
    state = NetworkState(scenario)
    for item_id in scenario.requested_item_ids()[:3]:
        tree = compute_shortest_path_tree(state, item_id)
        for request in scenario.requests_for_item(item_id):
            brute = _all_path_arrivals(state, item_id, request.destination)
            label = tree.arrival(request.destination)
            assert label == brute or (
                math.isinf(label) and math.isinf(brute)
            )


# ---------------------------------------------------------------------------
# End-to-end feasibility and bound ordering on random scenarios
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=15)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["partial", "full_one", "full_all"]),
)
def test_random_scenarios_schedule_feasibly_within_bounds(seed, heuristic):
    scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(seed)
    result = make_heuristic(heuristic, "C4", 0.0).run(scenario)
    ScheduleValidator(scenario).validate(result.schedule)
    achieved = evaluate_schedule(scenario, result.schedule).weighted_sum
    assert achieved <= possible_satisfy(scenario) + 1e-9
    assert possible_satisfy(scenario) <= upper_bound(scenario) + 1e-9


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=100_000))
def test_serialization_round_trip_for_any_seed(seed):
    from repro.serialization import scenario_from_dict, scenario_to_dict

    scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(seed)
    restored = scenario_from_dict(scenario_to_dict(scenario))
    assert restored.requests == scenario.requests
    assert [
        (v.source, v.destination, v.start, v.end, v.bandwidth)
        for v in restored.network.virtual_links
    ] == [
        (v.source, v.destination, v.start, v.end, v.bandwidth)
        for v in scenario.network.virtual_links
    ]
    assert [(i.name, i.size) for i in restored.items] == [
        (i.name, i.size) for i in scenario.items
    ]
    # The restored scenario schedules identically.
    original_run = make_heuristic("full_one", "C4", 0.0).run(scenario)
    restored_run = make_heuristic("full_one", "C4", 0.0).run(restored)
    assert [
        (s.item_id, s.link_id, s.start) for s in original_run.schedule.steps
    ] == [
        (s.item_id, s.link_id, s.start) for s in restored_run.schedule.steps
    ]


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=100_000))
def test_generator_invariants_hold_for_any_seed(seed):
    config = GeneratorConfig.tiny()
    scenario = ScenarioGenerator(config).generate(seed)
    assert scenario.network.is_strongly_connected()
    machine_count = scenario.network.machine_count
    assert config.machines[0] <= machine_count <= config.machines[1]
    for request in scenario.requests:
        item = scenario.item(request.item_id)
        assert request.destination not in item.source_machines
        start = item.sources[0].available_from
        assert request.deadline > start
    pair_counts = {}
    for plink in scenario.network.physical_links:
        key = (plink.source, plink.destination)
        pair_counts[key] = pair_counts.get(key, 0) + 1
        assert plink.source != plink.destination
    assert all(count <= 2 for count in pair_counts.values())


# ---------------------------------------------------------------------------
# Metamorphic: a request no source can reach changes no other booking
# ---------------------------------------------------------------------------

def _with_unreachable_request(scenario, destination, priority, fractions):
    """The scenario plus a fresh item sourced on a new, unlinked machine.

    One request for the item is added at an existing machine; no link
    touches the new machine, so no schedule can deliver it.
    """
    size, available, deadline = fractions
    network = scenario.network
    isolated = Machine(
        index=network.machine_count,
        capacity=max(machine.capacity for machine in network.machines),
    )
    item = DataItem(
        item_id=len(scenario.items),
        name="unreachable",
        size=size * max(item.size for item in scenario.items),
        sources=(
            SourceLocation(
                machine=isolated.index,
                available_from=available * scenario.horizon,
            ),
        ),
    )
    request = Request(
        request_id=len(scenario.requests),
        item_id=item.item_id,
        destination=destination % network.machine_count,
        priority=priority % (scenario.weighting.highest_priority + 1),
        deadline=deadline * scenario.horizon,
    )
    return dataclasses.replace(
        scenario,
        network=Network(
            network.machines + (isolated,), network.physical_links
        ),
        items=scenario.items + (item,),
        requests=scenario.requests + (request,),
    )


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(paper_pairings()),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
    st.tuples(
        st.floats(min_value=0.01, max_value=4.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.5, max_value=1.0),
    ),
)
def test_unreachable_request_changes_no_booking(
    seed, pairing, destination, priority, fractions
):
    scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(seed)
    grown = _with_unreachable_request(
        scenario, destination, priority, fractions
    )
    heuristic, criterion = pairing
    before = make_heuristic(heuristic, criterion, 0.0).run(scenario).schedule
    after = make_heuristic(heuristic, criterion, 0.0).run(grown).schedule
    assert after.steps == before.steps
    assert dict(after.deliveries) == dict(before.deliveries)
    assert not after.is_satisfied(grown.requests[-1].request_id)
    ScheduleValidator(grown).validate(after)
