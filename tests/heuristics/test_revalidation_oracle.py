"""Differential: the index-driven tree cache against per-entry replay.

:class:`~repro.heuristics.base.TreeCache` replays the mutation journal
once per cache, routes each record through its receiver index, and reads
each planned hop from the cached tree's parent tuples.  The oracle
(:mod:`tests.heuristics.reference_revalidation`) replays, on every
request, every record since the entry was last validated, against an
``Interval`` footprint of its own.  Hypothesis
interleaves bookings, cutoffs, degradations, copy losses, reopens and
tree requests on small scenarios with tight storage; every request must
get the oracle's reason and the oracle's tree.

The same sequences pin :meth:`~repro.core.state.NetworkState
.open_request_counts` to ``len(unsatisfied_requests_for_item(i))`` after
every operation, on the state and on a ``clone()`` of it that then
reopens a request of its own.
"""

import random
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import units
from repro.core.state import MUTATION_BOOKING, NetworkState, TransferPlan
from repro.heuristics.base import EngineStats, TreeCache
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.observability.tracer import (
    TREE_CACHE_CAPACITY_RELEASED,
    TREE_CACHE_CUTOFF_TIGHTENED,
    TREE_CACHE_LINK_CONFLICT,
    TREE_CACHE_RESIDENCY_CONFLICT,
    TREE_CACHE_REVALIDATED,
    RecordingTracer,
    use_tracer,
)
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.heuristics.reference_revalidation import ReferenceTreeCache

#: Tiny scenarios whose machines hold only one to three large items, so
#: residency rechecks fail as well as pass.
_GENERATOR = ScenarioGenerator(
    GeneratorConfig.tiny().replace(
        capacity_bytes=(units.megabytes(100), units.megabytes(300))
    )
)

OPERATIONS = (
    "request", "book_path", "book", "cutoff", "degrade", "lose", "reopen"
)

_operation = st.tuples(
    st.sampled_from(OPERATIONS),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=1.0),
)


def _book(state, pick):
    """Book the earliest slot of one held item over one outgoing link."""
    scenario = state.scenario
    options = [
        (item.item_id, link)
        for item in scenario.items
        for link in scenario.network.virtual_links
        if state.holds(item.item_id, link.source)
        and not state.holds(item.item_id, link.destination)
    ]
    if not options:
        return
    item_id, link = options[pick % len(options)]
    ready = state.copy_at(item_id, link.source).available_from
    plan = state.earliest_transfer(item_id, link, ready)
    if plan is not None:
        state.book_transfer(plan)


def _fresh_path(state, pick):
    """A fresh tree's path to one open destination, or ``None``."""
    open_requests = [
        request
        for item_id in state.scenario.requested_item_ids()
        for request in state.unsatisfied_requests_for_item(item_id)
    ]
    if not open_requests:
        return None
    request = open_requests[pick % len(open_requests)]
    tree = compute_shortest_path_tree(state, request.item_id)
    return tree.path_to(request.destination)


def _book_path(state, pick):
    """Book the path as the engine does, so its hops compete with the
    hops other items' cached trees plan."""
    path = _fresh_path(state, pick)
    if path is None:
        return
    network = state.scenario.network
    for hop in path.hops:
        state.book_transfer(
            TransferPlan(
                item_id=path.item_id,
                link=network.link(hop.link_id),
                start=hop.start,
                end=hop.end,
                release=state.release_time_at(path.item_id, hop.receiver),
            )
        )


def _cutoff(state, pick, fraction):
    """Cut a link a fresh path plans to use: before its planned
    completion for ``fraction < 0.5``, after it otherwise."""
    path = _fresh_path(state, pick)
    if path is None or not path.hops:
        return
    hop = path.hops[pick % len(path.hops)]
    at_time = hop.start + 2.0 * fraction * (hop.end - hop.start)
    state.disable_link_from(
        hop.link_id, min(at_time, state.link_cutoff(hop.link_id))
    )


def _degrade(state, pick, factors):
    physical = state.scenario.network.physical_links
    physical_id = physical[pick % len(physical)].physical_id
    factors[physical_id] = factors.get(physical_id, 1.0) * 0.5
    state.degrade_physical_link(physical_id, factors[physical_id])


def _lose(state, pick):
    """Lose one scheduler-created copy at the instant it arrived."""
    copies = [
        (item.item_id, record)
        for item in state.scenario.items
        for record in state.copies(item.item_id).values()
        if record.hops > 0 and record.available_from < record.release
    ]
    if copies:
        item_id, record = copies[pick % len(copies)]
        state.remove_copy(item_id, record.machine, record.available_from)


def _reopen(state, pick):
    satisfied = state.satisfied_request_ids()
    if satisfied:
        state.reopen_request(satisfied[pick % len(satisfied)])


def _assert_open_counts(state):
    counts = state.open_request_counts()
    for item in state.scenario.items:
        assert counts[item.item_id] == len(
            state.unsatisfied_requests_for_item(item.item_id)
        )


def _request(tracer, cache, item_id):
    entry = cache.entry_for(item_id)
    return tracer.named("tree_cache")[-1]["reason"], entry.tree


def _run(seed, operations):
    """Drive both caches through ``operations``; return the reasons."""
    scenario = _GENERATOR.generate(seed)
    tracer = RecordingTracer()
    with use_tracer(tracer):
        state = NetworkState(scenario)
    cache = TreeCache(state, EngineStats())
    oracle = ReferenceTreeCache(state, EngineStats())
    requested = scenario.requested_item_ids()
    factors = {}
    reasons = []
    for operation, pick, fraction in operations:
        if operation == "request":
            item_id = requested[pick % len(requested)]
            reason, tree = _request(tracer, cache, item_id)
            expected, oracle_tree = _request(tracer, oracle, item_id)
            assert reason == expected
            assert tree._labels == oracle_tree._labels
            assert tree._parents == oracle_tree._parents
            reasons.append(reason)
        elif operation == "book_path":
            _book_path(state, pick)
        elif operation == "book":
            _book(state, pick)
        elif operation == "cutoff":
            _cutoff(state, pick, fraction)
        elif operation == "degrade":
            _degrade(state, pick, factors)
        elif operation == "lose":
            _lose(state, pick)
        else:
            _reopen(state, pick)
        tracer.events.clear()
        clone = state.clone()
        _assert_open_counts(clone)
        _reopen(clone, pick)
        _assert_open_counts(clone)
        _assert_open_counts(state)
    return reasons


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    operations=st.lists(_operation, min_size=1, max_size=60),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_index_replay_matches_per_entry_replay(seed, operations):
    _run(seed, operations)


def _seeded_operations(seed, count):
    """A request-heavy sequence with occasional global invalidations."""
    rng = random.Random(seed)
    weights = (24, 8, 4, 4, 1, 1, 1)
    return [
        (
            rng.choices(OPERATIONS, weights)[0],
            rng.randrange(10_000),
            rng.random(),
        )
        for _ in range(count)
    ]


def test_seeded_sequences_reach_every_replay_verdict():
    """The differential is only as strong as the verdicts it reaches."""
    reached = set()
    for seed in range(12):
        reached.update(_run(seed, _seeded_operations(seed, 120)))
    assert {
        TREE_CACHE_REVALIDATED,
        TREE_CACHE_LINK_CONFLICT,
        TREE_CACHE_CUTOFF_TIGHTENED,
        TREE_CACHE_RESIDENCY_CONFLICT,
    } <= reached


def test_seeded_sequences_take_both_replay_paths():
    """A booking's replay visits only the entries planned over its link
    when the receiver's free storage over the booking's reservation
    covers the scenario's largest item, and scans every entry planned
    into the receiver otherwise.  On the tight-storage draws both paths
    run, with entries to visit, while the differential above holds and
    every conflict verdict is still reached."""
    paths = Counter()
    replay = TreeCache._replay

    def classified(cache):
        state = cache._state
        records = state.journal_since(cache._replay_position)
        replay(cache)
        network = state.scenario.network
        for record in records:
            if record.kind != MUTATION_BOOKING:
                continue
            receiver = network.link(record.link_id).destination
            slots = cache._receiver_index[receiver]
            headroom = state.machine_timeline(receiver).min_free_span(
                record.residency.start, record.residency.end
            )
            if headroom >= cache._largest:
                paths["link"] += bool(slots.get(record.link_id))
            else:
                paths["scan"] += any(slots.values())

    reached = set()
    with mock.patch.object(TreeCache, "_replay", classified):
        for seed in range(12):
            reached.update(_run(seed, _seeded_operations(seed, 120)))
    assert paths["link"] > 0 and paths["scan"] > 0, paths
    assert {
        TREE_CACHE_LINK_CONFLICT,
        TREE_CACHE_CUTOFF_TIGHTENED,
        TREE_CACHE_RESIDENCY_CONFLICT,
        TREE_CACHE_CAPACITY_RELEASED,
    } <= reached
