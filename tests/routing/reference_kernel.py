"""The reference shortest-path kernel, kept as a differential oracle.

:func:`reference_tree` is the object-walking §4.2 search that
:func:`repro.routing.compiled.compute_tree_compiled` replicates over flat
CSR columns.  Production code runs only the compiled kernel; the tests
compare it with this loop — trees, schedules and whole trace event
streams must be byte-identical.

:func:`use_reference_kernel` reroutes every search made through
:func:`repro.routing.dijkstra.compute_shortest_path_tree` (the tree
cache, rollout and the baselines) to :func:`reference_tree` for the
duration of a ``with`` block.  It patches the module attribute, so the
rerouting holds only in this process: run reference schedules serially
and in-process.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional, Set, Tuple
from unittest import mock

from repro.core.intervals import IntervalSet
from repro.core.link import VirtualLink
from repro.core.state import NetworkState, TransferPlan
from repro.heuristics import base
from repro.routing.paths import ShortestPathTree


@contextmanager
def use_reference_kernel() -> Iterator[None]:
    """Run every routing search through :func:`reference_tree`.

    :func:`~repro.routing.dijkstra.compute_shortest_path_tree` looks up
    ``compute_tree_compiled`` in its module namespace at call time, so
    patching that one name reroutes every caller.  The tree caches'
    whole prefix memo (every opening node and the chain past it) is
    swapped for an empty one for the duration, so every state is searched
    by the reference kernel too instead of being served trees, or groups
    read from trees, that the compiled kernel found earlier.
    """
    with mock.patch(
        "repro.routing.dijkstra.compute_tree_compiled", reference_tree
    ), mock.patch.object(base, "_PREFIX_MEMO", {}):
        yield


def reference_tree(
    state: NetworkState,
    item_id: int,
    targets: Optional[Mapping[int, float]],
    not_before: float,
) -> ShortestPathTree:
    """The object-walking §4.2 search the compiled kernel replicates.

    Walks :meth:`~repro.core.network.Network.outgoing` link objects and
    calls :meth:`~repro.core.state.NetworkState.earliest_transfer` for
    every edge that survives the prune test.  Same signature and result
    as :func:`~repro.routing.compiled.compute_tree_compiled`, including
    the receivers whose relaxation the compiled kernel hands to
    ``earliest_transfer`` (:func:`falls_back`).  A targeted search
    searches, then projects (:meth:`ShortestPathTree.projected`), so
    the differentials compare the kernel's own projection with it.
    """
    network = state.scenario.network
    item_size = state.scenario.item(item_id).size
    seeds: Dict[int, float] = {
        machine: max(record.available_from, not_before)
        for machine, record in state.copies(item_id).items()
        if record.release > not_before
    }
    labels: Dict[int, float] = dict(seeds)
    parents: Dict[int, Tuple[int, int, float, float]] = {}
    fallbacks: Set[int] = set()
    finalized: Set[int] = set()
    infinity = float("inf")
    pending_targets = dict(targets) if targets is not None else None
    # The largest deadline among the pending targets: the search stops
    # past it, and no relaxation past it is made.
    horizon = (
        max(pending_targets.values(), default=-infinity)
        if pending_targets is not None
        else infinity
    )
    tracer = state.tracer
    tracing = tracer.enabled
    relaxations = 0
    pruned = 0
    # Delivered (possibly fault-degraded) bandwidth per link, fetched once
    # so the relaxation loop below stays a plain list index.
    bandwidths = state.effective_bandwidths()

    heap = [(available, machine) for machine, available in seeds.items()]
    heapq.heapify(heap)

    while heap:
        label, machine = heapq.heappop(heap)
        if label > horizon:
            break
        if machine in finalized:
            continue
        if label > labels.get(machine, infinity):
            continue
        finalized.add(machine)
        if pending_targets is not None and machine in pending_targets:
            del pending_targets[machine]
            if not pending_targets:
                break
            horizon = max(pending_targets.values())
        for link in network.outgoing(machine):
            receiver = link.destination
            if receiver in finalized:
                continue
            # Cheap pruning: even an uncontended transfer cannot complete
            # before max(window start, ready time) + communication time, so
            # links that cannot beat the receiver's current label, or
            # that cannot arrive by the horizon, are skipped without the
            # full feasibility search.  (Inlined arithmetic — this is the
            # hottest line of the library.)
            # The receiver's current label is read once per edge: nothing
            # between the prune check and the improvement test can change
            # it (earliest_transfer never touches labels).
            receiver_label = labels.get(receiver, infinity)
            duration = item_size / bandwidths[link.link_id] + link.latency
            start_floor = link.start if link.start > label else label
            finish_floor = start_floor + duration
            if finish_floor >= receiver_label or finish_floor > horizon:
                if tracing:
                    pruned += 1
                continue
            if tracing:
                relaxations += 1
            plan = state.earliest_transfer(item_id, link, label, duration)
            if falls_back(state, item_id, link, label, duration, plan):
                fallbacks.add(receiver)
            if plan is None:
                continue
            if plan.end < receiver_label:
                labels[receiver] = plan.end
                parents[receiver] = (
                    machine,
                    link.link_id,
                    plan.start,
                    plan.end,
                )
                heapq.heappush(heap, (plan.end, receiver))

    # A targeted search drops labels of machines that were discovered but
    # never finalized (their values may not be exact), and of targets that
    # miss their deadline.  Finalized machines keep their parents, and
    # the search answers the tree's projection onto its targets.
    if targets is not None:
        labels = {
            machine: value
            for machine, value in labels.items()
            if machine in finalized
            and not value > targets.get(machine, infinity)
        }
        parents = {
            machine: parent
            for machine, parent in parents.items()
            if machine in finalized
        }
    if tracing:
        tracer.emit(
            "dijkstra",
            item_id, relaxations, pruned, len(finalized), len(seeds)
        )
    tree = ShortestPathTree(item_id, seeds, labels, parents, fallbacks)
    return tree if targets is None else tree.projected(targets)


def falls_back(
    state: NetworkState,
    item_id: int,
    link: VirtualLink,
    label: float,
    duration: float,
    plan: Optional[TransferPlan],
) -> bool:
    """Whether a relaxation's outcome rests on more than the link's first
    free slot: ``earliest_transfer``'s probe loop ran, and its first pass
    did not return a plan at that slot.

    False for the edges rejected before the loop (the receiver holds the
    item, the window is closed, or even an uncontended start misses it)
    and for a plan of positive length starting at the link's first free
    slot from ``label``; true otherwise, whether storage or the link
    decided.
    """
    receiver = link.destination
    window_end = min(
        link.end,
        state.release_time_at(item_id, link.source),
        state.release_time_at(item_id, receiver),
        state.link_cutoff(link.link_id),
    )
    start_floor = link.start if link.start > label else label
    if (
        state.holds(item_id, receiver)
        or window_end <= link.start
        or start_floor + duration > window_end
    ):
        return False
    if plan is None or not plan.start < plan.end:
        return True
    busy = IntervalSet(state.link_busy_intervals(link.link_id))
    return plan.start != busy.first_fit(
        duration, link.start, window_end, label
    )
