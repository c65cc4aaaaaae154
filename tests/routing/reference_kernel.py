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
from typing import Dict, Iterator, Optional, Set, Tuple
from unittest import mock

from repro.core.state import NetworkState
from repro.routing.paths import ShortestPathTree, make_tree


@contextmanager
def use_reference_kernel() -> Iterator[None]:
    """Run every routing search through :func:`reference_tree`.

    :func:`~repro.routing.dijkstra.compute_shortest_path_tree` looks up
    ``compute_tree_compiled`` in its module namespace at call time, so
    patching that one name reroutes every caller.
    """
    with mock.patch(
        "repro.routing.dijkstra.compute_tree_compiled", reference_tree
    ):
        yield


def reference_tree(
    state: NetworkState,
    item_id: int,
    targets: Optional[Set[int]],
    not_before: float,
) -> ShortestPathTree:
    """The object-walking §4.2 search the compiled kernel replicates.

    Walks :meth:`~repro.core.network.Network.outgoing` link objects and
    calls :meth:`~repro.core.state.NetworkState.earliest_transfer` for
    every edge that survives the prune test.  Same signature and result
    as :func:`~repro.routing.compiled.compute_tree_compiled`.
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
    finalized: Set[int] = set()
    pending_targets = set(targets) if targets is not None else None
    tracer = state.tracer
    tracing = tracer.enabled
    relaxations = 0
    pruned = 0
    # Delivered (possibly fault-degraded) bandwidth per link, fetched once
    # so the relaxation loop below stays a plain list index.
    bandwidths = state.effective_bandwidths()

    heap = [(available, machine) for machine, available in seeds.items()]
    heapq.heapify(heap)
    infinity = float("inf")

    while heap:
        label, machine = heapq.heappop(heap)
        if machine in finalized:
            continue
        if label > labels.get(machine, infinity):
            continue
        finalized.add(machine)
        if pending_targets is not None:
            pending_targets.discard(machine)
            if not pending_targets:
                break
        for link in network.outgoing(machine):
            receiver = link.destination
            if receiver in finalized:
                continue
            # Cheap pruning: even an uncontended transfer cannot complete
            # before max(window start, ready time) + communication time, so
            # links that cannot beat the receiver's current label are
            # skipped without the full feasibility search.  (Inlined
            # arithmetic — this is the hottest line of the library.)
            # The receiver's current label is read once per edge: nothing
            # between the prune check and the improvement test can change
            # it (earliest_transfer never touches labels).
            receiver_label = labels.get(receiver, infinity)
            duration = item_size / bandwidths[link.link_id] + link.latency
            start_floor = link.start if link.start > label else label
            if start_floor + duration >= receiver_label:
                if tracing:
                    pruned += 1
                continue
            if tracing:
                relaxations += 1
            plan = state.earliest_transfer(item_id, link, label, duration)
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

    # Drop labels of machines that were discovered but never finalized when
    # an early exit fired: their values may not be exact.
    if pending_targets is not None:
        labels = {
            machine: value
            for machine, value in labels.items()
            if machine in finalized
        }
        parents = {
            machine: parent
            for machine, parent in parents.items()
            if machine in finalized
        }
    if tracing:
        tracer.on_dijkstra(
            item_id, relaxations, pruned, len(finalized), len(seeds)
        )
    return make_tree(
        item_id=item_id, seeds=seeds, labels=labels, parents=parents
    )
