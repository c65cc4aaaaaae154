"""Compiled scenario kernel for the §4.2 shortest-path search.

This is the only search behind
:func:`~repro.routing.dijkstra.compute_shortest_path_tree`.  A loop over
:class:`~repro.core.link.VirtualLink` objects would read their attributes
Python-object by Python-object on every edge relaxation; this module
compiles the scenario once into flat columns so the hot loop is a pure
index-and-float affair.  :class:`CompiledScenario` is the virtual-link
multigraph flattened into CSR adjacency: parallel per-edge columns
(``link_id``, window start / end), each machine's edges one slice, in
exactly the order :meth:`~repro.core.network.Network.outgoing` yields
edges, so the compiled search relaxes edges — and therefore probes,
books, and tie-breaks — in the reference order.  The columns are plain
lists that hold the links' own ``int`` and ``float`` objects: an
``array`` would store each number again, and ``list(array)`` would box
every entry into a second object.  Beside them, a per-machine run table
holds one tuple per physical-link run (below).

:func:`compile_network` is a pure function of the network, which
``tests/test_purity.py`` pins by calling it under a guard; the memo layer
(:func:`compiled_for`) lives outside it and keys on object identity via
a weak reference, so a scenario being dropped releases its compiled
columns with it.  Transfer durations are not compiled: the kernel reads
the state's :meth:`~repro.core.state.NetworkState.effective_bandwidths`
once per search and computes ``item_size / bandwidth + latency`` when it
enters a run, so a bandwidth degradation needs no invalidation here.

The windows of one :class:`~repro.core.link.PhysicalLink` are one
contiguous *run* of edges (consecutive link ids, kept adjacent by the
CSR order), and the kernel walks each run as a unit, reading its edge
range, receiver, first link and latency from one run-table tuple.
Along a run the receiver, the duration and both residency bounds are
constant, and the window start strictly increases (the physical link
keeps its windows sorted and disjoint; every window is non-empty), so
an edge's prune floor ``max(Lst, label) + duration`` never decreases
while the receiver's label never rises.  The first pruned edge of a
run therefore ends the run, and so does an ``already_at_destination``
rejection or a ``window_closed`` rejection caused by the residency
bounds — those two only when tracing is off, since each rejected edge
emits its own events.

The kernel is **behaviorally invisible**: it performs the same float
computations in the same order as the object-walking reference search
the test suite keeps as its differential oracle
(``tests/routing/reference_kernel.py``), and reconstructs the result
dicts in the reference insertion order.  Schedules and traces — down to
individual rejection events and the ``dijkstra`` event's relaxation and
prune counts — are byte-identical to that oracle's.  Edges that
:meth:`~repro.core.state.NetworkState.earliest_transfer` would reject
before touching an interval set (the receiver already holds the item,
the window is closed, or even an uncontended start misses it) are
rejected inline, over the flat columns, with the same expressions and
the same ``transfer_attempt`` / ``transfer_rejected`` events.  The
feasible probes are answered inline too, by the first pass of
``earliest_transfer``'s loop over the busy and capacity columns; every
other edge calls ``earliest_transfer`` with the reference arguments in
the reference sequence, and its receiver joins the tree's
:attr:`~repro.routing.paths.ShortestPathTree.fallback_receivers`.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from itertools import chain, groupby
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Set, Tuple
from weakref import WeakKeyDictionary

from repro.core.network import Network
from repro.core.state import NetworkState
from repro.observability.tracer import (
    REASON_ALREADY_AT_DESTINATION,
    REASON_NO_LINK_SLOT,
    REASON_WINDOW_CLOSED,
)
from repro.routing.paths import ShortestPathTree

#: One physical-link run of a machine's edges: ``(start, end, receiver,
#: first_link, latency)`` (see :attr:`CompiledScenario.runs`).
Run = Tuple[int, int, int, int, float]


class CompiledScenario:
    """CSR-flattened virtual-link adjacency of one :class:`Network`.

    A machine's edges are one contiguous slice of each parallel column,
    split into the physical-link runs of its run table.  The edge order
    within a machine equals :meth:`Network.outgoing` order (``link_id``
    ascending), which the reference search iterates — identical order is
    what makes the compiled search tie-break identically.  It also keeps
    the windows of each physical link adjacent, as one run of edges.

    The columns are plain lists holding the links' own ``int`` and
    ``float`` objects, so a compiled network adds one pointer per edge
    and column, and no number of its own.

    Attributes:
        machine_count: number of machines.
        link_ids: virtual-link id per edge.
        window_starts: window start (``Lst``) per edge.
        window_ends: window end (``Let``) per edge.
        runs: per machine, one ``(start, end, receiver, first_link,
            latency)`` tuple per physical-link run: its edges are
            ``start`` up to ``end``, its windows lead to ``receiver`` with
            the same ``latency``, and ``first_link`` is the virtual link
            of its first window (whose bandwidth the run's duration
            reads).
    """

    __slots__ = (
        "machine_count",
        "link_ids",
        "window_starts",
        "window_ends",
        "runs",
    )

    def __init__(
        self,
        machine_count: int,
        link_ids: List[int],
        window_starts: List[float],
        window_ends: List[float],
        runs: List[Tuple[Run, ...]],
    ) -> None:
        self.machine_count = machine_count
        self.link_ids = link_ids
        self.window_starts = window_starts
        self.window_ends = window_ends
        self.runs = runs


def compile_network(network: Network) -> CompiledScenario:
    """Flatten a network's virtual-link multigraph into CSR columns.

    A pure function of the (immutable) network — called once per network
    by :func:`compiled_for` and memoized there.
    """
    link_ids: List[int] = []
    window_starts: List[float] = []
    window_ends: List[float] = []
    runs: List[Tuple[Run, ...]] = []
    for machine in range(network.machine_count):
        row: List[Run] = []
        for _, windows in groupby(
            network.outgoing(machine), key=attrgetter("physical_id")
        ):
            run = tuple(windows)
            first = run[0]
            row.append(
                (
                    len(link_ids),
                    len(link_ids) + len(run),
                    first.destination,
                    first.link_id,
                    first.latency,
                )
            )
            for link in run:
                link_ids.append(link.link_id)
                window_starts.append(link.start)
                window_ends.append(link.end)
        runs.append(tuple(row))
    return CompiledScenario(
        machine_count=network.machine_count,
        link_ids=link_ids,
        window_starts=window_starts,
        window_ends=window_ends,
        runs=runs,
    )


#: Per-network compiled CSR columns.  Weakly keyed: dropping the scenario
#: releases the compiled form.
_NETWORK_MEMO: "WeakKeyDictionary[Network, CompiledScenario]" = (
    WeakKeyDictionary()
)


def compiled_for(network: Network) -> CompiledScenario:
    """The network's compiled form, built on first use and memoized."""
    compiled = _NETWORK_MEMO.get(network)
    if compiled is None:
        compiled = compile_network(network)
        _NETWORK_MEMO[network] = compiled
    return compiled


def compute_tree_compiled(
    state: NetworkState,
    item_id: int,
    targets: Optional[Mapping[int, float]],
    not_before: float,
) -> ShortestPathTree:
    """The §4.2 earliest-arrival search over the compiled columns.

    Labels live in a dense list indexed by machine id with a parallel
    ``discovered`` byte per machine (instead of ``dict.get`` probes —
    and instead of sentinel-float comparisons, which would reintroduce
    the exact-equality hazards rule R2 exists to catch); finalization is
    a byte array plus a counter.

    A popped machine's edges are walked one physical-link run at a time,
    over its run table (see the module docstring).  The receiver, its
    ``finalized`` byte, its label, its residency bound and whether it
    holds the item are read once per run, and the duration is computed
    once per run, with the reference expression ``item_size / bandwidth
    + latency`` over the run's first edge; a finalized receiver skips
    the whole run, and so does a pruned first edge, before the rest of
    the run's set-up.  The walk leaves a run early at three exits:

    * the first pruned edge — one whose floor ``max(Lst, label) +
      duration`` reaches the receiver's label or passes the horizon
      (below); every later edge is pruned too, so when tracing the rest
      of the run is added to ``pruned`` in one step;
    * an ``already_at_destination`` rejection, and
    * a ``window_closed`` rejection with ``Lst`` at or past the
      residency bound ``min(sender release, receiver release)`` — both
      hold for every later edge, but each rejected edge emits its own
      ``transfer_attempt`` / ``transfer_rejected`` pair, so these two
      exits are taken only when tracing is off.

    A ``window_closed`` caused by the edge's own cutoff, and every
    ``no_link_slot``, rejects only that edge; the edges left are probed
    inline, and only those that probe cannot settle reach
    ``earliest_transfer``; the tree records their receivers
    (``fallback_receivers``), the only machines where storage can have
    rejected or delayed a relaxation.  Everything observable —
    seed order, heap contents, per-edge probe order, tracer events, the
    ``dijkstra`` event's counts, result dict insertion order — replicates
    the object-walking reference search the test suite keeps as its
    oracle.

    ``targets`` maps each target machine to its latest useful arrival.
    The *horizon* is the largest of those deadlines among the targets
    not yet finalized: the search stops at the first popped label past
    it, or once every target is finalized.  No skipped relaxation could
    produce a label at or below the horizon, so every finalized label
    and its parent equal the unbounded search's.  A targeted search
    returns its tree already projected onto ``targets``
    (:meth:`~repro.routing.paths.ShortestPathTree.projected`), walking
    the target paths straight from the label arrays: the seeds, each
    target that meets its deadline and the machines on the paths to
    those.  A target finalized past its own deadline reads unreachable;
    when it lies on a kept path it keeps its parent, so paths through it
    still resolve.  ``targets=None`` searches the whole graph.
    """
    network = state.scenario.network
    compiled = compiled_for(network)
    held = state.copies(item_id)
    seeds: Dict[int, float] = {
        machine: max(record.available_from, not_before)
        for machine, record in held.items()
        if record.release > not_before
    }
    machine_count = compiled.machine_count
    labels_list = [0.0] * machine_count
    discovered = bytearray(machine_count)
    finalized = bytearray(machine_count)
    finalized_count = 0
    #: Non-seed machines in first-discovery order, for rebuilding the
    #: labels dict with the reference insertion order.
    order: List[int] = []
    for machine, available in seeds.items():
        labels_list[machine] = available
        discovered[machine] = 1
    parents: Dict[int, Tuple[int, int, float, float]] = {}
    fallbacks: Set[int] = set()
    infinity = float("inf")
    pending_targets = dict(targets) if targets is not None else None
    # The latest useful arrival: no label past it can serve a target.
    horizon = (
        max(pending_targets.values(), default=-infinity)
        if pending_targets is not None
        else infinity
    )
    tracer = state.tracer
    tracing = tracer.enabled
    relaxations = 0
    pruned = 0
    item_size = state.scenario.item(item_id).size
    bandwidths = state.effective_bandwidths()
    links = network.virtual_links
    runs = compiled.runs
    link_ids = compiled.link_ids
    window_starts = compiled.window_starts
    window_ends = compiled.window_ends
    release_row = state.release_row(item_id)
    cutoffs = state.link_cutoffs()
    busy_columns, timeline_columns = state.probe_columns()
    earliest_transfer = state.earliest_transfer

    heap = [(available, machine) for machine, available in seeds.items()]
    heapq.heapify(heap)

    while heap:
        label, machine = heapq.heappop(heap)
        if label > horizon:
            break
        if finalized[machine]:
            continue
        if label > (
            labels_list[machine] if discovered[machine] else infinity
        ):
            continue
        finalized[machine] = 1
        finalized_count += 1
        if pending_targets is not None and machine in pending_targets:
            del pending_targets[machine]
            if not pending_targets:
                break
            horizon = max(pending_targets.values())
        sender_release = release_row[machine]
        for run_start, run_end, receiver, first_link, latency in runs[
            machine
        ]:
            if finalized[receiver]:
                continue
            receiver_label = (
                labels_list[receiver] if discovered[receiver] else infinity
            )
            duration = item_size / bandwidths[first_link] + latency
            # The run's first edge has its lowest prune floor: when that
            # edge is pruned, so is the run, before any per-run set-up.
            window_start = window_starts[run_start]
            start_floor = label if label > window_start else window_start
            finish_floor = start_floor + duration
            if finish_floor >= receiver_label or finish_floor > horizon:
                if tracing:
                    pruned += run_end - run_start
                continue
            receiver_release = release_row[receiver]
            release_end = (
                sender_release
                if sender_release < receiver_release
                else receiver_release
            )
            receiver_holds = receiver in held
            for edge in range(run_start, run_end):
                window_start = window_starts[edge]
                # max(window_start, label) as first_fit takes it (a tie,
                # such as 0.0 against -0.0, keeps the window start).
                start_floor = label if label > window_start else window_start
                finish_floor = start_floor + duration
                if finish_floor >= receiver_label or finish_floor > horizon:
                    if tracing:
                        pruned += run_end - edge
                    break
                if tracing:
                    relaxations += 1
                link_id = link_ids[edge]
                # earliest_transfer's early rejections, inline and in its
                # order; the last is the first test of
                # IntervalSet.first_fit.  The first two hold for the rest
                # of the run.
                if receiver_holds:
                    if not tracing:
                        break
                    rejected = REASON_ALREADY_AT_DESTINATION
                elif window_start >= release_end:
                    if not tracing:
                        break
                    rejected = REASON_WINDOW_CLOSED
                else:
                    window_end = min(
                        window_ends[edge], release_end, cutoffs[link_id]
                    )
                    if window_end <= window_start:
                        rejected = REASON_WINDOW_CLOSED
                    elif finish_floor > window_end:
                        rejected = REASON_NO_LINK_SLOT
                    else:
                        rejected = ""
                if rejected:
                    if tracing:
                        tracer.emit("transfer_attempt", item_id, link_id)
                        tracer.emit(
                            "transfer_rejected",
                            item_id, link_id, rejected
                        )
                    continue
                # earliest_transfer's first probe pass, inline: first_fit's
                # scan, then min_free_span over [start, release).  A zero
                # duration, an empty residency, no slot or a storage deficit
                # goes to earliest_transfer, which re-derives the outcome.
                start = start_floor
                starts, ends = busy_columns[link_id]
                idx = bisect_right(starts, start)
                if idx and ends[idx - 1] > start:
                    start = ends[idx - 1]
                while idx < len(starts) and starts[idx] < start + duration:
                    if ends[idx] > start:
                        start = ends[idx]
                    idx += 1
                plan_end = start + duration
                feasible = start < plan_end <= window_end
                if feasible:
                    times, values = timeline_columns[receiver]
                    low = bisect_right(times, start) - 1
                    high = bisect_left(times, receiver_release, low + 1)
                    feasible = min(values[low:high]) >= item_size
                if feasible:
                    if tracing:
                        tracer.emit("transfer_attempt", item_id, link_id)
                else:
                    fallbacks.add(receiver)
                    plan = earliest_transfer(
                        item_id, links[link_id], label, duration
                    )
                    if plan is None:
                        continue
                    start, plan_end = plan.start, plan.end
                if plan_end < receiver_label:
                    receiver_label = plan_end
                    labels_list[receiver] = plan_end
                    if not discovered[receiver]:
                        discovered[receiver] = 1
                        order.append(receiver)
                    parents[receiver] = (machine, link_id, start, plan_end)
                    heapq.heappush(heap, (plan_end, receiver))

    if tracing:
        tracer.emit(
            "dijkstra",
            item_id, relaxations, pruned, finalized_count, len(seeds)
        )
    if targets is None:
        # The reference insertion order: seeds, then first discoveries.
        labels = {
            machine: labels_list[machine] for machine in chain(seeds, order)
        }
    else:
        # The projection (ShortestPathTree.projected), off the arrays:
        # the seeds, and each target meeting its deadline with its path,
        # every machine of which was finalized before the target.
        labels = {
            machine: available
            for machine, available in seeds.items()
            if not available > targets.get(machine, infinity)
        }
        kept: Dict[int, Tuple[int, int, float, float]] = {}
        for target, deadline in targets.items():
            if not finalized[target] or labels_list[target] > deadline:
                continue
            cursor = target
            while cursor not in seeds and cursor not in kept:
                parent = kept[cursor] = parents[cursor]
                if not labels_list[cursor] > targets.get(cursor, infinity):
                    labels[cursor] = labels_list[cursor]
                cursor = parent[0]
        parents = kept
    return ShortestPathTree._owning(
        item_id, seeds, labels, parents, frozenset(fallbacks)
    )
