"""The tracer hook protocol and its built-in implementations.

Event sites in the scheduler core guard every emission with
``if tracer.enabled:`` so the disabled path costs one attribute load and
one branch — no event objects are ever allocated unless a real tracer is
installed.  Hooks are named methods (not a generic ``emit(event)``) so a
:class:`~repro.observability.metrics.MetricsCollector` can aggregate by
bumping plain integers without building dictionaries on the hot path.

Event taxonomy (one hook per event kind; see ``docs/OBSERVABILITY.md``):

====================  =====================================================
hook                  emitted by
====================  =====================================================
on_transfer_attempt   ``NetworkState.earliest_transfer`` entry
on_transfer_rejected  ``earliest_transfer`` infeasible exit (reason code)
on_transfer_booked    ``NetworkState.book_transfer`` success
on_booking_failed     ``book_transfer`` raising (reason code)
on_copy_removed       ``NetworkState.remove_copy``
on_request_reopened   ``NetworkState.reopen_request``
on_link_disabled      ``NetworkState.disable_link_from``
on_dijkstra           one shortest-path-tree computation
on_tree_cache         ``TreeCache.entry_for`` (hit or miss)
on_item_scored        candidate enumeration for one item
on_decision           one scheduled outer-loop choice (with timing)
on_run_end            one finished heuristic run
on_cell               one executor grid cell (run-cache hit or computed)
on_span_start         ``repro.observability.profiling.span`` entry
on_span_end           ``span`` exit (wall + CPU duration, exception-safe)
on_faults_applied     ``NetworkState`` applied a fault plan at construction
on_request_cancelled  dynamic driver withdrew a request (churn fault)
on_cell_retry         executor retried a cell after a transient failure
on_cache_quarantined  executor quarantined a corrupted run-cache record
on_request_satisfied  ``NetworkState`` delivered a copy satisfying a request
on_storage_reserved   ``book_transfer`` reserved receiver storage
====================  =====================================================
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError

# -- reason codes -----------------------------------------------------------

#: ``earliest_transfer``: the receiver already holds a copy.
REASON_ALREADY_AT_DESTINATION = "already_at_destination"
#: ``earliest_transfer``: window/residency/cutoff leave no room at all.
REASON_WINDOW_CLOSED = "window_closed"
#: ``earliest_transfer``: the link has no idle slot long enough.
REASON_NO_LINK_SLOT = "no_link_slot"
#: ``earliest_transfer``: receiver storage can never cover the residency.
REASON_NO_STORAGE = "no_storage"
#: ``book_transfer``: the sender holds no copy of the item.
REASON_NO_SENDER_COPY = "no_sender_copy"
#: ``book_transfer``: the transfer starts before the sender copy exists.
REASON_SENDER_NOT_AVAILABLE = "sender_not_available"
#: ``book_transfer``: the transfer outlives the sender copy's residency.
REASON_SENDER_RELEASED = "sender_released"
#: ``book_transfer``: the link already carries a transfer in the interval.
REASON_LINK_BUSY = "link_busy"
#: ``book_transfer``: the transfer escapes the link's availability window.
REASON_WINDOW_ESCAPE = "window_escape"
#: ``book_transfer``: the transfer completes after a dynamic outage cutoff.
REASON_LINK_CUTOFF = "link_cutoff"
#: ``book_transfer``: receiver storage cannot cover the copy's residency.
REASON_STORAGE_CONFLICT = "storage_conflict"
#: Timeline forensics: the request's item never reached a feasibility
#: search — the scheduler ran out of budget (or pruned the item) before
#: any transfer toward it was even attempted.
REASON_NEVER_ATTEMPTED = "never_attempted"

# -- tree-cache outcome reasons ---------------------------------------------
#
# Every ``on_tree_cache`` event carries one of these codes explaining why
# the cache served (hit) or recomputed (miss) an item's tree.  They form
# their own registry (:data:`TREE_CACHE_REASONS`) separate from the
# booking :data:`REASON_CODES`.

#: Hit: no availability-removing mutation occurred since the snapshot.
TREE_CACHE_CLEAN = "clean"
#: Hit: mutations occurred but provably miss the tree's footprint.
TREE_CACHE_REVALIDATED = "revalidated"
#: Miss: the item had no cached tree yet.
TREE_CACHE_COLD = "cold"
#: Miss: caching is disabled (recompute-every-iteration mode).
TREE_CACHE_DISABLED = "disabled"
#: Miss: the item's own copy/request set changed (seeds or targets moved).
TREE_CACHE_ITEM_CHANGED = "item_changed"
#: Miss: storage capacity was returned somewhere (global invalidation).
TREE_CACHE_CAPACITY_RELEASED = "capacity_released"
#: Miss: a booking's busy interval overlaps a planned hop on a footprint
#: link.
TREE_CACHE_LINK_CONFLICT = "link_conflict"
#: Miss: an outage cutoff tightened below a planned hop's completion.
TREE_CACHE_CUTOFF_TIGHTENED = "cutoff_tightened"
#: Miss: a new storage reservation breaks a planned residency on a
#: footprint machine.
TREE_CACHE_RESIDENCY_CONFLICT = "residency_conflict"
#: Miss: a bandwidth degradation changed transfer durations globally
#: (degradation epoch moved — not journalled, not footprint-checkable).
TREE_CACHE_BANDWIDTH_DEGRADED = "bandwidth_degraded"

#: All event names a materializing tracer may emit — the registry the
#: ``repro.staticcheck`` R3 rule checks string literals against.  One
#: entry per hook in the taxonomy table above; readers filtering events
#: (``RecordingTracer.named``) must use names from this tuple.
EVENT_NAMES: Tuple[str, ...] = (
    "transfer_attempt",
    "transfer_rejected",
    "transfer_booked",
    "booking_failed",
    "copy_removed",
    "request_reopened",
    "link_disabled",
    "dijkstra",
    "tree_cache",
    "item_scored",
    "decision",
    "run_end",
    "cell",
    "span_start",
    "span_end",
    "faults_applied",
    "request_cancelled",
    "cell_retry",
    "cache_quarantined",
    "request_satisfied",
    "storage_reserved",
)

#: All reason codes a rejection/failure event may carry.
REASON_CODES: Tuple[str, ...] = (
    REASON_ALREADY_AT_DESTINATION,
    REASON_WINDOW_CLOSED,
    REASON_NO_LINK_SLOT,
    REASON_NO_STORAGE,
    REASON_NO_SENDER_COPY,
    REASON_SENDER_NOT_AVAILABLE,
    REASON_SENDER_RELEASED,
    REASON_LINK_BUSY,
    REASON_WINDOW_ESCAPE,
    REASON_LINK_CUTOFF,
    REASON_STORAGE_CONFLICT,
    REASON_NEVER_ATTEMPTED,
)

#: All outcome codes a ``tree_cache`` event may carry.  The first two are
#: hits; the rest explain why a tree was recomputed.
TREE_CACHE_REASONS: Tuple[str, ...] = (
    TREE_CACHE_CLEAN,
    TREE_CACHE_REVALIDATED,
    TREE_CACHE_COLD,
    TREE_CACHE_DISABLED,
    TREE_CACHE_ITEM_CHANGED,
    TREE_CACHE_CAPACITY_RELEASED,
    TREE_CACHE_LINK_CONFLICT,
    TREE_CACHE_CUTOFF_TIGHTENED,
    TREE_CACHE_RESIDENCY_CONFLICT,
    TREE_CACHE_BANDWIDTH_DEGRADED,
)


class Tracer:
    """Base tracer: enabled, every hook a no-op.

    Subclass and override the hooks you care about.  ``enabled`` is read
    on the hot path before any hook is called; a subclass that sets it to
    ``False`` receives no events at all.
    """

    #: Event sites skip emission entirely when this is ``False``.
    enabled: bool = True

    # -- booking ----------------------------------------------------------

    def on_transfer_attempt(self, item_id: int, link_id: int) -> None:
        """A feasibility search started on one (item, virtual link) pair."""

    def on_transfer_rejected(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        """A feasibility search found no feasible start (reason code)."""

    def on_transfer_booked(
        self,
        item_id: int,
        link_id: int,
        start: float,
        end: float,
        window_seconds: float,
    ) -> None:
        """A transfer was booked onto a virtual link."""

    def on_booking_failed(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        """``book_transfer`` rejected a stale plan (reason code)."""

    # -- state surgery ----------------------------------------------------

    def on_copy_removed(
        self, item_id: int, machine: int, at_time: float
    ) -> None:
        """A resident copy was removed (dynamic loss / GC release)."""

    def on_request_reopened(self, request_id: int) -> None:
        """A previously satisfied request became unsatisfied again."""

    def on_link_disabled(self, link_id: int, at_time: float) -> None:
        """A virtual link received a dynamic outage cutoff."""

    # -- routing ----------------------------------------------------------

    def on_dijkstra(
        self,
        item_id: int,
        relaxations: int,
        pruned: int,
        finalized: int,
        seeds: int,
    ) -> None:
        """One adapted-Dijkstra search finished (with search effort)."""

    # -- engine -----------------------------------------------------------

    def on_tree_cache(self, item_id: int, hit: bool, reason: str) -> None:
        """The tree cache answered a request (hit or recompute).

        ``reason`` is one of :data:`TREE_CACHE_REASONS` and explains the
        outcome: how a hit was justified (``clean`` / ``revalidated``) or
        which mutation class forced the recompute.
        """

    def on_item_scored(self, item_id: int, candidates: int) -> None:
        """An item's candidate groups were enumerated and priced."""

    def on_decision(
        self,
        item_id: int,
        next_machine: int,
        cost: float,
        hops: int,
        elapsed_seconds: float,
    ) -> None:
        """One outer-loop decision was taken (choose + execute timing)."""

    def on_run_end(self, label: str, elapsed_seconds: float) -> None:
        """One heuristic run completed."""

    # -- executor ---------------------------------------------------------

    def on_cell(
        self,
        index: int,
        scheduler: str,
        cache_hit: bool,
        elapsed_seconds: float,
    ) -> None:
        """One sweep grid cell was resolved (computed or replayed)."""

    # -- profiling --------------------------------------------------------

    def on_span_start(self, name: str) -> None:
        """A profiling span opened (see :mod:`repro.observability.profiling`).

        Spans are emitted by the :func:`~repro.observability.profiling.span`
        context manager; starts and ends pair up even when the spanned code
        raises, and spans nest (the pairings form a well-bracketed
        sequence), so a collector may maintain a stack.
        """

    def on_span_end(
        self, name: str, wall_seconds: float, cpu_seconds: float
    ) -> None:
        """The matching profiling span closed (wall + CPU duration)."""

    # -- fault injection and robustness -----------------------------------

    def on_faults_applied(
        self, masked_windows: int, degraded_links: int
    ) -> None:
        """A :class:`~repro.faults.plan.FaultPlan` was applied to a state.

        ``masked_windows`` counts the busy intervals pre-booked by outage
        windows (one per affected virtual link window); ``degraded_links``
        counts virtual links running below nominal bandwidth.
        """

    def on_request_cancelled(self, request_id: int, at_time: float) -> None:
        """The dynamic driver withdrew a request (cancellation churn)."""

    def on_cell_retry(self, index: int, attempt: int, error: str) -> None:
        """The executor is retrying cell ``index`` after a transient
        worker failure (``error`` is the exception class name)."""

    def on_cache_quarantined(self, path: str) -> None:
        """A corrupted run-cache record was renamed aside and will be
        recomputed (``path`` is the quarantined file)."""

    # -- simulated-time telemetry ------------------------------------------

    def on_request_satisfied(
        self, request_id: int, at_time: float, hops: int
    ) -> None:
        """A delivered copy satisfied a pending request.

        ``at_time`` is the copy's arrival (simulated time); ``hops`` is
        the staging depth of the delivered copy.  Reopening the request
        later (:meth:`on_request_reopened`) undoes the satisfaction.
        """

    def on_storage_reserved(
        self, item_id: int, machine: int, amount: float, start: float, release: float
    ) -> None:
        """``book_transfer`` reserved receiver storage for a new copy.

        ``amount`` bytes are held on ``machine`` over the simulated-time
        residency ``[start, release)`` (``release`` may be the horizon
        when the copy never expires).
        """


def _inherit_hook_docs(cls: type) -> type:
    """Copy hook docstrings from :class:`Tracer` onto bare overrides.

    Hook semantics are defined once on the base protocol; implementations
    stay docstring-free without losing introspectable documentation.
    """
    for name, attr in vars(cls).items():
        if name.startswith("on_") and attr.__doc__ is None:
            base = getattr(Tracer, name, None)
            if base is not None:
                attr.__doc__ = base.__doc__
    return cls


class NullTracer(Tracer):
    """The default disabled tracer — every event site short-circuits."""

    enabled = False


#: Shared disabled tracer; ambient default for every process.
NULL_TRACER = NullTracer()

_current: List[Tracer] = [NULL_TRACER]


def current_tracer() -> Tracer:
    """The ambient tracer of this process (``NULL_TRACER`` by default)."""
    return _current[-1]


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the ``with`` block.

    Nesting is supported (the previous tracer is restored on exit).  The
    ambient tracer is captured by :class:`~repro.core.state.NetworkState`
    at construction, so runs started inside the block are observed even
    when they outlive it.
    """
    _current.append(tracer)
    try:
        yield tracer
    finally:
        _current.pop()


@dataclass(frozen=True)
class TraceEvent:
    """One materialized event: a name plus its payload fields."""

    name: str
    fields: Tuple[Tuple[str, Any], ...]

    def as_dict(self) -> Dict[str, Any]:
        """The event as a JSON-ready dict (``event`` key first)."""
        document: Dict[str, Any] = {"event": self.name}
        document.update(self.fields)
        return document

    def __getitem__(self, key: str) -> Any:
        for name, value in self.fields:
            if name == key:
                return value
        raise KeyError(key)


@_inherit_hook_docs
class _EventTracer(Tracer):
    """Shared hook bodies for tracers that materialize generic events.

    Every hook funnels into :meth:`_event` with the event name and its
    payload fields; subclasses decide what an event *becomes* — an
    in-memory :class:`TraceEvent` (:class:`RecordingTracer`) or one JSON
    line on disk (:class:`JsonlTracer`).
    """

    def _event(self, name: str, **fields: Any) -> None:
        raise NotImplementedError

    # Hook implementations -------------------------------------------------

    def on_transfer_attempt(self, item_id: int, link_id: int) -> None:
        self._event("transfer_attempt", item_id=item_id, link_id=link_id)

    def on_transfer_rejected(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        self._event(
            "transfer_rejected",
            item_id=item_id,
            link_id=link_id,
            reason=reason,
        )

    def on_transfer_booked(
        self,
        item_id: int,
        link_id: int,
        start: float,
        end: float,
        window_seconds: float,
    ) -> None:
        self._event(
            "transfer_booked",
            item_id=item_id,
            link_id=link_id,
            start=start,
            end=end,
            window_seconds=window_seconds,
        )

    def on_booking_failed(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        self._event(
            "booking_failed", item_id=item_id, link_id=link_id, reason=reason
        )

    def on_copy_removed(
        self, item_id: int, machine: int, at_time: float
    ) -> None:
        self._event(
            "copy_removed", item_id=item_id, machine=machine, at_time=at_time
        )

    def on_request_reopened(self, request_id: int) -> None:
        self._event("request_reopened", request_id=request_id)

    def on_link_disabled(self, link_id: int, at_time: float) -> None:
        self._event("link_disabled", link_id=link_id, at_time=at_time)

    def on_dijkstra(
        self,
        item_id: int,
        relaxations: int,
        pruned: int,
        finalized: int,
        seeds: int,
    ) -> None:
        self._event(
            "dijkstra",
            item_id=item_id,
            relaxations=relaxations,
            pruned=pruned,
            finalized=finalized,
            seeds=seeds,
        )

    def on_tree_cache(self, item_id: int, hit: bool, reason: str) -> None:
        self._event("tree_cache", item_id=item_id, hit=hit, reason=reason)

    def on_item_scored(self, item_id: int, candidates: int) -> None:
        self._event("item_scored", item_id=item_id, candidates=candidates)

    def on_decision(
        self,
        item_id: int,
        next_machine: int,
        cost: float,
        hops: int,
        elapsed_seconds: float,
    ) -> None:
        self._event(
            "decision",
            item_id=item_id,
            next_machine=next_machine,
            cost=cost,
            hops=hops,
            elapsed_seconds=elapsed_seconds,
        )

    def on_run_end(self, label: str, elapsed_seconds: float) -> None:
        self._event("run_end", label=label, elapsed_seconds=elapsed_seconds)

    def on_cell(
        self,
        index: int,
        scheduler: str,
        cache_hit: bool,
        elapsed_seconds: float,
    ) -> None:
        self._event(
            "cell",
            index=index,
            scheduler=scheduler,
            cache_hit=cache_hit,
            elapsed_seconds=elapsed_seconds,
        )

    def on_span_start(self, name: str) -> None:
        self._event("span_start", span=name)

    def on_span_end(
        self, name: str, wall_seconds: float, cpu_seconds: float
    ) -> None:
        self._event(
            "span_end",
            span=name,
            wall_seconds=wall_seconds,
            cpu_seconds=cpu_seconds,
        )

    def on_faults_applied(
        self, masked_windows: int, degraded_links: int
    ) -> None:
        self._event(
            "faults_applied",
            masked_windows=masked_windows,
            degraded_links=degraded_links,
        )

    def on_request_cancelled(self, request_id: int, at_time: float) -> None:
        self._event(
            "request_cancelled", request_id=request_id, at_time=at_time
        )

    def on_cell_retry(self, index: int, attempt: int, error: str) -> None:
        self._event("cell_retry", index=index, attempt=attempt, error=error)

    def on_cache_quarantined(self, path: str) -> None:
        self._event("cache_quarantined", path=path)

    def on_request_satisfied(
        self, request_id: int, at_time: float, hops: int
    ) -> None:
        self._event(
            "request_satisfied",
            request_id=request_id,
            at_time=at_time,
            hops=hops,
        )

    def on_storage_reserved(
        self, item_id: int, machine: int, amount: float, start: float, release: float
    ) -> None:
        self._event(
            "storage_reserved",
            item_id=item_id,
            machine=machine,
            amount=amount,
            start=start,
            release=release,
        )


class RecordingTracer(_EventTracer):
    """Materializes every event as a :class:`TraceEvent` in memory.

    Intended for tests and interactive inspection; for long runs prefer
    :class:`JsonlTracer` (bounded memory) or
    :class:`~repro.observability.metrics.MetricsCollector` (aggregates).
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def _event(self, name: str, **fields: Any) -> None:
        self.events.append(TraceEvent(name=name, fields=tuple(fields.items())))

    def named(self, name: str) -> List[TraceEvent]:
        """All recorded events of one kind, in emission order."""
        return [event for event in self.events if event.name == name]


class JsonlTracer(_EventTracer):
    """Streams events to a JSON-lines file instead of keeping them.

    One compact JSON object per line, ``{"event": <name>, ...fields}``.
    The tracer is also a context manager; use :meth:`close` (or the
    ``with`` block) to flush and release the file handle.

    Events are *not* retained in memory (that is the point — a ci-scale
    figure emits millions).  Accessing :attr:`events` or calling
    :meth:`named` raises :class:`~repro.errors.ConfigurationError` rather
    than silently answering ``[]``; tee a :class:`RecordingTracer`
    alongside when in-memory inspection is also needed.
    """

    def __init__(self, path: Union[str, Path, IO[str]]) -> None:
        if hasattr(path, "write"):
            self._stream: IO[str] = path  # type: ignore[assignment]
            self._owns_stream = False
        else:
            self._stream = Path(path).open("w", encoding="utf-8")
            self._owns_stream = True

    def _event(self, name: str, **fields: Any) -> None:
        document: Dict[str, Any] = {"event": name}
        document.update(fields)
        self._stream.write(
            json.dumps(document, separators=(",", ":")) + "\n"
        )

    @property
    def events(self) -> List[TraceEvent]:
        """Unsupported — streamed events are not retained.

        Raises:
            ConfigurationError: always; see the class docstring.
        """
        raise ConfigurationError(
            "JsonlTracer streams events to disk and retains none in "
            "memory; use a RecordingTracer (or a TeeTracer fanning out to "
            "both) to inspect events after the run"
        )

    def named(self, name: str) -> List[TraceEvent]:
        """Unsupported — streamed events are not retained.

        Raises:
            ConfigurationError: always; see the class docstring.
        """
        raise ConfigurationError(
            "JsonlTracer streams events to disk and retains none in "
            "memory; named() has nothing to filter — use a "
            "RecordingTracer (or a TeeTracer fanning out to both)"
        )

    def close(self) -> None:
        """Flush buffered lines and close an owned file handle."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@_inherit_hook_docs
@dataclass
class TeeTracer(Tracer):
    """Fans every event out to several child tracers.

    Disabled children are skipped; the tee itself reports ``enabled``
    as "any child enabled" so event sites short-circuit when all
    children are off.
    """

    children: Sequence[Tracer] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.children = tuple(self.children)

    @property  # type: ignore[override]
    def enabled(self) -> bool:
        """``True`` iff any child is enabled, recomputed on every read.

        A property (not a snapshot taken at construction) so a child
        toggling its own ``enabled`` after the tee is built is honored;
        when every child is a :class:`NullTracer` the tee reports
        disabled and event sites allocate nothing.
        """
        return any(child.enabled for child in self.children)

    def _fan_out(self, method: str, *args: Any, **kwargs: Any) -> None:
        for child in self.children:
            if child.enabled:
                getattr(child, method)(*args, **kwargs)

    def on_transfer_attempt(self, *args: Any) -> None:
        self._fan_out("on_transfer_attempt", *args)

    def on_transfer_rejected(self, *args: Any) -> None:
        self._fan_out("on_transfer_rejected", *args)

    def on_transfer_booked(self, *args: Any) -> None:
        self._fan_out("on_transfer_booked", *args)

    def on_booking_failed(self, *args: Any) -> None:
        self._fan_out("on_booking_failed", *args)

    def on_copy_removed(self, *args: Any) -> None:
        self._fan_out("on_copy_removed", *args)

    def on_request_reopened(self, *args: Any) -> None:
        self._fan_out("on_request_reopened", *args)

    def on_link_disabled(self, *args: Any) -> None:
        self._fan_out("on_link_disabled", *args)

    def on_dijkstra(self, *args: Any, **kwargs: Any) -> None:
        self._fan_out("on_dijkstra", *args, **kwargs)

    def on_tree_cache(self, *args: Any) -> None:
        self._fan_out("on_tree_cache", *args)

    def on_item_scored(self, *args: Any) -> None:
        self._fan_out("on_item_scored", *args)

    def on_decision(self, *args: Any) -> None:
        self._fan_out("on_decision", *args)

    def on_run_end(self, *args: Any) -> None:
        self._fan_out("on_run_end", *args)

    def on_cell(self, *args: Any) -> None:
        self._fan_out("on_cell", *args)

    def on_span_start(self, *args: Any) -> None:
        self._fan_out("on_span_start", *args)

    def on_span_end(self, *args: Any) -> None:
        self._fan_out("on_span_end", *args)

    def on_faults_applied(self, *args: Any) -> None:
        self._fan_out("on_faults_applied", *args)

    def on_request_cancelled(self, *args: Any) -> None:
        self._fan_out("on_request_cancelled", *args)

    def on_cell_retry(self, *args: Any) -> None:
        self._fan_out("on_cell_retry", *args)

    def on_cache_quarantined(self, *args: Any) -> None:
        self._fan_out("on_cache_quarantined", *args)

    def on_request_satisfied(self, *args: Any) -> None:
        self._fan_out("on_request_satisfied", *args)

    def on_storage_reserved(self, *args: Any) -> None:
        self._fan_out("on_storage_reserved", *args)
