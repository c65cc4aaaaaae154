"""The tracer protocol: one ``emit`` hook over a registry of event fields.

Event sites in the scheduler core call ``tracer.emit(event, *values)``
behind an ``if tracer.enabled:`` guard, so the disabled path costs one
attribute load and one branch and allocates nothing.  :data:`EVENTS` is
the one registry of the taxonomy: it maps each event name to its field
names, in the order the sites pass the values, and documents where each
event comes from (see also ``docs/OBSERVABILITY.md``).

The materializing tracers (:class:`RecordingTracer`, :class:`JsonlTracer`)
zip the registered names with the values.  They raise
:class:`~repro.errors.ConfigurationError` at the point of emission for an
unregistered event, a wrong number of values, or a ``reason`` outside
:data:`REASON_CODES` / :data:`TREE_CACHE_REASONS`.  The aggregating
tracers (:class:`~repro.observability.metrics.MetricsCollector`, the
timeline and profile collectors) look each event up in one dict of bound
handlers and ignore the events they have no handler for.

Values are positional, not keywords: an event builds no dict on its way
in, so a collector can bump plain integers straight from the arguments.
In a microbenchmark on an Intel Xeon under CPython 3.11, one event
delivered to a trivial handler cost about 120 ns through a named
per-event method, 440 ns through ``emit(event, *values)`` and a handler
dict, and 1,150 ns through ``emit(event, **fields)``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Sequence, Tuple, Union

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
# Every ``tree_cache`` event carries one of these codes explaining why
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

#: Every event a tracer may receive, mapped to its field names in the order
#: emission sites pass the values.  This is the source of truth for the
#: event taxonomy: the materializing tracers check emissions against it,
#: ``RecordingTracer.named`` accepts only its keys, and the
#: ``repro.staticcheck`` R3 rule checks ``emit("...")`` literals against it.
EVENTS: Dict[str, Tuple[str, ...]] = {
    # -- booking (NetworkState) -------------------------------------------
    # ``earliest_transfer`` entry: a feasibility search started on one
    # (item, virtual link) pair.
    "transfer_attempt": ("item_id", "link_id"),
    # ``earliest_transfer`` (or the routing kernel's inline check) found
    # no feasible start; ``reason`` is one of REASON_CODES.
    "transfer_rejected": ("item_id", "link_id", "reason"),
    # ``book_transfer`` booked a transfer onto a virtual link.
    "transfer_booked": (
        "item_id",
        "link_id",
        "start",
        "end",
        "window_seconds",
    ),
    # ``book_transfer`` rejected a stale plan; ``reason`` is one of
    # REASON_CODES.
    "booking_failed": ("item_id", "link_id", "reason"),
    # -- state surgery ------------------------------------------------------
    # ``remove_copy``: a resident copy was removed (dynamic loss).
    "copy_removed": ("item_id", "machine", "at_time"),
    # ``reopen_request``: a satisfied request became unsatisfied again.
    "request_reopened": ("request_id",),
    # ``disable_link_from``: a virtual link received an outage cutoff.
    "link_disabled": ("link_id", "at_time"),
    # -- routing ------------------------------------------------------------
    # One adapted-Dijkstra search finished, with its search effort.
    "dijkstra": ("item_id", "relaxations", "pruned", "finalized", "seeds"),
    # -- engine -------------------------------------------------------------
    # ``TreeCache.entry_for`` answered; ``reason`` is one of
    # TREE_CACHE_REASONS: how a hit was justified (``clean`` /
    # ``revalidated``) or which mutation class forced the recompute.
    "tree_cache": ("item_id", "hit", "reason"),
    # An item's candidate groups were enumerated and priced.
    "item_scored": ("item_id", "candidates"),
    # One outer-loop decision was taken (choose + execute wall time).
    "decision": (
        "item_id",
        "next_machine",
        "cost",
        "hops",
        "elapsed_seconds",
    ),
    # One heuristic run completed.
    "run_end": ("label", "elapsed_seconds"),
    # -- executor -----------------------------------------------------------
    # One sweep grid cell was resolved (computed or replayed).
    "cell": ("index", "scheduler", "cache_hit", "elapsed_seconds"),
    # -- profiling ----------------------------------------------------------
    # ``repro.observability.profiling.span`` entry.  Starts and ends pair
    # up even when the spanned code raises, and spans nest, so a
    # collector may keep a stack.
    "span_start": ("span",),
    # The matching span closed (wall + CPU duration).
    "span_end": ("span", "wall_seconds", "cpu_seconds"),
    # -- fault injection and robustness -------------------------------------
    # A FaultPlan was applied to a state: ``masked_windows`` busy
    # intervals pre-booked by outage windows, ``degraded_links`` virtual
    # links running below nominal bandwidth.
    "faults_applied": ("masked_windows", "degraded_links"),
    # The dynamic driver withdrew a request (cancellation churn).
    "request_cancelled": ("request_id", "at_time"),
    # The executor is retrying a cell after a transient worker failure
    # (``error`` is the exception class name).
    "cell_retry": ("index", "attempt", "error"),
    # A corrupted run-cache record was renamed aside (``path``) and will
    # be recomputed.
    "cache_quarantined": ("path",),
    # -- simulated-time telemetry -------------------------------------------
    # A delivered copy satisfied a pending request: ``at_time`` is the
    # copy's arrival, ``hops`` its staging depth.  ``request_reopened``
    # undoes it.
    "request_satisfied": ("request_id", "at_time", "hops"),
    # ``book_transfer`` held ``amount`` bytes on ``machine`` over the
    # residency ``[start, release)`` (``release`` may be the horizon).
    "storage_reserved": (
        "item_id",
        "machine",
        "amount",
        "start",
        "release",
    ),
}

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

#: The registry each event's ``reason`` field must come from.
_EVENT_REASONS: Dict[str, Tuple[str, ...]] = {
    "transfer_rejected": REASON_CODES,
    "booking_failed": REASON_CODES,
    "tree_cache": TREE_CACHE_REASONS,
}


def _checked_fields(
    event: str, values: Tuple[Any, ...]
) -> Tuple[Tuple[str, Any], ...]:
    """One emission's ``(field, value)`` pairs, checked against :data:`EVENTS`.

    Raises:
        ConfigurationError: for an unregistered event, a value count that
            differs from the event's registered fields, or a ``reason``
            outside the event's reason registry.
    """
    names = EVENTS.get(event)
    if names is None:
        raise ConfigurationError(f"unregistered trace event {event!r}")
    if len(values) != len(names):
        raise ConfigurationError(
            f"trace event {event!r} takes {len(names)} values "
            f"{names}, got {len(values)}"
        )
    reasons = _EVENT_REASONS.get(event)
    if reasons is not None:
        reason = values[names.index("reason")]
        if reason not in reasons:
            raise ConfigurationError(
                f"trace event {event!r} carries unregistered reason "
                f"{reason!r}"
            )
    return tuple(zip(names, values))


class Tracer:
    """Base tracer: enabled, ignores every event.

    Subclass and override :meth:`emit`.  ``enabled`` is read at every
    event site before :meth:`emit` is called; a subclass that sets it to
    ``False`` receives no events at all.
    """

    #: Event sites skip emission entirely when this is ``False``.
    enabled: bool = True

    def emit(self, event: str, *values: Any) -> None:
        """Receive one event: a name from :data:`EVENTS` and its field
        values, positionally, in the registry's order."""


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


class RecordingTracer(Tracer):
    """Materializes every event as a :class:`TraceEvent` in memory.

    Intended for tests and interactive inspection; for long runs prefer
    :class:`JsonlTracer` (bounded memory) or
    :class:`~repro.observability.metrics.MetricsCollector` (aggregates).
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: str, *values: Any) -> None:
        """Record one event, checked against :data:`EVENTS`.

        Raises:
            ConfigurationError: for an unregistered event, a wrong number
                of values, or an unregistered reason code.
        """
        self.events.append(TraceEvent(event, _checked_fields(event, values)))

    def named(self, name: str) -> List[TraceEvent]:
        """All recorded events of one kind, in emission order.

        Raises:
            ConfigurationError: when ``name`` is not a registered event
                (a typo would otherwise match nothing and pass silently).
        """
        if name not in EVENTS:
            raise ConfigurationError(f"unregistered trace event {name!r}")
        return [event for event in self.events if event.name == name]


class JsonlTracer(Tracer):
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

    def emit(self, event: str, *values: Any) -> None:
        """Write one event as a JSON line, checked against :data:`EVENTS`.

        Raises:
            ConfigurationError: for an unregistered event, a wrong number
                of values, or an unregistered reason code.
        """
        document: Dict[str, Any] = {"event": event}
        document.update(_checked_fields(event, values))
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

    def emit(self, event: str, *values: Any) -> None:
        """Hand the event to every enabled child."""
        for child in self.children:
            if child.enabled:
                child.emit(event, *values)
