"""Hierarchical phase-level span profiling for the scheduler core.

The :func:`span` context manager marks one *phase* of work::

    with span(PHASE_DIJKSTRA):
        tree = compute_shortest_path_tree(state, item_id)

Spans ride the ambient :class:`~repro.observability.tracer.Tracer` — when
the ambient tracer is the default ``NULL_TRACER`` a span costs one
function call, one attribute load, and one branch, and returns a shared
inert singleton: no timing calls, no allocation.  With a tracer
installed, entry emits ``span_start`` and exit (normal *or*
exceptional — the ``with`` protocol guarantees pairing) emits
``span_end`` carrying the wall-clock and CPU duration.

:class:`ProfileCollector` is the tracer that turns the event stream into
a :class:`Profile`: spans nest, and each completed span is recorded
under its ``/``-joined path (``"tree/dijkstra"`` is a Dijkstra search
performed during a tree recomputation).  Per path the profile keeps a
wall-time and a CPU-time :class:`~repro.observability.metrics.TimingStat`
(count, total, min, max).  Profiles merge associatively — per-cell
profiles from process-pool workers combine into sweep totals exactly
like :class:`~repro.observability.metrics.RunMetrics` — and round-trip
through :func:`repro.serialization.document_to_dict` /
:func:`~repro.serialization.document_from_dict`.

The phase vocabulary instrumented in the library:

======================  ===================================================
phase                   spanned code
======================  ===================================================
scenario_generation     ``ScenarioGenerator.generate``
gc                      γ-release bookkeeping (release-matrix precompute in
                        ``NetworkState.__init__``; ``remove_copy`` release)
tree                    ``TreeCache.entry_for`` recompute (miss path)
dijkstra                ``compute_shortest_path_tree`` (nests under tree)
scoring                 candidate enumeration + pricing for one item
booking                 executing one chosen candidate group
======================  ===================================================

Profiling is observation only: enabling it never changes scheduling
decisions (pinned by the trace-invariance property test).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.observability.metrics import TimingStat
from repro.observability.tracer import Tracer, current_tracer

#: Separator joining nested span names into a phase path.
SPAN_PATH_SEPARATOR = "/"

# -- phase names ------------------------------------------------------------

#: One scenario drawn by the workload generator.
PHASE_SCENARIO_GENERATION = "scenario_generation"
#: Garbage-collection bookkeeping (γ-release matrix, dynamic copy release).
PHASE_GC = "gc"
#: One shortest-path-tree recomputation (cache-miss path).
PHASE_TREE = "tree"
#: One adapted-Dijkstra search (nests under ``tree``).
PHASE_DIJKSTRA = "dijkstra"
#: Candidate enumeration and pricing for one item.
PHASE_SCORING = "scoring"
#: Executing (booking) one chosen candidate group.
PHASE_BOOKING = "booking"

#: The phase names the library instruments out of the box.
PHASE_NAMES: Tuple[str, ...] = (
    PHASE_SCENARIO_GENERATION,
    PHASE_GC,
    PHASE_TREE,
    PHASE_DIJKSTRA,
    PHASE_SCORING,
    PHASE_BOOKING,
)


# -- the span context manager ------------------------------------------------

class _NullSpan:
    """The inert span handed out while the ambient tracer is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """One live span: emits start/end events with wall + CPU duration."""

    __slots__ = ("_name", "_tracer", "_wall_started", "_cpu_started")

    def __init__(self, name: str, tracer: Tracer) -> None:
        self._name = name
        self._tracer = tracer

    def __enter__(self) -> "_ActiveSpan":
        self._tracer.emit("span_start", self._name)
        self._cpu_started = time.process_time()
        self._wall_started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall_started
        cpu = time.process_time() - self._cpu_started
        self._tracer.emit("span_end", self._name, wall, cpu)
        return False


def span(name: str, tracer: Optional[Tracer] = None):
    """Open a profiling span named ``name`` for the ``with`` block.

    Near-zero cost when the observing tracer is disabled (the default):
    the shared inert singleton is returned without touching the clock.
    Spans nest — a collector sees the ``/``-joined path — and the end
    event fires even when the spanned code raises.

    Args:
        name: the phase name (one of :data:`PHASE_NAMES`, or any label).
        tracer: the tracer to emit to; defaults to the ambient tracer.
            State-bound emission sites pass ``state.tracer`` so spans
            follow the same capture-at-construction rule as every other
            scheduler event.
    """
    if tracer is None:
        tracer = current_tracer()
    if not tracer.enabled:
        return _NULL_SPAN
    return _ActiveSpan(name, tracer)


# -- the aggregate -----------------------------------------------------------

@dataclass
class SpanStat:
    """Timing summary of one span path: wall and CPU distributions.

    Attributes:
        wall: wall-clock durations (seconds).
        cpu: CPU-time durations (seconds, ``time.process_time`` deltas).
    """

    wall: TimingStat = field(default_factory=TimingStat)
    cpu: TimingStat = field(default_factory=TimingStat)

    @property
    def count(self) -> int:
        """Number of completed spans recorded under this path."""
        return self.wall.count

    def note(self, wall_seconds: float, cpu_seconds: float) -> None:
        """Fold one completed span in."""
        self.wall.note(wall_seconds)
        self.cpu.note(cpu_seconds)

    def merged(self, other: "SpanStat") -> "SpanStat":
        """The combined summary of two span distributions."""
        return SpanStat(
            wall=self.wall.merged(other.wall),
            cpu=self.cpu.merged(other.cpu),
        )


@dataclass(frozen=True)
class Hotspot:
    """One ranked entry of a profile's hotspot table.

    Attributes:
        path: the span path (``"tree/dijkstra"``).
        self_wall_seconds: wall time spent in the path itself, excluding
            its direct children.
        total_wall_seconds: wall time including children.
        count: completed spans under the path.
        share: ``self_wall_seconds`` as a fraction of the profile's
            total top-level wall time (0.0 when the profile is empty).
    """

    path: str
    self_wall_seconds: float
    total_wall_seconds: float
    count: int
    share: float


@dataclass
class Profile:
    """A mergeable aggregate of completed spans, keyed by path.

    Attributes:
        spans: per-path :class:`SpanStat`, keyed by the ``/``-joined
            span path.
    """

    KIND: ClassVar[str] = "profile"
    #: Version 2: empty timing stats write their 0.0 ``min``/``max``.
    SCHEMA_VERSION: ClassVar[int] = 2

    spans: Dict[str, SpanStat] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        """True when no span has been recorded."""
        return not self.spans

    def note(self, path: str, wall_seconds: float, cpu_seconds: float) -> None:
        """Fold one completed span in under ``path``."""
        stat = self.spans.get(path)
        if stat is None:
            stat = SpanStat()
            self.spans[path] = stat
        stat.note(wall_seconds, cpu_seconds)

    def stat(self, path: str) -> SpanStat:
        """The path's summary (a fresh empty stat when never recorded)."""
        return self.spans.get(path, SpanStat())

    def merged(self, other: "Profile") -> "Profile":
        """The path-wise combination of two profiles (associative)."""
        result = Profile()
        for source in (self, other):
            for path, stat in source.spans.items():
                existing = result.spans.get(path)
                # merged() always allocates, so the result owns its data
                # even for paths present on only one side.
                result.spans[path] = (
                    stat.merged(SpanStat())
                    if existing is None
                    else existing.merged(stat)
                )
        return result

    def _children(self, path: str) -> List[str]:
        prefix = path + SPAN_PATH_SEPARATOR
        return [
            candidate
            for candidate in self.spans
            if candidate.startswith(prefix)
            and SPAN_PATH_SEPARATOR not in candidate[len(prefix):]
        ]

    def self_wall_seconds(self, path: str) -> float:
        """Wall time in ``path`` itself, excluding its direct children."""
        total = self.stat(path).wall.total
        return total - sum(
            self.spans[child].wall.total for child in self._children(path)
        )

    def total_wall_seconds(self) -> float:
        """Summed wall time of all top-level (unnested) spans."""
        return sum(
            stat.wall.total
            for path, stat in self.spans.items()
            if SPAN_PATH_SEPARATOR not in path
        )

    def hotspots(self, limit: Optional[int] = None) -> List[Hotspot]:
        """Paths ranked by self wall time, hottest first."""
        total = self.total_wall_seconds()
        ranked = sorted(
            (
                Hotspot(
                    path=path,
                    self_wall_seconds=self.self_wall_seconds(path),
                    total_wall_seconds=stat.wall.total,
                    count=stat.count,
                    share=(
                        self.self_wall_seconds(path) / total
                        if total > 0.0
                        else 0.0
                    ),
                )
                for path, stat in self.spans.items()
            ),
            key=lambda hotspot: (-hotspot.self_wall_seconds, hotspot.path),
        )
        return ranked if limit is None else ranked[:limit]


class ProfileCollector(Tracer):
    """A tracer folding span events into a hierarchical :class:`Profile`.

    Maintains the live span stack: ``span_start`` pushes, the
    matching ``span_end`` records the completed span under the
    ``/``-joined path of the stack at that moment and pops.  The
    :func:`span` context manager guarantees starts and ends pair up even
    under exceptions; an end that does not match the top of the stack
    (a collector installed mid-span) is recorded flat under its own name
    rather than corrupting the hierarchy.
    """

    def __init__(self) -> None:
        self._profile = Profile()
        self._stack: List[str] = []
        self._handlers: Dict[str, Callable[..., None]] = {
            "span_start": self._span_start,
            "span_end": self._span_end,
        }

    def emit(self, event: str, *values: Any) -> None:
        """Fold a span event into the profile; ignore every other event."""
        handler = self._handlers.get(event)
        if handler is not None:
            handler(*values)

    def _span_start(self, name: str) -> None:
        """Push the opening span onto the live stack."""
        self._stack.append(name)

    def _span_end(
        self, name: str, wall_seconds: float, cpu_seconds: float
    ) -> None:
        """Record the completed span under its hierarchical path."""
        stack = self._stack
        if stack and stack[-1] == name:
            path = SPAN_PATH_SEPARATOR.join(stack)
            stack.pop()
        else:
            path = name
        self._profile.note(path, wall_seconds, cpu_seconds)

    def finalize(self) -> Profile:
        """The collected profile (the live object — collect, then read)."""
        return self._profile
