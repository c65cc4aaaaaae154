"""Half-open time intervals and sorted disjoint interval sets.

Intervals are half-open ``[start, end)`` so that back-to-back bookings
(``[0, 5)`` then ``[5, 9)``) do not collide.  :class:`IntervalSet` keeps a
sorted list of pairwise-disjoint intervals and supports the three operations
the scheduler needs:

* overlap queries (is a candidate booking free?),
* insertion of a new busy interval,
* earliest-fit search: the first start time ``>= earliest`` at which a gap of
  a given duration exists inside a bounding window.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, List, Optional, Tuple

from repro.core.units import duration_is_zero


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open time interval ``[start, end)`` in canonical seconds.

    Raises:
        ValueError: if ``end`` precedes ``start``.
    """

    #: Written as a ``[start, end]`` row in documents (see
    #: :mod:`repro.serialization`).
    ROW: ClassVar[bool] = True

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"interval end {self.end} precedes start {self.start}"
            )

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start

    def is_empty(self) -> bool:
        """True for zero-length intervals, which overlap nothing."""
        return self.end <= self.start

    def contains(self, t: float) -> bool:
        """True if time ``t`` lies inside the half-open interval."""
        return self.start <= t < self.end

    def contains_interval(self, other: "Interval") -> bool:
        """True if ``other`` lies entirely within this interval."""
        if other.is_empty():
            return self.start <= other.start <= self.end
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Interval") -> bool:
        """True if the two half-open intervals share any instant."""
        if self.is_empty() or other.is_empty():
            return False
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """The overlapping sub-interval, or ``None`` if disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return Interval(start, end)

    def shifted(self, delta: float) -> "Interval":
        """A copy translated by ``delta`` seconds."""
        return Interval(self.start + delta, self.end + delta)

    def __repr__(self) -> str:
        return f"Interval({self.start:g}, {self.end:g})"


class IntervalSet:
    """A mutable, sorted collection of pairwise-disjoint intervals.

    Used for virtual-link busy time.  Insertion of an interval overlapping an
    existing member raises :class:`ValueError` — the scheduler must query
    :meth:`is_free` / :meth:`earliest_fit` first, so an overlapping insert is
    a logic error worth failing loudly on.  Members are kept as two float
    columns (starts, ends); :class:`Interval` objects are built on read.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        for interval in sorted(intervals):
            self.add(interval)

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval, self._starts, self._ends)

    def __contains__(self, interval: Interval) -> bool:
        idx = bisect.bisect_left(self._starts, interval.start)
        return idx < len(self._starts) and (
            Interval(self._starts[idx], self._ends[idx]) == interval
        )

    def __repr__(self) -> str:
        return f"IntervalSet({list(self)!r})"

    def columns(self) -> Tuple[List[float], List[float]]:
        """The live ``(starts, ends)`` lists, updated in place; read only."""
        return self._starts, self._ends

    def copy(self) -> "IntervalSet":
        """An independent copy (intervals themselves are immutable).

        Built through ``__new__`` — the members are already sorted and
        pairwise disjoint, so re-validating them through ``add`` would be
        pure overhead on the clone-per-candidate paths (rollout,
        exhaustive search).
        """
        clone = IntervalSet.__new__(IntervalSet)
        clone._starts = list(self._starts)
        clone._ends = list(self._ends)
        return clone

    def total_duration(self) -> float:
        """Sum of the durations of all member intervals."""
        return sum(end - start for start, end in zip(self._starts, self._ends))

    def is_free(self, candidate: Interval) -> bool:
        """True if ``candidate`` overlaps no member interval."""
        if candidate.is_empty():
            return True
        return self.span_is_free(candidate.start, candidate.end)

    def span_is_free(self, start: float, end: float) -> bool:
        """Float-core overlap query over the half-open ``[start, end)``.

        Equivalent to :meth:`is_free` for a non-empty candidate, but takes
        the bounds as plain floats so hot callers need not build an
        :class:`Interval`.  Members are non-empty and pairwise disjoint, so
        the only candidates for overlap are the member starting at or
        before ``start`` (overlaps iff it ends after ``start``) and the
        first member starting after ``start`` (overlaps iff it starts
        before ``end``).
        """
        starts = self._starts
        idx = bisect.bisect_right(starts, start)
        if idx > 0 and self._ends[idx - 1] > start:
            return False
        return not (idx < len(starts) and starts[idx] < end)

    def add(self, interval: Interval) -> None:
        """Insert a new busy interval.

        Raises:
            ValueError: if the interval overlaps an existing member.
        """
        if interval.is_empty():
            return
        if not self.is_free(interval):
            raise ValueError(
                f"{interval!r} overlaps an existing interval in {self!r}"
            )
        idx = bisect.bisect_left(self._starts, interval.start)
        self._starts.insert(idx, interval.start)
        self._ends.insert(idx, interval.end)

    def remove(self, interval: Interval) -> None:
        """Remove an exact member interval.

        Raises:
            KeyError: if the exact interval is not a member.
        """
        if interval not in self:
            raise KeyError(f"{interval!r} is not a member of the set")
        idx = bisect.bisect_left(self._starts, interval.start)
        del self._starts[idx]
        del self._ends[idx]

    def earliest_fit(
        self,
        duration: float,
        window: Interval,
        earliest: float = float("-inf"),
    ) -> Optional[float]:
        """Earliest start ``>= max(window.start, earliest)`` of a free gap.

        The returned start time ``s`` guarantees ``[s, s + duration)`` is
        disjoint from every member interval and contained in ``window``.
        Returns ``None`` when no such start exists.

        Args:
            duration: required gap length in seconds (must be >= 0).
            window: bounding availability window (e.g. a virtual link's
                ``[Lst, Let)``).
            earliest: additional lower bound on the start time (e.g. the
                moment the sender holds the data item).
        """
        return self.first_fit(duration, window.start, window.end, earliest)

    def first_fit(
        self,
        duration: float,
        window_start: float,
        window_end: float,
        earliest: float = float("-inf"),
    ) -> Optional[float]:
        """Float-core of :meth:`earliest_fit` (no :class:`Interval` input).

        Identical semantics, but the bounding window arrives as two plain
        floats and the scan reads the parallel ``_starts``/``_ends``
        lists, so the feasibility probes of
        :meth:`~repro.core.state.NetworkState.earliest_transfer` allocate
        nothing when they reject.

        Raises:
            ValueError: if ``duration`` is negative.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        cursor = max(window_start, earliest)
        if cursor + duration > window_end:
            return None
        if duration_is_zero(duration):
            # A zero-length booking overlaps nothing, but its start must
            # still lie *inside* the half-open window: ``window.end`` is
            # not a member of ``[Lst, Let)``, so a cursor clamped to the
            # window's end (or an empty window) yields no fit.
            if cursor >= window_end:
                return None
            return cursor
        starts = self._starts
        ends = self._ends
        count = len(starts)
        # Skip members ending at or before the cursor.
        idx = bisect.bisect_right(starts, cursor)
        if idx > 0 and ends[idx - 1] > cursor:
            # Cursor lands inside a member; move to its end.
            cursor = ends[idx - 1]
        while True:
            if cursor + duration > window_end:
                return None
            if idx >= count:
                return cursor
            member_start = starts[idx]
            if member_start >= cursor + duration:
                return cursor
            member_end = ends[idx]
            if member_end > cursor:
                cursor = member_end
            idx += 1

    def intervals(self) -> Tuple[Interval, ...]:
        """The member intervals in ascending order (immutable snapshot)."""
        return tuple(self)
