"""Piecewise-constant capacity timelines — the model's ``Cap[i](t)``.

A :class:`CapacityTimeline` tracks one machine's *free* storage capacity as a
step function of time.  Reserving storage for a data-item copy subtracts the
item's size over the copy's residency interval; because garbage collection
times are known at booking time (``latest deadline + γ``), a reservation is
always a *finite* interval and no separate release operation is needed.

The representation is a sorted list of breakpoints ``(t, free)`` meaning the
free capacity equals ``free`` from ``t`` (inclusive) until the next
breakpoint.  The first breakpoint is always ``(-inf, initial_capacity)`` so
queries before any reservation are well-defined.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from repro.core.intervals import Interval
from repro.core.units import size_is_zero, time_eq
from repro.errors import CapacityError


class CapacityTimeline:
    """Free-capacity step function with interval reservations.

    Args:
        capacity: the machine's total storage capacity in bytes; this is the
            initial free capacity at every instant.

    Raises:
        ValueError: if ``capacity`` is negative.
    """

    __slots__ = ("_capacity", "_times", "_values")

    def __init__(self, capacity: float) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self._times: List[float] = [float("-inf")]
        self._values: List[float] = [capacity]

    @property
    def capacity(self) -> float:
        """The machine's total storage capacity in bytes."""
        return self._capacity

    def copy(self) -> "CapacityTimeline":
        """An independent deep copy."""
        clone = CapacityTimeline.__new__(CapacityTimeline)
        clone._capacity = self._capacity
        clone._times = list(self._times)
        clone._values = list(self._values)
        return clone

    def columns(self) -> Tuple[List[float], List[float]]:
        """The live ``(times, values)`` lists, updated in place; read only."""
        return self._times, self._values

    def free_at(self, t: float) -> float:
        """Free capacity at instant ``t``."""
        idx = bisect.bisect_right(self._times, t) - 1
        return self._values[idx]

    def min_free(self, interval: Interval) -> float:
        """Minimum free capacity over the half-open ``interval``.

        An empty interval imposes no constraint and reports the total
        capacity.
        """
        return self.min_free_span(interval.start, interval.end)

    def min_free_span(self, start: float, end: float) -> float:
        """Float-core of :meth:`min_free` over half-open ``[start, end)``.

        Both breakpoints bounding the span are found by bisection, so the
        walk touches exactly the segments intersecting the span and the
        hot feasibility probes need not build an :class:`Interval`.
        """
        if end <= start:
            return self._capacity
        times = self._times
        values = self._values
        lo = bisect.bisect_right(times, start) - 1
        hi = bisect.bisect_left(times, end, lo + 1)
        minimum = values[lo]
        for idx in range(lo + 1, hi):
            value = values[idx]
            if value < minimum:
                minimum = value
        return minimum

    def can_reserve(self, amount: float, interval: Interval) -> bool:
        """True if ``amount`` bytes are free throughout ``interval``."""
        return self.can_reserve_span(amount, interval.start, interval.end)

    def can_reserve_span(self, amount: float, start: float, end: float) -> bool:
        """Float-core of :meth:`can_reserve` (no :class:`Interval` input)."""
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        return self.min_free_span(start, end) >= amount

    def next_sufficient_start(
        self, amount: float, start: float, release: float
    ) -> Optional[float]:
        """Smallest ``t > start`` with ``amount`` free throughout ``[t, release)``.

        Later starts only shrink the residency interval, so the answer is
        the end of the *last* timeline segment intersecting
        ``[start, release)`` whose free capacity is below ``amount``.
        Returns ``None`` when that deficiency extends up to ``release``
        itself (no start can help).  Callers invoke this only after
        :meth:`can_reserve_span` failed, so a deficient segment always
        exists.
        """
        times = self._times
        values = self._values
        count = len(times)
        lo = bisect.bisect_right(times, start) - 1
        hi = bisect.bisect_left(times, release, lo + 1)
        last_deficient_end: Optional[float] = None
        for idx in range(lo, hi):
            if values[idx] >= amount:
                continue
            last_deficient_end = (
                times[idx + 1] if idx + 1 < count else float("inf")
            )
        if last_deficient_end is None or last_deficient_end >= release:
            return None
        return last_deficient_end

    def reserve(self, amount: float, interval: Interval) -> None:
        """Subtract ``amount`` bytes of free capacity over ``interval``.

        Raises:
            CapacityError: if the reservation would drive free capacity
                negative anywhere in the interval; the timeline is unchanged.
            ValueError: if ``amount`` is negative.
        """
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        if size_is_zero(amount) or interval.is_empty():
            return
        if not self.can_reserve(amount, interval):
            raise CapacityError(
                f"cannot reserve {amount} bytes over {interval!r}: "
                f"minimum free is {self.min_free(interval)}"
            )
        self.subtract_free(amount, interval.start, interval.end)

    def subtract_free(self, amount: float, start: float, end: float) -> None:
        """Float-core of :meth:`reserve` for a span the caller has already
        found free enough (:meth:`can_reserve_span`); it is not checked
        again.  A zero amount or an empty span changes nothing."""
        if size_is_zero(amount) or end <= start:
            return
        self._ensure_breakpoint(start)
        self._ensure_breakpoint(end)
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        for idx in range(lo, hi):
            self._values[idx] -= amount

    def release(self, amount: float, interval: Interval) -> None:
        """Add back ``amount`` bytes of free capacity over ``interval``.

        Only used when undoing a prior reservation (e.g. speculative booking
        in the random baselines).  Free capacity is allowed to exceed the
        total capacity only transiently inside paired reserve/release misuse;
        we clamp-check to catch that bug class.

        Raises:
            ValueError: if releasing would push free capacity above the
                machine's total capacity (indicates an unmatched release).
        """
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        if size_is_zero(amount) or interval.is_empty():
            return
        self._ensure_breakpoint(interval.start)
        self._ensure_breakpoint(interval.end)
        lo = bisect.bisect_left(self._times, interval.start)
        hi = bisect.bisect_left(self._times, interval.end)
        # Reserving then releasing can round past capacity by its ulp.
        limit = self._capacity * (1.0 + 1e-12) + 1e-6
        for idx in range(lo, hi):
            if self._values[idx] + amount > limit:
                raise ValueError(
                    "release exceeds total capacity: unmatched release of "
                    f"{amount} bytes over {interval!r}"
                )
        for idx in range(lo, hi):
            self._values[idx] += amount

    def breakpoints(self) -> Tuple[Tuple[float, float], ...]:
        """Snapshot of ``(time, free_capacity)`` breakpoints, ascending."""
        return tuple(zip(self._times, self._values))

    def _ensure_breakpoint(self, t: float) -> None:
        """Split the step function at ``t`` without changing its value."""
        idx = bisect.bisect_right(self._times, t) - 1
        if time_eq(self._times[idx], t):
            return
        self._times.insert(idx + 1, t)
        self._values.insert(idx + 1, self._values[idx])

    def __repr__(self) -> str:
        steps = ", ".join(
            f"{t:g}:{v:g}" for t, v in zip(self._times, self._values)
        )
        return f"CapacityTimeline(capacity={self._capacity:g}, [{steps}])"
