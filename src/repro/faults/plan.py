"""Deterministic fault plans: link outages, degradation, and request churn.

The paper's network is *oversubscribed* by construction, but the base
scenarios are healthy: every link delivers its nominal bandwidth over its
whole availability window and every request survives until its deadline.
A :class:`FaultPlan` describes a reproducible departure from that — the
adversity layer the ROADMAP's "heavy traffic" north star calls for:

* **Outage windows** mask a physical link (all of its virtual links) over
  a time interval.  They are applied through the existing busy-interval
  machinery in :class:`~repro.core.state.NetworkState`, so schedulers
  route around them exactly as they route around contention.
* **Bandwidth degradations** scale a physical link's capacity by a
  factor in ``(0, 1]``, lengthening every transfer that uses it.
* **Cancellations / late arrivals** are *churn*: request-level events
  replayed by :class:`~repro.dynamic.driver.DynamicDriver`.  Static
  scheduling runs (the executor's sweep cells) reject churn-bearing
  plans — only the time-invariant capacity faults compose with a single
  offline schedule.

Plans are value objects: canonically ordered at construction so two
logically equal plans serialize (and fingerprint) byte-identically, and
generated only from seeded :class:`random.Random` instances so the same
``(scenario, intensity, seed)`` triple always yields the same plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.core.intervals import Interval
from repro.core.scenario import Scenario
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dynamic -> core)
    from repro.dynamic.events import Event

#: Schema version for the fault-plan JSON codec (see repro.serialization).
FAULTS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class OutageWindow:
    """Physical link ``physical_id`` carries no traffic in ``[start, end)``."""

    physical_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.physical_id < 0:
            raise ModelError(
                f"outage physical_id must be >= 0, got {self.physical_id}"
            )
        if self.start < 0.0:
            raise ModelError(f"outage start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ModelError(
                f"outage window [{self.start}, {self.end}) is empty"
            )

    @property
    def interval(self) -> Interval:
        """The window as a half-open :class:`Interval`."""
        return Interval(self.start, self.end)


@dataclass(frozen=True)
class BandwidthDegradation:
    """Physical link ``physical_id`` runs at ``factor`` of its bandwidth."""

    physical_id: int
    factor: float

    def __post_init__(self) -> None:
        if self.physical_id < 0:
            raise ModelError(
                f"degradation physical_id must be >= 0, got {self.physical_id}"
            )
        if not 0.0 < self.factor <= 1.0:
            raise ModelError(
                f"degradation factor must be in (0, 1], got {self.factor}"
            )


@dataclass(frozen=True)
class CancellationFault:
    """Request ``request_id`` is withdrawn at ``time`` (dynamic runs only)."""

    request_id: int
    time: float

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ModelError(
                f"cancellation request_id must be >= 0, got {self.request_id}"
            )
        if self.time < 0.0:
            raise ModelError(
                f"cancellation time must be >= 0, got {self.time}"
            )


@dataclass(frozen=True)
class LateArrivalFault:
    """Request ``request_id`` is only revealed at ``time`` (dynamic runs)."""

    request_id: int
    time: float

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ModelError(
                f"late-arrival request_id must be >= 0, got {self.request_id}"
            )
        if self.time < 0.0:
            raise ModelError(
                f"late-arrival time must be >= 0, got {self.time}"
            )


def _merged(intervals: List[Interval]) -> Tuple[Interval, ...]:
    """Merge overlapping/adjacent intervals into a canonical sorted tuple."""
    if not intervals:
        return ()
    ordered = sorted(intervals, key=lambda window: (window.start, window.end))
    merged: List[Interval] = [ordered[0]]
    for window in ordered[1:]:
        last = merged[-1]
        if window.start <= last.end:
            if window.end > last.end:
                merged[-1] = Interval(last.start, window.end)
        else:
            merged.append(window)
    return tuple(merged)


@dataclass(frozen=True)
class FaultPlan:
    """A canonical, hashable description of injected faults.

    Construction normalizes the plan: components are sorted, degradations
    with factor 1.0 (no-ops) are dropped, and per-link outage windows are
    merged — so a zero-intensity plan is *structurally empty* and two
    plans describing the same faults compare and fingerprint equal.
    """

    outages: Tuple[OutageWindow, ...] = ()
    degradations: Tuple[BandwidthDegradation, ...] = ()
    cancellations: Tuple[CancellationFault, ...] = ()
    late_arrivals: Tuple[LateArrivalFault, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        by_link: Dict[int, List[Interval]] = {}
        for outage in self.outages:
            by_link.setdefault(outage.physical_id, []).append(outage.interval)
        canonical_outages = tuple(
            OutageWindow(physical_id, window.start, window.end)
            for physical_id in sorted(by_link)
            for window in _merged(by_link[physical_id])
        )
        kept = [d for d in self.degradations if d.factor < 1.0]
        seen_links = {d.physical_id for d in kept}
        if len(seen_links) != len(kept):
            raise ModelError(
                "at most one bandwidth degradation per physical link"
            )
        canonical_degradations = tuple(
            sorted(kept, key=lambda d: d.physical_id)
        )
        cancelled = {c.request_id for c in self.cancellations}
        if len(cancelled) != len(self.cancellations):
            raise ModelError("at most one cancellation per request")
        late = {a.request_id for a in self.late_arrivals}
        if len(late) != len(self.late_arrivals):
            raise ModelError("at most one late arrival per request")
        object.__setattr__(self, "outages", canonical_outages)
        object.__setattr__(self, "degradations", canonical_degradations)
        object.__setattr__(
            self,
            "cancellations",
            tuple(sorted(self.cancellations, key=lambda c: c.request_id)),
        )
        object.__setattr__(
            self,
            "late_arrivals",
            tuple(sorted(self.late_arrivals, key=lambda a: a.request_id)),
        )

    # -- classification ------------------------------------------------

    def is_empty(self) -> bool:
        """True when applying this plan changes nothing."""
        return not (
            self.outages
            or self.degradations
            or self.cancellations
            or self.late_arrivals
        )

    def has_churn(self) -> bool:
        """True when the plan carries request-level (dynamic-only) faults."""
        return bool(self.cancellations or self.late_arrivals)

    def static_only(self) -> "FaultPlan":
        """The capacity-fault subset that composes with static schedules."""
        if not self.has_churn():
            return self
        return replace(self, cancellations=(), late_arrivals=())

    # -- lookups -------------------------------------------------------

    def outage_intervals(self, physical_id: int) -> Tuple[Interval, ...]:
        """Merged outage intervals for one physical link (maybe empty)."""
        return tuple(
            outage.interval
            for outage in self.outages
            if outage.physical_id == physical_id
        )

    def outages_by_link(self) -> Dict[int, Tuple[Interval, ...]]:
        """:meth:`outage_intervals` of every physical link with an outage,
        keyed by physical link id, from one scan of the plan."""
        grouped: Dict[int, List[Interval]] = {}
        for outage in self.outages:
            grouped.setdefault(outage.physical_id, []).append(outage.interval)
        return {
            physical_id: tuple(intervals)
            for physical_id, intervals in grouped.items()
        }

    def bandwidth_factor(self, physical_id: int) -> float:
        """Capacity multiplier for one physical link (1.0 = healthy)."""
        for degradation in self.degradations:
            if degradation.physical_id == physical_id:
                return degradation.factor
        return 1.0

    def bandwidth_factors(self) -> Dict[int, float]:
        """All sub-1.0 capacity multipliers, keyed by physical link id.

        Construction drops factor-1.0 no-ops, so every entry is a real
        degradation; :class:`~repro.core.state.NetworkState` seeds its
        degradation table from this in one pass instead of probing
        :meth:`bandwidth_factor` per virtual link.
        """
        return {
            degradation.physical_id: degradation.factor
            for degradation in self.degradations
        }

    def label(self) -> str:
        """Short human-readable tag for reports and log lines."""
        if self.name:
            return self.name
        if self.is_empty():
            return "healthy"
        return (
            f"{len(self.outages)}out/{len(self.degradations)}deg/"
            f"{len(self.cancellations)}cxl/{len(self.late_arrivals)}late"
        )

    # -- validation and churn ------------------------------------------

    def check_against(self, scenario: Scenario) -> None:
        """Raise :class:`ModelError` if the plan references unknown ids."""
        known_links = {
            plink.physical_id for plink in scenario.network.physical_links
        }
        for outage in self.outages:
            if outage.physical_id not in known_links:
                raise ModelError(
                    f"fault plan outage references unknown physical link "
                    f"{outage.physical_id}"
                )
        for degradation in self.degradations:
            if degradation.physical_id not in known_links:
                raise ModelError(
                    f"fault plan degradation references unknown physical "
                    f"link {degradation.physical_id}"
                )
        for cancellation in self.cancellations:
            scenario.request(cancellation.request_id)
        for arrival in self.late_arrivals:
            scenario.request(arrival.request_id)

    def churn_events(self) -> Tuple["Event", ...]:
        """The plan's churn as dynamic-driver events (unsorted).

        Late arrivals become :class:`RequestArrival` events, cancellations
        become :class:`RequestCancellation` events; feed the result (plus
        any scenario events) through :func:`repro.dynamic.events.sorted_events`.
        """
        # Imported here: repro.dynamic imports repro.core.state, which in
        # turn reads the ambient fault plan from this package.
        from repro.dynamic.events import RequestArrival, RequestCancellation

        events: List["Event"] = [
            RequestArrival(time=fault.time, request_id=fault.request_id)
            for fault in self.late_arrivals
        ]
        events.extend(
            RequestCancellation(time=fault.time, request_id=fault.request_id)
            for fault in self.cancellations
        )
        return tuple(events)

    # -- generation ----------------------------------------------------

    @staticmethod
    def generate(
        scenario: Scenario,
        intensity: float,
        seed: int = 0,
        churn: bool = True,
    ) -> "FaultPlan":
        """Draw a seeded plan whose severity scales with ``intensity``.

        ``intensity`` is a knob in ``[0, 1]``: 0 yields the empty plan
        (byte-identical to injecting nothing), 1 is heavy adversity —
        most links suffer an outage and deep degradation, and a fair
        share of requests churn.  The draw is fully determined by
        ``(scenario shape, intensity, seed)``; wall clock and global RNG
        state are never consulted.

        Args:
            scenario: the scenario the plan will be applied to.
            intensity: fault severity in ``[0, 1]``.
            seed: RNG seed; same seed, same plan.
            churn: include cancellations/late arrivals (dynamic runs
                only); ``False`` keeps the plan static-safe.
        """
        if not 0.0 <= intensity <= 1.0:
            raise ModelError(
                f"fault intensity must be in [0, 1], got {intensity}"
            )
        name = f"gen(intensity={intensity:g}, seed={seed})"
        if intensity <= 0.0:
            return FaultPlan(name=name)
        rng = random.Random(1_000_003 * seed + round(1000.0 * intensity))
        active = max(
            (request.deadline for request in scenario.requests),
            default=scenario.horizon,
        )
        if active <= 0.0:
            active = scenario.horizon
        outages: List[OutageWindow] = []
        degradations: List[BandwidthDegradation] = []
        for plink in scenario.network.physical_links:
            if rng.random() < 0.6 * intensity:
                length = active * intensity * (0.1 + 0.4 * rng.random())
                start = rng.random() * max(active - length, 0.0)
                outages.append(
                    OutageWindow(plink.physical_id, start, start + length)
                )
            if rng.random() < 0.6 * intensity:
                factor = max(
                    1.0 - intensity * (0.3 + 0.6 * rng.random()), 0.05
                )
                degradations.append(
                    BandwidthDegradation(plink.physical_id, factor)
                )
        cancellations: List[CancellationFault] = []
        late_arrivals: List[LateArrivalFault] = []
        if churn:
            for request in scenario.requests:
                draw = rng.random()
                horizon = max(request.deadline, 0.0)
                if draw < 0.2 * intensity:
                    cancellations.append(
                        CancellationFault(
                            request.request_id, rng.random() * horizon
                        )
                    )
                elif draw < 0.4 * intensity:
                    late_arrivals.append(
                        LateArrivalFault(
                            request.request_id,
                            rng.random() * 0.5 * horizon,
                        )
                    )
        return FaultPlan(
            outages=tuple(outages),
            degradations=tuple(degradations),
            cancellations=tuple(cancellations),
            late_arrivals=tuple(late_arrivals),
            name=name,
        )
