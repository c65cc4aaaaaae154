"""Event-driven re-scheduling over the static heuristics.

:class:`DynamicDriver` simulates the dynamic data-staging situation the
paper defers to future work: requests are revealed over time and copies
can be lost.  At each event instant the driver updates the state (reveals
requests, removes lost copies, reopens affected deliveries) and re-runs
the configured static heuristic restricted to *revealed, unsatisfied*
requests with every new transfer constrained to start at or after the
current instant.

Two design points carried over from the paper:

* transfers already booked are never retracted (§4.5: partial schedules
  remain — "a change in the network could allow the request to be
  satisfied");
* copies still resident in the network (sources, destinations, and γ-held
  intermediates) are what re-serve a destination after a loss — §4.4's
  fault-tolerance rationale; ``benchmarks/bench_dynamic.py`` quantifies the
  recovered value.

Dynamic schedules retract deliveries on losses, so they are scored through
the driver's result.  To check one with
:class:`~repro.core.validation.ScheduleValidator`, pass it the run's
:class:`~repro.dynamic.events.CopyLoss` events (``losses=``) and the static
fault plan the run was made under.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple, Union

from repro.core.evaluation import evaluate_satisfied
from repro.core.units import time_eq
from repro.core.schedule import Schedule, ScheduleEffect
from repro.core.scenario import Scenario
from repro.core.state import NetworkState
from repro.cost.criteria import CostCriterion
from repro.cost.weights import EUWeights
from repro.dynamic.events import (
    CopyLoss,
    Event,
    LinkOutage,
    RequestArrival,
    RequestCancellation,
    sorted_events,
)
from repro.errors import ModelError
from repro.heuristics.base import EngineStats, TreeCache
from repro.heuristics.registry import make_heuristic

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EventOutcome:
    """What one re-scheduling pass did.

    Attributes:
        time: the pass's wall-clock instant.
        revealed: request ids revealed at this instant.
        losses: ``(item_id, machine)`` pairs lost at this instant.
        reopened: previously satisfied request ids reopened by the losses.
        hops_booked: transfers booked by the pass.
        outages: physical link ids failing at this instant.
        cancelled: request ids withdrawn at this instant (churn).
    """

    time: float
    revealed: Tuple[int, ...]
    losses: Tuple[Tuple[int, int], ...]
    reopened: Tuple[int, ...]
    hops_booked: int
    outages: Tuple[int, ...] = ()
    cancelled: Tuple[int, ...] = ()


@dataclass(frozen=True)
class DynamicResult:
    """Outcome of a dynamic simulation.

    Attributes:
        schedule: all transfers booked across every pass (deliveries
            reflect the final, post-loss satisfaction set).
        effect: the final scored satisfaction set.
        outcomes: one record per re-scheduling pass, in time order.
        stats: accumulated engine instrumentation.
    """

    schedule: Schedule
    effect: ScheduleEffect
    outcomes: Tuple[EventOutcome, ...]
    stats: EngineStats

    @property
    def satisfied_request_ids(self) -> Tuple[int, ...]:
        """Finally satisfied requests, ascending."""
        return tuple(sorted(self.schedule.deliveries))


class DynamicDriver:
    """Re-runs a static heuristic at every event instant.

    Args:
        heuristic: heuristic registry name (``partial`` reacts most
            gracefully to churn; any of the three works).
        criterion: criterion name or instance for the inner heuristic.
        weights: E-U weights or raw ``log10`` ratio.

    Each pass gets a fresh tree cache: plans from an earlier "now" are
    never reused.
    """

    def __init__(
        self,
        heuristic: str = "partial",
        criterion: Union[str, CostCriterion] = "C4",
        weights: Union[float, EUWeights] = 2.0,
    ) -> None:
        self._inner = make_heuristic(
            heuristic, criterion=criterion, weights=weights
        )

    def label(self) -> str:
        """Run label, e.g. ``"dynamic(partial/C4)"``."""
        return f"dynamic({self._inner.label()})"

    def run(
        self, scenario: Scenario, events: Sequence[Event]
    ) -> DynamicResult:
        """Simulate the event sequence over one scenario.

        Requests without a :class:`RequestArrival` event are treated as
        known at t=0 (the static subset).

        Raises:
            ModelError: for events referencing unknown requests/items.
        """
        self._check_events(scenario, events)
        started = time.perf_counter()
        stats = EngineStats()
        state = NetworkState(scenario, schedule_name=self.label())
        arrival_times: Dict[int, float] = {}
        for event in events:
            if isinstance(event, RequestArrival):
                arrival_times[event.request_id] = event.time
        revealed: Set[int] = {
            request.request_id
            for request in scenario.requests
            if request.request_id not in arrival_times
        }
        withdrawn: Set[int] = set()
        outcomes: List[EventOutcome] = []

        # Pass 0: everything known at the start.
        outcomes.append(
            self._pass(state, stats, revealed, now=0.0,
                       newly_revealed=tuple(sorted(revealed)),
                       losses=(), reopened=())
        )

        ordered = sorted_events(events)
        index = 0
        while index < len(ordered):
            now = ordered[index].time
            newly_revealed: List[int] = []
            losses: List[Tuple[int, int]] = []
            reopened: List[int] = []
            outages: List[int] = []
            cancelled: List[int] = []
            while index < len(ordered) and time_eq(ordered[index].time, now):
                event = ordered[index]
                if isinstance(event, RequestArrival):
                    # A cancellation that precedes the arrival (or shares
                    # its instant — arrivals sort first) suppresses it.
                    if event.request_id not in withdrawn:
                        revealed.add(event.request_id)
                        newly_revealed.append(event.request_id)
                elif isinstance(event, LinkOutage):
                    self._apply_outage(state, event)
                    outages.append(event.physical_id)
                elif isinstance(event, RequestCancellation):
                    # Deliveries that already happened stand; an
                    # undelivered request simply stops being scheduled.
                    withdrawn.add(event.request_id)
                    revealed.discard(event.request_id)
                    cancelled.append(event.request_id)
                    if state.tracer.enabled:
                        state.tracer.emit(
                            "request_cancelled",
                            event.request_id, event.time
                        )
                else:
                    reopened.extend(
                        self._apply_loss(state, event)
                    )
                    losses.append((event.item_id, event.machine))
                index += 1
            outcomes.append(
                self._pass(
                    state,
                    stats,
                    revealed,
                    now=now,
                    newly_revealed=tuple(newly_revealed),
                    losses=tuple(losses),
                    reopened=tuple(reopened),
                    outages=tuple(outages),
                    cancelled=tuple(cancelled),
                )
            )
        stats.elapsed_seconds = time.perf_counter() - started
        effect = evaluate_satisfied(
            scenario, state.schedule.satisfied_request_ids()
        )
        return DynamicResult(
            schedule=state.schedule,
            effect=effect,
            outcomes=tuple(outcomes),
            stats=stats,
        )

    # -- internals ----------------------------------------------------------

    def _pass(
        self,
        state: NetworkState,
        stats: EngineStats,
        revealed: Set[int],
        now: float,
        newly_revealed: Tuple[int, ...],
        losses: Tuple[Tuple[int, int], ...],
        reopened: Tuple[int, ...],
        outages: Tuple[int, ...] = (),
        cancelled: Tuple[int, ...] = (),
    ) -> EventOutcome:
        visible = frozenset(revealed)

        def request_filter(request) -> bool:
            return request.request_id in visible

        cache = TreeCache(state, stats, not_before=now)
        before = stats.hops_booked
        self._inner.drain(state, cache, stats, request_filter=request_filter)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "pass at t=%.1f: +%d revealed, %d losses, %d outages, "
                "%d reopened, %d hops booked",
                now,
                len(newly_revealed),
                len(losses),
                len(outages),
                len(reopened),
                stats.hops_booked - before,
            )
        return EventOutcome(
            time=now,
            revealed=newly_revealed,
            losses=losses,
            reopened=reopened,
            hops_booked=stats.hops_booked - before,
            outages=outages,
            cancelled=cancelled,
        )

    @staticmethod
    def _apply_outage(state: NetworkState, event: LinkOutage) -> None:
        """Cut every virtual link of the failing facility from the event."""
        for vlink in state.scenario.network.virtual_links:
            if vlink.physical_id == event.physical_id:
                if event.time < state.link_cutoff(vlink.link_id):
                    state.disable_link_from(vlink.link_id, event.time)

    def _apply_loss(
        self, state: NetworkState, event: CopyLoss
    ) -> List[int]:
        """Remove the copy if present; reopen an affected delivery."""
        reopened: List[int] = []
        copy = state.copy_at(event.item_id, event.machine)
        if copy is None or not (
            copy.available_from <= event.time < copy.release
        ):
            # The copy never materialized (or is already gone) — the loss
            # event is a no-op, as in a real system.
            return reopened
        state.remove_copy(event.item_id, event.machine, event.time)
        for request in state.scenario.requests_for_item(event.item_id):
            if (
                request.destination == event.machine
                and state.is_satisfied(request.request_id)
            ):
                state.reopen_request(request.request_id)
                reopened.append(request.request_id)
        return reopened

    @staticmethod
    def _check_events(
        scenario: Scenario, events: Sequence[Event]
    ) -> None:
        seen_arrivals: Set[int] = set()
        seen_cancellations: Set[int] = set()
        for event in events:
            if isinstance(event, RequestArrival):
                scenario.request(event.request_id)  # raises on unknown ids
                if event.request_id in seen_arrivals:
                    raise ModelError(
                        f"request {event.request_id} has two arrival events"
                    )
                seen_arrivals.add(event.request_id)
            elif isinstance(event, CopyLoss):
                scenario.item(event.item_id)
                if event.machine >= scenario.network.machine_count:
                    raise ModelError(
                        f"loss event references unknown machine "
                        f"{event.machine}"
                    )
            elif isinstance(event, LinkOutage):
                known = {
                    plink.physical_id
                    for plink in scenario.network.physical_links
                }
                if event.physical_id not in known:
                    raise ModelError(
                        f"outage event references unknown physical link "
                        f"{event.physical_id}"
                    )
            elif isinstance(event, RequestCancellation):
                scenario.request(event.request_id)
                if event.request_id in seen_cancellations:
                    raise ModelError(
                        f"request {event.request_id} has two cancellation "
                        f"events"
                    )
                seen_cancellations.add(event.request_id)
            else:  # pragma: no cover - typing guard
                raise ModelError(f"unknown event type: {event!r}")


def reveal_at_item_start(scenario: Scenario) -> Tuple[RequestArrival, ...]:
    """A natural arrival process: each request revealed when its item
    becomes available at its sources (before that, nobody could know the
    item exists)."""
    return tuple(
        RequestArrival(
            time=scenario.item(request.item_id).earliest_availability(),
            request_id=request.request_id,
        )
        for request in scenario.requests
    )
