"""Single-run execution records for the simulation study.

A :class:`RunRecord` is one (scenario, scheduler, E-U point) measurement:
the achieved weighted priority sum, per-class satisfaction counts, and the
engine instrumentation (steps, Dijkstra executions, wall time, links
traversed).  Everything the figure/table producers need is derived from
these records.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple, Union

from repro.core.evaluation import evaluate_schedule
from repro.core.scenario import Scenario
from repro.cost.criteria import CostCriterion
from repro.cost.weights import EUWeights, as_weights
from repro.heuristics.base import HeuristicResult
from repro.heuristics.registry import make_heuristic
from repro.observability.metrics import RunMetrics
from repro.observability.profiling import Profile
from repro.observability.timeline import Timeline


@dataclass(frozen=True)
class RunRecord:
    """One scheduler execution on one scenario.

    Attributes:
        scenario: the scenario's name.
        scheduler: the scheduler label (e.g. ``"partial/C4"``).
        eu_label: the E-U sweep point (``"-inf"``..``"inf"``), or ``"-"``
            for E-U-independent schedulers.
        weighted_sum: the achieved ``-E[S_h]``.
        satisfied_by_priority: satisfied request count per priority class.
        total_by_priority: total request count per priority class.
        steps: communication steps booked.
        dijkstra_runs: shortest-path-tree computations performed.
        elapsed_seconds: wall-clock scheduling time.
        average_hops: mean links traversed per satisfied request.
        cache_hit: ``True`` when the record was replayed from the on-disk
            run cache instead of being computed; ``elapsed_seconds`` then
            reports the *original* run's timing, not this process's.
        metrics: optional observability aggregate for the run; populated
            only when metrics collection was requested, and — like
            timing — excluded from result identity.
        profile: optional per-phase span profile for the run; populated
            only when profiling was requested, and — like timing —
            excluded from result identity.  Cache replays restore the
            *original* run's profile.
        timeline: optional simulated-time telemetry document for the
            run; populated only when timeline collection was requested,
            and — like timing — excluded from result identity.  Cache
            replays restore the *original* run's timeline (simulated
            time is deterministic, so the replayed document is
            byte-identical to a recompute).
    """

    KIND: ClassVar[str] = "run_record"
    SCHEMA_VERSION: ClassVar[int] = 1

    scenario: str
    scheduler: str
    eu_label: str
    weighted_sum: float
    satisfied_by_priority: Tuple[int, ...]
    total_by_priority: Tuple[int, ...]
    steps: int
    dijkstra_runs: int
    elapsed_seconds: float
    average_hops: float
    cache_hit: bool = False
    metrics: Optional[RunMetrics] = None
    profile: Optional[Profile] = None
    timeline: Optional[Timeline] = None

    @property
    def satisfied_count(self) -> int:
        """Total satisfied requests."""
        return sum(self.satisfied_by_priority)

    def without_timing(self) -> "RunRecord":
        """A copy with timing and provenance fields neutralized.

        Wall time varies run to run (and is replayed from the original
        run on cache hits), so differential comparisons — serial versus
        parallel, computed versus cached — compare these copies.
        """
        return dataclasses.replace(
            self,
            elapsed_seconds=0.0,
            cache_hit=False,
            metrics=None,
            profile=None,
            timeline=None,
        )


def record_result(
    scenario: Scenario,
    result: HeuristicResult,
    scheduler: str,
    eu_label: str = "-",
    metrics: Optional[RunMetrics] = None,
    profile: Optional[Profile] = None,
    timeline: Optional[Timeline] = None,
) -> RunRecord:
    """Convert a finished :class:`HeuristicResult` into a record."""
    effect = evaluate_schedule(scenario, result.schedule)
    return RunRecord(
        scenario=scenario.name,
        scheduler=scheduler,
        eu_label=eu_label,
        weighted_sum=effect.weighted_sum,
        satisfied_by_priority=effect.satisfied_by_priority,
        total_by_priority=effect.total_by_priority,
        steps=result.schedule.step_count,
        dijkstra_runs=result.stats.dijkstra_runs,
        elapsed_seconds=result.stats.elapsed_seconds,
        average_hops=result.schedule.average_hops_per_delivery(),
        metrics=metrics,
        profile=profile,
        timeline=timeline,
    )


def run_pair(
    scenario: Scenario,
    heuristic: str,
    criterion: Union[str, CostCriterion] = "C4",
    weights: Union[float, EUWeights] = 0.0,
) -> RunRecord:
    """Run one heuristic/criterion pair on one scenario.

    Args:
        scenario: the problem instance.
        heuristic: heuristic registry name.
        criterion: criterion registry name or instance.
        weights: E-U weights or raw ``log10`` ratio.
    """
    eu = as_weights(weights)
    scheduler = make_heuristic(heuristic, criterion=criterion, weights=eu)
    result = scheduler.run(scenario)
    label = (
        "-" if scheduler.criterion.eu_independent else eu.label()
    )
    return record_result(
        scenario, result, scheduler=scheduler.label(), eu_label=label
    )


def run_scheduler(
    scenario: Scenario,
    scheduler,
    eu_label: str = "-",
    label: Optional[str] = None,
) -> RunRecord:
    """Run any object exposing ``run(scenario)`` and ``label()``."""
    result = scheduler.run(scenario)
    return record_result(
        scenario,
        result,
        scheduler=label if label is not None else scheduler.label(),
        eu_label=eu_label,
    )
