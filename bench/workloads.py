"""The benchmark's three workloads and the job runner that drives them.

Every workload is a closed loop: one client in one process runs its jobs
one after another, and the next job starts only when the previous one has
returned.  Jobs reach the scheduler through the public API only —
``make_heuristic(...).run``, ``DynamicDriver.run`` and ``use_faults`` — and
never pass ``use_compiled``, ``use_tree_cache`` or a tracer.

The static workloads run a fixed scenario corpus in a fixed order: the
figures they reproduce are defined on one corpus, and a scenario's cost
varies up to fivefold with its draw, so a seeded corpus would swamp any
change in the code.  On ``online-churn`` the seed draws every fault plan
and copy loss.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import (
    CopyLoss,
    DynamicDriver,
    GeneratorConfig,
    Scenario,
    ScenarioGenerator,
    Schedule,
    StagingHeuristic,
    evaluate_schedule,
    make_heuristic,
    paper_pairings,
    reveal_at_item_start,
)
from repro.cost import EUWeights
from repro.experiments import CI_LOG_RATIOS
from repro.faults import FaultPlan, use_faults

WORKLOADS = ("figures-ci", "paper-load", "online-churn")

#: Fault severity and copy-loss model of ``online-churn`` (ABL-D2's losses:
#: 30% of destinations lose their copy 60 s before the deadline).
CHURN_INTENSITY = 0.5
LOSS_FRACTION = 0.3
LOSS_LEAD_SECONDS = 60.0

#: A ``time.perf_counter`` interval.
Span = Tuple[float, float]


@dataclass(frozen=True)
class Job:
    """One scheduling call: a static run, or a dynamic run when ``events``
    is not ``None``."""

    job_id: str
    scenario: Scenario
    heuristic: str
    criterion: str
    log_ratio: float
    events: Optional[tuple] = None
    faults: Optional[FaultPlan] = None

    @property
    def cell(self) -> Tuple[str, str]:
        """The figure cell the job feeds: ``("partial/C4", "0")``."""
        label = EUWeights.from_log_ratio(self.log_ratio).label()
        return f"{self.heuristic}/{self.criterion}", label


@dataclass
class Outcome:
    """What one job produced, or the error it raised.

    ``span`` is the job's ``perf_counter`` interval; ``calls`` holds one
    interval per scheduling call the user waits on: the whole run for a
    static job, every replanning pass (``drain`` call) for a dynamic one.
    """

    job_id: str
    span: Span = (0.0, 0.0)
    calls: List[Span] = field(default_factory=list)
    schedule: Optional[Schedule] = None
    digest: str = ""
    weighted_sum: float = 0.0
    weighted_total: float = 0.0
    satisfied: int = 0
    total: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    error: str = ""


def build_jobs(workload: str, seed: int) -> Tuple[List[Job], Dict[str, float]]:
    """The workload's jobs in run order, and the seconds spent generating
    scenarios (``workload.generate_s``) and then building the jobs with
    their fault plans and events (``faults.generate_s``; on the static
    workloads, only the job list).

    Raises:
        ValueError: for an unknown workload name.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    started = time.perf_counter()
    if workload == "paper-load":
        scenarios = ScenarioGenerator(GeneratorConfig.paper()).generate_suite(8, 0)
    else:
        count = 5 if workload == "figures-ci" else 24
        scenarios = ScenarioGenerator(GeneratorConfig.reduced()).generate_suite(
            count, 0
        )
    generated = time.perf_counter()
    if workload == "figures-ci":
        jobs = [
            Job(f"{s.name}/{h}/{c}/{r}", s, h, c, r)
            for s in scenarios
            for h, c in paper_pairings()
            for r in CI_LOG_RATIOS
        ]
    elif workload == "paper-load":
        jobs = [
            Job(f"{s.name}/{h}/C4/0.0", s, h, "C4", 0.0)
            for s in scenarios
            for h in ("partial", "full_one", "full_all")
        ]
    else:
        jobs = [
            _churn_job(scenario, seed, index)
            for index, scenario in enumerate(scenarios)
        ]
    timings = {
        "workload.generate_s": generated - started,
        "faults.generate_s": time.perf_counter() - generated,
    }
    return jobs, timings


def _churn_job(scenario: Scenario, seed: int, index: int) -> Job:
    """A dynamic job: reveals at item start, seeded churn, and losses.

    A late arrival replaces its request's reveal event; the plan's static
    part (outages, degradations) is installed around the run.
    """
    plan = FaultPlan.generate(
        scenario, CHURN_INTENSITY, seed=1000 * seed + index, churn=True
    )
    late = {arrival.request_id for arrival in plan.late_arrivals}
    events = [
        event
        for event in reveal_at_item_start(scenario)
        if event.request_id not in late
    ]
    events.extend(plan.churn_events())
    rng = random.Random(1000 * (seed + 1) + index)
    events.extend(
        CopyLoss(
            time=max(request.deadline - LOSS_LEAD_SECONDS, 1.0),
            item_id=request.item_id,
            machine=request.destination,
        )
        for request in scenario.requests
        if rng.random() < LOSS_FRACTION
    )
    return Job(
        scenario.name,
        scenario,
        "partial",
        "C4",
        2.0,
        events=tuple(events),
        faults=plan.static_only(),
    )


@contextmanager
def drain_timer(spans: List[Span]) -> Iterator[None]:
    """Append the ``perf_counter`` span of every replanning pass.

    Two clock reads per pass, at the boundary the user waits on; the
    passes themselves run unwrapped.
    """
    original = StagingHeuristic.drain
    clock = time.perf_counter

    def drain(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        started = clock()
        try:
            return original(self, *args, **kwargs)
        finally:
            spans.append((started, clock()))

    StagingHeuristic.drain = drain  # type: ignore[method-assign]
    try:
        yield
    finally:
        StagingHeuristic.drain = original  # type: ignore[method-assign]


def run_job(job: Job, drain_spans: List[Span]) -> Outcome:
    """Run one job; an exception becomes ``Outcome.error``, not a crash.

    ``drain_spans`` receives the span of every replanning pass while
    :func:`drain_timer` is installed.
    """
    mark = len(drain_spans)
    try:
        started = time.perf_counter()
        if job.events is None:
            result = make_heuristic(
                job.heuristic, job.criterion, job.log_ratio
            ).run(job.scenario)
        else:
            with use_faults(job.faults):
                result = DynamicDriver(
                    job.heuristic, job.criterion, job.log_ratio
                ).run(job.scenario, job.events)
        span = (started, time.perf_counter())
    except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
        return Outcome(job.job_id, error=traceback.format_exc())
    if job.events is None:
        effect = evaluate_schedule(job.scenario, result.schedule)
        calls = [span]
    else:
        effect = result.effect
        calls = drain_spans[mark:]
    stats = result.stats
    return Outcome(
        job_id=job.job_id,
        span=span,
        calls=calls,
        schedule=result.schedule,
        digest=schedule_digest(result.schedule),
        weighted_sum=effect.weighted_sum,
        weighted_total=sum(
            job.scenario.weighting.weight(request.priority)
            for request in job.scenario.requests
        ),
        satisfied=effect.satisfied_count,
        total=effect.total_count,
        stats={
            name: getattr(stats, name)
            for name in (
                "iterations",
                "hops_booked",
                "cache_hits",
                "revalidations",
            )
            if hasattr(stats, name)
        },
    )


def schedule_digest(schedule: Schedule) -> str:
    """A short hash of every booked step and delivery, floats exact."""
    digest = hashlib.sha256()
    for step in schedule.steps:
        digest.update(
            f"{step.item_id},{step.source},{step.destination},"
            f"{step.link_id},{step.start!r},{step.end!r};".encode()
        )
    for request_id, delivery in sorted(schedule.deliveries.items()):
        digest.update(
            f"{request_id},{delivery.arrival!r},{delivery.hops};".encode()
        )
    return digest.hexdigest()[:16]
