"""Exact work counts: a performance gate that does not depend on the host.

The paper measures runtime by how many times Dijkstra runs (§4.7,
TAB-RT).  Those counts, and the other work counters a
:class:`~repro.observability.metrics.MetricsCollector` keeps, are
deterministic: the same code on the same inputs does the same work on any
machine.  This module pins them exactly for three row sets:

* the 15 healthy cells of the ci scale (``partial``, ``full_one`` and
  ``full_all`` under C4 at log₁₀(E-U)=0, over the 5 ci cases), run
  through :class:`~repro.experiments.executor.SweepExecutor`;
* the same cells under a seeded static fault plan of intensity 0.5;
* one dynamic row: the first 4 reduced scenarios replanned by
  ``DynamicDriver("partial", "C4", 2.0)`` under reveals, churn and copy
  losses, built as the ``online-churn`` benchmark workload builds them.

A change that makes the scheduler search more (a disabled cache, a
broken rebase, a lost no-candidate mark) moves these counts, and so does
one that books differently.  A deliberate change re-pins them: the
failure message prints the measured table as a literal to paste over
:data:`EXPECTED`.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro import (
    CopyLoss,
    DynamicDriver,
    GeneratorConfig,
    ScenarioGenerator,
    reveal_at_item_start,
)
from repro.cost.weights import as_weights
from repro.experiments.executor import SweepCell, SweepExecutor
from repro.experiments.scale import scale_by_name
from repro.faults import FaultPlan, use_faults
from repro.observability import MetricsCollector, RunMetrics
from repro.observability.tracer import use_tracer

#: The pinned ``RunMetrics`` counters, in column order; each row ends
#: with the summed ``dijkstra_runs`` of its runs' engine stats.
COUNTERS = (
    "dijkstra_searches",
    "edge_relaxations",
    "edges_pruned",
    "tree_cache_hits",
    "tree_cache_misses",
    "booking_attempts",
    "decisions",
    "hops_booked",
)
COLUMNS = COUNTERS + ("dijkstra_runs",)

PAIRINGS = (("partial", "C4"), ("full_one", "C4"), ("full_all", "C4"))
FAULT_INTENSITY = 0.5

#: The ``online-churn`` job model on its first 4 scenarios: churn at
#: :data:`FAULT_INTENSITY`, and the share of requests whose destination
#: loses its copy 60 s before the deadline.
DYNAMIC_CASES = 4
LOSS_FRACTION = 0.3
LOSS_LEAD_SECONDS = 60.0

Row = Tuple[int, ...]

EXPECTED: Dict[str, Row] = {
    "healthy full_all/C4": (297, 3607, 178780, 4194, 297, 3607, 258, 404, 297),
    "healthy full_one/C4": (298, 3615, 179301, 4466, 298, 3615, 291, 404, 298),
    "healthy partial/C4": (306, 3725, 184444, 6121, 306, 3725, 404, 404, 306),
    "faulted full_all/C4": (294, 3609, 175097, 3973, 294, 3609, 253, 397, 294),
    "faulted full_one/C4": (294, 3609, 175097, 4237, 294, 3609, 283, 397, 294),
    "faulted partial/C4": (302, 3745, 180336, 5776, 302, 3745, 397, 397, 302),
    "dynamic partial/C4": (1174, 2358, 200318, 216, 1174, 2358, 326, 326, 1174),
}


def _row(metrics: RunMetrics, dijkstra_runs: int) -> Row:
    return tuple(metrics.counter(key) for key in COUNTERS) + (dijkstra_runs,)


def _static_rows(faulted: bool) -> Dict[str, Row]:
    """One row per pairing over the ci cases, healthy or faulted."""
    scale = scale_by_name("ci")
    scenarios = ScenarioGenerator(scale.config).generate_suite(
        scale.cases, scale.base_seed
    )
    cells = [
        SweepCell(
            scenario=scenario,
            heuristic=heuristic,
            criterion=criterion,
            weights=as_weights(0.0),
            faults=(
                FaultPlan.generate(
                    scenario, FAULT_INTENSITY, seed=case, churn=False
                )
                if faulted
                else None
            ),
        )
        for heuristic, criterion in PAIRINGS
        for case, scenario in enumerate(scenarios)
    ]
    with SweepExecutor(metrics=True) as executor:
        records = executor.run_cells(cells)
        metrics = dict(executor.metrics_by_scheduler)
    runs: Dict[str, int] = {}
    for record in records:
        runs[record.scheduler] = (
            runs.get(record.scheduler, 0) + record.dijkstra_runs
        )
    label = "faulted" if faulted else "healthy"
    return {
        f"{label} {scheduler}": _row(metrics[scheduler], runs[scheduler])
        for scheduler in sorted(runs)
    }


def _dynamic_row() -> Dict[str, Row]:
    """The first ``online-churn`` jobs at seed 0, replanned dynamically."""
    scenarios = ScenarioGenerator(GeneratorConfig.reduced()).generate_suite(
        DYNAMIC_CASES, 0
    )
    total = RunMetrics()
    runs = 0
    for index, scenario in enumerate(scenarios):
        plan = FaultPlan.generate(
            scenario, FAULT_INTENSITY, seed=index, churn=True
        )
        late = {arrival.request_id for arrival in plan.late_arrivals}
        events = [
            event
            for event in reveal_at_item_start(scenario)
            if event.request_id not in late
        ]
        events.extend(plan.churn_events())
        rng = random.Random(1000 + index)
        events.extend(
            CopyLoss(
                time=max(request.deadline - LOSS_LEAD_SECONDS, 1.0),
                item_id=request.item_id,
                machine=request.destination,
            )
            for request in scenario.requests
            if rng.random() < LOSS_FRACTION
        )
        collector = MetricsCollector()
        with use_tracer(collector), use_faults(plan.static_only()):
            result = DynamicDriver("partial", "C4", 2.0).run(
                scenario, events
            )
        total = total.merged(collector.finalize())
        runs += result.stats.dijkstra_runs
    return {"dynamic partial/C4": _row(total, runs)}


def _literal(rows: Dict[str, Row]) -> str:
    """``rows`` as the source of :data:`EXPECTED`, one row a line."""
    body = "".join(f'    "{name}": {row},\n' for name, row in rows.items())
    return "EXPECTED: Dict[str, Row] = {\n" + body + "}"


def test_work_counts_are_pinned() -> None:
    measured = {
        **_static_rows(faulted=False),
        **_static_rows(faulted=True),
        **_dynamic_row(),
    }
    moved = []
    for name, row in measured.items():
        expected = EXPECTED.get(name, (0,) * len(COLUMNS))
        changes = [
            f"{column} {old:,} -> {new:,}"
            for column, old, new in zip(COLUMNS, expected, row)
            if old != new
        ]
        if changes:
            moved.append(f"  {name}: " + ", ".join(changes))
    assert measured == EXPECTED, (
        "work counts moved:\n"
        + "\n".join(moved)
        + f"\n\ncolumns: {COLUMNS}\nmeasured table:\n\n"
        + _literal(measured)
    )
