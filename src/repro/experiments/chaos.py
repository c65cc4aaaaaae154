"""Robustness study: heuristics under swept fault intensities.

The paper's evaluation asks "which heuristic satisfies the most weighted
requests?" on healthy networks; this study asks how gracefully each
answer degrades when the network misbehaves.  For every intensity in a
sweep a seeded static :class:`~repro.faults.plan.FaultPlan` (outages +
bandwidth degradation; churn is a dynamic-driver concern) is generated
per test case, every registered heuristic runs on the faulted cases
through the normal :class:`~repro.experiments.executor.SweepExecutor`
(so records cache and parallelize like any other sweep), and the report
tabulates mean deadline misses per heuristic with deltas against the
healthy (intensity 0) baseline.

Everything is deterministic: plans derive from ``(scenario, intensity,
seed)``, cells run through the executor's order-preserving grid, and the
rendered report is byte-stable — there is a golden fixture under
``benchmarks/results/ci/`` pinning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.scenario import Scenario
from repro.cost.weights import as_weights
from repro.errors import ConfigurationError
from repro.experiments.executor import (
    SweepCell,
    SweepExecutor,
    ensure_executor,
)
from repro.experiments.tables import render_table
from repro.faults.plan import FaultPlan
from repro.heuristics.registry import heuristic_names

#: Default intensity sweep (0 — the healthy baseline — is always forced in).
DEFAULT_INTENSITIES = (0.0, 0.25, 0.5)


@dataclass(frozen=True)
class ChaosPoint:
    """One (heuristic, intensity) aggregate over all test cases.

    Attributes:
        heuristic: heuristic registry name.
        intensity: the fault intensity of this sweep column.
        mean_misses: mean deadline misses (unsatisfied requests) per case.
        mean_weighted_sum: mean satisfied weighted sum per case.
        miss_delta: ``mean_misses`` minus the heuristic's healthy
            (intensity 0) value — the robustness headline.
    """

    heuristic: str
    intensity: float
    mean_misses: float
    mean_weighted_sum: float
    miss_delta: float


@dataclass(frozen=True)
class ChaosReport:
    """A full robustness sweep: per-heuristic degradation vs. intensity.

    Attributes:
        scale: scale label (informational; "" for ad-hoc scenario lists).
        criterion: criterion name the heuristics ran under.
        log_ratio: the E-U point (``log10(E/U)``).
        cases: number of test cases averaged per point.
        fault_seed: base seed of the generated fault plans.
        intensities: the swept intensities, ascending (0 always present).
        heuristics: heuristic names, in run order.
        points: one :class:`ChaosPoint` per (intensity, heuristic), in
            ``intensities`` × ``heuristics`` order.
        plan_notes: one line per nonzero intensity summarizing the
            injected faults (outage windows / degraded links over all
            cases).
    """

    KIND: ClassVar[str] = "chaos_report"
    SCHEMA_VERSION: ClassVar[int] = 1

    scale: str
    criterion: str
    log_ratio: float
    cases: int
    fault_seed: int
    intensities: Tuple[float, ...]
    heuristics: Tuple[str, ...]
    points: Tuple[ChaosPoint, ...]
    plan_notes: Tuple[str, ...]

    def point(self, heuristic: str, intensity: float) -> ChaosPoint:
        """Look up one aggregate point.

        Raises:
            ConfigurationError: when the pair was not part of the sweep.
        """
        for candidate in self.points:
            if (
                candidate.heuristic == heuristic
                and candidate.intensity == intensity
            ):
                return candidate
        raise ConfigurationError(
            f"no chaos point for heuristic={heuristic!r} "
            f"intensity={intensity!r}"
        )


def normalized_intensities(
    intensities: Sequence[float],
) -> Tuple[float, ...]:
    """Ascending unique intensities with the healthy baseline forced in.

    Raises:
        ConfigurationError: for values outside ``[0, 1]``.
    """
    cleaned = {0.0}
    for value in intensities:
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(
                f"fault intensity must be in [0, 1], got {value}"
            )
        cleaned.add(float(value))
    return tuple(sorted(cleaned))


def run_chaos(
    scenarios: Sequence[Scenario],
    heuristics: Optional[Sequence[str]] = None,
    criterion: str = "C4",
    log_ratio: float = 2.0,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    fault_seed: int = 0,
    executor: Optional[SweepExecutor] = None,
    scale: str = "",
) -> ChaosReport:
    """Sweep fault intensities over scenarios for every heuristic.

    All cells go through one :meth:`SweepExecutor.run_cells` call, so the
    sweep parallelizes across the whole grid and benefits from the run
    cache (fault plans are part of the cell identity).

    Args:
        scenarios: the test cases (≥ 1).
        heuristics: heuristic names; defaults to every registered one.
        criterion: criterion name for all runs.
        log_ratio: the E-U point.
        intensities: fault intensities to sweep; 0 is always included as
            the healthy baseline.
        fault_seed: base seed for plan generation (case ``i`` uses
            ``fault_seed + i``).
        executor: optional executor (a serial cache-less one by default).
        scale: informational scale label for the report.
    """
    if not scenarios:
        raise ConfigurationError("chaos study needs at least one scenario")
    chosen = tuple(heuristics) if heuristics else heuristic_names()
    levels = normalized_intensities(intensities)
    weights = as_weights(log_ratio)
    runner = ensure_executor(executor)

    plans: Dict[float, List[FaultPlan]] = {
        level: [
            FaultPlan.generate(
                scenario, level, seed=fault_seed + case, churn=False
            )
            for case, scenario in enumerate(scenarios)
        ]
        for level in levels
    }
    cells = [
        SweepCell(
            scenario=scenario,
            heuristic=heuristic,
            criterion=criterion,
            weights=weights,
            faults=plans[level][case],
        )
        for level in levels
        for heuristic in chosen
        for case, scenario in enumerate(scenarios)
    ]
    records = runner.run_cells(cells)

    cases = len(scenarios)
    baseline: Dict[str, float] = {}
    points: List[ChaosPoint] = []
    cursor = 0
    for level in levels:
        for heuristic in chosen:
            batch = records[cursor : cursor + cases]
            cursor += cases
            mean_misses = sum(
                scenario.request_count - record.satisfied_count
                for scenario, record in zip(scenarios, batch)
            ) / cases
            mean_weighted = sum(
                record.weighted_sum for record in batch
            ) / cases
            if level == levels[0]:
                baseline[heuristic] = mean_misses
            points.append(
                ChaosPoint(
                    heuristic=heuristic,
                    intensity=level,
                    mean_misses=mean_misses,
                    mean_weighted_sum=mean_weighted,
                    miss_delta=mean_misses - baseline[heuristic],
                )
            )
    notes = tuple(
        f"intensity {level:g}: {sum(len(p.outages) for p in plans[level])} "
        f"outage windows, "
        f"{sum(len(p.degradations) for p in plans[level])} degraded links "
        f"across {cases} cases"
        for level in levels
        if level > 0.0
    )
    return ChaosReport(
        scale=scale,
        criterion=criterion,
        log_ratio=log_ratio,
        cases=cases,
        fault_seed=fault_seed,
        intensities=levels,
        heuristics=chosen,
        points=tuple(points),
        plan_notes=notes,
    )


def render_chaos_report(report: ChaosReport) -> str:
    """The robustness report as an aligned plain-text table.

    One row per intensity; per-heuristic cells show mean deadline misses
    per case with the delta against the healthy baseline in parentheses.
    """
    headers = ["intensity"] + [
        f"{heuristic} misses (Δ)" for heuristic in report.heuristics
    ]
    rows: List[List[str]] = []
    for level in report.intensities:
        row = [f"{level:g}"]
        for heuristic in report.heuristics:
            point = report.point(heuristic, level)
            row.append(
                f"{point.mean_misses:.2f} ({point.miss_delta:+.2f})"
            )
        rows.append(row)
    scale_note = f" scale={report.scale}," if report.scale else ""
    title = (
        f"CHAOS robustness:{scale_note} criterion={report.criterion} @ "
        f"log10(E-U)={report.log_ratio:g}, {report.cases} cases, "
        f"fault seed {report.fault_seed} "
        f"(mean deadline misses per case; Δ vs healthy)"
    )
    lines = [render_table(headers, rows, title=title)]
    lines.extend(report.plan_notes)
    return "\n".join(lines)
