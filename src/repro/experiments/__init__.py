"""Experiment harness: runs, sweeps, aggregation, figure/table producers.

The names below load their submodule on first use (PEP 562), so importing
one of them loads only what it needs: :data:`CI_LOG_RATIOS` does not load
the process-pool executor.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

if TYPE_CHECKING:
    from repro.experiments.aggregate import (
        Aggregate,
        aggregate_records,
        mean_by_scheduler,
        per_priority_totals,
        stddev,
    )
    from repro.experiments.congestion import (
        EXTENDED_WEIGHTINGS,
        CongestionPoint,
        WeightingPoint,
        congestion_sweep,
        weighting_sweep,
    )
    from repro.experiments.crossover import (
        Crossover,
        SeriesPeak,
        figure_peaks,
        find_crossovers,
        ratio_sensitivity,
        series_peak,
    )
    from repro.experiments.executor import (
        CACHE_FORMAT_VERSION,
        CELL_KINDS,
        ExecutorStats,
        RunCache,
        SweepCell,
        SweepExecutor,
        SweepSummary,
        ensure_executor,
    )
    from repro.experiments.figures import (
        FIGURE_CRITERIA,
        FigureData,
        Series,
        figure2,
        heuristic_figure,
    )
    from repro.experiments.report import (
        REPORT_SECTIONS,
        ReportSection,
        build_report,
    )
    from repro.experiments.runner import (
        RunRecord,
        record_result,
        run_pair,
        run_scheduler,
    )
    from repro.experiments.scale import (
        CI_LOG_RATIOS,
        SCALE_ENV_VAR,
        ExperimentScale,
        current_scale,
        scale_by_name,
    )
    from repro.experiments.studies import (
        RuntimeRow,
        TierComparison,
        WeightingOutcome,
        priority_tier_comparison,
        regenerate_under_weighting,
        runtime_study,
        weighting_comparison,
    )
    from repro.experiments.sweep import (
        resolve_ratios,
        sweep_all_criteria,
        sweep_pair,
    )
    from repro.experiments.tables import (
        render_figure,
        render_minmax,
        render_table,
    )

#: Each submodule and the names it exports here.
_SUBMODULES: Dict[str, Tuple[str, ...]] = {
    "aggregate": (
        "Aggregate", "aggregate_records", "mean_by_scheduler",
        "per_priority_totals", "stddev",
    ),
    "congestion": (
        "EXTENDED_WEIGHTINGS", "CongestionPoint", "WeightingPoint",
        "congestion_sweep", "weighting_sweep",
    ),
    "crossover": (
        "Crossover", "SeriesPeak", "figure_peaks", "find_crossovers",
        "ratio_sensitivity", "series_peak",
    ),
    "executor": (
        "CACHE_FORMAT_VERSION", "CELL_KINDS", "ExecutorStats", "RunCache",
        "SweepCell", "SweepExecutor", "SweepSummary", "ensure_executor",
    ),
    "figures": (
        "FIGURE_CRITERIA", "FigureData", "Series", "figure2",
        "heuristic_figure",
    ),
    "report": ("REPORT_SECTIONS", "ReportSection", "build_report"),
    "runner": ("RunRecord", "record_result", "run_pair", "run_scheduler"),
    "scale": (
        "CI_LOG_RATIOS", "SCALE_ENV_VAR", "ExperimentScale", "current_scale",
        "scale_by_name",
    ),
    "studies": (
        "RuntimeRow", "TierComparison", "WeightingOutcome",
        "priority_tier_comparison", "regenerate_under_weighting",
        "runtime_study", "weighting_comparison",
    ),
    "sweep": ("resolve_ratios", "sweep_all_criteria", "sweep_pair"),
    "tables": ("render_figure", "render_minmax", "render_table"),
}

#: Each exported name and the submodule that defines it.
_HOMES = {
    name: module for module, names in _SUBMODULES.items() for name in names
}


def __getattr__(name: str) -> Any:
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "Aggregate",
    "CACHE_FORMAT_VERSION",
    "CELL_KINDS",
    "CI_LOG_RATIOS",
    "CongestionPoint",
    "Crossover",
    "EXTENDED_WEIGHTINGS",
    "ExecutorStats",
    "ExperimentScale",
    "FIGURE_CRITERIA",
    "FigureData",
    "RunCache",
    "SweepCell",
    "SweepExecutor",
    "SweepSummary",
    "REPORT_SECTIONS",
    "ReportSection",
    "RunRecord",
    "RuntimeRow",
    "SCALE_ENV_VAR",
    "Series",
    "SeriesPeak",
    "TierComparison",
    "WeightingOutcome",
    "WeightingPoint",
    "aggregate_records",
    "build_report",
    "congestion_sweep",
    "current_scale",
    "ensure_executor",
    "figure2",
    "figure_peaks",
    "find_crossovers",
    "heuristic_figure",
    "mean_by_scheduler",
    "per_priority_totals",
    "priority_tier_comparison",
    "ratio_sensitivity",
    "record_result",
    "regenerate_under_weighting",
    "render_figure",
    "render_minmax",
    "render_table",
    "resolve_ratios",
    "run_pair",
    "run_scheduler",
    "runtime_study",
    "scale_by_name",
    "series_peak",
    "stddev",
    "sweep_all_criteria",
    "sweep_pair",
    "weighting_comparison",
    "weighting_sweep",
]
