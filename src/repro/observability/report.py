"""Plain-text rendering of collected scheduler metrics and timelines.

Four renderers, all returning aligned ASCII tables (via the same
:func:`~repro.experiments.tables.render_table` the figure output uses):

* :func:`render_run_metrics` — one aggregate's counters, rejection
  reasons, tree-cache outcome tallies, and timing summaries;
* :func:`render_scheduler_summaries` — one row per scheduler label
  (bookings, attempts, rejection rate, search effort, cache behavior);
* :func:`render_link_utilization` — the busiest virtual links with their
  mean per-run busy time and utilization fraction;
* :func:`render_timeline` — one simulated-time telemetry document's
  digest (saturation, per-class outcomes, worst-off requests).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.observability.metrics import RunMetrics
from repro.observability.timeline import Timeline


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Delegate to the shared ASCII renderer (imported lazily).

    The import happens at call time because :mod:`repro.experiments`
    imports this package back for metrics collection; a module-level
    import would be circular.
    """
    from repro.experiments.tables import render_table as render

    return render(headers, rows, title=title)


def _rate(part: int, whole: int) -> str:
    if whole <= 0:
        return "-"
    return f"{100.0 * part / whole:.1f}%"


def render_run_metrics(metrics: RunMetrics, title: str = "metrics") -> str:
    """One aggregate's counters and timings as a two-column table."""
    rows = [
        [key, str(metrics.counter(key))]
        for key in sorted(metrics.counters)
    ]
    for reason in sorted(metrics.rejection_reasons):
        rows.append(
            [f"reason:{reason}", str(metrics.rejection_reasons[reason])]
        )
    for reason in sorted(metrics.tree_cache_reasons):
        rows.append(
            [
                f"tree_cache:{reason}",
                str(metrics.tree_cache_reasons[reason]),
            ]
        )
    decision = metrics.decision_seconds
    if decision.count:
        rows.append(
            ["decision_mean_ms", f"{decision.mean * 1000.0:.3f}"]
        )
        rows.append(["decision_max_ms", f"{decision.max * 1000.0:.3f}"])
    cell = metrics.cell_seconds
    if cell.count:
        rows.append(["cell_mean_s", f"{cell.mean:.3f}"])
        rows.append(["cell_max_s", f"{cell.max:.3f}"])
    if metrics.workers:
        rows.append(["workers", str(len(metrics.workers))])
    return render_table(["metric", "value"], rows, title=title)


def render_scheduler_summaries(
    by_scheduler: Mapping[str, RunMetrics],
    title: str = "per-scheduler metrics",
) -> str:
    """One summary row per scheduler label, sorted by label."""
    rows = []
    for label in sorted(by_scheduler):
        metrics = by_scheduler[label]
        attempts = metrics.counter("booking_attempts")
        rejections = metrics.counter("booking_rejections")
        hits = metrics.counter("tree_cache_hits")
        misses = metrics.counter("tree_cache_misses")
        rows.append(
            [
                label,
                str(metrics.counter("runs")),
                str(metrics.counter("bookings")),
                str(attempts),
                _rate(rejections, attempts),
                str(metrics.counter("dijkstra_searches")),
                str(metrics.counter("edge_relaxations")),
                _rate(hits, hits + misses),
                (
                    f"{metrics.decision_seconds.mean * 1000.0:.3f}"
                    if metrics.decision_seconds.count
                    else "-"
                ),
            ]
        )
    return render_table(
        [
            "scheduler",
            "runs",
            "bookings",
            "attempts",
            "rejected",
            "dijkstra",
            "relax",
            "tree-hit",
            "decision-ms",
        ],
        rows,
        title=title,
    )


def render_link_utilization(
    metrics: RunMetrics,
    top: int = 10,
    title: str = "busiest virtual links",
) -> str:
    """The ``top`` busiest links by total booked seconds.

    Utilization is the link's mean booked fraction of its availability
    window per observed run (busy seconds / runs / window seconds), so
    values stay comparable when metrics from many runs were merged.
    """
    runs = max(metrics.counter("runs"), 1)
    ranked = sorted(
        metrics.link_busy_seconds.items(),
        key=lambda pair: (-pair[1], pair[0]),
    )[:top]
    rows = []
    for link_id, busy in ranked:
        window = metrics.link_window_seconds.get(link_id, 0.0)
        utilization = (
            f"{busy / runs / window:.4f}" if window > 0.0 else "-"
        )
        rows.append(
            [
                f"L{link_id}",
                str(metrics.link_transfer_counts.get(link_id, 0)),
                f"{busy:.1f}",
                utilization,
            ]
        )
    return render_table(
        ["link", "transfers", "busy-s", "mean-util"], rows, title=title
    )


def render_timeline(
    timeline: Timeline,
    top: int = 5,
    title: str = "simulated-time telemetry",
) -> str:
    """A timeline's plain-text digest: three stacked tables.

    The headline table carries the merged-run totals and the peak link;
    the class table breaks requests down per priority (satisfied,
    cancelled, reopened, worst observed slack); the forensics table
    lists the ``top`` unsatisfied requests with their dominant rejection
    cause (see :meth:`~repro.observability.timeline.Timeline.explain`
    for the full per-request story).
    """
    summary = timeline.summary()
    headline = render_table(
        ["metric", "value"],
        [
            ["runs", str(summary["runs"])],
            ["requests", str(summary["requests"])],
            ["satisfied", str(summary["satisfied"])],
            ["unsatisfied", str(summary["unsatisfied"])],
            [
                "peak_link_utilization",
                f"{summary['peak_utilization']:.4f} "
                f"(L{summary['peak_link']})",
            ],
            ["top_rejection", summary["top_rejection"] or "-"],
        ],
        title=title,
    )
    class_rows = []
    for priority in sorted(timeline.classes, reverse=True):
        series = timeline.classes[priority]
        worst_slack = (
            f"{min(slack for _, slack in series.slack):.1f}"
            if series.slack
            else "-"
        )
        class_rows.append(
            [
                f"p{priority}",
                str(series.requests),
                str(series.satisfied),
                str(series.cancelled),
                str(series.reopened),
                worst_slack,
            ]
        )
    classes = render_table(
        ["class", "requests", "satisfied", "cancelled", "reopened",
         "worst-slack-s"],
        class_rows,
        title="priority classes",
    )
    losers = [
        timeline.forensics[key]
        for key in sorted(timeline.forensics)
        if timeline.forensics[key].satisfied
        < timeline.forensics[key].observed
    ]
    losers.sort(
        key=lambda ledger: (
            -ledger.priority,
            ledger.deadline,
            ledger.scenario,
            ledger.request_id,
        )
    )
    loser_rows = [
        [
            ledger.scenario,
            str(ledger.request_id),
            f"p{ledger.priority}",
            f"{ledger.deadline:.1f}",
            str(ledger.attempts),
            ledger.dominant_reason() or "-",
        ]
        for ledger in losers[:top]
    ]
    forensics = render_table(
        ["scenario", "request", "class", "deadline", "attempts", "cause"],
        loser_rows,
        title=f"unsatisfied requests (top {min(len(losers), top)} "
        f"of {len(losers)})",
    )
    return "\n\n".join([headline, classes, forensics])
