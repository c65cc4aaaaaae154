"""Timeline exporters: Chrome trace-event JSON and the HTML report.

Two ways out of a :class:`~repro.observability.timeline.Timeline`:

* :func:`chrome_trace_events` — the Chrome trace-event format (the JSON
  Perfetto / ``chrome://tracing`` load): booked transfers become ``"X"``
  complete events laned per virtual link under a *simulated time*
  process, and the derived series (network subscription ratio, pending
  queue depth per priority class, storage occupancy) become ``"C"``
  counter tracks.
* :func:`render_html_report` — a single self-contained HTML document
  (inline SVG only, no scripts, no external assets) with the
  utilization/occupancy/slack charts, the rejection breakdown, and a
  forensics section sampling :meth:`Timeline.explain` output for the
  worst-off requests.

Both exporters are pure functions of their inputs — no wall clock, no
randomness — so exported artifacts are as deterministic as the timeline
itself.

One simulated second maps to one exported *microsecond* scale unit
(``ts``/``dur`` are microseconds in the trace-event format), i.e. the
trace shows simulated seconds as if they were wall-clock microseconds;
:data:`SIMULATED_US_PER_SECOND` pins the factor.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Sequence, Tuple

from repro.observability.timeline import (
    REASON_DESCRIPTIONS,
    Timeline,
)

#: Trace-event ``ts``/``dur`` are microseconds; one simulated second is
#: exported as this many trace microseconds.
SIMULATED_US_PER_SECOND = 1_000_000.0

#: The ``pid`` lane carrying simulated-time activity.
SIMULATED_PID = 1

#: Buckets used for the exported counter tracks and report charts.
SERIES_POINTS = 64


def _meta_event(pid: int, tid: int, kind: str, name: str) -> Dict[str, Any]:
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _counter_events(
    name: str,
    series: Sequence[Tuple[float, float]],
    key: str,
    tid: int,
) -> List[Dict[str, Any]]:
    return [
        {
            "name": name,
            "ph": "C",
            "ts": when * SIMULATED_US_PER_SECOND,
            "pid": SIMULATED_PID,
            "tid": tid,
            "args": {key: value},
        }
        for when, value in series
    ]


def chrome_trace_events(
    timeline: Timeline,
    points: int = SERIES_POINTS,
) -> Dict[str, Any]:
    """The timeline as a trace-event document.

    Returns the ``{"traceEvents": [...], "displayTimeUnit": "ms"}``
    object; serialize with ``json.dumps`` and load the file in Perfetto
    or ``chrome://tracing``.
    """
    events: List[Dict[str, Any]] = [
        _meta_event(SIMULATED_PID, 0, "process_name", "simulated time"),
        _meta_event(SIMULATED_PID, 0, "thread_name", "network series"),
    ]
    for link_id in sorted(timeline.links):
        series = timeline.links[link_id]
        tid = 1000 + link_id
        events.append(
            _meta_event(
                SIMULATED_PID, tid, "thread_name", f"link {link_id}"
            )
        )
        for start, end, item_id in series.bookings:
            events.append(
                {
                    "name": f"item {item_id}",
                    "cat": "booking",
                    "ph": "X",
                    "ts": start * SIMULATED_US_PER_SECOND,
                    "dur": (end - start) * SIMULATED_US_PER_SECOND,
                    "pid": SIMULATED_PID,
                    "tid": tid,
                    "args": {"item_id": item_id, "link_id": link_id},
                }
            )
    events.extend(
        _counter_events(
            "subscription ratio",
            timeline.oversubscription_series(points),
            "ratio",
            0,
        )
    )
    for priority in sorted(timeline.classes):
        events.extend(
            _counter_events(
                f"pending p{priority}",
                timeline.pending_depth_series(priority, points),
                "requests",
                0,
            )
        )
    for machine in sorted(timeline.storage):
        if not timeline.storage[machine].reservations:
            continue
        events.extend(
            _counter_events(
                f"storage m{machine}",
                timeline.storage_occupancy_series(machine, points),
                "bytes",
                0,
            )
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    timeline: Timeline,
    path: str,
) -> None:
    """Serialize :func:`chrome_trace_events` to ``path`` (compact JSON)."""
    document = chrome_trace_events(timeline)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, separators=(",", ":"), sort_keys=True)


# -- HTML report -------------------------------------------------------------

_CHART_WIDTH = 640
_CHART_HEIGHT = 120

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #aaa; padding: .25rem .6rem; text-align: left; }
th { background: #eef; }
svg { background: #fafaff; border: 1px solid #ccd; }
pre { background: #f4f4f8; border: 1px solid #ccd; padding: .6rem;
      overflow-x: auto; font-size: .85rem; }
.caption { color: #555; font-size: .85rem; margin: .2rem 0 1rem; }
"""


def _svg_series(
    series: Sequence[Tuple[float, float]],
    horizon: float,
    y_max: float,
    color: str = "#2255cc",
) -> str:
    """One bucketed series as an SVG step line."""
    if y_max <= 0.0:
        y_max = 1.0
    if horizon <= 0.0:
        horizon = 1.0
    points: List[str] = []
    step = horizon / max(len(series), 1)
    for when, value in series:
        x = when / horizon * _CHART_WIDTH
        y = _CHART_HEIGHT - min(value / y_max, 1.0) * _CHART_HEIGHT
        points.append(f"{x:.1f},{y:.1f}")
        points.append(f"{(when + step) / horizon * _CHART_WIDTH:.1f},{y:.1f}")
    return (
        f'<svg width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" '
        f'viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}">'
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{" ".join(points)}"/></svg>'
    )


def _svg_scatter(
    points: Sequence[Tuple[float, float]],
    horizon: float,
    y_min: float,
    y_max: float,
    color: str = "#cc4422",
) -> str:
    """Slack points as an SVG scatter plot (y may be negative)."""
    spread = y_max - y_min
    if spread <= 0.0:
        spread = 1.0
    if horizon <= 0.0:
        horizon = 1.0
    circles = []
    for when, value in points:
        x = when / horizon * _CHART_WIDTH
        y = _CHART_HEIGHT - (value - y_min) / spread * _CHART_HEIGHT
        circles.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="{color}" '
            f'fill-opacity="0.6"/>'
        )
    zero_y = _CHART_HEIGHT - (0.0 - y_min) / spread * _CHART_HEIGHT
    baseline = (
        f'<line x1="0" y1="{zero_y:.1f}" x2="{_CHART_WIDTH}" '
        f'y2="{zero_y:.1f}" stroke="#999" stroke-dasharray="4 3"/>'
    )
    return (
        f'<svg width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" '
        f'viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}">'
        + baseline
        + "".join(circles)
        + "</svg>"
    )


def _utilization_table(timeline: Timeline, limit: int = 10) -> str:
    runs = max(timeline.runs, 1)
    rows = []
    for link_id in sorted(timeline.links):
        series = timeline.links[link_id]
        window = series.window_seconds
        if window <= 0.0:
            continue
        fraction = series.busy_seconds / (window * runs)
        rejections = sum(series.rejections.values())
        rows.append((fraction, link_id, series, rejections))
    rows.sort(key=lambda row: (-row[0], row[1]))
    cells = [
        "<tr><th>link</th><th>utilization</th><th>bookings</th>"
        "<th>attempts</th><th>rejections</th><th>window (s)</th></tr>"
    ]
    for fraction, link_id, series, rejections in rows[:limit]:
        cells.append(
            f"<tr><td>{link_id}</td><td>{fraction:.1%}</td>"
            f"<td>{len(series.bookings)}</td><td>{series.attempts}</td>"
            f"<td>{rejections}</td><td>{series.window_seconds:g}</td></tr>"
        )
    dropped = len(rows) - min(len(rows), limit)
    note = (
        f'<p class="caption">Top {limit} of {len(rows)} links by '
        f"utilization ({dropped} not shown).</p>"
        if dropped > 0
        else ""
    )
    return "<table>" + "".join(cells) + "</table>" + note


def _rejection_table(timeline: Timeline) -> str:
    totals: Dict[str, int] = {}
    for link_id in sorted(timeline.links):
        for reason, count in timeline.links[link_id].rejections.items():
            totals[reason] = totals.get(reason, 0) + count
    if not totals:
        return "<p>No rejections were recorded.</p>"
    cells = ["<tr><th>reason</th><th>count</th><th>meaning</th></tr>"]
    for reason in sorted(totals, key=lambda name: (-totals[name], name)):
        cells.append(
            f"<tr><td>{html.escape(reason)}</td><td>{totals[reason]}</td>"
            f"<td>{html.escape(REASON_DESCRIPTIONS.get(reason, ''))}</td>"
            f"</tr>"
        )
    return "<table>" + "".join(cells) + "</table>"


def _forensics_section(timeline: Timeline, samples: int = 5) -> str:
    """The worst-off requests plus full ``explain`` transcripts."""
    losers = [
        timeline.forensics[key]
        for key in sorted(timeline.forensics)
        if timeline.forensics[key].satisfied
        < timeline.forensics[key].observed
    ]
    if not losers:
        return "<p>Every observed request was satisfied in every run.</p>"
    losers.sort(
        key=lambda ledger: (
            -ledger.priority,
            ledger.deadline,
            ledger.scenario,
            ledger.request_id,
        )
    )
    cells = [
        "<tr><th>scenario</th><th>request</th><th>priority</th>"
        "<th>deadline</th><th>satisfied</th><th>attempts</th>"
        "<th>dominant cause</th></tr>"
    ]
    for ledger in losers[:20]:
        cells.append(
            f"<tr><td>{html.escape(ledger.scenario)}</td>"
            f"<td>{ledger.request_id}</td><td>{ledger.priority}</td>"
            f"<td>{ledger.deadline:g}</td>"
            f"<td>{ledger.satisfied}/{ledger.observed}</td>"
            f"<td>{ledger.attempts}</td>"
            f"<td>{html.escape(ledger.dominant_reason() or '-')}</td></tr>"
        )
    parts = [
        f'<p class="caption">{len(losers)} request(s) went unsatisfied in '
        f"at least one observed run; the {min(len(losers), 20)} "
        f"highest-priority / tightest-deadline ones are listed.</p>",
        "<table>" + "".join(cells) + "</table>",
        "<h3>explain() transcripts</h3>",
    ]
    for ledger in losers[:samples]:
        transcript = timeline.explain(
            ledger.request_id, scenario=ledger.scenario
        )
        parts.append(f"<pre>{html.escape(transcript)}</pre>")
    return "".join(parts)


def render_html_report(
    timeline: Timeline,
    title: str = "Simulated-time telemetry report",
    points: int = SERIES_POINTS,
) -> str:
    """The timeline as one self-contained HTML document (inline SVG)."""
    summary = timeline.summary()
    oversubscription = timeline.oversubscription_series(points)
    peak_ratio = max(
        (value for _, value in oversubscription), default=0.0
    )
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        "<table>",
        f"<tr><th>runs merged</th><td>{summary['runs']}</td></tr>",
        f"<tr><th>requests</th><td>{summary['requests']}</td></tr>",
        f"<tr><th>satisfied</th><td>{summary['satisfied']}</td></tr>",
        f"<tr><th>unsatisfied</th><td>{summary['unsatisfied']}</td></tr>",
        f"<tr><th>peak link utilization</th>"
        f"<td>{summary['peak_utilization']:.1%} "
        f"(link {summary['peak_link']})</td></tr>",
        f"<tr><th>top rejection</th>"
        f"<td>{html.escape(summary['top_rejection'] or '-')}</td></tr>",
        "</table>",
        "<h2>Network subscription over simulated time</h2>",
        _svg_series(oversubscription, timeline.horizon, max(peak_ratio, 1.0)),
        f'<p class="caption">Booked link-seconds over open-window '
        f"link-seconds per bucket (peak {peak_ratio:.1%}; horizon "
        f"{timeline.horizon:g}s, {points} buckets).</p>",
        "<h2>Link utilization</h2>",
        _utilization_table(timeline),
    ]
    active_machines = [
        machine
        for machine in sorted(timeline.storage)
        if timeline.storage[machine].reservations
    ]
    if active_machines:
        parts.append("<h2>Receiver-storage occupancy</h2>")
        for machine in active_machines[:4]:
            series = timeline.storage_occupancy_series(machine, points)
            capacity = timeline.storage[machine].capacity
            peak_bytes = max((value for _, value in series), default=0.0)
            parts.append(f"<h3>machine {machine}</h3>")
            parts.append(
                _svg_series(
                    series,
                    timeline.horizon,
                    capacity if capacity > 0 else peak_bytes,
                    color="#117744",
                )
            )
            parts.append(
                f'<p class="caption">Reserved bytes per run (peak '
                f"{peak_bytes:g} of capacity {capacity:g}).</p>"
            )
        dropped_machines = len(active_machines) - min(len(active_machines), 4)
        if dropped_machines > 0:
            parts.append(
                f'<p class="caption">{dropped_machines} more machine(s) '
                f"held reservations (not charted).</p>"
            )
    for priority in sorted(timeline.classes, reverse=True):
        series = timeline.classes[priority]
        parts.append(
            f"<h2>Priority class {priority}: pending depth and "
            f"deadline slack</h2>"
        )
        depth = timeline.pending_depth_series(priority, points)
        peak_depth = max((value for _, value in depth), default=0.0)
        parts.append(
            _svg_series(depth, timeline.horizon, peak_depth, color="#7722aa")
        )
        parts.append(
            f'<p class="caption">Pending requests per run '
            f"({series.requests} total across {timeline.runs} run(s); "
            f"{series.satisfied} satisfied, {series.cancelled} cancelled, "
            f"{series.reopened} reopened).</p>"
        )
        if series.slack:
            slacks = [value for _, value in series.slack]
            parts.append(
                _svg_scatter(
                    series.slack,
                    timeline.horizon,
                    min(min(slacks), 0.0),
                    max(max(slacks), 1.0),
                )
            )
            parts.append(
                '<p class="caption">Deadline slack at each satisfaction '
                "(arrival time vs. deadline − arrival; dashed line marks "
                "zero slack).</p>"
            )
    parts.append("<h2>Rejection reasons</h2>")
    parts.append(_rejection_table(timeline))
    parts.append("<h2>Request forensics</h2>")
    parts.append(_forensics_section(timeline))
    parts.append("</body></html>")
    return "\n".join(parts)


def write_html_report(
    timeline: Timeline,
    path: str,
    title: str = "Simulated-time telemetry report",
) -> None:
    """Render :func:`render_html_report` to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(render_html_report(timeline, title=title))
