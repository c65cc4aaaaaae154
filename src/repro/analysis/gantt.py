"""ASCII Gantt rendering of schedules.

A terminal-friendly visualization of who used which link when — handy for
debugging heuristics, demonstrating contention in examples, and inspecting
small schedules without a plotting stack.  Each used virtual link gets one
row; time runs left to right; each cell is one time bucket showing the item
occupying the link (``.`` for idle inside the window, a space outside it).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import units
from repro.core.scenario import Scenario
from repro.core.schedule import Schedule

#: Items beyond this count reuse symbols (schedules that large should be
#: inspected with the stats API instead).
_SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_gantt(
    scenario: Scenario,
    schedule: Schedule,
    width: int = 72,
    until: Optional[float] = None,
) -> str:
    """Render the schedule's link occupancy as an ASCII chart.

    Args:
        scenario: the scheduled problem instance.
        schedule: the schedule to draw.
        width: number of time buckets (characters) per row.
        until: right edge of the time axis; defaults to just after the
            last transfer ends (or the horizon for empty schedules).

    Returns:
        A multi-line string: one row per *used* virtual link, a time axis,
        and a legend mapping symbols to item names.
    """
    if width < 10:
        raise ValueError(f"width must be at least 10 columns, got {width}")
    steps = schedule.steps
    if until is None:
        until = (
            max(step.end for step in steps) * 1.02
            if steps
            else scenario.horizon
        )
    if until <= 0:
        until = scenario.horizon
    bucket = until / width

    used_links = sorted({step.link_id for step in steps})
    item_ids = sorted({step.item_id for step in steps})
    symbol_of = {
        item_id: _SYMBOLS[index % len(_SYMBOLS)]
        for index, item_id in enumerate(item_ids)
    }

    lines: List[str] = []
    label_width = max(
        (len(_link_label(scenario, link_id)) for link_id in used_links),
        default=8,
    )
    for link_id in used_links:
        link = scenario.network.link(link_id)
        row = []
        for column in range(width):
            t = (column + 0.5) * bucket
            row.append("." if link.window.contains(t) else " ")
        for step in steps:
            if step.link_id != link_id:
                continue
            first = max(int(step.start / bucket), 0)
            last = max(int(step.end / bucket), first)
            for column in range(first, min(last + 1, width)):
                row[column] = symbol_of[step.item_id]
        lines.append(
            f"{_link_label(scenario, link_id):<{label_width}} |"
            + "".join(row)
            + "|"
        )

    axis = (
        " " * label_width
        + " |0"
        + " " * (width - len(units.format_time(until)) - 1)
        + units.format_time(until)
        + "|"
    )
    lines.append(axis)
    legend = ", ".join(
        f"{symbol_of[item_id]}={scenario.item(item_id).name}"
        for item_id in item_ids
    )
    if legend:
        lines.append(f"legend: {legend}  (.=window open)")
    return "\n".join(lines)


def _link_label(scenario: Scenario, link_id: int) -> str:
    link = scenario.network.link(link_id)
    return f"L{link_id}[{link.source}->{link.destination}]"
