"""Timeline exporters: Chrome trace-event JSON and the HTML report."""

import json

from repro.heuristics.registry import make_heuristic
from repro.observability import (
    TimelineCollector,
    chrome_trace_events,
    render_html_report,
    use_tracer,
    write_chrome_trace,
    write_html_report,
)
from repro.observability.export import (
    SIMULATED_PID,
    SIMULATED_US_PER_SECOND,
)


def observed_run(scenario):
    """One timeline-collected run; returns its timeline."""
    timeline = TimelineCollector(scenario)
    with use_tracer(timeline):
        make_heuristic("full_one", "C4", 0.0).run(scenario)
    return timeline.finalize()


class TestChromeTrace:
    def test_document_shape_and_phases(self, tiny_scenarios):
        timeline = observed_run(tiny_scenarios[0])
        document = chrome_trace_events(timeline)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events
        phases = {event["ph"] for event in events}
        assert phases <= {"X", "C", "M"}
        for event in events:
            assert isinstance(event["name"], str)
            assert event["pid"] == SIMULATED_PID
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0

    def test_bookings_map_to_simulated_microseconds(self, line_scenario):
        timeline = observed_run(line_scenario)
        document = chrome_trace_events(timeline)
        lanes = [
            event
            for event in document["traceEvents"]
            if event["ph"] == "X" and event["pid"] == SIMULATED_PID
        ]
        # The line scenario books two 1 s hops: [0, 1) and [1, 2).
        spans = sorted((event["ts"], event["dur"]) for event in lanes)
        assert spans == [
            (0.0, SIMULATED_US_PER_SECOND),
            (SIMULATED_US_PER_SECOND, SIMULATED_US_PER_SECOND),
        ]

    def test_written_file_is_valid_json(self, line_scenario, tmp_path):
        timeline = observed_run(line_scenario)
        path = tmp_path / "trace.json"
        write_chrome_trace(timeline, str(path))
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["traceEvents"]


class TestHtmlReport:
    def test_self_contained_document(self, tiny_scenarios):
        timeline = observed_run(tiny_scenarios[0])
        html = render_html_report(timeline)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        # Self-contained: no external fetches, no scripting.
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_forensics_transcripts_are_embedded(self, tiny_scenarios):
        timeline = observed_run(tiny_scenarios[0])
        html = render_html_report(timeline)
        unsatisfied = timeline.summary()["unsatisfied"]
        if unsatisfied:
            assert "causal chain" in html or "dominant cause" in html

    def test_scenario_names_are_escaped(self, line_scenario):
        timeline = observed_run(line_scenario)
        for ledger in timeline.forensics.values():
            ledger.scenario = "<script>alert(1)</script>"
            ledger.satisfied = 0  # force it into the forensics section
        html = render_html_report(timeline)
        assert "<script>alert(1)</script>" not in html

    def test_written_file_round_trips(self, line_scenario, tmp_path):
        timeline = observed_run(line_scenario)
        path = tmp_path / "report.html"
        write_html_report(timeline, str(path))
        assert path.read_text(encoding="utf-8") == render_html_report(
            timeline
        )
