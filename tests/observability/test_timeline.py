"""Simulated-time telemetry: collector, merge algebra, forensics.

The :class:`Timeline` document must merge associatively (pinned here by
a hypothesis property over randomly generated parts), serialize
byte-identically, and — the forensics acceptance bar — ``explain``
must reproduce every rejection reason the raw JSONL trace recorded for
a request while it was pending.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ModelError
from repro.heuristics.registry import make_heuristic
from repro.observability import (
    JsonlTracer,
    TeeTracer,
    Timeline,
    TimelineCollector,
    use_tracer,
)
from repro.observability.timeline import (
    MAX_CHAIN_EVENTS,
    ClassSeries,
    LinkSeries,
    RequestForensics,
    StorageSeries,
)
from repro.observability.tracer import (
    REASON_CODES,
    REASON_NEVER_ATTEMPTED,
)
from repro.serialization import (
    document_from_dict,
    document_to_dict,
    merge_documents,
)

from tests.helpers import single_item_line_scenario


def collect(scenario, heuristic="full_one", criterion="C4", ratio=0.0):
    """Run one scheduler under a fresh collector; return the timeline."""
    collector = TimelineCollector(scenario)
    with use_tracer(collector):
        make_heuristic(heuristic, criterion, ratio).run(scenario)
    return collector.finalize()


def canonical(timeline):
    """The byte-exact serialized form equality is asserted on."""
    return json.dumps(document_to_dict(timeline), sort_keys=True)


class TestCollector:
    def test_satisfied_line_scenario_end_to_end(self, line_scenario):
        timeline = collect(line_scenario)
        assert timeline.runs == 1
        assert timeline.horizon == line_scenario.horizon
        # Static structure seeded from the scenario.
        assert set(timeline.links) == {
            link.link_id for link in line_scenario.network.virtual_links
        }
        assert set(timeline.storage) == {0, 1, 2}
        # One priority-2 request, satisfied at t=2.0 (two 1 s hops).
        series = timeline.classes[2]
        assert series.requests == 1
        assert series.satisfied == 1
        assert series.drains == [2.0]
        assert series.slack == [(2.0, 98.0)]
        ledger = timeline.forensics_for(0)
        assert ledger.satisfied == 1
        assert ledger.arrivals == [(2.0, 98.0)]
        assert ledger.bookings == 2
        assert ledger.attempts > 0
        assert timeline.summary()["unsatisfied"] == 0
        # The intermediate and final machines held reservations.
        held = {
            machine
            for machine, series in timeline.storage.items()
            if series.reservations
        }
        assert held == {1, 2}

    def test_explain_narrates_the_satisfaction(self, line_scenario):
        timeline = collect(line_scenario)
        text = timeline.explain(0)
        assert "request 0" in text
        assert "satisfied in 1 of 1 observed run(s)" in text
        assert "satisfied at t=2" in text
        assert "booked" in text

    def test_unsatisfiable_request_reports_never_attempted(self):
        # Deadline 0.5 s but the item needs 2 s of hops: the scheduler
        # rejects the request before attempting any transfer.
        scenario = single_item_line_scenario(deadline=0.5)
        timeline = collect(scenario)
        ledger = timeline.forensics_for(0)
        if ledger.attempts == 0 and not ledger.rejections:
            assert ledger.dominant_reason() == REASON_NEVER_ATTEMPTED
        assert timeline.summary()["satisfied"] == 0

    def test_forensics_for_unknown_request_raises(self, line_scenario):
        timeline = collect(line_scenario)
        with pytest.raises(ConfigurationError):
            timeline.forensics_for(999)

    def test_series_reject_empty_bucketing(self, line_scenario):
        timeline = collect(line_scenario)
        with pytest.raises(ConfigurationError):
            timeline.oversubscription_series(points=0)

    def test_derived_series_have_sane_ranges(self, line_scenario):
        timeline = collect(line_scenario)
        for _, ratio in timeline.oversubscription_series(16):
            assert 0.0 <= ratio <= 1.0
        link_id = next(iter(sorted(timeline.links)))
        for _, fraction in timeline.link_utilization_series(link_id, 16):
            assert 0.0 <= fraction <= 1.0
        depths = timeline.pending_depth_series(2, 16)
        assert depths[0][1] >= depths[-1][1]


# -- hypothesis strategies ---------------------------------------------------

times = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
reasons = st.sampled_from(sorted(REASON_CODES))
tallies = st.dictionaries(reasons, st.integers(0, 50), max_size=4)

link_series = st.builds(
    LinkSeries,
    window_start=st.just(0.0),
    window_end=times,
    attempts=st.integers(0, 100),
    rejections=tallies,
    bookings=st.lists(
        st.tuples(times, times, st.integers(0, 5)), max_size=5
    ),
)

storage_series = st.builds(
    StorageSeries,
    capacity=times,
    reservations=st.lists(
        st.tuples(times, times, times, st.integers(0, 5)), max_size=5
    ),
)

class_series = st.builds(
    ClassSeries,
    requests=st.integers(0, 20),
    satisfied=st.integers(0, 20),
    cancelled=st.integers(0, 5),
    reopened=st.integers(0, 5),
    slack=st.lists(st.tuples(times, times), max_size=5),
    drains=st.lists(times, max_size=5),
)

chain_events = st.one_of(
    st.tuples(st.just("attempt"), st.integers(0, 9)),
    st.tuples(st.just("rejected"), st.integers(0, 9), reasons),
    st.tuples(st.just("booked"), st.integers(0, 9), times, times),
    st.tuples(st.just("satisfied"), times, st.integers(0, 4)),
)

forensics = st.builds(
    RequestForensics,
    scenario=st.sampled_from(["alpha", "beta"]),
    request_id=st.integers(0, 3),
    item_id=st.integers(0, 3),
    destination=st.integers(0, 3),
    priority=st.integers(0, 2),
    deadline=times,
    observed=st.integers(1, 3),
    satisfied=st.integers(0, 3),
    cancelled=st.integers(0, 2),
    reopened=st.integers(0, 2),
    attempts=st.integers(0, 50),
    bookings=st.integers(0, 10),
    rejections=tallies,
    arrivals=st.lists(st.tuples(times, times), max_size=3),
    chain=st.lists(chain_events, max_size=6),
    chain_dropped=st.integers(0, 3),
)

timelines = st.builds(
    Timeline,
    horizon=times,
    runs=st.integers(0, 4),
    links=st.dictionaries(st.integers(0, 4), link_series, max_size=3),
    storage=st.dictionaries(st.integers(0, 3), storage_series, max_size=2),
    classes=st.dictionaries(st.integers(0, 2), class_series, max_size=3),
    forensics=st.dictionaries(
        st.sampled_from(["alpha#0", "alpha#1", "beta#0"]),
        forensics,
        max_size=3,
    ),
)


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(timelines, timelines, timelines)
    def test_merge_is_associative(self, a, b, c):
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        assert canonical(left) == canonical(right)

    @settings(max_examples=30, deadline=None)
    @given(timelines)
    def test_empty_timeline_is_the_identity(self, timeline):
        assert canonical(Timeline().merged(timeline)) == canonical(timeline)
        assert canonical(timeline.merged(Timeline())) == canonical(timeline)

    @settings(max_examples=30, deadline=None)
    @given(timelines, timelines)
    def test_merge_counts_runs_and_requests(self, a, b):
        merged = a.merged(b)
        assert merged.runs == a.runs + b.runs
        assert merged.total_requests() == (
            a.total_requests() + b.total_requests()
        )

    def test_merge_timelines_skips_missing_parts(self, line_scenario):
        part = collect(line_scenario)
        total = merge_documents(Timeline, [None, part, None, part])
        assert total.runs == 2
        assert total.total_satisfied() == 2 * part.total_satisfied()

    def test_chain_cap_is_associative_under_overflow(self):
        def ledger(n, base):
            entry = RequestForensics()
            entry.chain = [("attempt", base + i) for i in range(n)]
            return entry

        a = ledger(MAX_CHAIN_EVENTS - 10, 0)
        b = ledger(30, 10_000)
        c = ledger(30, 20_000)
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        assert left.chain == right.chain
        assert len(left.chain) == MAX_CHAIN_EVENTS
        assert left.chain_dropped == right.chain_dropped == 50

    def test_note_chain_counts_overflow_explicitly(self):
        entry = RequestForensics()
        for index in range(MAX_CHAIN_EVENTS + 7):
            entry.note_chain(("attempt", index))
        assert len(entry.chain) == MAX_CHAIN_EVENTS
        assert entry.chain_dropped == 7


class TestDominantReason:
    def test_satisfied_everywhere_has_no_cause(self):
        entry = RequestForensics(observed=2, satisfied=2)
        assert entry.dominant_reason() is None

    def test_unsatisfied_without_attempts_is_never_attempted(self):
        entry = RequestForensics(observed=1, satisfied=0, attempts=0)
        assert entry.dominant_reason() == REASON_NEVER_ATTEMPTED

    def test_highest_tally_wins_with_lexicographic_ties(self):
        entry = RequestForensics(
            observed=1,
            satisfied=0,
            attempts=5,
            rejections={"window_closed": 2, "link_busy": 2, "no_storage": 1},
        )
        assert entry.dominant_reason() == "link_busy"


class TestSerialization:
    def test_round_trip_is_byte_identical(self, tiny_scenarios):
        timeline = collect(tiny_scenarios[0])
        document = document_to_dict(timeline)
        rebuilt = document_from_dict(
            Timeline, json.loads(json.dumps(document, sort_keys=True))
        )
        assert canonical(rebuilt) == canonical(timeline)

    @settings(max_examples=30, deadline=None)
    @given(timelines)
    def test_round_trip_of_generated_documents(self, timeline):
        document = document_to_dict(timeline)
        assert canonical(document_from_dict(Timeline, document)) == (
            canonical(timeline)
        )

    def test_wrong_kind_and_version_are_rejected(self, line_scenario):
        document = document_to_dict(collect(line_scenario))
        bad_kind = dict(document, kind="metrics")
        with pytest.raises(ModelError):
            document_from_dict(Timeline, bad_kind)
        bad_version = dict(document, schema_version=99)
        with pytest.raises(ModelError):
            document_from_dict(Timeline, bad_version)

    def test_malformed_rows_are_rejected(self, line_scenario):
        document = document_to_dict(collect(line_scenario))
        corrupt = json.loads(json.dumps(document))
        link_id = next(iter(corrupt["links"]))
        corrupt["links"][link_id]["bookings"] = [[1.0, 2.0]]
        with pytest.raises(ModelError):
            document_from_dict(Timeline, corrupt)


class TestExplainMatchesRawTrace:
    """The forensics acceptance bar.

    Tee a raw JSONL stream next to the collector, then check that for
    every request (a) each ledger reason appears verbatim in the
    ``explain`` text with its exact tally, and (b) a request that never
    left the pending queue accounts for *every* rejection the raw trace
    recorded against its item.
    """

    @pytest.fixture()
    def run(self, tiny_scenarios, tmp_path):
        scenario = tiny_scenarios[0]
        collector = TimelineCollector(scenario)
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as stream:
            with use_tracer(TeeTracer((stream, collector))):
                make_heuristic("full_one", "C4", 0.0).run(scenario)
        events = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        return scenario, collector.finalize(), events

    def test_every_ledger_reason_is_in_the_explain_text(self, run):
        scenario, timeline, _ = run
        for request in scenario.requests:
            ledger = timeline.forensics_for(request.request_id)
            text = timeline.explain(request.request_id)
            for reason, count in ledger.rejections.items():
                assert f"{reason} x{count}" in text

    def test_pending_forever_ledgers_account_for_every_raw_rejection(
        self, run
    ):
        scenario, timeline, events = run
        raw = {}
        for event in events:
            if event["event"] in ("transfer_rejected", "booking_failed"):
                tally = raw.setdefault(event["item_id"], {})
                reason = event["reason"]
                tally[reason] = tally.get(reason, 0) + 1
        checked = 0
        for request in scenario.requests:
            ledger = timeline.forensics_for(request.request_id)
            if ledger.satisfied or ledger.cancelled:
                continue  # left the pending queue mid-run
            assert ledger.rejections == raw.get(request.item_id, {})
            checked += 1
        satisfied = sum(
            1
            for request in scenario.requests
            if timeline.forensics_for(request.request_id).satisfied
        )
        # The fixture scenario must exercise both populations.
        assert checked > 0 and satisfied > 0

    def test_raw_attempt_count_matches_the_link_tallies(self, run):
        _, timeline, events = run
        attempts = sum(
            1 for event in events if event["event"] == "transfer_attempt"
        )
        assert attempts == sum(
            series.attempts for series in timeline.links.values()
        )
