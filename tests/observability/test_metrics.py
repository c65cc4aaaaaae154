"""MetricsCollector aggregation, merging, validation, serialization."""

import json
import os

import pytest

from repro.errors import ModelError
from repro.heuristics.registry import make_heuristic
from repro.observability import (
    MetricsCollector,
    RunMetrics,
    TimingStat,
    use_tracer,
)
from repro.observability.tracer import REASON_CODES
from repro.serialization import (
    document_from_dict,
    document_to_dict,
    merge_documents,
)
from repro.experiments.runner import RunRecord, run_pair


class TestTimingStat:
    def test_note_tracks_count_total_min_max(self):
        stat = TimingStat()
        assert stat.mean == 0.0
        for value in (3.0, 1.0, 2.0):
            stat.note(value)
        assert stat.count == 3
        assert stat.total == 6.0
        assert stat.min == 1.0
        assert stat.max == 3.0
        assert stat.mean == 2.0

    def test_merged_is_commutative_and_handles_empties(self):
        a = TimingStat()
        a.note(1.0)
        a.note(5.0)
        b = TimingStat()
        b.note(0.5)
        merged = a.merged(b)
        assert merged.count == 3
        assert merged.min == 0.5
        assert merged.max == 5.0
        assert merged.total == 6.5
        assert a.merged(b) == b.merged(a)
        empty = TimingStat()
        assert a.merged(empty) == a
        assert empty.merged(a) == a
        assert empty.merged(TimingStat()).count == 0


class TestRunMetricsMerge:
    def test_counters_and_maps_add_elementwise(self):
        a = RunMetrics()
        a.bump("bookings", 2)
        a.rejection_reasons["no_storage"] = 1
        a.link_busy_seconds[3] = 10.0
        a.link_transfer_counts[3] = 2
        a.link_window_seconds[3] = 100.0
        a.workers = (10,)
        b = RunMetrics()
        b.bump("bookings")
        b.bump("runs")
        b.rejection_reasons["no_storage"] = 4
        b.link_busy_seconds[3] = 5.0
        b.link_busy_seconds[7] = 1.0
        b.link_transfer_counts[3] = 1
        b.link_window_seconds[3] = 100.0
        b.workers = (11, 10)
        merged = a.merged(b)
        assert merged.counter("bookings") == 3
        assert merged.counter("runs") == 1
        assert merged.counter("never_bumped") == 0
        assert merged.rejection_reasons == {"no_storage": 5}
        assert merged.link_busy_seconds == {3: 15.0, 7: 1.0}
        assert merged.link_transfer_counts == {3: 3}
        assert merged.link_window_seconds == {3: 100.0}
        assert merged.workers == (10, 11)

    def test_merge_metrics_skips_nones(self):
        a = RunMetrics()
        a.bump("cells")
        total = merge_documents(RunMetrics, [None, a, None, a])
        assert total.counter("cells") == 2
        assert merge_documents(RunMetrics, []).counter("cells") == 0


class TestCollectorOnRealRun:
    def test_scheduler_run_populates_counters(self, tiny_scenarios):
        collector = MetricsCollector()
        scenario = tiny_scenarios[0]
        with use_tracer(collector):
            scheduler = make_heuristic("full_one", "C4", 0.0)
            result = scheduler.run(scenario)
        metrics = collector.finalize()
        assert metrics.counter("runs") == 1
        assert metrics.counter("bookings") == result.schedule.step_count
        assert metrics.counter("booking_attempts") > 0
        assert metrics.counter("booking_rejections") > 0
        assert metrics.counter("dijkstra_searches") == (
            result.stats.dijkstra_runs
        )
        assert metrics.counter("tree_cache_hits") == result.stats.cache_hits
        assert metrics.counter("decisions") == result.stats.iterations
        assert metrics.counter("hops_booked") == result.stats.hops_booked
        assert metrics.decision_seconds.count == result.stats.iterations
        assert set(metrics.rejection_reasons) <= set(REASON_CODES)
        assert sum(metrics.rejection_reasons.values()) == (
            metrics.counter("booking_rejections")
            + metrics.counter("booking_failures")
        )
        assert metrics.workers == (os.getpid(),)
        # Booked busy time is positive and tracked per observed link.
        assert metrics.link_busy_seconds
        assert all(v > 0.0 for v in metrics.link_busy_seconds.values())
        assert set(metrics.link_transfer_counts) == set(
            metrics.link_busy_seconds
        )
        assert sum(metrics.link_transfer_counts.values()) == (
            metrics.counter("bookings")
        )


class TestSerialization:
    def _collected(self, tiny_scenarios):
        collector = MetricsCollector()
        with use_tracer(collector):
            make_heuristic("partial", "C4", 0.0).run(tiny_scenarios[0])
        return collector.finalize()

    def test_round_trip(self, tiny_scenarios):
        metrics = self._collected(tiny_scenarios)
        document = document_to_dict(metrics)
        assert document["schema_version"] == RunMetrics.SCHEMA_VERSION
        rebuilt = document_from_dict(RunMetrics, document)
        assert rebuilt == metrics

    def test_round_trip_through_json_text(self, tiny_scenarios):
        metrics = self._collected(tiny_scenarios)
        text = json.dumps(document_to_dict(metrics), sort_keys=True)
        rebuilt = document_from_dict(RunMetrics, json.loads(text))
        assert rebuilt == metrics

    def test_run_record_carries_metrics(self, tiny_scenarios):
        import dataclasses

        metrics = self._collected(tiny_scenarios)
        record = run_pair(tiny_scenarios[0], "partial", "C4", 0.0)
        with_metrics = dataclasses.replace(record, metrics=metrics)
        document = document_to_dict(with_metrics)
        assert document["metrics"]["kind"] == "run_metrics"
        rebuilt = document_from_dict(RunRecord, document)
        assert rebuilt == with_metrics
        # without_timing() neutralizes metrics alongside timing.
        assert with_metrics.without_timing().metrics is None
        # A record without metrics serializes the field as null.
        assert document_to_dict(record)["metrics"] is None
        rebuilt = document_from_dict(RunRecord, document_to_dict(record))
        assert rebuilt == record


class TestValidation:
    def _valid(self):
        return document_to_dict(RunMetrics())

    def test_accepts_a_valid_document(self):
        document_from_dict(RunMetrics, self._valid())

    def test_rejects_wrong_kind(self):
        document = self._valid()
        document["kind"] = "schedule"
        with pytest.raises(ModelError):
            document_from_dict(RunMetrics, document)

    def test_rejects_unsupported_schema_version(self):
        document = self._valid()
        document["schema_version"] = RunMetrics.SCHEMA_VERSION + 1
        with pytest.raises(ModelError):
            document_from_dict(RunMetrics, document)

    def test_rejects_non_mapping_counters(self):
        document = self._valid()
        document["counters"] = [1, 2]
        with pytest.raises(ModelError):
            document_from_dict(RunMetrics, document)

    def test_rejects_non_integer_counter_values(self):
        document = self._valid()
        document["counters"] = {"bookings": "three"}
        with pytest.raises(ModelError):
            document_from_dict(RunMetrics, document)
        document["counters"] = {"bookings": True}
        with pytest.raises(ModelError):
            document_from_dict(RunMetrics, document)

    def test_rejects_malformed_timing_stats(self):
        document = self._valid()
        document["decision_seconds"] = {"count": 1}
        with pytest.raises(ModelError):
            document_from_dict(RunMetrics, document)

    def test_rejects_non_integer_workers(self):
        document = self._valid()
        document["workers"] = ["pid"]
        with pytest.raises(ModelError):
            document_from_dict(RunMetrics, document)
        document["workers"] = 7
        with pytest.raises(ModelError):
            document_from_dict(RunMetrics, document)
