"""Metrics collection through the sweep executor: serial, parallel, cached."""

import os

from repro.experiments.executor import SweepExecutor
from repro.observability import RecordingTracer, RunMetrics, use_tracer
from repro.serialization import document_from_dict, document_to_dict


class TestSerialCollection:
    def test_records_carry_metrics_and_totals_accumulate(
        self, tiny_scenarios
    ):
        with SweepExecutor(workers=1, metrics=True) as executor:
            records = executor.run_pairs(
                tiny_scenarios[:3], "full_one", "C4", 0.0
            )
        assert all(record.metrics is not None for record in records)
        for record in records:
            assert record.metrics.counter("runs") == 1
            assert record.metrics.counter("bookings") == record.steps
            assert record.metrics.counter("dijkstra_searches") == (
                record.dijkstra_runs
            )
        label = records[0].scheduler
        merged = executor.metrics_by_scheduler[label]
        assert merged.counter("runs") == 3
        assert merged.counter("bookings") == sum(r.steps for r in records)
        total = executor.metrics_total()
        assert total.counter("cells") == 3
        assert total.counter("run_cache_misses") == 3
        assert total.counter("run_cache_hits") == 0
        assert total.cell_seconds.count == 3
        assert document_from_dict(RunMetrics, document_to_dict(total)) == (
            total
        )

    def test_disabled_by_default(self, tiny_scenarios):
        with SweepExecutor(workers=1) as executor:
            records = executor.run_pairs(
                tiny_scenarios[:2], "full_one", "C4", 0.0
            )
        assert all(record.metrics is None for record in records)
        assert not executor.metrics_by_scheduler
        assert executor.metrics_total().counter("cells") == 0


class TestParallelCollection:
    def test_worker_metrics_merge_identically_to_serial(
        self, tiny_scenarios
    ):
        with SweepExecutor(workers=1, metrics=True) as serial:
            serial_records = serial.run_pairs(
                tiny_scenarios, "partial", "C4", 2.0
            )
        with SweepExecutor(workers=2, metrics=True) as parallel:
            parallel_records = parallel.run_pairs(
                tiny_scenarios, "partial", "C4", 2.0
            )
        assert [r.without_timing() for r in serial_records] == [
            r.without_timing() for r in parallel_records
        ]
        label = serial_records[0].scheduler
        serial_merged = serial.metrics_by_scheduler[label]
        parallel_merged = parallel.metrics_by_scheduler[label]
        # Deterministic counters agree regardless of process fan-out.
        assert parallel_merged.counters == serial_merged.counters
        assert parallel_merged.rejection_reasons == (
            serial_merged.rejection_reasons
        )
        assert parallel_merged.link_busy_seconds == (
            serial_merged.link_busy_seconds
        )
        # Worker pids come from the pool, not this process.
        assert parallel_merged.workers
        assert os.getpid() not in parallel_merged.workers

    def test_metrics_survive_the_process_boundary(self, tiny_scenarios):
        with SweepExecutor(workers=2, metrics=True) as executor:
            records = executor.run_pairs(
                tiny_scenarios, "full_one", "C4", 0.0
            )
        assert all(record.metrics is not None for record in records)


class TestCachedCollection:
    def test_replayed_records_restore_original_metrics(
        self, tiny_scenarios, tmp_path
    ):
        with SweepExecutor(
            workers=1, cache_dir=tmp_path, metrics=True
        ) as executor:
            first = executor.run_pairs(tiny_scenarios[:2], "partial", "C4", 0.0)
        with SweepExecutor(
            workers=1, cache_dir=tmp_path, metrics=True
        ) as warm:
            second = warm.run_pairs(tiny_scenarios[:2], "partial", "C4", 0.0)
            assert warm.last_summary.cache_hits == 2
        # Replayed metrics describe the original run, like timing does.
        assert [r.metrics for r in second] == [r.metrics for r in first]
        total = warm.metrics_total()
        assert total.counter("run_cache_hits") == 2
        assert total.counter("run_cache_misses") == 0

    def test_observation_does_not_change_results(self, tiny_scenarios):
        with SweepExecutor(workers=1) as plain:
            baseline = plain.run_pairs(tiny_scenarios, "full_all", "C4", 0.0)
        with SweepExecutor(workers=1, metrics=True) as observed:
            measured = observed.run_pairs(
                tiny_scenarios, "full_all", "C4", 0.0
            )
        assert [r.without_timing() for r in baseline] == [
            r.without_timing() for r in measured
        ]


class TestAmbientTracerIntegration:
    def test_cell_events_reach_an_installed_tracer(self, tiny_scenarios):
        recorder = RecordingTracer()
        with use_tracer(recorder):
            with SweepExecutor(workers=1, metrics=True) as executor:
                executor.run_pairs(tiny_scenarios[:2], "full_one", "C4", 0.0)
        cells = recorder.named("cell")
        assert len(cells) == 2
        assert [event["index"] for event in cells] == [0, 1]
        assert not any(event["cache_hit"] for event in cells)
        # Scheduler events also reach the tracer (teed with the
        # per-cell collector rather than shadowed by it).
        assert recorder.named("run_end")
        assert recorder.named("transfer_booked")
