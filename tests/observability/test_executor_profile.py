"""Profile collection through the sweep executor (satellite tests).

Per-cell span profiles must merge identically across process-pool
workers, survive the run cache, and contribute *recorded* phase timings
— not zeros — when cells replay from disk.
"""

from repro.experiments.executor import SweepExecutor
from repro.observability import PHASE_TREE, Profile
from repro.serialization import document_from_dict, document_to_dict


class TestSerialProfiles:
    def test_records_carry_profiles_and_totals_accumulate(
        self, tiny_scenarios
    ):
        with SweepExecutor(workers=1, profile=True) as executor:
            records = executor.run_pairs(
                tiny_scenarios[:3], "full_one", "C4", 0.0
            )
        assert all(record.profile is not None for record in records)
        for record in records:
            assert record.profile.stat("tree/dijkstra").count == (
                record.dijkstra_runs
            )
        label = records[0].scheduler
        merged = executor.profile_by_scheduler[label]
        assert merged.stat("tree/dijkstra").count == sum(
            record.dijkstra_runs for record in records
        )
        assert executor.profile_total().stat(PHASE_TREE).count > 0
        assert document_from_dict(Profile, document_to_dict(merged)) == (
            merged
        )

    def test_disabled_by_default(self, tiny_scenarios):
        with SweepExecutor(workers=1) as executor:
            records = executor.run_pairs(
                tiny_scenarios[:2], "full_one", "C4", 0.0
            )
        assert all(record.profile is None for record in records)
        assert not executor.profile_by_scheduler
        assert executor.profile_total().empty


class TestParallelProfiles:
    def test_worker_profiles_merge_identically_to_serial(
        self, tiny_scenarios
    ):
        with SweepExecutor(workers=1, profile=True) as serial:
            serial_records = serial.run_pairs(
                tiny_scenarios, "partial", "C4", 2.0
            )
        with SweepExecutor(workers=2, profile=True) as parallel:
            parallel_records = parallel.run_pairs(
                tiny_scenarios, "partial", "C4", 2.0
            )
        assert [r.without_timing() for r in serial_records] == [
            r.without_timing() for r in parallel_records
        ]
        label = serial_records[0].scheduler
        serial_merged = serial.profile_by_scheduler[label]
        parallel_merged = parallel.profile_by_scheduler[label]
        # Span paths and call counts are deterministic; durations vary.
        assert set(parallel_merged.spans) == set(serial_merged.spans)
        for path, stat in serial_merged.spans.items():
            assert parallel_merged.stat(path).count == stat.count

    def test_profiles_survive_the_process_boundary(self, tiny_scenarios):
        with SweepExecutor(workers=2, profile=True) as executor:
            records = executor.run_pairs(
                tiny_scenarios, "full_one", "C4", 0.0
            )
        assert all(record.profile is not None for record in records)
        assert all(
            record.profile.total_wall_seconds() > 0.0 for record in records
        )

    def test_metrics_and_profile_compose(self, tiny_scenarios):
        with SweepExecutor(
            workers=2, metrics=True, profile=True
        ) as executor:
            records = executor.run_pairs(
                tiny_scenarios[:3], "partial", "C4", 0.0
            )
        for record in records:
            assert record.metrics is not None
            assert record.profile is not None
            # Two views of the same run agree on search effort.
            assert record.profile.stat("tree/dijkstra").count == (
                record.metrics.counter("dijkstra_searches")
            )


class TestCachedProfiles:
    def test_replayed_records_restore_original_profiles(
        self, tiny_scenarios, tmp_path
    ):
        with SweepExecutor(
            workers=1, cache_dir=tmp_path, profile=True
        ) as executor:
            first = executor.run_pairs(
                tiny_scenarios[:2], "partial", "C4", 0.0
            )
        with SweepExecutor(
            workers=1, cache_dir=tmp_path, profile=True
        ) as warm:
            second = warm.run_pairs(tiny_scenarios[:2], "partial", "C4", 0.0)
            assert warm.last_summary.cache_hits == 2
        # Replayed profiles describe the original run — recorded phase
        # timings, not zeros.
        assert [r.profile for r in second] == [r.profile for r in first]
        assert all(
            record.profile.total_wall_seconds() > 0.0 for record in second
        )
        label = second[0].scheduler
        assert warm.profile_by_scheduler[label].stat(
            "tree/dijkstra"
        ).count == sum(record.dijkstra_runs for record in second)

    def test_parallel_replay_merges_like_the_computing_run(
        self, tiny_scenarios, tmp_path
    ):
        with SweepExecutor(
            workers=2, cache_dir=tmp_path, profile=True
        ) as cold:
            cold.run_pairs(tiny_scenarios, "full_one", "C4", 0.0)
            cold_merged = dict(cold.profile_by_scheduler)
        with SweepExecutor(
            workers=2, cache_dir=tmp_path, profile=True
        ) as warm:
            warm.run_pairs(tiny_scenarios, "full_one", "C4", 0.0)
            assert warm.last_summary.cache_hits == len(tiny_scenarios)
        assert warm.profile_by_scheduler == cold_merged

    def test_profiling_does_not_change_results(self, tiny_scenarios):
        with SweepExecutor(workers=1) as plain:
            baseline = plain.run_pairs(tiny_scenarios, "full_all", "C4", 0.0)
        with SweepExecutor(workers=1, profile=True) as profiled:
            measured = profiled.run_pairs(
                tiny_scenarios, "full_all", "C4", 0.0
            )
        assert [r.without_timing() for r in baseline] == [
            r.without_timing() for r in measured
        ]
