"""Timeline collection through the sweep executor (tentpole tests).

The merged sweep timeline must be byte-identical across worker counts
and across cache replay — simulated time is deterministic, so the
telemetry document is too.
"""

import json

from repro.experiments.executor import SweepExecutor
from repro.observability import Timeline
from repro.serialization import document_from_dict, document_to_dict


def canonical(timeline):
    return json.dumps(document_to_dict(timeline), sort_keys=True)


class TestSerialTimelines:
    def test_records_carry_timelines_that_merge(self, tiny_scenarios):
        with SweepExecutor(workers=1, timeline=True) as executor:
            records = executor.run_pairs(
                tiny_scenarios[:3], "full_one", "C4", 0.0
            )
        assert all(record.timeline is not None for record in records)
        for record in records:
            assert record.timeline.runs == 1
        label = records[0].scheduler
        merged = executor.timeline_by_scheduler[label]
        assert merged.runs == 3
        assert merged.total_satisfied() == sum(
            record.satisfied_count for record in records
        )
        assert document_from_dict(Timeline, document_to_dict(merged)) == (
            merged
        )

    def test_disabled_by_default(self, tiny_scenarios):
        with SweepExecutor(workers=1) as executor:
            records = executor.run_pairs(
                tiny_scenarios[:2], "full_one", "C4", 0.0
            )
        assert all(record.timeline is None for record in records)
        assert not executor.timeline_by_scheduler
        assert executor.timeline_total().runs == 0

    def test_collection_does_not_change_results(self, tiny_scenarios):
        with SweepExecutor(workers=1) as plain:
            baseline = plain.run_pairs(tiny_scenarios, "full_all", "C4", 0.0)
        with SweepExecutor(workers=1, timeline=True) as observed:
            measured = observed.run_pairs(
                tiny_scenarios, "full_all", "C4", 0.0
            )
        assert [r.without_timing() for r in baseline] == [
            r.without_timing() for r in measured
        ]


class TestWorkerIdentity:
    def test_merged_timeline_is_byte_identical_across_worker_counts(
        self, tiny_scenarios
    ):
        documents = {}
        for workers in (1, 4):
            with SweepExecutor(workers=workers, timeline=True) as executor:
                executor.run_pairs(tiny_scenarios, "partial", "C4", 2.0)
                documents[workers] = canonical(executor.timeline_total())
        assert documents[1] == documents[4]

    def test_timelines_survive_the_process_boundary(self, tiny_scenarios):
        with SweepExecutor(workers=2, timeline=True) as executor:
            records = executor.run_pairs(
                tiny_scenarios, "full_one", "C4", 0.0
            )
        assert all(record.timeline is not None for record in records)
        for record in records:
            assert record.timeline.total_satisfied() == (
                record.satisfied_count
            )


class TestCachedTimelines:
    def test_replay_is_byte_identical_to_the_computing_run(
        self, tiny_scenarios, tmp_path
    ):
        with SweepExecutor(
            workers=1, cache_dir=tmp_path, timeline=True
        ) as cold:
            cold.run_pairs(tiny_scenarios, "partial", "C4", 0.0)
            cold_total = canonical(cold.timeline_total())
        with SweepExecutor(
            workers=1, cache_dir=tmp_path, timeline=True
        ) as warm:
            warm.run_pairs(tiny_scenarios, "partial", "C4", 0.0)
            assert warm.last_summary.cache_hits == len(tiny_scenarios)
            warm_total = canonical(warm.timeline_total())
        assert warm_total == cold_total

    def test_parallel_replay_matches_serial_compute(
        self, tiny_scenarios, tmp_path
    ):
        with SweepExecutor(
            workers=1, cache_dir=tmp_path, timeline=True
        ) as cold:
            cold.run_pairs(tiny_scenarios, "full_one", "C4", 0.0)
            cold_total = canonical(cold.timeline_total())
        with SweepExecutor(
            workers=2, cache_dir=tmp_path, timeline=True
        ) as warm:
            warm.run_pairs(tiny_scenarios, "full_one", "C4", 0.0)
            assert warm.last_summary.cache_hits == len(tiny_scenarios)
            assert canonical(warm.timeline_total()) == cold_total
