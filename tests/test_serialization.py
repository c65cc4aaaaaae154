"""Unit tests for JSON serialization round trips."""

import dataclasses
import json

import pytest

from repro.core.evaluation import evaluate_schedule
from repro.core.validation import ScheduleValidator
from repro.errors import ModelError
from repro.experiments.runner import RunRecord, run_pair
from repro.heuristics.registry import make_heuristic
from repro.serialization import (
    canonical_scenario_json,
    load_scenario,
    document_from_dict,
    document_to_dict,
    load_schedule,
    save_scenario,
    save_schedule,
    scenario_fingerprint,
    scenario_from_dict,
    scenario_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)


class TestScenarioRoundTrip:
    def test_dict_round_trip_preserves_everything(self, tiny_scenarios):
        original = tiny_scenarios[0]
        restored = scenario_from_dict(scenario_to_dict(original))
        assert restored.name == original.name
        assert restored.gc_delay == original.gc_delay
        assert restored.horizon == original.horizon
        assert restored.weighting.weights == original.weighting.weights
        assert restored.network.machine_count == original.network.machine_count
        assert [m.capacity for m in restored.network.machines] == [
            m.capacity for m in original.network.machines
        ]
        assert [
            (v.source, v.destination, v.start, v.end, v.bandwidth, v.latency)
            for v in restored.network.virtual_links
        ] == [
            (v.source, v.destination, v.start, v.end, v.bandwidth, v.latency)
            for v in original.network.virtual_links
        ]
        assert [
            (i.name, i.size, i.sources) for i in restored.items
        ] == [(i.name, i.size, i.sources) for i in original.items]
        assert restored.requests == original.requests

    def test_file_round_trip(self, tiny_scenarios, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(tiny_scenarios[1], path)
        restored = load_scenario(path)
        assert restored.request_count == tiny_scenarios[1].request_count
        # The file is genuine JSON.
        document = json.loads(path.read_text())
        assert document["kind"] == "scenario"
        assert document["format_version"] == 1

    def test_restored_scenario_schedules_identically(self, tiny_scenarios):
        original = tiny_scenarios[2]
        restored = scenario_from_dict(scenario_to_dict(original))
        h = make_heuristic("full_one", "C4", 0.0)
        a = h.run(original)
        b = h.run(restored)
        assert (
            evaluate_schedule(original, a.schedule).weighted_sum
            == evaluate_schedule(restored, b.schedule).weighted_sum
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ModelError):
            scenario_from_dict({"kind": "schedule"})

    def test_missing_key_rejected(self, tiny_scenarios):
        document = scenario_to_dict(tiny_scenarios[0])
        del document["machines"]
        with pytest.raises(ModelError):
            scenario_from_dict(document)

    def test_inverted_window_rejected(self, tiny_scenarios):
        document = scenario_to_dict(tiny_scenarios[0])
        document["physical_links"][2]["windows"] = [[10.0, 5.0]]
        with pytest.raises(ModelError, match="physical link entry 2"):
            scenario_from_dict(document)

    def test_malformed_window_rejected(self, tiny_scenarios):
        document = scenario_to_dict(tiny_scenarios[0])
        document["physical_links"][0]["windows"] = [[1.0, 2.0, 3.0]]
        with pytest.raises(ModelError, match="physical link entry 0"):
            scenario_from_dict(document)

    def test_link_without_latency_rejected(self, tiny_scenarios):
        document = scenario_to_dict(tiny_scenarios[0])
        del document["physical_links"][1]["latency"]
        with pytest.raises(
            ModelError, match="physical link entry 1 is missing key 'latency'"
        ):
            scenario_from_dict(document)

    @pytest.mark.parametrize(
        "path, key, where",
        [
            (("machines", 0), "index", "machine entry 0"),
            (("machines", 1), "capacity", "machine entry 1"),
            (("items", 0), "item_id", "item entry 0"),
            (("items", 0), "name", "item entry 0"),
            (("items", 1), "size", "item entry 1"),
            (("items", 1), "sources", "item entry 1"),
            (("items", 0, "sources", 0), "machine", "item entry 0 source 0"),
            (
                ("items", 1, "sources", 0),
                "available_from",
                "item entry 1 source 0",
            ),
            (("requests", 0), "request_id", "request entry 0"),
            (("requests", 0), "item_id", "request entry 0"),
            (("requests", 1), "destination", "request entry 1"),
            (("requests", 1), "priority", "request entry 1"),
            (("requests", 2), "deadline", "request entry 2"),
            (("weighting",), "weights", "weighting"),
        ],
    )
    def test_entry_missing_key_rejected(
        self, tiny_scenarios, path, key, where
    ):
        document = scenario_to_dict(tiny_scenarios[0])
        entry = document
        for step in path:
            entry = entry[step]
        del entry[key]
        with pytest.raises(
            ModelError, match=f"{where} is missing key '{key}'"
        ):
            scenario_from_dict(document)

    def test_unsorted_windows_rejected(self, tiny_scenarios):
        document = scenario_to_dict(tiny_scenarios[0])
        entry = document["physical_links"][0]
        entry["windows"] = [[20.0, 30.0], [0.0, 10.0]]
        with pytest.raises(ModelError, match="unsorted"):
            scenario_from_dict(document)

    @pytest.mark.parametrize(
        "document, where",
        [
            (None, "serialized document must be an object"),
            (3, "serialized document must be an object"),
            ([], "serialized document must be an object"),
            ("x", "serialized document must be an object"),
        ],
        ids=["none", "int", "list", "str"],
    )
    def test_non_object_document_rejected(self, document, where):
        with pytest.raises(ModelError, match=where):
            scenario_from_dict(document)

    @pytest.mark.parametrize(
        "path, key, value, where",
        [
            ((), "machines", 5, "machines must be a list"),
            (("machines",), 0, 7, "machine entry 0 must be an object"),
            (("machines", 0), "capacity", "big", "machine entry 0 capacity"),
            (("requests", 1), "deadline", "soon", "request entry 1 deadline"),
            ((), "horizon", None, "horizon must be a number"),
            (
                ("machines", 1),
                "capacity",
                float("nan"),
                "machine entry 1 capacity",
            ),
            (("items", 0), "size", float("nan"), "item entry 0 size"),
            (
                ("requests", 2),
                "deadline",
                float("nan"),
                "request entry 2 deadline",
            ),
            (("items", 0), "name", {"a": 1}, "item entry 0 name"),
            (("items", 1), "name", [1], "item entry 1 name"),
            (("items", 0), "name", 7, "item entry 0 name"),
            (("machines", 0), "name", 3, "machine entry 0 name"),
            (("machines", 1), "name", {"a": 1}, "machine entry 1 name"),
            ((), "name", None, "scenario name"),
            (("weighting",), "name", 10, "weighting name"),
        ],
        ids=[
            "machines-not-a-list",
            "machine-not-an-object",
            "capacity-string",
            "deadline-string",
            "horizon-none",
            "capacity-nan",
            "size-nan",
            "deadline-nan",
            "item-name-dict",
            "item-name-list",
            "item-name-int",
            "machine-name-int",
            "machine-name-dict",
            "scenario-name-none",
            "weighting-name-int",
        ],
    )
    def test_malformed_entry_rejected(
        self, tiny_scenarios, path, key, value, where
    ):
        document = scenario_to_dict(tiny_scenarios[0])
        entry = document
        for step in path:
            entry = entry[step]
        entry[key] = value
        with pytest.raises(ModelError, match=where):
            scenario_from_dict(document)


    @pytest.mark.parametrize(
        "path, key, value, where",
        [
            (("requests", 0), "priority", 1.5, "request entry 0 priority"),
            (("requests", 1), "priority", True, "request entry 1 priority"),
            (
                ("physical_links", 0),
                "physical_id",
                "0",
                "physical link entry 0 physical_id",
            ),
            (("machines", 0), "index", 0.0, "machine entry 0 index"),
            (
                ("physical_links", 1),
                "source",
                False,
                "physical link entry 1 source",
            ),
            (
                ("physical_links", 0),
                "destination",
                1.0,
                "physical link entry 0 destination",
            ),
            (
                ("requests", 0),
                "destination",
                "1",
                "request entry 0 destination",
            ),
            (("requests", 2), "item_id", 0.0, "request entry 2 item_id"),
            (
                ("requests", 0),
                "request_id",
                None,
                "request entry 0 request_id",
            ),
            (("items", 0), "item_id", 0.0, "item entry 0 item_id"),
            (
                ("items", 0, "sources", 0),
                "machine",
                "0",
                "item entry 0 source 0 machine",
            ),
        ],
        ids=[
            "priority-float",
            "priority-bool",
            "physical-id-string",
            "machine-index-float",
            "link-source-bool",
            "link-destination-float",
            "request-destination-string",
            "request-item-id-float",
            "request-id-none",
            "item-id-float",
            "source-machine-string",
        ],
    )
    def test_non_integer_field_rejected(
        self, tiny_scenarios, path, key, value, where
    ):
        document = scenario_to_dict(tiny_scenarios[0])
        entry = document
        for step in path:
            entry = entry[step]
        entry[key] = value
        with pytest.raises(
            ModelError, match=f"{where} must be an integer, got"
        ):
            scenario_from_dict(document)

    @pytest.mark.parametrize(
        "weights, where",
        [
            (
                [float("nan"), 10.0, 100.0],
                "weighting weight 0 must be a number",
            ),
            ([1.0, "10", 100.0], "weighting weight 1 must be a number"),
            ([1.0, 10.0, True], "weighting weight 2 must be a number"),
            (5.0, "weighting weights must be a list"),
        ],
        ids=[
            "weight-nan",
            "weight-string",
            "weight-bool",
            "weights-not-a-list",
        ],
    )
    def test_malformed_weights_rejected(self, tiny_scenarios, weights, where):
        document = scenario_to_dict(tiny_scenarios[0])
        document["weighting"]["weights"] = weights
        with pytest.raises(ModelError, match=where):
            scenario_from_dict(document)


class TestSuiteRoundTrip:
    def test_save_and_load_suite(self, tiny_scenarios, tmp_path):
        from repro.serialization import load_suite, save_suite

        directory = tmp_path / "suite"
        save_suite(tiny_scenarios, directory)
        files = sorted(directory.glob("case-*.json"))
        assert len(files) == len(tiny_scenarios)
        restored = load_suite(directory)
        assert [s.name for s in restored] == [
            s.name for s in tiny_scenarios
        ]
        assert [s.request_count for s in restored] == [
            s.request_count for s in tiny_scenarios
        ]

    def test_load_empty_directory_rejected(self, tmp_path):
        from repro.serialization import load_suite

        with pytest.raises(ModelError):
            load_suite(tmp_path)


class TestScheduleRoundTrip:
    def test_round_trip_and_validation(self, tiny_scenarios, tmp_path):
        scenario = tiny_scenarios[0]
        result = make_heuristic("partial", "C4", 0.0).run(scenario)
        path = tmp_path / "schedule.json"
        save_schedule(result.schedule, path)
        restored = load_schedule(path)
        assert restored.name == result.schedule.name
        assert restored.step_count == result.schedule.step_count
        assert (
            restored.satisfied_request_ids()
            == result.schedule.satisfied_request_ids()
        )
        # The deserialized schedule still passes independent validation.
        ScheduleValidator(scenario).validate(restored)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ModelError):
            schedule_from_dict({"kind": "scenario"})

    def test_deliveries_survive(self, tiny_scenarios):
        scenario = tiny_scenarios[0]
        result = make_heuristic("full_all", "C4", 0.0).run(scenario)
        restored = schedule_from_dict(schedule_to_dict(result.schedule))
        for request_id, delivery in result.schedule.deliveries.items():
            other = restored.delivery(request_id)
            assert other.arrival == delivery.arrival
            assert other.hops == delivery.hops


class TestRunRecordRoundTrip:
    def test_dict_round_trip_is_lossless(self, tiny_scenarios):
        record = run_pair(tiny_scenarios[0], "full_one", "C4", 2.0)
        assert document_from_dict(RunRecord, document_to_dict(record)) == record

    def test_json_round_trip_is_lossless(self, tiny_scenarios):
        record = run_pair(tiny_scenarios[1], "partial", "C3", 0.0)
        document = json.loads(json.dumps(document_to_dict(record)))
        assert document_from_dict(RunRecord, document) == record

    def test_cache_hit_flag_survives(self, tiny_scenarios):
        record = dataclasses.replace(
            run_pair(tiny_scenarios[0], "full_all", "C2", 0.0),
            cache_hit=True,
        )
        restored = document_from_dict(RunRecord, document_to_dict(record))
        assert restored.cache_hit
        assert restored == record

    def test_every_field_is_serialized(self, tiny_scenarios):
        # Guards field drift: a field added to RunRecord without a codec
        # update fails here instead of silently vanishing from caches.
        record = run_pair(tiny_scenarios[0], "full_one", "C4", 0.0)
        document = document_to_dict(record)
        field_names = {f.name for f in dataclasses.fields(RunRecord)}
        assert field_names <= set(document)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ModelError):
            document_from_dict(RunRecord, {"kind": "schedule"})

    def test_missing_field_rejected(self, tiny_scenarios):
        document = document_to_dict(
            run_pair(tiny_scenarios[0], "full_one", "C4", 0.0)
        )
        del document["weighted_sum"]
        with pytest.raises(ModelError):
            document_from_dict(RunRecord, document)


class TestScenarioFingerprint:
    def test_fingerprint_is_deterministic(self, tiny_scenarios):
        assert scenario_fingerprint(
            tiny_scenarios[0]
        ) == scenario_fingerprint(tiny_scenarios[0])

    def test_fingerprint_survives_a_round_trip(self, tiny_scenarios):
        original = tiny_scenarios[0]
        restored = scenario_from_dict(scenario_to_dict(original))
        assert scenario_fingerprint(restored) == scenario_fingerprint(
            original
        )

    def test_fingerprint_separates_scenarios(self, tiny_scenarios):
        fingerprints = {
            scenario_fingerprint(scenario) for scenario in tiny_scenarios
        }
        assert len(fingerprints) == len(tiny_scenarios)

    def test_content_change_changes_fingerprint(self, tiny_scenarios):
        original = tiny_scenarios[0]
        mutated = dataclasses.replace(
            original, gc_delay=original.gc_delay + 1.0
        )
        assert scenario_fingerprint(mutated) != scenario_fingerprint(
            original
        )

    def test_canonical_json_is_compact_and_sorted(self, tiny_scenarios):
        text = canonical_scenario_json(tiny_scenarios[0])
        document = json.loads(text)
        assert document["kind"] == "scenario"
        assert ": " not in text  # compact separators
