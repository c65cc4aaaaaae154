"""Unit tests for JSON serialization round trips."""

import dataclasses
import json
import re

import pytest

from repro.core.evaluation import evaluate_schedule
from repro.core.scenario import Scenario
from repro.core.schedule import Schedule
from repro.core.validation import ScheduleValidator
from repro.errors import ModelError
from repro.experiments.runner import RunRecord, run_pair
from repro.heuristics.registry import make_heuristic
from repro.serialization import (
    canonical_scenario_json,
    document_from_dict,
    document_to_dict,
    load_scenario,
    load_schedule,
    save_scenario,
    save_schedule,
    scenario_fingerprint,
)


def _path(kind, *steps):
    """The path to a value, as the codec's messages name it."""
    return kind + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in steps
    )


def _raises_naming(message):
    """``pytest.raises`` for a :class:`ModelError` naming ``message``."""
    return pytest.raises(ModelError, match=re.escape(message))


class TestScenarioRoundTrip:
    def test_dict_round_trip_preserves_everything(self, tiny_scenarios):
        original = tiny_scenarios[0]
        restored = document_from_dict(Scenario, document_to_dict(original))
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
        restored = document_from_dict(Scenario, document_to_dict(original))
        h = make_heuristic("full_one", "C4", 0.0)
        a = h.run(original)
        b = h.run(restored)
        assert (
            evaluate_schedule(original, a.schedule).weighted_sum
            == evaluate_schedule(restored, b.schedule).weighted_sum
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ModelError):
            document_from_dict(Scenario, {"kind": "schedule"})

    def test_missing_key_rejected(self, tiny_scenarios):
        document = document_to_dict(tiny_scenarios[0])
        del document["machines"]
        with pytest.raises(ModelError):
            document_from_dict(Scenario, document)

    def test_inverted_window_rejected(self, tiny_scenarios):
        document = document_to_dict(tiny_scenarios[0])
        document["physical_links"][2]["windows"] = [[10.0, 5.0]]
        with _raises_naming("scenario.physical_links[2].windows[0]: "):
            document_from_dict(Scenario, document)

    def test_malformed_window_rejected(self, tiny_scenarios):
        document = document_to_dict(tiny_scenarios[0])
        document["physical_links"][0]["windows"] = [[1.0, 2.0, 3.0]]
        with _raises_naming(
            "scenario.physical_links[0].windows[0] must be a row of 2 values"
        ):
            document_from_dict(Scenario, document)

    def test_link_without_latency_rejected(self, tiny_scenarios):
        document = document_to_dict(tiny_scenarios[0])
        del document["physical_links"][1]["latency"]
        with _raises_naming(
            "scenario.physical_links[1] is missing field 'latency'"
        ):
            document_from_dict(Scenario, document)

    @pytest.mark.parametrize(
        # The third value names the entry in the case id.
        "path, key, entry",
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
        self, tiny_scenarios, path, key, entry
    ):
        document = document_to_dict(tiny_scenarios[0])
        target = document
        for step in path:
            target = target[step]
        del target[key]
        with _raises_naming(
            f"{_path('scenario', *path)} is missing field '{key}'"
        ):
            document_from_dict(Scenario, document)

    def test_unsorted_windows_rejected(self, tiny_scenarios):
        document = document_to_dict(tiny_scenarios[0])
        entry = document["physical_links"][0]
        entry["windows"] = [[20.0, 30.0], [0.0, 10.0]]
        with pytest.raises(ModelError, match="unsorted"):
            document_from_dict(Scenario, document)

    @pytest.mark.parametrize(
        "document, where",
        [
            (None, "scenario must be an object"),
            (3, "scenario must be an object"),
            ([], "scenario must be an object"),
            ("x", "scenario must be an object"),
        ],
        ids=["none", "int", "list", "str"],
    )
    def test_non_object_document_rejected(self, document, where):
        with pytest.raises(ModelError, match=where):
            document_from_dict(Scenario, document)

    @pytest.mark.parametrize(
        "path, key, value, problem",
        [
            ((), "machines", 5, "must be a list"),
            (("machines",), 0, 7, "must be an object"),
            (("machines", 0), "capacity", "big", "must be a number"),
            (("requests", 1), "deadline", "soon", "must be a number"),
            ((), "horizon", None, "must be a number"),
            (("machines", 1), "capacity", float("nan"), "must be a number"),
            (("items", 0), "size", float("nan"), "must be a number"),
            (("requests", 2), "deadline", float("nan"), "must be a number"),
            (("items", 0), "name", {"a": 1}, "must be a string"),
            (("items", 1), "name", [1], "must be a string"),
            (("items", 0), "name", 7, "must be a string"),
            (("machines", 0), "name", 3, "must be a string"),
            (("machines", 1), "name", {"a": 1}, "must be a string"),
            ((), "name", None, "must be a string"),
            (("weighting",), "name", 10, "must be a string"),
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
        self, tiny_scenarios, path, key, value, problem
    ):
        document = document_to_dict(tiny_scenarios[0])
        entry = document
        for step in path:
            entry = entry[step]
        entry[key] = value
        with _raises_naming(f"{_path('scenario', *path, key)} {problem}"):
            document_from_dict(Scenario, document)

    @pytest.mark.parametrize(
        "path, key, value",
        [
            (("requests", 0), "priority", 1.5),
            (("requests", 1), "priority", True),
            (("physical_links", 0), "physical_id", "0"),
            (("machines", 0), "index", 0.0),
            (("physical_links", 1), "source", False),
            (("physical_links", 0), "destination", 1.0),
            (("requests", 0), "destination", "1"),
            (("requests", 2), "item_id", 0.0),
            (("requests", 0), "request_id", None),
            (("items", 0), "item_id", 0.0),
            (("items", 0, "sources", 0), "machine", "0"),
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
        self, tiny_scenarios, path, key, value
    ):
        document = document_to_dict(tiny_scenarios[0])
        entry = document
        for step in path:
            entry = entry[step]
        entry[key] = value
        with _raises_naming(
            f"{_path('scenario', *path, key)} must be an integer, got"
        ):
            document_from_dict(Scenario, document)

    @pytest.mark.parametrize(
        "weights, where",
        [
            (
                [float("nan"), 10.0, 100.0],
                "scenario.weighting.weights[0] must be a number",
            ),
            (
                [1.0, "10", 100.0],
                "scenario.weighting.weights[1] must be a number",
            ),
            (
                [1.0, 10.0, True],
                "scenario.weighting.weights[2] must be a number",
            ),
            (5.0, "scenario.weighting.weights must be a list"),
        ],
        ids=[
            "weight-nan",
            "weight-string",
            "weight-bool",
            "weights-not-a-list",
        ],
    )
    def test_malformed_weights_rejected(self, tiny_scenarios, weights, where):
        document = document_to_dict(tiny_scenarios[0])
        document["weighting"]["weights"] = weights
        with _raises_naming(where):
            document_from_dict(Scenario, document)


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


#: Every field a schedule document carries per step and per delivery.
STEP_FIELDS = ("item_id", "source", "destination", "link_id", "start", "end")
DELIVERY_FIELDS = ("request_id", "arrival", "hops")

def _rows(records, fields):
    return [
        tuple(getattr(record, name) for name in fields) for record in records
    ]


class TestScheduleRoundTrip:
    def test_round_trip_and_validation(self, tiny_scenarios, tmp_path):
        scenario = tiny_scenarios[0]
        result = make_heuristic("partial", "C4", 0.0).run(scenario)
        original = result.schedule
        assert original.step_count and original.deliveries
        path = tmp_path / "schedule.json"
        save_schedule(original, path)
        restored = load_schedule(path)
        assert restored.name == original.name
        assert _rows(restored.steps, STEP_FIELDS) == _rows(
            original.steps, STEP_FIELDS
        )
        assert _rows(
            restored.deliveries.values(), DELIVERY_FIELDS
        ) == _rows(original.deliveries.values(), DELIVERY_FIELDS)
        # The deserialized schedule still passes independent validation.
        ScheduleValidator(scenario).validate(restored)

    @pytest.mark.parametrize(
        "corrupt, where",
        [
            (
                lambda doc: doc["steps"][0].pop("source"),
                "schedule.steps[0] is missing field 'source'",
            ),
            (
                lambda doc: doc["steps"].__setitem__(0, 7),
                "schedule.steps[0] must be an object",
            ),
            (lambda doc: doc.update(steps=5), "schedule.steps must be a list"),
            (
                lambda doc: doc["steps"][0].update(link_id=1.5),
                "schedule.steps[0].link_id must be an integer",
            ),
            (
                lambda doc: doc["steps"][0].update(start=float("nan")),
                "schedule.steps[0].start must be a number",
            ),
            (
                lambda doc: doc["deliveries"][0].update(arrival="soon"),
                "schedule.deliveries[0].arrival must be a number",
            ),
            (
                lambda doc: doc["deliveries"][0].update(hops=None),
                "schedule.deliveries[0].hops must be an integer",
            ),
            (
                lambda doc: doc.update(name=3),
                "schedule.name must be a string",
            ),
            (
                lambda doc: doc["steps"][0].update(
                    destination=doc["steps"][0]["source"]
                ),
                "schedule.steps[0]: step 0 sends item",
            ),
        ],
        ids=[
            "step-key-missing",
            "step-not-an-object",
            "steps-not-a-list",
            "link-id-float",
            "start-nan",
            "arrival-string",
            "hops-none",
            "name-int",
            "step-to-itself",
        ],
    )
    def test_malformed_entry_rejected(self, tiny_scenarios, corrupt, where):
        result = make_heuristic("partial", "C4", 0.0).run(tiny_scenarios[0])
        document = document_to_dict(result.schedule)
        corrupt(document)
        with _raises_naming(where):
            document_from_dict(Schedule, document)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ModelError):
            document_from_dict(Schedule, {"kind": "scenario"})

    def test_deliveries_survive(self, tiny_scenarios):
        scenario = tiny_scenarios[0]
        result = make_heuristic("full_all", "C4", 0.0).run(scenario)
        restored = document_from_dict(
            Schedule, document_to_dict(result.schedule)
        )
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
        restored = document_from_dict(Scenario, document_to_dict(original))
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
