"""Tracer protocol mechanics: ambient installation, recording, sinks,
the event registry and the pinned event stream."""

import ast
import hashlib
import io
import json
from pathlib import Path

import pytest

import repro
from repro.core.state import NetworkState, TransferPlan
from repro.dynamic.driver import DynamicDriver
from repro.errors import ConfigurationError, InfeasibleTransferError
from repro.faults.context import use_faults
from repro.heuristics.registry import make_heuristic
from repro.observability import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TeeTracer,
    TraceEvent,
    current_tracer,
    use_tracer,
)
from repro.observability.tracer import (
    EVENTS,
    REASON_ALREADY_AT_DESTINATION,
    REASON_CODES,
    REASON_LINK_BUSY,
    REASON_NO_SENDER_COPY,
    REASON_WINDOW_CLOSED,
    TREE_CACHE_CLEAN,
)
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import (
    VOLATILE_TRACE_FIELDS,
    dynamic_fault_events,
    line_network,
    make_item,
    make_scenario,
    single_item_line_scenario,
)


class TestAmbientTracer:
    def test_default_is_the_disabled_null_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        assert isinstance(NULL_TRACER, NullTracer)

    def test_use_tracer_installs_and_restores(self):
        tracer = RecordingTracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
            inner = RecordingTracer()
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer(RecordingTracer()):
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER

    def test_state_captures_ambient_tracer_at_construction(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            state = NetworkState(scenario)
        # Captured at construction: observed even outside the block.
        assert state.tracer is tracer
        assert NetworkState(scenario).tracer is NULL_TRACER

    def test_explicit_tracer_wins_and_clone_propagates(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        with use_tracer(RecordingTracer()):
            state = NetworkState(scenario, tracer=tracer)
        assert state.tracer is tracer
        assert state.clone().tracer is tracer


class TestTraceEvent:
    def test_as_dict_and_getitem(self):
        event = TraceEvent(name="x", fields=(("a", 1), ("b", "two")))
        assert event.as_dict() == {"event": "x", "a": 1, "b": "two"}
        assert event["a"] == 1
        with pytest.raises(KeyError):
            event["missing"]


def _booked_state(scenario):
    """A state with one transfer booked on the first hop of the line."""
    state = NetworkState(scenario)
    link = scenario.network.link(0)
    plan = state.earliest_transfer(0, link, 0.0)
    assert plan is not None
    state.book_transfer(plan)
    return state, link, plan


class TestRecordedEvents:
    def test_booking_lifecycle_events(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)

        attempts = tracer.named("transfer_attempt")
        assert attempts and attempts[0]["item_id"] == 0
        booked = tracer.named("transfer_booked")
        assert len(booked) == 1
        assert booked[0]["start"] == plan.start
        assert booked[0]["end"] == plan.end
        assert booked[0]["window_seconds"] > 0.0

        # A second search toward the now-holding receiver is rejected.
        rejection = state.earliest_transfer(0, link, 0.0)
        assert rejection is None
        rejected = tracer.named("transfer_rejected")
        assert rejected[-1]["reason"] == REASON_ALREADY_AT_DESTINATION
        assert all(e["reason"] in REASON_CODES for e in rejected)

    def test_booking_failed_event_carries_reason(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)
        # Replaying the identical plan: the receiver already holds a copy.
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(plan)
        failures = tracer.named("booking_failed")
        assert failures[-1]["reason"] == REASON_ALREADY_AT_DESTINATION
        assert failures[-1]["item_id"] == 0
        assert failures[-1]["link_id"] == link.link_id

    def test_no_sender_copy_failure(self):
        network = line_network(3)
        item = make_item(0, 1000.0, [(0, 0.0)])
        scenario = make_scenario(network, [item], [(0, 2, 2, 100.0)])
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        # Machine 1 holds nothing yet; booking its outbound link fails.
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(
                TransferPlan(
                    item_id=0,
                    link=scenario.network.link(1),
                    start=0.0,
                    end=1.0,
                    release=scenario.horizon,
                )
            )
        assert tracer.named("booking_failed")[-1]["reason"] == (
            REASON_NO_SENDER_COPY
        )

    def test_link_busy_failure(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)
        state.remove_copy(0, link.destination, plan.end)
        # The receiver no longer holds the item, but the link interval is
        # still booked: replaying the plan now reports the busy link.
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(plan)
        assert tracer.named("booking_failed")[-1]["reason"] == (
            REASON_LINK_BUSY
        )

    def test_state_surgery_events(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)
        state.disable_link_from(2, 50.0)
        state.remove_copy(0, link.destination, plan.end)
        events = {event.name for event in tracer.events}
        assert "link_disabled" in events
        assert "copy_removed" in events
        removed = tracer.named("copy_removed")[0]
        assert removed["machine"] == link.destination
        assert removed["at_time"] == plan.end

    def test_window_closed_rejection(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        state.disable_link_from(link.link_id, 0.0)
        assert state.earliest_transfer(0, link, 0.0) is None
        assert tracer.named("transfer_rejected")[-1]["reason"] == (
            REASON_WINDOW_CLOSED
        )

    def test_dijkstra_events(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        compute_shortest_path_tree(state, 0)
        events = tracer.named("dijkstra")
        assert len(events) == 1
        assert events[0]["item_id"] == 0
        assert events[0]["seeds"] == 1
        assert events[0]["relaxations"] >= 2  # two hops reachable
        assert events[0]["finalized"] >= 3


class TestJsonlTracer:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        scenario = single_item_line_scenario()
        with JsonlTracer(path) as tracer:
            state = NetworkState(scenario, tracer=tracer)
            plan = state.earliest_transfer(0, scenario.network.link(0), 0.0)
            state.book_transfer(plan)
        lines = path.read_text(encoding="utf-8").splitlines()
        documents = [json.loads(line) for line in lines]
        assert documents
        assert all("event" in doc for doc in documents)
        assert any(doc["event"] == "transfer_booked" for doc in documents)

    def test_events_raises_instead_of_silently_answering_empty(self, tmp_path):
        # Regression: JsonlTracer used to subclass RecordingTracer and
        # override _event without recording, so .events/.named() quietly
        # returned [] — hiding every streamed event from inspection code.
        with JsonlTracer(tmp_path / "trace.jsonl") as tracer:
            tracer.emit("run_end", "label", 1.0)
            with pytest.raises(ConfigurationError):
                tracer.events
            with pytest.raises(ConfigurationError):
                tracer.named("run_end")

    def test_tee_with_recording_tracer_is_the_supported_inspection_path(
        self, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        recorder = RecordingTracer()
        with JsonlTracer(path) as stream:
            tee = TeeTracer((stream, recorder))
            tee.emit("run_end", "label", 1.0)
        assert len(recorder.named("run_end")) == 1
        assert json.loads(path.read_text(encoding="utf-8"))["event"] == (
            "run_end"
        )

    def test_span_events_stream_as_json_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit("span_start", "tree")
            tracer.emit("span_end", "tree", 0.25, 0.125)
        documents = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert documents[0] == {"event": "span_start", "span": "tree"}
        assert documents[1] == {
            "event": "span_end",
            "span": "tree",
            "wall_seconds": 0.25,
            "cpu_seconds": 0.125,
        }

    def test_accepts_an_open_stream(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with path.open("w", encoding="utf-8") as stream:
            tracer = JsonlTracer(stream)
            tracer.emit("run_end", "label", 1.0)
            tracer.close()
            # close() must not close a caller-owned stream.
            assert not stream.closed
        documents = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert documents == [
            {"event": "run_end", "label": "label", "elapsed_seconds": 1.0}
        ]


class TestTeeTracer:
    def test_fans_out_to_enabled_children_only(self):
        first = RecordingTracer()
        second = RecordingTracer()
        null = NullTracer()
        tee = TeeTracer((first, null, second))
        assert tee.enabled
        tee.emit("run_end", "x", 0.5)
        assert len(first.named("run_end")) == 1
        assert len(second.named("run_end")) == 1

    def test_all_disabled_children_disable_the_tee(self):
        tee = TeeTracer((NullTracer(), NullTracer()))
        assert not tee.enabled
        assert TeeTracer(()).enabled is False

    def test_enabled_tracks_children_dynamically(self):
        class Toggleable(RecordingTracer):
            enabled = False

        child = Toggleable()
        tee = TeeTracer((NullTracer(), child))
        assert not tee.enabled
        child.enabled = True
        assert tee.enabled
        child.enabled = False
        assert not tee.enabled

    def test_disabled_tee_suppresses_event_allocation(self, line_scenario):
        # The event site's `if tracer.enabled:` guard is the allocation
        # gate — an all-NullTracer tee must report disabled so the state
        # never materializes event payloads for it.
        tee = TeeTracer((NullTracer(), NullTracer()))
        with use_tracer(tee):
            state = NetworkState(line_scenario)
            link = line_scenario.network.link(0)
            plan = state.earliest_transfer(0, link, 0.0)
            assert plan is not None
            state.book_transfer(plan)
        recorder = RecordingTracer()
        seen = TeeTracer((recorder, NullTracer()))
        assert seen.enabled
        seen.emit("run_end", "x", 0.1)
        assert len(recorder.named("run_end")) == 1


class TestEventRegistry:
    """``emit`` is checked against :data:`EVENTS` at the point of emission."""

    @pytest.fixture(params=["recording", "jsonl"])
    def tracer(self, request):
        if request.param == "recording":
            return RecordingTracer()
        return JsonlTracer(io.StringIO())

    def test_fields_are_zipped_in_registry_order(self):
        tracer = RecordingTracer()
        tracer.emit("transfer_rejected", 3, 7, REASON_WINDOW_CLOSED)
        (event,) = tracer.events
        assert event.fields == (
            ("item_id", 3),
            ("link_id", 7),
            ("reason", REASON_WINDOW_CLOSED),
        )

    def test_unknown_event_raises(self, tracer):
        with pytest.raises(ConfigurationError, match="transfer_boked"):
            tracer.emit("transfer_boked", 0, 0)

    @pytest.mark.parametrize("values", [(0,), (0, 1, 2)])
    def test_wrong_value_count_raises(self, tracer, values):
        with pytest.raises(ConfigurationError, match="takes 2 values"):
            tracer.emit("transfer_attempt", *values)

    @pytest.mark.parametrize(
        "event, values",
        [
            ("transfer_rejected", (0, 0, "bogus_reason")),
            ("booking_failed", (0, 0, TREE_CACHE_CLEAN)),
            ("tree_cache", (0, True, REASON_LINK_BUSY)),
        ],
    )
    def test_unregistered_reason_raises(self, tracer, event, values):
        with pytest.raises(ConfigurationError, match=values[-1]):
            tracer.emit(event, *values)

    def test_rejected_events_write_nothing(self):
        stream = io.StringIO()
        tracer = JsonlTracer(stream)
        with pytest.raises(ConfigurationError):
            tracer.emit("run_end", "label")
        assert stream.getvalue() == ""

    def test_named_rejects_an_unregistered_name(self):
        tracer = RecordingTracer()
        tracer.emit("run_end", "label", 1.0)
        with pytest.raises(ConfigurationError, match="run_ended"):
            tracer.named("run_ended")
        assert len(tracer.named("run_end")) == 1


def _emission_sites():
    """Every ``*.emit("<literal>", ...)`` call under ``src/repro``."""
    package = Path(repro.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                where = f"{path.relative_to(package)}:{node.lineno}"
                yield where, node.args[0].value, node.args[1:]


class TestRegistryMatchesEmissionSites:
    def test_every_site_names_a_registered_event(self):
        unknown = [
            (where, name)
            for where, name, _ in _emission_sites()
            if name not in EVENTS
        ]
        assert unknown == []

    def test_every_site_passes_one_value_per_field(self):
        wrong = [
            (where, name, len(values))
            for where, name, values in _emission_sites()
            if name in EVENTS
            and (
                len(values) != len(EVENTS[name])
                or any(isinstance(value, ast.Starred) for value in values)
            )
        ]
        assert wrong == []

    def test_every_registered_event_has_an_emission_site(self):
        emitted = {name for _, name, _ in _emission_sites()}
        assert sorted(set(EVENTS) - emitted) == []


def _stream_digest(run):
    """The event count and sha256 of ``run``'s JSONL event stream, with
    the wall-clock fields dropped from every line."""
    stream = io.StringIO()
    tracer = JsonlTracer(stream)
    with use_tracer(tracer):
        run()
    tracer.close()
    digest = hashlib.sha256()
    lines = stream.getvalue().splitlines()
    for line in lines:
        document = {
            key: value
            for key, value in json.loads(line).items()
            if key not in VOLATILE_TRACE_FIELDS
        }
        digest.update(json.dumps(document, separators=(",", ":")).encode())
        digest.update(b"\n")
    return len(lines), digest.hexdigest()


class TestPinnedEventStream:
    """The JSONL event stream of two runs, pinned byte for byte.

    The digests were taken before the named per-event hooks were replaced
    by ``emit``; a change in any event name, field name, field order or
    value changes them.
    """

    def test_static_ci_scale_heuristic_run(self):
        def run():
            scenario = ScenarioGenerator(GeneratorConfig.reduced()).generate(0)
            make_heuristic("full_one", criterion="C4", weights=2.0).run(
                scenario
            )

        assert _stream_digest(run) == (
            17770,
            "26d9f87a63c9167db511cbd58b976ad49c6d874b38c5f11f55f11492f6bee4d3",
        )

    def test_faulted_dynamic_run_with_churn_and_losses(self):
        def run():
            scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(0)
            events, plan = dynamic_fault_events(scenario, 0, 0.5)
            with use_faults(plan):
                DynamicDriver("partial", "C4", 2.0).run(scenario, events)

        assert _stream_digest(run) == (
            53074,
            "4c7a230a7c032a81858db6fa4b9df0e19ee5e8ce1fdf72d623f8b6d4d2a2ae45",
        )
