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
    TREE_CACHE_REASONS,
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

    def test_each_event_streams_as_one_json_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit("tree_cache", 3, False, "cold")
            tracer.emit("run_end", "label", 0.25)
        documents = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert documents[0] == {
            "event": "tree_cache",
            "item_id": 3,
            "hit": False,
            "reason": "cold",
        }
        assert documents[1] == {
            "event": "run_end",
            "label": "label",
            "elapsed_seconds": 0.25,
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

    def test_every_reason_literal_is_registered(self):
        # A string literal in an event's ``reason`` position must be a
        # registered code; names of the REASON_* constants pass unseen.
        reasons = set(REASON_CODES + TREE_CACHE_REASONS)
        unknown = []
        for where, name, values in _emission_sites():
            fields = EVENTS.get(name, ())
            if "reason" not in fields:
                continue
            position = fields.index("reason")
            for value in values[position:position + 1]:
                if (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and value.value not in reasons
                ):
                    unknown.append((where, name, value.value))
        assert unknown == []


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

    The faulted dynamic digest was re-pinned (53,074 -> 30,031 events)
    when drains stopped searching items whose open requests are all
    hidden (unrevealed or cancelled).  Only search events went
    (``tree_cache``, ``dijkstra``, ``transfer_attempt``,
    ``transfer_rejected``, ``item_scored`` and the span events); the
    differential in ``tests/experiments/test_hidden_item_differential.py``
    checks that the new stream is a subsequence of the old selection's.

    Both digests were re-pinned (static 17,770 -> 17,176 events, faulted
    dynamic 30,031 -> 4,762) when drains stopped searching items proven
    to have no candidate: the static run drops such an item within its
    drain, and the dynamic run also leaves it out of later passes until
    its revision, an epoch or its visible requests change.  Again only
    search events went; ``tests/experiments/test_dead_item_differential
    .py`` checks both pinned runs against the every-open-item oracle.

    Both digests were re-pinned again (static 17,176 -> 3,045 events,
    faulted dynamic 4,762 -> 531) when searches became deadline-bounded:
    a search stops once no pending target can still meet its deadline,
    and a booking that delays only a missed path no longer forces a
    recompute.  Only search events went; ``tests/experiments/
    test_deadline_horizon_differential.py`` checks both pinned runs
    against the unbounded-search oracle.

    Both digests were re-pinned again (static 3,045 -> 2,617 events,
    faulted dynamic 531 -> 472) when a booking started rebasing the
    booked item's tree onto its new copies instead of searching it
    again: each decision adds one ``tree_rebased`` event inside a
    ``tree`` span, and the item's next ``tree_cache`` request reads
    ``clean`` with no search behind it.  ``tests/experiments/test_rebase_differential.py`` checks both
    pinned runs against the search-again oracle.

    The static digest was re-pinned (2,617 -> 1,823 events) when drains
    started keeping each item's scored payload across decisions and
    requesting only the booked item and the items the journal replay
    found in conflict.  Only ``tree_cache`` hits went (881 -> 87
    requests: ``clean`` 92 -> 37, ``revalidated`` 739 -> 0); the misses
    and their reasons (25 ``cold``, 25 ``link_conflict``) did not change.
    ``tests/heuristics/test_dirty_selection_differential.py`` checks the
    dirty set against both the every-open-item and the
    rescore-every-shortlisted-item oracles.  The faulted dynamic stream
    did not change.

    The faulted dynamic digest was re-pinned (472 -> 431 events) when
    dynamic passes started carrying the trees of the pass before instead
    of searching every requested item again.  Its 33 ``tree_cache``
    requests went from 24 ``cold`` and 9 ``clean`` to 13 ``cold``, 9
    ``clean``, 7 ``carried``, 2 ``plan_expired``, 1 ``link_conflict``
    and 1 ``item_changed``; ``dijkstra`` events fell 24 -> 17, and only
    search events went.  ``tests/experiments/test_carry_differential.py``
    checks carried runs against per-pass tree caches.  The static stream
    did not change.

    Both digests were re-pinned again (static 1,823 -> 1,225 events,
    faulted dynamic 431 -> 235) when span profiling was deleted: the
    ``span_start`` and ``span_end`` events went and nothing else moved.
    Each new digest equals the old stream's digest with those two events
    filtered out, computed on the code before the deletion.

    The faulted dynamic digest was re-pinned (235 -> 215 events) when a
    dynamic run started keeping one shortlist for all its passes: an
    item proven to have no candidate is no longer requested again after
    a copy loss whose released storage misses its tree.  After the loss
    7 ``carried`` and 2 ``plan_expired`` requests went, each with its
    ``item_scored`` event (0 candidates), and ``dijkstra`` events fell
    17 -> 15; only search events went.
    ``tests/experiments/test_run_shortlist_differential.py`` checks the
    kept shortlist against per-drain shortlists.

    Both digests were re-pinned again (static 1,225 -> 1,207 events,
    faulted dynamic 215 -> 212) when a decision that leaves its item no
    open request stopped rebasing the item's tree.  Exactly the
    ``tree_rebased`` events of those decisions went (18 of 55 static
    decisions, 3 of 14 dynamic ones) and nothing else moved;
    ``tests/experiments/test_rebase_refresh_differential.py`` checks
    every rebase and every finished decision against the rebase it
    replaced.
    """

    def test_static_ci_scale_heuristic_run(self):
        def run():
            scenario = ScenarioGenerator(GeneratorConfig.reduced()).generate(0)
            make_heuristic("full_one", criterion="C4", weights=2.0).run(
                scenario
            )

        assert _stream_digest(run) == (
            1207,
            "73aa5313eead2df44577708d542332f245777d1f3c1d9d8d457757c9dcae29a1",
        )

    def test_faulted_dynamic_run_with_churn_and_losses(self):
        def run():
            scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(0)
            events, plan = dynamic_fault_events(scenario, 0, 0.5)
            with use_faults(plan):
                DynamicDriver("partial", "C4", 2.0).run(scenario, events)

        assert _stream_digest(run) == (
            212,
            "d055cc3935d9770a4a523f532d8ce75a5ae92c0bf0d9772cc4ffbdb66ec499ce",
        )
