"""Span profiler mechanics: nesting, exception safety, merge, codecs."""

import pytest

from repro.errors import ModelError
from repro.heuristics.registry import make_heuristic
from repro.observability import (
    NULL_TRACER,
    PHASE_NAMES,
    Profile,
    ProfileCollector,
    RecordingTracer,
    SpanStat,
    current_tracer,
    render_profile,
    span,
    use_tracer,
)
from repro.observability.profiling import _NULL_SPAN
from repro.serialization import (
    document_from_dict,
    document_to_dict,
    merge_documents,
)
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator


class TestSpanContextManager:
    def test_disabled_tracer_yields_the_shared_inert_singleton(self):
        assert current_tracer() is NULL_TRACER
        first = span("tree")
        second = span("scoring")
        assert first is _NULL_SPAN
        assert second is _NULL_SPAN
        with first:
            pass  # no events, no clock reads

    def test_spans_nest_into_slash_joined_paths(self):
        collector = ProfileCollector()
        with use_tracer(collector):
            with span("tree"):
                with span("dijkstra"):
                    pass
                with span("dijkstra"):
                    pass
            with span("scoring"):
                pass
        profile = collector.finalize()
        assert set(profile.spans) == {"tree", "tree/dijkstra", "scoring"}
        assert profile.stat("tree/dijkstra").count == 2
        assert profile.stat("tree").count == 1

    def test_span_end_fires_on_exception(self):
        collector = ProfileCollector()
        with use_tracer(collector):
            with pytest.raises(ValueError):
                with span("tree"):
                    with span("dijkstra"):
                        raise ValueError("boom")
        profile = collector.finalize()
        # Both spans closed despite the raise, at their nested paths.
        assert profile.stat("tree").count == 1
        assert profile.stat("tree/dijkstra").count == 1

    def test_explicit_tracer_overrides_the_ambient_one(self):
        explicit = ProfileCollector()
        ambient = ProfileCollector()
        with use_tracer(ambient):
            with span("booking", explicit):
                pass
        assert explicit.finalize().stat("booking").count == 1
        assert ambient.finalize().empty

    def test_durations_are_positive_and_wall_dominates_sleep(self):
        collector = ProfileCollector()
        with use_tracer(collector):
            with span("tree"):
                sum(range(10_000))
        stat = collector.finalize().stat("tree")
        assert stat.wall.total > 0.0
        assert stat.cpu.total >= 0.0

    def test_unbalanced_end_is_recorded_flat(self):
        # A collector installed mid-span sees an end without its start;
        # it must record the span flat instead of corrupting the stack.
        collector = ProfileCollector()
        collector.emit("span_end", "dijkstra", 0.5, 0.5)
        profile = collector.finalize()
        assert profile.stat("dijkstra").count == 1

    def test_span_events_reach_plain_recording_tracers(self):
        recorder = RecordingTracer()
        with use_tracer(recorder):
            with span("gc"):
                pass
        assert recorder.named("span_start")[0]["span"] == "gc"
        end = recorder.named("span_end")[0]
        assert end["span"] == "gc"
        assert end["wall_seconds"] >= 0.0


class TestProfile:
    def _profile(self, entries):
        profile = Profile()
        for path, wall in entries:
            profile.note(path, wall, wall / 2.0)
        return profile

    def test_self_time_excludes_direct_children_only(self):
        profile = self._profile(
            [("tree", 1.0), ("tree/dijkstra", 0.75), ("tree/dijkstra", 0.05)]
        )
        assert profile.self_wall_seconds("tree") == pytest.approx(0.2)
        assert profile.self_wall_seconds("tree/dijkstra") == pytest.approx(
            0.8
        )

    def test_total_counts_only_top_level_spans(self):
        profile = self._profile(
            [("tree", 1.0), ("tree/dijkstra", 0.9), ("scoring", 0.5)]
        )
        assert profile.total_wall_seconds() == pytest.approx(1.5)

    def test_hotspots_rank_by_self_time(self):
        profile = self._profile(
            [("tree", 1.0), ("tree/dijkstra", 0.9), ("scoring", 0.5)]
        )
        ranked = profile.hotspots()
        assert [hotspot.path for hotspot in ranked] == [
            "tree/dijkstra",
            "scoring",
            "tree",
        ]
        assert ranked[0].share == pytest.approx(0.9 / 1.5)
        assert profile.hotspots(limit=1) == ranked[:1]

    def test_merge_is_pathwise_and_owns_its_data(self):
        left = self._profile([("tree", 1.0), ("scoring", 0.5)])
        right = self._profile([("tree", 2.0), ("booking", 0.25)])
        merged = left.merged(right)
        assert merged.stat("tree").count == 2
        assert merged.stat("tree").wall.total == pytest.approx(3.0)
        assert merged.stat("scoring").count == 1
        assert merged.stat("booking").count == 1
        merged.note("tree", 10.0, 10.0)
        assert left.stat("tree").count == 1  # no aliasing

    def test_merge_profiles_skips_missing_parts(self):
        parts = [
            self._profile([("tree", 1.0)]),
            None,
            self._profile([("tree", 1.0)]),
        ]
        assert merge_documents(Profile, parts).stat("tree").count == 2
        assert merge_documents(Profile, []).empty

    def test_phase_names_cover_the_instrumented_vocabulary(self):
        assert "tree" in PHASE_NAMES
        assert "dijkstra" in PHASE_NAMES
        assert "scenario_generation" in PHASE_NAMES

    def test_render_profile_mentions_every_hot_path(self):
        profile = self._profile([("tree", 1.0), ("tree/dijkstra", 0.9)])
        text = render_profile(profile)
        assert "tree/dijkstra" in text
        assert "phase" in text


class TestProfileCodec:
    def test_round_trip_is_lossless(self):
        profile = Profile()
        profile.note("tree", 1.0, 0.5)
        profile.note("tree/dijkstra", 0.75, 0.4)
        document = document_to_dict(profile)
        assert document["kind"] == "profile"
        assert document_from_dict(Profile, document) == profile

    def test_empty_stat_axes_round_trip(self):
        profile = Profile(spans={"tree": SpanStat()})
        document = document_to_dict(profile)
        assert document["spans"]["tree"]["wall"] == {
            "count": 0,
            "total": 0.0,
            "min": 0.0,
            "max": 0.0,
        }
        assert document_from_dict(Profile, document) == profile

    def test_wrong_kind_is_rejected(self):
        with pytest.raises(ModelError):
            document_from_dict(
                Profile, {"kind": "metrics", "schema_version": 1}
            )

    def test_wrong_schema_version_is_rejected(self):
        with pytest.raises(ModelError):
            document_from_dict(
                Profile,
                {
                    "format_version": 1,
                    "kind": "profile",
                    "schema_version": 99,
                    "spans": {},
                },
            )

    def test_missing_min_on_populated_stat_is_rejected(self):
        with pytest.raises(ModelError):
            document_from_dict(
                Profile,
                {
                    "format_version": 1,
                    "kind": "profile",
                    "schema_version": Profile.SCHEMA_VERSION,
                    "spans": {
                        "tree": {
                            "wall": {"count": 1, "total": 1.0},
                            "cpu": {"count": 0, "total": 0.0},
                        }
                    },
                }
            )


class TestInstrumentedLibrary:
    def test_a_real_run_produces_the_expected_phase_paths(self):
        collector = ProfileCollector()
        with use_tracer(collector):
            scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(3)
            make_heuristic("partial", criterion="C4").run(scenario)
        profile = collector.finalize()
        for path in (
            "scenario_generation",
            "gc",
            "tree",
            "tree/dijkstra",
            "scoring",
        ):
            assert profile.stat(path).count > 0, path
        # Dijkstra nests under tree: every search happened inside a
        # recompute, so no flat "dijkstra" path exists.
        assert "dijkstra" not in profile.spans
