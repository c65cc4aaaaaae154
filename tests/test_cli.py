"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.serialization import load_scenario


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    code = main(
        ["generate", str(path), "--seed", "5", "--profile", "tiny"]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_loadable_scenario(self, scenario_path, capsys):
        scenario = load_scenario(scenario_path)
        assert scenario.name == "badd-5"
        assert scenario.network.is_strongly_connected()

    def test_profiles_differ(self, tmp_path):
        tiny = tmp_path / "tiny.json"
        reduced = tmp_path / "reduced.json"
        main(["generate", str(tiny), "--profile", "tiny", "--seed", "1"])
        main(
            ["generate", str(reduced), "--profile", "reduced", "--seed", "1"]
        )
        tiny_doc = json.loads(tiny.read_text())
        reduced_doc = json.loads(reduced.read_text())
        assert len(tiny_doc["machines"]) < len(reduced_doc["machines"])


class TestRun:
    def test_prints_outcome(self, scenario_path, capsys):
        code = main(
            [
                "run",
                str(scenario_path),
                "--heuristic",
                "full_one",
                "--criterion",
                "C4",
                "--log-ratio",
                "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "full_one/C4" in out
        assert "weighted sum" in out

    def test_save_schedule(self, scenario_path, tmp_path, capsys):
        schedule_path = tmp_path / "schedule.json"
        code = main(
            [
                "run",
                str(scenario_path),
                "--save-schedule",
                str(schedule_path),
            ]
        )
        assert code == 0
        assert schedule_path.exists()


class TestBounds:
    def test_prints_both_bounds(self, scenario_path, capsys):
        assert main(["bounds", str(scenario_path)]) == 0
        out = capsys.readouterr().out
        assert "upper_bound" in out
        assert "possible_satisfy" in out


class TestValidate:
    def test_valid_schedule_accepted(self, scenario_path, tmp_path, capsys):
        schedule_path = tmp_path / "schedule.json"
        main(["run", str(scenario_path), "--save-schedule", str(schedule_path)])
        assert main(["validate", str(scenario_path), str(schedule_path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_tampered_schedule_rejected(
        self, scenario_path, tmp_path, capsys
    ):
        schedule_path = tmp_path / "schedule.json"
        main(["run", str(scenario_path), "--save-schedule", str(schedule_path)])
        document = json.loads(schedule_path.read_text())
        if document["steps"]:
            document["steps"][0]["start"] -= 1000.0
            document["steps"][0]["end"] -= 1000.0
        schedule_path.write_text(json.dumps(document))
        code = main(["validate", str(scenario_path), str(schedule_path)])
        if document["steps"]:
            assert code == 1
            assert "INVALID" in capsys.readouterr().out


class TestPresetProfiles:
    def test_theater_preset(self, tmp_path, capsys):
        path = tmp_path / "theater.json"
        assert main(["generate", str(path), "--profile", "theater"]) == 0
        scenario = load_scenario(path)
        assert scenario.name == "badd-theater"

    def test_diamond_preset(self, tmp_path):
        path = tmp_path / "diamond.json"
        assert main(["generate", str(path), "--profile", "diamond"]) == 0
        assert load_scenario(path).request_count == 1


class TestStatsAndGantt:
    @pytest.fixture
    def scheduled_paths(self, scenario_path, tmp_path):
        schedule_path = tmp_path / "schedule.json"
        main(
            ["run", str(scenario_path), "--save-schedule", str(schedule_path)]
        )
        return scenario_path, schedule_path

    def test_stats_output(self, scheduled_paths, capsys):
        scenario_path, schedule_path = scheduled_paths
        capsys.readouterr()
        assert main(["stats", str(scenario_path), str(schedule_path)]) == 0
        out = capsys.readouterr().out
        assert "deliveries:" in out
        assert "max link utilization:" in out
        assert "peak storage fraction:" in out

    def test_gantt_output(self, scheduled_paths, capsys):
        scenario_path, schedule_path = scheduled_paths
        capsys.readouterr()
        assert main(
            ["gantt", str(scenario_path), str(schedule_path), "--width", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "|" in out


class TestFigure:
    def test_figure_renders_table(self, capsys, monkeypatch):
        # Shrink the scale so the figure computes in well under a second.
        from repro.experiments.scale import ExperimentScale
        from repro.workload.config import GeneratorConfig
        import repro.cli as cli

        tiny_scale = ExperimentScale(
            name="ci",
            cases=2,
            config=GeneratorConfig.tiny(),
            log_ratios=(0.0, float("inf")),
        )
        monkeypatch.setattr(cli, "scale_by_name", lambda name: tiny_scale)
        assert main(["figure", "5", "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        assert "full_all/C4" in out

    def test_figure_2_includes_bounds(self, capsys, monkeypatch):
        from repro.experiments.scale import ExperimentScale
        from repro.workload.config import GeneratorConfig
        import repro.cli as cli

        tiny_scale = ExperimentScale(
            name="ci",
            cases=1,
            config=GeneratorConfig.tiny(),
            log_ratios=(0.0,),
        )
        monkeypatch.setattr(cli, "scale_by_name", lambda name: tiny_scale)
        assert main(["figure", "2", "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        assert "upper_bound" in out
        assert "single_Dij_random" in out


class TestSweep:
    def test_sweep_renders_series_row(self, capsys, monkeypatch):
        from repro.experiments.scale import ExperimentScale
        from repro.workload.config import GeneratorConfig
        import repro.cli as cli

        tiny_scale = ExperimentScale(
            name="ci",
            cases=2,
            config=GeneratorConfig.tiny(),
            log_ratios=(0.0, float("inf")),
        )
        monkeypatch.setattr(cli, "scale_by_name", lambda name: tiny_scale)
        assert main(
            ["sweep", "--heuristic", "partial", "--criterion", "C3"]
        ) == 0
        out = capsys.readouterr().out
        assert "partial/C3" in out
        assert "inf" in out


class TestTimelineFlag:
    def test_sweep_emits_a_loadable_timeline(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.experiments.scale import ExperimentScale
        from repro.observability import Timeline
        from repro.serialization import document_from_dict
        from repro.workload.config import GeneratorConfig
        import repro.cli as cli

        tiny_scale = ExperimentScale(
            name="ci",
            cases=2,
            config=GeneratorConfig.tiny(),
            log_ratios=(0.0,),
        )
        monkeypatch.setattr(cli, "scale_by_name", lambda name: tiny_scale)
        path = tmp_path / "timeline.json"
        assert main(["sweep", "--timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "simulated-time telemetry" in out
        assert f"timeline written to {path}" in out
        timeline = document_from_dict(
            Timeline, json.loads(path.read_text(encoding="utf-8"))
        )
        assert timeline.runs == 2


class TestReportTimeline:
    @pytest.fixture()
    def timeline_path(self, tmp_path, line_scenario):
        import json

        from repro.heuristics.registry import make_heuristic
        from repro.observability import TimelineCollector, use_tracer
        from repro.serialization import document_to_dict

        collector = TimelineCollector(line_scenario)
        with use_tracer(collector):
            make_heuristic("full_one", "C4", 0.0).run(line_scenario)
        path = tmp_path / "timeline.json"
        path.write_text(
            json.dumps(document_to_dict(collector.finalize())),
            encoding="utf-8",
        )
        return path

    def test_renders_html_and_chrome_trace(
        self, timeline_path, tmp_path, capsys
    ):
        import json

        html = tmp_path / "report.html"
        trace = tmp_path / "trace.json"
        assert main(
            [
                "report",
                "--timeline",
                str(timeline_path),
                "--html",
                str(html),
                "--chrome-trace",
                str(trace),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "simulated-time telemetry" in out
        assert html.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert document["traceEvents"]

    def test_digest_alone_needs_no_outputs(self, timeline_path, capsys):
        assert main(["report", "--timeline", str(timeline_path)]) == 0
        assert "simulated-time telemetry" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["links"].update(abc=doc["links"].popitem()[1]),
            lambda doc: next(iter(doc["classes"].values()))["drains"].append(
                "soon"
            ),
        ],
        ids=["non-integer-link-key", "string-drain"],
    )
    def test_malformed_timeline_is_an_error_not_a_traceback(
        self, timeline_path, tmp_path, capsys, corrupt
    ):
        import json

        document = json.loads(timeline_path.read_text(encoding="utf-8"))
        corrupt(document)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        assert main(["report", "--timeline", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: timeline.")
        assert "Traceback" not in err

    def test_exporter_flags_require_a_timeline(self, tmp_path, capsys):
        code = main(
            ["report", "--html", str(tmp_path / "out.html")]
        )
        assert code == 2
        assert "--timeline" in capsys.readouterr().err


class TestDescribe:
    def test_describe_output(self, scenario_path, capsys):
        capsys.readouterr()
        assert main(["describe", str(scenario_path)]) == 0
        out = capsys.readouterr().out
        assert "machines:" in out
        assert "demand/supply:" in out


class TestReport:
    def test_report_to_stdout(self, tmp_path, capsys):
        results = tmp_path / "results"
        (results / "ci").mkdir(parents=True)
        (results / "ci" / "figure2.txt").write_text("FIG2 ROWS")
        assert main(
            ["report", "--results-dir", str(results), "--scale", "ci"]
        ) == 0
        out = capsys.readouterr().out
        assert "FIG2 ROWS" in out

    def test_report_to_file(self, tmp_path, capsys):
        results = tmp_path / "results"
        (results / "full").mkdir(parents=True)
        output = tmp_path / "report.md"
        assert main(
            [
                "report",
                "--results-dir",
                str(results),
                "--scale",
                "full",
                "--output",
                str(output),
            ]
        ) == 0
        assert output.exists()
        assert "Recorded results" in output.read_text()


class TestErrors:
    def test_missing_file_reports_error(self, capsys):
        code = main(["bounds", "/nonexistent/scenario.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_non_string_item_name_is_an_error_not_a_traceback(
        self, scenario_path, capsys
    ):
        document = json.loads(scenario_path.read_text(encoding="utf-8"))
        document["items"][0]["name"] = {"a": 1}
        scenario_path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["bounds", str(scenario_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: item entry 0 name must be a string")
        assert "Traceback" not in err

    def test_malformed_schedule_entry_is_an_error_not_a_traceback(
        self, scenario_path, tmp_path, capsys
    ):
        schedule_path = tmp_path / "schedule.json"
        schedule_path.write_text(
            json.dumps(
                {
                    "kind": "schedule",
                    "steps": [{"item_id": 0}],
                    "deliveries": [],
                }
            ),
            encoding="utf-8",
        )
        code = main(["validate", str(scenario_path), str(schedule_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step entry 0 is missing key 'source'")
        assert "Traceback" not in err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
