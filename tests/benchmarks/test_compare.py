"""Perf-regression gating: verdicts, exit codes, and the CLI gate."""

import json

import pytest

from repro.benchmarks import (
    EXIT_FLAT,
    EXIT_IMPROVED,
    EXIT_REGRESSED,
    Thresholds,
    compare_documents,
    render_comparison,
    verdict_exit_code,
)
from repro.benchmarks.compare import (
    VERDICT_FLAT,
    VERDICT_IMPROVED,
    VERDICT_REGRESSED,
)
from repro.cli import main
from repro.observability import Profile


def _stat(total, count=4):
    """A wall/cpu span stat pair with the given wall total."""
    each = total / count
    return {
        "wall": {
            "count": count,
            "total": total,
            "min": each,
            "max": each,
        },
        "cpu": {
            "count": count,
            "total": total / 2.0,
            "min": each / 2.0,
            "max": each / 2.0,
        },
    }


def _document(walls, label="base"):
    """A minimal schema-valid bench document from {path: wall_total}."""
    return {
        "format_version": 1,
        "kind": "bench",
        "schema_version": 1,
        "label": label,
        "scale": "ci",
        "environment": {"python": "3.x", "cpu_count": 4},
        "cache": {
            "cells": 5,
            "computed": 5,
            "cache_hits": 0,
            "hit_rate": 0.0,
        },
        "harness": {
            "format_version": 1,
            "kind": "profile",
            "schema_version": Profile.SCHEMA_VERSION,
            "spans": {"scenario_generation": _stat(1.0)},
        },
        "entries": {
            "partial/C4": {
                "elapsed_seconds": sum(walls.values()),
                "cells": 5,
                "profile": {
                    "format_version": 1,
                    "kind": "profile",
                    "schema_version": Profile.SCHEMA_VERSION,
                    "spans": {
                        path: _stat(total) for path, total in walls.items()
                    },
                },
                "hotspots": [{"path": path} for path in walls],
            }
        },
    }


_BASE_WALLS = {"tree": 10.0, "tree/dijkstra": 8.0, "scoring": 2.0}


def _scaled(factor, label="cand"):
    return _document(
        {path: wall * factor for path, wall in _BASE_WALLS.items()},
        label=label,
    )


class TestVerdicts:
    def test_self_comparison_is_flat(self):
        document = _document(_BASE_WALLS)
        comparison = compare_documents(document, document)
        assert comparison.verdict == VERDICT_FLAT
        assert not comparison.regressions
        assert not comparison.improvements

    def test_inflated_walls_regress(self):
        comparison = compare_documents(
            _document(_BASE_WALLS), _scaled(1.5)
        )
        assert comparison.verdict == VERDICT_REGRESSED
        paths = {delta.path for delta in comparison.regressions}
        assert "tree/dijkstra" in paths

    def test_deflated_walls_improve(self):
        comparison = compare_documents(
            _document(_BASE_WALLS), _scaled(0.5)
        )
        assert comparison.verdict == VERDICT_IMPROVED
        assert not comparison.regressions

    def test_any_regression_outranks_improvements(self):
        walls = dict(_BASE_WALLS)
        walls["scoring"] = 0.5  # improved
        walls["tree/dijkstra"] = 20.0  # regressed
        comparison = compare_documents(
            _document(_BASE_WALLS), _document(walls, label="cand")
        )
        assert comparison.improvements
        assert comparison.regressions
        assert comparison.verdict == VERDICT_REGRESSED

    def test_changes_within_threshold_stay_flat(self):
        comparison = compare_documents(
            _document(_BASE_WALLS), _scaled(1.1)
        )
        assert comparison.verdict == VERDICT_FLAT

    def test_micro_phases_under_the_noise_floor_never_regress(self):
        baseline = _document({"tree": 0.001})
        candidate = _document({"tree": 0.04}, label="cand")  # 40x slower
        comparison = compare_documents(baseline, candidate)
        assert comparison.verdict == VERDICT_FLAT

    def test_zero_baseline_with_real_candidate_cost_regresses(self):
        baseline = _document({"tree": 0.0})
        candidate = _document({"tree": 5.0}, label="cand")
        comparison = compare_documents(baseline, candidate)
        assert comparison.verdict == VERDICT_REGRESSED
        (delta,) = [
            d for d in comparison.regressions if d.path == "tree"
        ]
        assert delta.ratio == float("inf")

    def test_phases_on_only_one_side_are_informational(self):
        baseline = _document(dict(_BASE_WALLS, booking=50.0))
        candidate = _document(dict(_BASE_WALLS, gc=50.0), label="cand")
        comparison = compare_documents(baseline, candidate)
        assert ("partial/C4", "booking") in comparison.only_baseline
        assert ("partial/C4", "gc") in comparison.only_candidate
        # Neither lopsided phase affects the verdict; elapsed differs by
        # 0 so everything comparable is flat.
        assert comparison.verdict == VERDICT_FLAT

    def test_thresholds_are_configurable(self):
        loose = Thresholds(max_regression=2.0)
        comparison = compare_documents(
            _document(_BASE_WALLS), _scaled(1.5), loose
        )
        assert comparison.verdict == VERDICT_FLAT


class TestExitCodes:
    def test_mapping_is_distinct(self):
        assert verdict_exit_code(VERDICT_FLAT) == EXIT_FLAT == 0
        assert verdict_exit_code(VERDICT_IMPROVED) == EXIT_IMPROVED == 3
        assert verdict_exit_code(VERDICT_REGRESSED) == EXIT_REGRESSED == 4
        assert len({EXIT_FLAT, EXIT_IMPROVED, EXIT_REGRESSED}) == 3
        # 1 and 2 stay free for crashes and argparse usage errors.
        assert not {1, 2} & {EXIT_FLAT, EXIT_IMPROVED, EXIT_REGRESSED}


class TestRender:
    def test_report_flags_environment_mismatch_and_verdict(self):
        baseline = _document(_BASE_WALLS)
        candidate = _scaled(1.5)
        candidate["environment"] = {"python": "3.y", "cpu_count": 1}
        comparison = compare_documents(baseline, candidate)
        text = render_comparison(comparison, baseline, candidate)
        assert "WARNING" in text
        assert "REGRESSED" in text
        assert text.splitlines()[-1] == "verdict: REGRESSED"

    def test_flat_report_has_no_warning(self):
        document = _document(_BASE_WALLS)
        comparison = compare_documents(document, document)
        text = render_comparison(comparison, document, document)
        assert "WARNING" not in text
        assert text.splitlines()[-1] == "verdict: FLAT"


class TestCliGate:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    @pytest.fixture
    def baseline_path(self, tmp_path):
        return self._write(tmp_path, "baseline.json", _document(_BASE_WALLS))

    def test_flat_exits_zero(self, baseline_path, capsys):
        code = main(["bench", "compare", baseline_path, baseline_path])
        assert code == EXIT_FLAT
        assert "verdict: FLAT" in capsys.readouterr().out

    def test_regression_exits_four(self, baseline_path, tmp_path, capsys):
        candidate = self._write(tmp_path, "cand.json", _scaled(1.5))
        code = main(["bench", "compare", baseline_path, candidate])
        assert code == EXIT_REGRESSED
        assert "verdict: REGRESSED" in capsys.readouterr().out

    def test_improvement_exits_three(self, baseline_path, tmp_path):
        candidate = self._write(tmp_path, "cand.json", _scaled(0.5))
        code = main(["bench", "compare", baseline_path, candidate])
        assert code == EXIT_IMPROVED

    def test_warn_only_reports_but_exits_zero(
        self, baseline_path, tmp_path, capsys
    ):
        candidate = self._write(tmp_path, "cand.json", _scaled(1.5))
        code = main(
            ["bench", "compare", baseline_path, candidate, "--warn-only"]
        )
        assert code == EXIT_FLAT
        assert "verdict: REGRESSED" in capsys.readouterr().out

    def test_fail_on_regression_still_fails_regressions(
        self, baseline_path, tmp_path
    ):
        candidate = self._write(tmp_path, "cand.json", _scaled(1.5))
        code = main(
            [
                "bench",
                "compare",
                baseline_path,
                candidate,
                "--fail-on-regression",
            ]
        )
        assert code == EXIT_REGRESSED

    def test_fail_on_regression_maps_improvement_to_zero(
        self, baseline_path, tmp_path, capsys
    ):
        candidate = self._write(tmp_path, "cand.json", _scaled(0.5))
        code = main(
            [
                "bench",
                "compare",
                baseline_path,
                candidate,
                "--fail-on-regression",
            ]
        )
        assert code == EXIT_FLAT
        assert "verdict: IMPROVED" in capsys.readouterr().out

    def test_custom_thresholds_flow_through(self, baseline_path, tmp_path):
        candidate = self._write(tmp_path, "cand.json", _scaled(1.5))
        code = main(
            [
                "bench",
                "compare",
                baseline_path,
                candidate,
                "--max-regression",
                "2.0",
            ]
        )
        assert code == EXIT_FLAT

    def test_invalid_document_is_a_cli_error(self, baseline_path, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        code = main(["bench", "compare", baseline_path, str(broken)])
        assert code == 2
