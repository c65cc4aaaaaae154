"""The chaos robustness study: aggregation, determinism, and the golden
ci-scale report.

The golden fixture under ``benchmarks/results/ci/chaos.txt`` pins the
full rendered report byte for byte, so refactors of the fault layer, the
executor, or the aggregation cannot silently change the robustness
numbers the docs cite.
"""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.chaos import (
    DEFAULT_INTENSITIES,
    normalized_intensities,
    render_chaos_report,
    run_chaos,
)
from repro.experiments.executor import SweepExecutor
from repro.experiments.scale import scale_by_name
from repro.heuristics.registry import heuristic_names
from repro.serialization import document_to_dict
from repro.workload.generator import ScenarioGenerator

GOLDEN_DIR = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "ci"
)

GOLDEN_INTENSITIES = (0.0, 0.5)


@pytest.fixture(scope="module")
def ci_scale():
    return scale_by_name("ci")


@pytest.fixture(scope="module")
def ci_scenarios(ci_scale):
    generator = ScenarioGenerator(ci_scale.config)
    return generator.generate_suite(ci_scale.cases, ci_scale.base_seed)


@pytest.fixture(scope="module")
def executor(tmp_path_factory):
    with SweepExecutor(
        workers=1, cache_dir=tmp_path_factory.mktemp("chaos-run-cache")
    ) as instance:
        yield instance


@pytest.fixture(scope="module")
def ci_report(ci_scale, ci_scenarios, executor):
    return run_chaos(
        ci_scenarios,
        intensities=GOLDEN_INTENSITIES,
        executor=executor,
        scale=ci_scale.name,
    )


class TestNormalization:
    def test_zero_is_always_included(self):
        assert normalized_intensities([0.5, 0.25]) == (0.0, 0.25, 0.5)

    def test_duplicates_collapse(self):
        assert normalized_intensities([0.5, 0.5, 0.0]) == (0.0, 0.5)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            normalized_intensities([bad])


class TestReportShape:
    def test_grid_covers_every_heuristic_and_intensity(self, ci_report):
        assert ci_report.heuristics == heuristic_names()
        assert ci_report.intensities == GOLDEN_INTENSITIES
        assert len(ci_report.points) == len(ci_report.heuristics) * len(
            ci_report.intensities
        )

    def test_healthy_baseline_has_zero_delta(self, ci_report):
        for heuristic in ci_report.heuristics:
            assert ci_report.point(heuristic, 0.0).miss_delta == 0.0

    def test_deltas_are_misses_minus_baseline(self, ci_report):
        for heuristic in ci_report.heuristics:
            healthy = ci_report.point(heuristic, 0.0)
            for level in ci_report.intensities:
                point = ci_report.point(heuristic, level)
                assert point.miss_delta == pytest.approx(
                    point.mean_misses - healthy.mean_misses
                )

    def test_faults_degrade_or_preserve_satisfaction(self, ci_report):
        # Injected capacity loss can never help a deadline: the mean
        # misses at intensity 0.5 must be at least the healthy level for
        # every heuristic (strictly worse for at least one).
        worse = 0
        for heuristic in ci_report.heuristics:
            delta = ci_report.point(heuristic, 0.5).miss_delta
            assert delta >= 0.0
            if delta > 0.0:
                worse += 1
        assert worse > 0

    def test_unknown_point_rejected(self, ci_report):
        with pytest.raises(ConfigurationError):
            ci_report.point("partial", 0.123)

    def test_requires_scenarios(self):
        with pytest.raises(ConfigurationError):
            run_chaos([])

    def test_plan_notes_cover_nonzero_intensities(self, ci_report):
        assert len(ci_report.plan_notes) == 1
        assert ci_report.plan_notes[0].startswith("intensity 0.5:")


class TestDeterminism:
    def test_rerun_is_identical(self, ci_scale, ci_scenarios, ci_report):
        again = run_chaos(
            ci_scenarios,
            intensities=GOLDEN_INTENSITIES,
            executor=SweepExecutor(workers=1),
            scale=ci_scale.name,
        )
        assert document_to_dict(again) == document_to_dict(ci_report)

    def test_default_intensities_force_the_baseline(self):
        assert normalized_intensities(DEFAULT_INTENSITIES)[0] == 0.0


def test_report_matches_golden(ci_report):
    golden = (GOLDEN_DIR / "chaos.txt").read_text(encoding="utf-8")
    assert render_chaos_report(ci_report) + "\n" == golden


def test_report_document_is_json_ready(ci_report):
    import json

    document = document_to_dict(ci_report)
    assert document["kind"] == "chaos_report"
    assert json.loads(json.dumps(document)) == document
