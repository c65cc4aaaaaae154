"""Tests for the markdown report assembler."""

from pathlib import Path

from repro.experiments.report import (
    REPORT_SECTIONS,
    ReportSection,
    build_report,
)


RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


class TestSectionsCatalog:
    def test_covers_every_paper_artifact(self):
        ids = [section.experiment_id for section in REPORT_SECTIONS]
        for required in ("FIG2", "FIG3", "FIG4", "FIG5", "TAB-W", "TAB-PT",
                         "TAB-RT", "TAB-MM"):
            assert required in ids

    def test_ids_unique(self):
        ids = [section.experiment_id for section in REPORT_SECTIONS]
        assert len(set(ids)) == len(ids)


class TestBuildReport:
    def test_embeds_existing_artifacts(self, tmp_path):
        scale_dir = tmp_path / "full"
        scale_dir.mkdir()
        (scale_dir / "figure2.txt").write_text("FIG2 CONTENT\nrow row")
        report = build_report(tmp_path, "full")
        assert "# Recorded results — scale `full`" in report
        assert "FIG2 CONTENT" in report
        assert "```text" in report

    def test_missing_artifacts_noted(self, tmp_path):
        (tmp_path / "ci").mkdir()
        report = build_report(tmp_path, "ci")
        assert report.count("*(not recorded at this scale)*") == len(
            REPORT_SECTIONS
        )

    def test_missing_scale_directory_is_all_unrecorded(self, tmp_path):
        report = build_report(tmp_path, "paper")
        assert "*(not recorded at this scale)*" in report

    def test_custom_sections(self, tmp_path):
        scale_dir = tmp_path / "ci"
        scale_dir.mkdir()
        (scale_dir / "only.txt").write_text("payload")
        sections = (
            ReportSection("only", "X1", "custom artifact", "anything"),
        )
        report = build_report(tmp_path, "ci", sections)
        assert "## X1: custom artifact" in report
        assert "payload" in report
        assert "FIG2" not in report


def test_committed_full_report_matches_its_artifacts():
    """``benchmarks/results/full/REPORT.md`` is what ``datastage report
    --scale full`` assembles from the committed artifacts, so refreshing
    an artifact without the report fails here."""
    committed = (RESULTS / "full" / "REPORT.md").read_text(encoding="utf-8")
    assert committed == build_report(RESULTS, "full")
