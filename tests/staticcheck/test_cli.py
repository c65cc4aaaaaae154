"""CLI acceptance: exit codes on the fixture trees and the shipped tree.

The committed fixtures under ``fixtures/`` carry one seeded violation
per rule (``bad_tree``) and their sanctioned counterparts
(``clean_tree``); the shipped ``src/repro`` tree must lint clean with
the committed (empty) baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main as datastage_main
from repro.staticcheck.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"
BAD_TREE = FIXTURES / "bad_tree"
CLEAN_TREE = FIXTURES / "clean_tree"
REPO_ROOT = Path(__file__).resolve().parents[2]


ALL_RULES = ("R0", "R1", "R2", "R5", "R7", "R9")


def test_bad_tree_trips_every_rule(capsys):
    exit_code = lint_main([str(BAD_TREE), "--no-baseline"])
    assert exit_code == 1
    out = capsys.readouterr().out
    for rule_id in ALL_RULES:
        assert rule_id in out


def test_clean_tree_exits_zero(capsys):
    assert lint_main([str(CLEAN_TREE), "--no-baseline"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_shipped_tree_is_clean_with_committed_baseline(monkeypatch, capsys):
    # The acceptance bar: `datastage lint src/repro` exits 0 on the
    # shipped tree, with the committed baseline staying empty.
    monkeypatch.chdir(REPO_ROOT)
    baseline = json.loads(
        (REPO_ROOT / "staticcheck-baseline.json").read_text(encoding="utf-8")
    )
    assert baseline["findings"] == []
    assert lint_main([str(REPO_ROOT / "src" / "repro")]) == 0


def test_datastage_lint_subcommand_is_wired(capsys):
    exit_code = datastage_main(
        ["lint", str(CLEAN_TREE), "--no-baseline"]
    )
    assert exit_code == 0
    assert "file(s) checked" in capsys.readouterr().out


def test_json_format_reports_structured_findings(capsys):
    exit_code = lint_main(
        [str(BAD_TREE), "--no-baseline", "--format", "json"]
    )
    assert exit_code == 1
    document = json.loads(capsys.readouterr().out)
    rules = {finding["rule"] for finding in document["findings"]}
    assert rules == set(ALL_RULES)
    for finding in document["findings"]:
        assert finding["path"].endswith(".py")
        assert finding["line"] >= 1
        assert finding["message"]


def test_update_baseline_then_rerun_is_clean(tmp_path, capsys):
    baseline = tmp_path / "grandfathered.json"
    assert (
        lint_main(
            [
                str(BAD_TREE),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    assert baseline.is_file()
    capsys.readouterr()
    exit_code = lint_main([str(BAD_TREE), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "0 finding(s)" in out


def test_list_rules_prints_the_registry(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULES:
        assert rule_id in out


def test_unknown_rule_id_is_a_configuration_error(capsys):
    assert lint_main([str(CLEAN_TREE), "--rules", "R99"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_rule_selection_restricts_the_run(capsys):
    exit_code = lint_main(
        [str(BAD_TREE), "--no-baseline", "--rules", "R2", "--format", "json"]
    )
    assert exit_code == 1
    document = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in document["findings"]} == {"R2"}


def test_shipped_tree_is_clean_under_the_interprocedural_rules(capsys):
    # The acceptance bar for the whole-program layer: R7/R9 alone exit
    # 0 on the shipped tree without any baseline help.
    assert (
        lint_main(
            [
                str(REPO_ROOT / "src" / "repro"),
                "--no-baseline",
                "--rules",
                "R7,R9",
            ]
        )
        == 0
    )


def test_two_runs_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        lint_main([str(BAD_TREE), "--no-baseline", "--format", "json"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_stats_reports_rule_counts_and_graph_coverage(capsys):
    exit_code = lint_main(
        [str(BAD_TREE), "--no-baseline", "--stats", "--format", "json"]
    )
    assert exit_code == 1
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["findings_by_rule"]["R2"] == 1
    assert stats["baseline_entries"] == 0
    assert stats["call_sites"] > 0
    assert 0.0 <= stats["call_graph_coverage_percent"] <= 100.0
    exit_code = lint_main([str(BAD_TREE), "--no-baseline", "--stats"])
    assert exit_code == 1
    out = capsys.readouterr().out
    assert "call graph:" in out
    assert "findings[R2]: 1" in out


def _violation(name: str) -> str:
    return (
        f"def {name}(start_time: float, end_time: float) -> bool:\n"
        f'    """Raw float equality (deliberately bad)."""\n'
        f"    return start_time == end_time\n"
    )


def test_update_baseline_ratchet_allows_shrink(tmp_path, capsys):
    tree = tmp_path / "tree"
    (tree / "core").mkdir(parents=True)
    (tree / "core" / "one.py").write_text(_violation("one"))
    (tree / "core" / "two.py").write_text(_violation("two"))
    baseline = tmp_path / "baseline.json"
    args = [str(tree), "--baseline", str(baseline), "--rules", "R2"]
    assert lint_main(args + ["--update-baseline"]) == 0
    assert len(json.loads(baseline.read_text())["findings"]) == 2
    # Fix one violation: the rewrite shrinks and is admitted.
    (tree / "core" / "two.py").write_text(
        "def two(start_time: float, end_time: float) -> bool:\n"
        '    """Fixed."""\n'
        "    return abs(start_time - end_time) <= 1e-9\n"
    )
    capsys.readouterr()
    assert lint_main(args + ["--update-baseline"]) == 0
    assert len(json.loads(baseline.read_text())["findings"]) == 1


def test_update_baseline_ratchet_refuses_growth(tmp_path, capsys):
    tree = tmp_path / "tree"
    (tree / "core").mkdir(parents=True)
    (tree / "core" / "one.py").write_text(_violation("one"))
    baseline = tmp_path / "baseline.json"
    args = [str(tree), "--baseline", str(baseline), "--rules", "R2"]
    assert lint_main(args + ["--update-baseline"]) == 0
    before = baseline.read_text()
    # A new violation lands: the rewrite would grow and must be refused.
    (tree / "core" / "two.py").write_text(_violation("two"))
    capsys.readouterr()
    assert lint_main(args + ["--update-baseline"]) == 2
    assert "refusing to grow baseline" in capsys.readouterr().err
    assert baseline.read_text() == before


def test_ratchet_check_fails_on_stale_baseline_entries(tmp_path, capsys):
    tree = tmp_path / "tree"
    (tree / "core").mkdir(parents=True)
    (tree / "core" / "one.py").write_text(_violation("one"))
    baseline = tmp_path / "baseline.json"
    args = [str(tree), "--baseline", str(baseline), "--rules", "R2"]
    assert lint_main(args + ["--update-baseline"]) == 0
    capsys.readouterr()
    # While the violation exists the baseline is tight: check passes.
    assert lint_main(args + ["--ratchet-check"]) == 0
    capsys.readouterr()
    # Fix it without shrinking the baseline: the entry is stale now.
    (tree / "core" / "one.py").write_text(
        "def one() -> bool:\n"
        '    """Fixed."""\n'
        "    return True\n"
    )
    assert lint_main(args + ["--ratchet-check"]) == 1
    assert "stale" in capsys.readouterr().err
    # Shrinking the baseline restores a passing check.
    assert lint_main(args + ["--update-baseline"]) == 0
    capsys.readouterr()
    assert lint_main(args + ["--ratchet-check"]) == 0
