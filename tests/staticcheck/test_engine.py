"""Engine mechanics: suppressions, baseline budget, fingerprint drift."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, ModelError
from repro.staticcheck.baseline import load_baseline, save_baseline
from repro.staticcheck.engine import (
    resolve_rules,
    run_check,
    suppressed_rules,
)

TWO_IDENTICAL_VIOLATIONS = """
def first(start_time: float, end_time: float) -> bool:
    return start_time == end_time


def second(start_time: float, end_time: float) -> bool:
    return start_time == end_time
"""


def test_suppressed_rules_parses_single_and_lists():
    assert suppressed_rules("x = 1  # staticcheck: disable=R1") == {"R1"}
    assert suppressed_rules("x  # staticcheck: disable=R1, R2") == {"R1", "R2"}
    assert suppressed_rules("x  # staticcheck: disable=all") == {"all"}
    assert suppressed_rules("x = 1  # a plain comment") == frozenset()


def test_resolve_rules_rejects_unknown_ids():
    with pytest.raises(ConfigurationError):
        resolve_rules(["R99"])


def test_resolve_rules_returns_full_registry_by_default():
    assert sorted(rule.id for rule in resolve_rules(None)) == [
        "R0",
        "R1",
        "R2",
        "R5",
    ]


def test_run_check_rejects_missing_root(tmp_path):
    with pytest.raises(ConfigurationError):
        run_check(tmp_path / "nowhere")


def test_baseline_budget_is_a_multiset(tmp_path):
    # Two findings share a fingerprint (same rule, path, stripped line);
    # a baseline carrying the fingerprint once absorbs exactly one.
    target = tmp_path / "core" / "compare.py"
    target.parent.mkdir(parents=True)
    target.write_text(TWO_IDENTICAL_VIOLATIONS, encoding="utf-8")
    first = run_check(tmp_path, rules=resolve_rules(["R2"]))
    assert len(first.findings) == 2
    baseline_path = tmp_path / "baseline.json"
    save_baseline(first.findings[:1], baseline_path)
    second = run_check(
        tmp_path,
        rules=resolve_rules(["R2"]),
        baseline=load_baseline(baseline_path),
    )
    assert second.baselined == 1
    assert len(second.findings) == 1


def test_baseline_fingerprints_survive_line_drift(tmp_path):
    target = tmp_path / "core" / "compare.py"
    target.parent.mkdir(parents=True)
    source = (
        "def same(start_time: float, end_time: float) -> bool:\n"
        "    return start_time == end_time\n"
    )
    target.write_text(source, encoding="utf-8")
    first = run_check(tmp_path, rules=resolve_rules(["R2"]))
    baseline_path = tmp_path / "baseline.json"
    save_baseline(first.findings, baseline_path)
    # Shift every line down by adding a header comment block.
    target.write_text('"""A new module docstring."""\n\n\n' + source)
    shifted = run_check(
        tmp_path,
        rules=resolve_rules(["R2"]),
        baseline=load_baseline(baseline_path),
    )
    assert shifted.clean
    assert shifted.baselined == 1


def test_load_baseline_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps(["not", "an", "object"]), encoding="utf-8")
    with pytest.raises(ModelError):
        load_baseline(bad)
    bad.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ModelError):
        load_baseline(bad)


def test_save_baseline_round_trips(tmp_path):
    target = tmp_path / "core" / "compare.py"
    target.parent.mkdir(parents=True)
    target.write_text(TWO_IDENTICAL_VIOLATIONS, encoding="utf-8")
    result = run_check(tmp_path, rules=resolve_rules(["R2"]))
    baseline_path = tmp_path / "baseline.json"
    save_baseline(result.findings, baseline_path)
    fingerprints = load_baseline(baseline_path)
    assert sorted(fingerprints) == sorted(
        finding.fingerprint() for finding in result.findings
    )


def test_unparseable_module_raises_configuration_error(tmp_path):
    target = tmp_path / "core" / "broken.py"
    target.parent.mkdir(parents=True)
    target.write_text("def broken(:\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        run_check(tmp_path)
