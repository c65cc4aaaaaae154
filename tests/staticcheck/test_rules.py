"""Per-rule fixture tests: positive hit, suppressed hit, clean file.

Each rule is exercised in isolation (``rules=["Rn"]``) so a fixture
that happens to trip a second rule cannot blur the assertion.
"""

from __future__ import annotations

import pytest


def _rules_hit(result):
    return sorted({finding.rule for finding in result.findings})


# ---------------------------------------------------------------------------
# R0 — no stale suppression comments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("token", ["R99", "R8"], ids=["never", "retired"])
def test_r0_flags_unknown_rule_ids(lint_files, token):
    # A waiver naming a rule the registry does not carry (never did, or
    # no longer does) silences nothing and is itself a finding.
    result = lint_files(
        {"core/waiver.py": f"x = 1  # staticcheck: disable={token}\n"}
    )
    assert _rules_hit(result) == ["R0"]
    assert f"unknown rule id {token!r}" in result.findings[0].message


# ---------------------------------------------------------------------------
# R1 — no unseeded randomness or wall-clock reads in scheduling code
# ---------------------------------------------------------------------------

R1_BAD = """
    import random

    def jitter() -> float:
        return random.random()
"""

R1_WALLCLOCK = """
    import time
    import datetime

    def stamp() -> float:
        return time.time()

    def today() -> object:
        return datetime.datetime.now()
"""

R1_SUPPRESSED = """
    import random

    def jitter() -> float:
        return random.random()  # staticcheck: disable=R1
"""

R1_CLEAN = """
    import random
    import time

    def pick(seed: int, values: list) -> object:
        rng = random.Random(seed)
        return rng.choice(values)

    def elapsed(started: float) -> float:
        return time.perf_counter() - started
"""


def test_r1_flags_unseeded_random(lint_files):
    result = lint_files({"core/clock.py": R1_BAD}, rules=["R1"])
    assert _rules_hit(result) == ["R1"]
    assert "random.random" in result.findings[0].message


def test_r1_flags_wall_clock_reads(lint_files):
    result = lint_files({"core/clock.py": R1_WALLCLOCK}, rules=["R1"])
    assert len(result.findings) == 2
    assert all(finding.rule == "R1" for finding in result.findings)


def test_r1_suppression_comment_silences(lint_files):
    result = lint_files({"core/clock.py": R1_SUPPRESSED}, rules=["R1"])
    assert result.clean
    assert result.suppressed == 1


def test_r1_seeded_rng_and_perf_counter_are_clean(lint_files):
    result = lint_files({"core/clock.py": R1_CLEAN}, rules=["R1"])
    assert result.clean
    assert result.suppressed == 0


def test_r1_scope_excludes_analysis_modules(lint_files):
    result = lint_files({"analysis/clock.py": R1_BAD}, rules=["R1"])
    assert result.clean


# ---------------------------------------------------------------------------
# R2 — no raw float ==/!= on time or bandwidth expressions
# ---------------------------------------------------------------------------

R2_BAD = """
    def same_instant(start_time: float, end_time: float) -> bool:
        return start_time == end_time
"""

R2_SUPPRESSED = """
    def same_instant(start_time: float, end_time: float) -> bool:
        return start_time == end_time  # staticcheck: disable=R2
"""

R2_CLEAN = """
    from repro.core.units import time_eq

    def same_instant(start_time: float, end_time: float) -> bool:
        return time_eq(start_time, end_time)

    def named(kind: str) -> bool:
        return kind == "deadline"
"""


def test_r2_flags_raw_time_equality(lint_files):
    result = lint_files({"core/compare.py": R2_BAD}, rules=["R2"])
    assert _rules_hit(result) == ["R2"]


def test_r2_flags_bandwidth_inequality(lint_files):
    source = """
        def differs(bandwidth: float, other_rate: float) -> bool:
            return bandwidth != other_rate
    """
    result = lint_files({"routing/links.py": source}, rules=["R2"])
    assert _rules_hit(result) == ["R2"]


def test_r2_suppression_comment_silences(lint_files):
    result = lint_files({"core/compare.py": R2_SUPPRESSED}, rules=["R2"])
    assert result.clean
    assert result.suppressed == 1


def test_r2_comparator_and_string_compare_are_clean(lint_files):
    result = lint_files({"core/compare.py": R2_CLEAN}, rules=["R2"])
    assert result.clean


# ---------------------------------------------------------------------------
# R5 — no iteration over unordered sets in scheduling code
# ---------------------------------------------------------------------------

R5_BAD = """
    from typing import FrozenSet, List

    def drain(ids: FrozenSet[int]) -> List[int]:
        out: List[int] = []
        for request_id in ids:
            out.append(request_id)
        return out
"""

R5_LITERAL = """
    def walk() -> list:
        return [x for x in {3, 1, 2}]
"""

R5_SUPPRESSED = """
    from typing import FrozenSet, List

    def drain(ids: FrozenSet[int]) -> List[int]:
        out: List[int] = []
        for request_id in ids:  # staticcheck: disable=R5
            out.append(request_id)
        return out
"""

R5_CLEAN = """
    from typing import FrozenSet, List

    def drain(ids: FrozenSet[int]) -> List[int]:
        return [request_id for request_id in sorted(ids)]
"""


def test_r5_flags_iteration_over_set_parameter(lint_files):
    result = lint_files({"core/order.py": R5_BAD}, rules=["R5"])
    assert _rules_hit(result) == ["R5"]


def test_r5_flags_comprehension_over_set_literal(lint_files):
    result = lint_files({"heuristics/order.py": R5_LITERAL}, rules=["R5"])
    assert _rules_hit(result) == ["R5"]


def test_r5_suppression_comment_silences(lint_files):
    result = lint_files({"core/order.py": R5_SUPPRESSED}, rules=["R5"])
    assert result.clean
    assert result.suppressed == 1


def test_r5_sorted_iteration_is_clean(lint_files):
    result = lint_files({"core/order.py": R5_CLEAN}, rules=["R5"])
    assert result.clean


def test_r5_scope_excludes_observability(lint_files):
    result = lint_files({"observability/order.py": R5_BAD}, rules=["R5"])
    assert result.clean
