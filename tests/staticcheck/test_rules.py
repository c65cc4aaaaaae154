"""Per-rule fixture tests: positive hit, suppressed hit, clean file.

Each rule is exercised in isolation (``rules=["Rn"]``) so a fixture
that happens to trip a second rule cannot blur the assertion.
"""

from __future__ import annotations


def _rules_hit(result):
    return sorted({finding.rule for finding in result.findings})


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
# R3 — tracer event/reason literals must exist in the registry
# ---------------------------------------------------------------------------

R3_BAD = """
    def emit(tracer: object) -> None:
        tracer.emit("transfer_boked", 0, 0)
"""

R3_BAD_REASON = """
    def reject(tracer: object) -> None:
        tracer.emit("transfer_rejected", 0, 0, "bogus_reason")
"""

R3_SUPPRESSED = """
    def emit(tracer: object) -> None:
        tracer.emit("transfer_boked", 0, 0)  # staticcheck: disable=R3
"""

R3_BAD_KWARG_ANY_CALL = """
    def note(ledger: object) -> None:
        ledger.tally(reason="typo_reason")
"""

R3_BAD_SUBSCRIPT = """
    def is_busy(event: dict) -> bool:
        return event["reason"] == "link_bizzy"
"""

R3_CLEAN = """
    def emit(tracer: object) -> None:
        tracer.emit("transfer_booked", 0, 0)

    def reject(tracer: object) -> None:
        tracer.emit("transfer_rejected", 0, 0, "window_closed")

    def finish(tracer: object) -> None:
        tracer.emit("run_end", "not_a_reason", 1.0)

    def note(ledger: object) -> None:
        ledger.tally(reason="link_busy")

    def is_cache_clean(event: dict) -> bool:
        return event["reason"] == "revalidated"

    def unrelated(event: dict) -> bool:
        return event["phase"] == "not_a_reason"
"""


def test_r3_flags_unregistered_event_name(lint_files):
    result = lint_files({"core/events.py": R3_BAD}, rules=["R3"])
    assert _rules_hit(result) == ["R3"]
    assert "transfer_boked" in result.findings[0].message


def test_r3_flags_unregistered_reason_code(lint_files):
    result = lint_files({"core/events.py": R3_BAD_REASON}, rules=["R3"])
    assert _rules_hit(result) == ["R3"]
    assert "bogus_reason" in result.findings[0].message


def test_r3_flags_reason_kwargs_on_any_call(lint_files):
    result = lint_files(
        {"core/events.py": R3_BAD_KWARG_ANY_CALL}, rules=["R3"]
    )
    assert _rules_hit(result) == ["R3"]
    assert "typo_reason" in result.findings[0].message


def test_r3_flags_subscript_reason_comparisons(lint_files):
    result = lint_files({"core/events.py": R3_BAD_SUBSCRIPT}, rules=["R3"])
    assert _rules_hit(result) == ["R3"]
    assert "link_bizzy" in result.findings[0].message


def test_r3_suppression_comment_silences(lint_files):
    result = lint_files({"core/events.py": R3_SUPPRESSED}, rules=["R3"])
    assert result.clean
    assert result.suppressed == 1


def test_r3_registered_literals_are_clean(lint_files):
    result = lint_files({"core/events.py": R3_CLEAN}, rules=["R3"])
    assert result.clean


def test_r3_registry_is_read_from_the_scanned_tree(lint_files):
    # "transfer_booked", "transfer_rejected", "run_end", "link_busy" and
    # "revalidated" are registered in the shipped package but NOT in this
    # fixture tree's deliberately different registry, so the same source
    # that is clean above must be flagged here.
    result = lint_files(
        {
            "core/events.py": R3_CLEAN,
            "observability/tracer.py": 'EVENTS = {"other_event": ()}\n'
            'REASON_OTHER = "other_reason"\n',
        },
        rules=["R3"],
        with_tracer=False,
    )
    assert len(result.findings) == 5


# ---------------------------------------------------------------------------
# R4 — codec modules need schema versions and consistent field sets
# ---------------------------------------------------------------------------

R4_NO_VERSION = """
    from typing import Dict

    def payload_to_dict(value: float) -> Dict[str, float]:
        return {"value": value}

    def payload_from_dict(doc: Dict[str, float]) -> float:
        return doc["value"]
"""

R4_DRIFTED = """
    from typing import Dict

    SCHEMA_VERSION = 1

    def payload_to_dict(value: float) -> Dict[str, float]:
        return {"value": value, "extra": 0.0}

    def payload_from_dict(doc: Dict[str, float]) -> float:
        return doc["value"] + doc["missing"]
"""

R4_SUPPRESSED = """
    from typing import Dict

    def payload_to_dict(value: float) -> Dict[str, float]:  # staticcheck: disable=R4
        return {"value": value}

    def payload_from_dict(doc: Dict[str, float]) -> float:
        return doc["value"]
"""

R4_CLEAN = """
    from typing import Dict

    SCHEMA_VERSION = 2

    def payload_to_dict(value: float) -> Dict[str, object]:
        return {"schema_version": SCHEMA_VERSION, "value": value}

    def payload_from_dict(doc: Dict[str, object]) -> object:
        return doc["value"] if "legacy" not in doc else doc.get("legacy")
"""


def test_r4_flags_missing_schema_version(lint_files):
    result = lint_files({"core/codec.py": R4_NO_VERSION}, rules=["R4"])
    assert _rules_hit(result) == ["R4"]
    assert "SCHEMA_VERSION" in result.findings[0].message


def test_r4_flags_field_set_drift_both_ways(lint_files):
    result = lint_files({"core/codec.py": R4_DRIFTED}, rules=["R4"])
    messages = " ".join(finding.message for finding in result.findings)
    assert "extra" in messages  # written, never read back
    assert "missing" in messages  # required, never written


def test_r4_suppression_comment_silences(lint_files):
    result = lint_files({"core/codec.py": R4_SUPPRESSED}, rules=["R4"])
    assert result.clean
    assert result.suppressed == 1


def test_r4_versioned_consistent_codec_is_clean(lint_files):
    result = lint_files({"core/codec.py": R4_CLEAN}, rules=["R4"])
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


# ---------------------------------------------------------------------------
# R6 — public core/heuristics functions must be fully typed
# ---------------------------------------------------------------------------

R6_BAD = """
    def widen(value, factor=2.0):
        return value * factor
"""

R6_SUPPRESSED = """
    def widen(value, factor=2.0):  # staticcheck: disable=R6
        return value * factor
"""

R6_CLEAN = """
    def widen(value: float, factor: float = 2.0) -> float:
        return value * factor

    def _helper(anything, goes):
        return anything
"""


def test_r6_flags_unannotated_public_function(lint_files):
    result = lint_files({"core/api.py": R6_BAD}, rules=["R6"])
    assert _rules_hit(result) == ["R6"]
    # Missing parameters and the missing return are separate findings.
    assert len(result.findings) == 2


def test_r6_suppression_comment_silences(lint_files):
    result = lint_files({"core/api.py": R6_SUPPRESSED}, rules=["R6"])
    assert result.clean
    assert result.suppressed == 2


def test_r6_annotated_public_and_private_helpers_are_clean(lint_files):
    result = lint_files({"core/api.py": R6_CLEAN}, rules=["R6"])
    assert result.clean


def test_r6_scope_excludes_routing(lint_files):
    result = lint_files({"routing/api.py": R6_BAD}, rules=["R6"])
    assert result.clean
