"""R0: unused ``# staticcheck: disable=`` suppressions.

A suppression that silences nothing is a stale waiver: the violation it
excused was fixed (or the line drifted), and the comment now stands
ready to hide the *next* finding that lands on that line.  The engine
itself tracks which suppressions absorbed a finding during the run (it
is the only component that sees every rule's output), so this module
only registers the rule's identity; see
:func:`repro.staticcheck.engine._unused_suppression_findings` for the
detection logic and its partial-run semantics (tokens for rules that
did not run are never judged).
"""

from __future__ import annotations

from typing import Iterator

from repro.staticcheck.engine import Finding, Module, Rule, register


@register
class UnusedSuppressionRule(Rule):
    """R0: every ``disable=`` token must silence an actual finding."""

    id = "R0"
    title = "no stale staticcheck suppression comments"
    hint = (
        "delete the suppression comment; re-add it only with a finding "
        "it demonstrably silences"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        """No-op: the engine emits R0 findings from its usage ledger."""
        return iter(())
