"""Shared fixtures for the staticcheck tests.

``lint_files`` writes an in-memory tree of ``{relpath: source}`` to a
temporary directory and runs :func:`repro.staticcheck.engine.run_check`
over it, optionally restricted to a subset of rules so per-rule tests
see no cross-rule noise.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, Optional, Sequence

import pytest

from repro.staticcheck.engine import CheckResult, resolve_rules, run_check

FIXTURES = Path(__file__).parent / "fixtures"

#: A minimal tracer registry so R3 resolves against the fixture tree
#: itself instead of the installed package.
TRACER_FIXTURE = """
EVENTS = {
    "transfer_booked": ("item_id", "link_id"),
    "transfer_rejected": ("item_id", "link_id", "reason"),
    "run_end": ("label", "elapsed_seconds"),
}

REASON_WINDOW_CLOSED = "window_closed"
REASON_LINK_BUSY = "link_busy"

REASON_CODES = (REASON_WINDOW_CLOSED, REASON_LINK_BUSY)

TREE_CACHE_REVALIDATED = "revalidated"

TREE_CACHE_REASONS = (TREE_CACHE_REVALIDATED,)
"""


@pytest.fixture
def lint_files(tmp_path):
    """Write ``{relpath: source}`` under tmp_path and lint the tree."""

    def _lint(
        files: Dict[str, str],
        rules: Optional[Sequence[str]] = None,
        with_tracer: bool = True,
    ) -> CheckResult:
        tree = dict(files)
        if with_tracer:
            tree.setdefault("observability/tracer.py", TRACER_FIXTURE)
        for relpath, source in tree.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source), encoding="utf-8")
        return run_check(tmp_path, rules=resolve_rules(rules))

    return _lint
