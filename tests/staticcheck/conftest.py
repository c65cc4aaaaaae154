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


@pytest.fixture
def lint_files(tmp_path):
    """Write ``{relpath: source}`` under tmp_path and lint the tree."""

    def _lint(
        files: Dict[str, str],
        rules: Optional[Sequence[str]] = None,
    ) -> CheckResult:
        for relpath, source in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source), encoding="utf-8")
        return run_check(tmp_path, rules=resolve_rules(rules))

    return _lint
