"""``repro.staticcheck`` — AST-based domain lint for this reproduction.

A zero-dependency static-analysis subsystem enforcing the invariants
the run cache, parallel executor, and mergeable artifacts rely on:
deterministic wall-clock-free scheduling code, no raw float equality on
simulated times, pure fingerprint and codec call trees, and a public
surface that raises only documented errors.  See ``docs/STATICCHECK.md``.

Run it as ``datastage lint`` or ``python -m repro.staticcheck``.
"""

from repro.staticcheck.baseline import (
    BASELINE_SCHEMA_VERSION,
    DEFAULT_BASELINE_NAME,
    load_baseline,
    save_baseline,
)
from repro.staticcheck.engine import (
    CheckContext,
    CheckResult,
    Finding,
    Module,
    RULE_REGISTRY,
    Rule,
    default_rules,
    load_module,
    register,
    resolve_rules,
    run_check,
    suppressed_rules,
)

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "CheckContext",
    "CheckResult",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "Module",
    "RULE_REGISTRY",
    "Rule",
    "default_rules",
    "load_baseline",
    "load_module",
    "register",
    "resolve_rules",
    "run_check",
    "save_baseline",
    "suppressed_rules",
]
