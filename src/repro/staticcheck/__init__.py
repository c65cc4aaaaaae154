"""``repro.staticcheck`` — AST-based domain lint for this reproduction.

A zero-dependency static-analysis subsystem enforcing the invariants
the run cache, parallel executor, and mergeable artifacts rely on:
no global-RNG draws or wall-clock reads, no iteration over unordered
sets, and no raw float equality on simulated times.  See
``docs/STATICCHECK.md``.

Run it as ``datastage lint`` or ``python -m repro.staticcheck``.
"""

from repro.staticcheck.baseline import (
    BASELINE_SCHEMA_VERSION,
    DEFAULT_BASELINE_NAME,
    load_baseline,
    save_baseline,
)
from repro.staticcheck.engine import (
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
