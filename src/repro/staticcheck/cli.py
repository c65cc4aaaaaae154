"""The ``datastage lint`` / ``python -m repro.staticcheck`` front end.

Exit codes: 0 when the tree is clean (after suppressions and baseline),
1 when active findings remain or ``--ratchet-check`` finds stale
baseline entries, 2 on configuration errors (unknown rule, unparseable
file, bad baseline, a ``--update-baseline`` that would grow the
baseline) via the shared CLI error handling.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.staticcheck.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    save_baseline,
)
from repro.staticcheck.engine import (
    CheckResult,
    default_rules,
    resolve_rules,
    run_check,
)

#: Exit code when active findings remain.
EXIT_FINDINGS = 1

#: Exit code for configuration errors (also used for ratchet refusals).
EXIT_CONFIG = 2


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an argparse parser (shared with cli.py)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="package roots to lint (default: src/repro)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            f"baseline file of grandfathered findings (default: "
            f"{DEFAULT_BASELINE_NAME} when it exists)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file and report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline from the current findings and exit 0; "
            "refuses to grow an existing baseline (the ratchet)"
        ),
    )
    parser.add_argument(
        "--ratchet-check",
        action="store_true",
        help=(
            "fail when the baseline carries stale entries no current "
            "finding matches (CI enforces a shrink-only baseline)"
        ),
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "report per-rule finding counts, suppression/baseline "
            "totals, and call-graph resolution coverage"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )


def _stats_payload(total: CheckResult) -> Dict[str, object]:
    """The ``--stats`` block shared by the text and JSON renderings."""
    coverage = (
        100.0
        if total.call_sites == 0
        else 100.0 * total.resolved_calls / total.call_sites
    )
    return {
        "findings_by_rule": total.findings_by_rule(),
        "suppressed": total.suppressed,
        "baselined": total.baselined,
        "baseline_entries": total.baseline_entries,
        "call_sites": total.call_sites,
        "resolved_calls": total.resolved_calls,
        "call_graph_coverage_percent": round(coverage, 1),
    }


def _print_stats(total: CheckResult) -> None:
    payload = _stats_payload(total)
    print("stats:")
    by_rule = payload["findings_by_rule"]
    assert isinstance(by_rule, dict)
    if by_rule:
        for rule_id, count in by_rule.items():
            print(f"  findings[{rule_id}]: {count}")
    else:
        print("  findings: 0")
    print(f"  suppressed: {payload['suppressed']}")
    print(f"  baselined: {payload['baselined']}")
    print(f"  baseline entries: {payload['baseline_entries']}")
    print(
        f"  call graph: {payload['resolved_calls']}/"
        f"{payload['call_sites']} call sites resolved "
        f"({payload['call_graph_coverage_percent']}%)"
    )


def _refuse_baseline_growth(
    new_fingerprints: List[Tuple[str, str, str]],
    old_fingerprints: List[Tuple[str, str, str]],
    target: Path,
) -> Optional[str]:
    """The ratchet: the refusal message when the baseline would grow.

    A rewrite is admissible only when the new fingerprint multiset is
    contained in the old one — entries may drop out (violations fixed)
    but never appear (new violations must be *fixed*, not
    grandfathered).  Returns ``None`` when the rewrite shrinks.
    """
    budget: Dict[Tuple[str, str, str], int] = {}
    for fingerprint in old_fingerprints:
        budget[fingerprint] = budget.get(fingerprint, 0) + 1
    grown: List[Tuple[str, str, str]] = []
    for fingerprint in new_fingerprints:
        if budget.get(fingerprint, 0) > 0:
            budget[fingerprint] -= 1
        else:
            grown.append(fingerprint)
    if not grown:
        return None
    preview = "; ".join(
        f"{rule} {path}: {text[:60]}" for rule, path, text in grown[:3]
    )
    more = f" (+{len(grown) - 3} more)" if len(grown) > 3 else ""
    return (
        f"refusing to grow baseline {target}: "
        f"{len(old_fingerprints)} -> {len(new_fingerprints)} entries; "
        f"the baseline is a ratchet — fix the new finding(s) instead of "
        f"grandfathering them: {preview}{more}"
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint with parsed arguments; returns the exit code."""
    if args.list_rules:
        for rule in default_rules():
            scope = ", ".join(rule.scope) if rule.scope else "all files"
            print(f"{rule.id}  {rule.title}  [{scope}]")
        return 0
    rule_ids = (
        [token.strip() for token in args.rules.split(",") if token.strip()]
        if args.rules
        else None
    )
    rules = resolve_rules(rule_ids)
    baseline_path: Optional[Path] = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        elif Path(DEFAULT_BASELINE_NAME).is_file():
            baseline_path = Path(DEFAULT_BASELINE_NAME)
    fingerprints = (
        load_baseline(baseline_path)
        if baseline_path is not None and baseline_path.is_file()
        else []
    )
    # ``--update-baseline`` needs the *full* finding set (nothing
    # absorbed), so the rewrite runs baseline-free.
    run_fingerprints = [] if args.update_baseline else fingerprints
    total = CheckResult(baseline_entries=len(fingerprints))
    for root in args.paths:
        result = run_check(
            Path(root),
            rules=rules,
            baseline=run_fingerprints,
            build_graph=args.stats,
        )
        total.findings.extend(result.findings)
        total.suppressed += result.suppressed
        total.baselined += result.baselined
        total.files_checked += result.files_checked
        total.call_sites += result.call_sites
        total.resolved_calls += result.resolved_calls
    if args.update_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        if target.is_file():
            refusal = _refuse_baseline_growth(
                [finding.fingerprint() for finding in total.findings],
                load_baseline(target),
                target,
            )
            if refusal is not None:
                print(f"error: {refusal}", file=sys.stderr)
                return EXIT_CONFIG
        save_baseline(total.findings, target)
        print(
            f"baseline written to {target} "
            f"({len(total.findings)} finding(s) grandfathered)"
        )
        return 0
    stale_entries = max(0, total.baseline_entries - total.baselined)
    if args.output_format == "json":
        payload: Dict[str, object] = {
            "files_checked": total.files_checked,
            "findings": [f.as_dict() for f in total.findings],
            "suppressed": total.suppressed,
            "baselined": total.baselined,
        }
        if args.stats:
            payload["stats"] = _stats_payload(total)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in total.findings:
            print(finding.render())
        summary = (
            f"{total.files_checked} file(s) checked: "
            f"{len(total.findings)} finding(s), "
            f"{total.suppressed} suppressed, {total.baselined} baselined"
        )
        print(summary)
        if args.stats:
            _print_stats(total)
    if args.ratchet_check and stale_entries:
        print(
            f"ratchet: baseline carries {stale_entries} stale entr"
            f"{'y' if stale_entries == 1 else 'ies'} no current finding "
            f"matches; shrink it with --update-baseline",
            file=sys.stderr,
        )
        return EXIT_FINDINGS
    return EXIT_FINDINGS if total.findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point for ``python -m repro.staticcheck``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description=(
            "AST-based domain lint for determinism and codec invariants "
            "(see docs/STATICCHECK.md)"
        ),
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    from repro.errors import DataStagingError

    try:
        return run_lint(args)
    except DataStagingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
