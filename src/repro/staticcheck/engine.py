"""The staticcheck engine: findings, suppressions, rule registry, runner.

``repro.staticcheck`` is a zero-dependency AST linter for the *domain*
invariants the test suite cannot see syntactically: code must stay
deterministic and wall-clock-free, and simulated times must never be
compared with raw float ``==``.  The engine walks a source tree, parses
every module once, and hands the parsed :class:`Module` to each
registered :class:`Rule`.

Rules report :class:`Finding` objects (rule id, location, message, fix
hint).  Two escape hatches exist:

* per-line suppressions — a ``staticcheck: disable=R1`` (or
  ``disable=R1,R2`` / ``disable=all``) hash-comment on the offending
  line;
* a committed baseline file of grandfathered findings (see
  :mod:`repro.staticcheck.baseline`), matched by rule, path, and the
  normalized source-line text so findings survive unrelated line drift.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError

#: Matches a per-line suppression comment anywhere on a physical line.
_SUPPRESSION_RE = re.compile(
    r"#\s*staticcheck:\s*disable=([A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: the rule id (``"R0"``, ``"R1"``, ...).
        path: path of the offending module, relative to the scanned root,
            always with POSIX separators (stable across platforms, used
            for baseline matching).
        line: 1-based line number.
        column: 0-based column offset.
        message: what is wrong, concretely.
        hint: how to fix it (the rule's standing advice).
        line_text: the stripped source line, for baseline fingerprints.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    hint: str = ""
    line_text: str = ""

    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-number-free identity used for baseline matching."""
        return (self.rule, self.path, self.line_text)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (used by ``--format json`` and baselines)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "hint": self.hint,
            "line_text": self.line_text,
        }

    def render(self) -> str:
        """One-line human rendering, ``path:line:col Rn message``."""
        text = f"{self.path}:{self.line}:{self.column + 1} {self.rule} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text


@dataclass
class Module:
    """One parsed source module handed to every rule.

    Attributes:
        path: absolute filesystem path.
        relpath: POSIX path relative to the scanned root (baseline
            fingerprints key on this).
        source: the full source text.
        tree: the parsed ``ast.Module``.
        lines: the source split into lines (index 0 = line 1).
    """

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: Tuple[str, ...]

    def line_text(self, line: int) -> str:
        """The stripped text of a 1-based source line ("" out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.id,
            path=self.relpath,
            line=line,
            column=column,
            message=message,
            hint=hint if hint is not None else rule.hint,
            line_text=self.line_text(line),
        )


class Rule:
    """Base class for staticcheck rules.

    Subclasses set the class attributes and implement :meth:`check`.

    Attributes:
        id: short stable id (``"R1"``).
        title: one-line rule name for ``--list-rules`` and docs.
        hint: the standing fix advice attached to findings by default.
    """

    id: str = ""
    title: str = ""
    hint: str = ""

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.id}: {self.title}>"


#: Registry of rule instances, keyed by rule id, in registration order.
RULE_REGISTRY: Dict[str, Rule] = {}


def register(rule_class: type) -> type:
    """Class decorator adding one rule instance to :data:`RULE_REGISTRY`."""
    rule = rule_class()
    if not rule.id:
        raise ConfigurationError(
            f"rule class {rule_class.__name__} has no id"
        )
    if rule.id in RULE_REGISTRY:
        raise ConfigurationError(f"duplicate rule id {rule.id}")
    RULE_REGISTRY[rule.id] = rule
    return rule_class


def default_rules() -> Tuple[Rule, ...]:
    """All built-in rules, importing the rule modules on first use."""
    from repro.staticcheck import rules as _rules  # noqa: F401

    return tuple(RULE_REGISTRY.values())


def resolve_rules(ids: Optional[Sequence[str]]) -> Tuple[Rule, ...]:
    """The selected rules (all by default).

    Raises:
        ConfigurationError: on an unknown rule id.
    """
    rules = default_rules()
    if not ids:
        return rules
    unknown = sorted(set(ids) - set(RULE_REGISTRY))
    if unknown:
        raise ConfigurationError(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULE_REGISTRY))}"
        )
    wanted = set(ids)
    return tuple(rule for rule in rules if rule.id in wanted)


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def suppressed_rules(line_text: str) -> frozenset:
    """Rule ids suppressed by a line's comment (``{"all"}`` for blanket)."""
    match = _SUPPRESSION_RE.search(line_text)
    if match is None:
        return frozenset()
    return frozenset(
        token.strip() for token in match.group(1).split(",") if token.strip()
    )


# ---------------------------------------------------------------------------
# Tree walking
# ---------------------------------------------------------------------------

def _iter_source_files(root: Path) -> Iterator[Path]:
    for path in sorted(root.rglob("*.py")):
        if any(part.startswith(".") for part in path.parts):
            continue
        if "__pycache__" in path.parts:
            continue
        yield path


def load_module(path: Path, root: Path) -> Module:
    """Parse one source file into a :class:`Module`.

    Raises:
        ConfigurationError: when the file does not parse.
    """
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    relpath = path.relative_to(root).as_posix()
    return Module(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        lines=tuple(source.splitlines()),
    )


@dataclass
class CheckResult:
    """The outcome of one :func:`run_check` invocation.

    Attributes:
        findings: active findings, sorted by (path, line, rule).
        suppressed: count of findings silenced by inline comments.
        baselined: count of findings matched by the baseline.
        baseline_entries: fingerprints the supplied baseline carried.
        files_checked: number of modules scanned.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    baseline_entries: int = 0
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        """True when no active findings remain."""
        return not self.findings



def _unused_suppression_findings(
    module: Module,
    used: Dict[int, Set[str]],
    active_ids: frozenset,
    rule: Rule,
) -> Iterator[Finding]:
    """R0: suppression comments that silenced nothing this run.

    A ``disable=Rn`` token is stale when ``Rn`` ran and suppressed no
    finding on that line; an unknown token is always stale.  Tokens for
    rules *not* selected this run are skipped (a partial ``--rules`` run
    cannot prove anything about them), and ``disable=all`` is only
    judged when the full registry ran.
    """
    full_run = active_ids >= frozenset(RULE_REGISTRY)
    for lineno, line in enumerate(module.lines, start=1):
        tokens = suppressed_rules(line)
        if not tokens:
            continue
        used_here = used.get(lineno, set())
        for token in sorted(tokens):
            if token == "all":
                if used_here or not full_run:
                    continue
            elif token in RULE_REGISTRY:
                if token not in active_ids or token in used_here:
                    continue
                if token == rule.id:
                    continue
            yield Finding(
                rule=rule.id,
                path=module.relpath,
                line=lineno,
                column=max(line.find("#"), 0),
                message=(
                    f"suppression 'staticcheck: disable={token}' silences "
                    f"nothing on this line"
                    + (
                        ""
                        if token in RULE_REGISTRY or token == "all"
                        else f" (unknown rule id {token!r})"
                    )
                ),
                hint=rule.hint,
                line_text=module.line_text(lineno),
            )


def run_check(
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Iterable[Tuple[str, str, str]]] = None,
) -> CheckResult:
    """Lint every module under ``root`` with the given rules.

    Args:
        root: directory to scan (typically ``src/repro`` or a fixture
            tree mirroring its layout).
        rules: rule instances to run (default: all registered rules).
        baseline: grandfathered finding fingerprints; each matching
            fingerprint absorbs at most as many findings as it appears.

    Raises:
        ConfigurationError: when ``root`` is not a directory or a module
            fails to parse.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigurationError(f"lint root {root} is not a directory")
    active_rules = tuple(rules) if rules is not None else default_rules()
    active_ids = frozenset(rule.id for rule in active_rules)
    modules = tuple(
        load_module(path, root) for path in _iter_source_files(root)
    )
    budget: Dict[Tuple[str, str, str], int] = {}
    baseline_entries = 0
    for fingerprint in baseline or ():
        budget[fingerprint] = budget.get(fingerprint, 0) + 1
        baseline_entries += 1
    result = CheckResult(baseline_entries=baseline_entries)
    result.files_checked = len(modules)
    #: (relpath, line) -> rule ids actually suppressed there, feeding R0.
    used_suppressions: Dict[str, Dict[int, Set[str]]] = {}

    def _admit(
        finding: Finding, module: Module, explicit_only: bool = False
    ) -> None:
        # ``explicit_only`` (the R0 findings): a stale ``disable=all``
        # must not silence its own staleness report, so only a literal
        # ``disable=R0`` token counts.
        tokens = suppressed_rules(module.line_text(finding.line))
        silenced = (
            finding.rule in tokens
            if explicit_only
            else bool(tokens) and ("all" in tokens or finding.rule in tokens)
        )
        if silenced:
            result.suppressed += 1
            used_suppressions.setdefault(module.relpath, {}).setdefault(
                finding.line, set()
            ).add(finding.rule)
            return
        key = finding.fingerprint()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            result.baselined += 1
            return
        result.findings.append(finding)

    for module in modules:
        for rule in active_rules:
            for finding in rule.check(module):
                _admit(finding, module)
    unused_rule = next(
        (rule for rule in active_rules if rule.id == "R0"), None
    )
    if unused_rule is not None:
        for module in modules:
            for finding in _unused_suppression_findings(
                module,
                used_suppressions.get(module.relpath, {}),
                active_ids,
                unused_rule,
            ):
                _admit(finding, module, explicit_only=True)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.column))
    return result
