"""Source rules R1, R2 and R5, checked on every module under ``src/repro``.

The run cache, the sweep executor and the tree cache's journal replay
assume that runs, fingerprints and replays are pure functions of their
inputs.  These syntactic rules guard that (``docs/STATICCHECK.md``):

* R1: no process-global, unseeded or system RNG and no wall-clock read;
* R2: no raw float ``==``/``!=`` on time- or bandwidth-named operands;
* R5: no iteration over a provably unordered set.

A sanctioned site is listed in :data:`ALLOWED` by path, enclosing
function and rule; an entry that matches no finding fails the suite.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``(path under src, enclosing function, rule)`` of each sanctioned site.
#: ``duration_is_zero`` is the comparator R2 asks every other site to call.
ALLOWED = {("repro/core/units.py", "duration_is_zero", "R2")}

HINTS = {
    "R1": "thread a seeded random.Random through the call site; elapsed "
    "timing uses time.perf_counter and stays out of results",
    "R2": "use repro.core.units comparators (time_eq / time_ne / "
    "times_close / duration_is_zero / bandwidth_eq) instead",
    "R5": "wrap the set in sorted(...) to pin the visit order",
}


class Finding(NamedTuple):
    """One rule violation, keyed for :data:`ALLOWED` by its function."""

    path: str
    line: int
    rule: str
    function: str
    message: str

    def render(self) -> str:
        """``path:line rule message [hint: ...]``."""
        return (
            f"{self.path}:{self.line} {self.rule} {self.message} "
            f"[hint: {HINTS[self.rule]}]"
        )


# -- R1: no global, unseeded or system randomness, no wall clock -----------

#: ``random`` module functions that consume the global (unseeded) RNG.
GLOBAL_RNG_FUNCTIONS = frozenset(
    "random randint randrange uniform choice choices shuffle sample gauss "
    "normalvariate lognormvariate expovariate betavariate gammavariate "
    "paretovariate weibullvariate triangular vonmisesvariate getrandbits "
    "randbytes seed".split()
)

#: ``time`` module attributes that read the wall clock.
WALL_CLOCK_TIME_FUNCTIONS = frozenset(
    "time time_ns localtime gmtime ctime".split()
)

#: ``datetime.datetime`` / ``datetime.date`` constructors off "now".
WALL_CLOCK_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})

#: Functions that read operating-system entropy; so does all of ``secrets``.
ENTROPY_FUNCTIONS = {
    "random": frozenset({"SystemRandom"}),
    "os": frozenset({"urandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
}


def _reads_entropy(module: str, name: str) -> bool:
    return module == "secrets" or name in ENTROPY_FUNCTIONS.get(module, ())


def _unseeded(call: ast.Call) -> bool:
    """True for ``Random()`` or ``Random(None)``: seeded from the OS."""
    seeds = list(call.args) + [keyword.value for keyword in call.keywords]
    return not seeds or (
        len(seeds) == 1
        and isinstance(seeds[0], ast.Constant)
        and seeds[0].value is None
    )


def _imports(
    tree: ast.Module,
) -> Tuple[Dict[str, str], Dict[str, Tuple[str, str]]]:
    """The module each ``import`` binds to its name (``np`` -> ``numpy``;
    ``import numpy.random`` binds ``numpy`` to ``numpy``, ``import
    numpy.random as npr`` binds ``npr`` to ``numpy.random``) and the
    from-imports (``now`` -> ``("time", "time")``), at any depth."""
    aliases: Dict[str, str] = {}
    imported: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    top = name.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                imported[name.asname or name.name] = (node.module, name.name)
    return aliases, imported


def r1(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """Global, unseeded or system randomness, and wall-clock reads."""
    aliases, imported = _imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            base, attr = node.value.id, node.attr
            module = aliases.get(base, "")
            # `from datetime import datetime` binds the class, not the
            # module, under any name: `datetime.now` and `dt.now` read the
            # clock either way.
            from_datetime = imported.get(base) in {
                ("datetime", "datetime"),
                ("datetime", "date"),
            }
            if (
                (module == "random" and attr in GLOBAL_RNG_FUNCTIONS)
                or (module == "time" and attr in WALL_CLOCK_TIME_FUNCTIONS)
                or (module == "numpy" and attr == "random")
                or module == "numpy.random"
                or (
                    (module == "datetime" or from_datetime)
                    and attr in WALL_CLOCK_DATETIME_METHODS
                )
                or _reads_entropy(module, attr)
            ):
                yield node, f"{base}.{attr}"
        elif isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Attribute
        ):
            inner = node.value
            if isinstance(inner.value, ast.Name):
                root, mid, attr = inner.value.id, inner.attr, node.attr
                module = aliases.get(root, "")
                if (
                    module == "datetime"
                    and mid in {"datetime", "date"}
                    and attr in WALL_CLOCK_DATETIME_METHODS
                ) or (module == "numpy" and mid == "random"):
                    yield node, f"{root}.{mid}.{attr}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            origin = imported.get(node.func.id)
            if origin is None:
                continue
            module, original = origin
            if (
                (module == "random" and original in GLOBAL_RNG_FUNCTIONS)
                or (module == "time" and original in (
                    WALL_CLOCK_TIME_FUNCTIONS
                ))
                or _reads_entropy(module, original)
                or (origin == ("random", "Random") and _unseeded(node))
            ):
                yield node, f"{module}.{original} (imported as {node.func.id})"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and aliases.get(node.func.value.id) == "random"
            and node.func.attr == "Random"
            and _unseeded(node)
        ):
            yield node, "unseeded random.Random"


# -- R2: no raw float ==/!= on time or bandwidth expressions ---------------

#: Identifier tokens (snake_case fragments) that mark a time or a rate.
TIME_OR_RATE_TOKENS = frozenset(
    "time times start end deadline deadlines duration seconds horizon cursor "
    "arrival release latency slack elapsed gc wall cpu bandwidth rate".split()
)


def _identifier(node: ast.AST) -> str:
    """The identifier a comparison operand is named by, or ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.Subscript, ast.UnaryOp)):
        return _identifier(
            node.value if isinstance(node, ast.Subscript) else node.operand
        )
    if isinstance(node, ast.Call):
        # min/max/abs pass their first named operand's nature through; a
        # named function's result is judged by its name.
        if isinstance(node.func, ast.Name) and node.func.id in {
            "min", "max", "abs",
        }:
            return next(filter(None, map(_identifier, node.args)), "")
        return _identifier(node.func)
    return ""


def _is_time_like(node: ast.AST) -> bool:
    tokens = re.split(r"[^a-z0-9]+", _identifier(node).lower())
    return not TIME_OR_RATE_TOKENS.isdisjoint(tokens)


def _is_exempt(node: ast.AST) -> bool:
    """String, bytes, bool and None constants are never float hazards."""
    return isinstance(node, ast.Constant) and (
        isinstance(node.value, (str, bool, bytes)) or node.value is None
    )


def r2(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """Raw ``==``/``!=`` on time- or bandwidth-named operands."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if (
                isinstance(op, (ast.Eq, ast.NotEq))
                and not (_is_exempt(left) or _is_exempt(right))
                and (_is_time_like(left) or _is_time_like(right))
            ):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield node, f"raw float {symbol} on a time/bandwidth value"


# -- R5: no iteration over unordered sets ----------------------------------

_SET_TYPES = frozenset(
    {"Set", "FrozenSet", "AbstractSet", "MutableSet", "set", "frozenset"}
)


def _is_set_expression(node: ast.AST) -> bool:
    """True for expressions that are syntactically unordered sets."""
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def _is_set_annotation(annotation: ast.AST) -> bool:
    """True for ``Set[...]``, ``typing.FrozenSet[...]``, ``set`` and kin."""
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr in _SET_TYPES - {"set", "frozenset"}
    return isinstance(target, ast.Name) and target.id in _SET_TYPES


def _set_locals(function: ast.AST) -> Set[str]:
    """Names provably bound to sets inside one function."""
    names: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and _is_set_expression(node.value):
            names.update(
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _is_set_annotation(node.annotation) or (
                node.value is not None and _is_set_expression(node.value)
            ):
                names.add(node.target.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if _is_set_annotation(node.annotation):
                names.add(node.arg)
    return names


def r5(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """Loops, comprehensions and ``list``/``tuple`` calls over sets."""
    # A nested function is walked from every enclosing def too; each
    # site reports once.
    seen: Set[Tuple[int, int]] = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        set_names = _set_locals(function)
        for node in ast.walk(function):
            iterables: List[ast.expr] = []
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
            ):
                iterables.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"tuple", "list"}
                and node.args
            ):
                iterables.append(node.args[0])
            for candidate in iterables:
                site = (candidate.lineno, candidate.col_offset)
                if _is_set_expression(candidate):
                    what = "a set expression"
                elif isinstance(candidate, ast.Name) and (
                    candidate.id in set_names
                ):
                    what = f"the set {candidate.id!r}"
                else:
                    continue
                if site not in seen:
                    seen.add(site)
                    yield candidate, f"iteration over {what}"


RULES = (("R1", r1), ("R2", r2), ("R5", r5))


# -- findings and the allowlist --------------------------------------------

def check_source(source: str, path: str) -> List[Finding]:
    """Every finding in one module, sorted, each with its function."""
    tree = ast.parse(source, filename=path)
    functions = sorted(
        (node.lineno, node.end_lineno or node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )

    def enclosing(line: int) -> str:
        names = [name for lo, hi, name in functions if lo <= line <= hi]
        return names[-1] if names else "<module>"

    return sorted(
        Finding(path, node.lineno, rule, enclosing(node.lineno), message)
        for rule, check in RULES
        for node, message in check(tree)
    )


#: An allowlist entry: ``(path, function, rule)``.
Entry = Tuple[str, str, str]


def unallowed(
    findings: Iterable[Finding], allowed: Set[Entry]
) -> List[Finding]:
    """The findings no allowlist entry covers."""
    return [f for f in findings if (f.path, f.function, f.rule) not in allowed]


def stale(findings: Iterable[Finding], allowed: Set[Entry]) -> List[Entry]:
    """The allowlist entries that cover no finding."""
    return sorted(allowed - {(f.path, f.function, f.rule) for f in findings})


@pytest.fixture(scope="module")
def src_findings() -> List[Finding]:
    """The findings of every module under ``src/repro``, parsed once."""
    return [
        finding
        for path in sorted((SRC / "repro").rglob("*.py"))
        for finding in check_source(
            path.read_text(encoding="utf-8"), path.relative_to(SRC).as_posix()
        )
    ]


def test_src_follows_source_rules(src_findings):
    offending = unallowed(src_findings, ALLOWED)
    assert not offending, "\n".join(finding.render() for finding in offending)


def test_allowlist_entries_match_a_finding(src_findings):
    # A stale entry would silence the next finding in that function.
    assert not stale(src_findings, ALLOWED)


# -- rule cases ------------------------------------------------------------

R1_GLOBAL_RNG = """
import random
def jitter() -> float:
    return random.random()
"""

R2_TIMES = """
def same_instant(start_time: float, end_time: float) -> bool:
    return start_time == end_time
"""

R5_SET_PARAMETER = """
from typing import FrozenSet, List
def drain(ids: FrozenSet[int]) -> List[int]:
    out: List[int] = []
    for request_id in ids:
        out.append(request_id)
    return out
"""

CLEAN_TREE = """
import random
from typing import FrozenSet, List, Sequence
from repro.core.units import time_eq
def pick(seed: int, values: Sequence[int]) -> int:
    return random.Random(seed).choice(list(values))
def coincides(start_time: float, end_time: float) -> bool:
    return time_eq(start_time, end_time)
def drain(ids: FrozenSet[int]) -> List[int]:
    return [request_id for request_id in sorted(ids)]
"""

CASES = {
    "r1-global-rng": ("core/clock.py", R1_GLOBAL_RNG, ["R1"]),
    "r1-analysis-module": ("analysis/clock.py", R1_GLOBAL_RNG, ["R1"]),
    "r1-wall-clock": ("core/clock.py", """
import time, datetime
def stamp() -> tuple:
    return time.time(), datetime.datetime.now()
""", ["R1"] * 2),
    "r1-entropy": ("core/entropy.py", """
import os, random, secrets, uuid
def draws() -> tuple:
    return (random.Random(), random.Random(None), random.Random(x=None),
            random.SystemRandom(), os.urandom(8), uuid.uuid1(),
            uuid.uuid4(), secrets.token_hex(8))
""", ["R1"] * 8),
    "r1-entropy-aliased": ("core/entropy.py", """
import secrets as s
from os import urandom as entropy
from random import Random as Rng, SystemRandom
from secrets import token_bytes
from uuid import uuid4
def draws() -> tuple:
    return (Rng(), SystemRandom(), entropy(8), uuid4(), token_bytes(4),
            s.choice("ab"))
""", ["R1"] * 6),
    "r1-dotted-import": ("core/entropy.py", """
import numpy.random
import os.path
def draws() -> tuple:
    return numpy.random.rand(), os.urandom(8), os.path.sep
""", ["R1"] * 3),
    "r1-dotted-import-aliased": ("core/entropy.py", """
import numpy.random as npr
def draw() -> float:
    return npr.rand()
""", ["R1"]),
    "r1-datetime-class-aliased": ("core/clock.py", """
from datetime import date as day, datetime as dt
def stamp() -> tuple:
    return dt.now(), day.today(), dt.fromtimestamp(0)
""", ["R1"] * 2),
    "r1-clean": ("core/clock.py", """
import random, time
def pick(seed: int, values: list, started: float) -> tuple:
    rng = random.Random(seed)
    return rng.choice(values), time.perf_counter() - started
""", []),
    "r1-seeded-and-named-clean": ("core/clock.py", """
import os, uuid
from random import Random
def stable(seed: int, name: str) -> tuple:
    return (Random(seed), Random(0), uuid.uuid5(uuid.NAMESPACE_URL, name),
            os.getpid())
""", []),
    "r2-times": ("core/compare.py", R2_TIMES, ["R2"]),
    "r2-bandwidth": ("routing/links.py", """
def differs(bandwidth: float, other_rate: float) -> bool:
    return bandwidth != other_rate
""", ["R2"]),
    "r2-clean": ("core/compare.py", """
from repro.core.units import time_eq
def same_instant(start_time: float, end_time: float, kind: str) -> bool:
    return time_eq(start_time, end_time) or kind == "deadline"
""", []),
    "r5-set-parameter": ("core/order.py", R5_SET_PARAMETER, ["R5"]),
    "r5-observability-module": (
        "observability/order.py", R5_SET_PARAMETER, ["R5"]
    ),
    "r5-set-literal": ("heuristics/order.py", """
def walk() -> list:
    return [x for x in {3, 1, 2}]
""", ["R5"]),
    "r5-sorted-clean": ("core/order.py", """
from typing import FrozenSet, List
def drain(ids: FrozenSet[int]) -> List[int]:
    return [request_id for request_id in sorted(ids)]
""", []),
    "clean-tree": ("core/good.py", CLEAN_TREE, []),
}


@pytest.mark.parametrize("case", CASES)
def test_rule_findings(case):
    path, source, rules = CASES[case]
    findings = check_source(source, path)
    assert [finding.rule for finding in findings] == rules, findings
    for finding in findings:
        assert finding.render().startswith(
            f"{path}:{finding.line} {finding.rule} "
        )


@pytest.mark.parametrize(
    "source, entry",
    [
        (R1_GLOBAL_RNG, ("core/clock.py", "jitter", "R1")),
        (R2_TIMES, ("core/compare.py", "same_instant", "R2")),
        (R5_SET_PARAMETER, ("core/order.py", "drain", "R5")),
    ],
    ids=["R1", "R2", "R5"],
)
def test_allowlist_entry_covers_its_function(source, entry):
    findings = check_source(source, entry[0])
    assert findings and not unallowed(findings, {entry})
    assert not stale(findings, {entry})
    # Keyed by function: the entry covers no other one.
    assert unallowed(findings, {(entry[0], "other", entry[2])}) == findings


@pytest.mark.parametrize(
    "source, function, rules, found",
    [
        (
            "def doubled(value: float) -> float:\n    return value * 2.0\n",
            "doubled", ["R1"], [],
        ),
        (R1_GLOBAL_RNG, "jitter", ["R99"], ["R1"]),
        (R1_GLOBAL_RNG, "jitter", ["R0", "R7", "R8", "R9"], ["R1"]),
    ],
    ids=["no-finding", "never", "retired"],
)
def test_allowlist_entry_without_a_finding_is_stale(
    source, function, rules, found
):
    # An entry for a rule that finds nothing in its function, or that the
    # suite never carried or no longer carries, silences nothing.
    path = "core/waiver.py"
    entries = {(path, function, rule) for rule in rules}
    findings = check_source(source, path)
    assert [finding.rule for finding in findings] == found
    assert unallowed(findings, entries) == findings
    assert stale(findings, entries) == sorted(entries)
