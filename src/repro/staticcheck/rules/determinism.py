"""R1 and R5: the determinism rules.

The run cache and the parallel sweep executor assume a scheduler run is a
pure function of ``(scenario, scheduler, weights)``, and the run cache
and the tree cache's journal replay assume fingerprints, codecs and
replays are pure functions of their inputs.  Two syntactic bug classes
silently break that purity, so both rules check every module:

* **R1** — drawing from the process-global RNG (``random.random()``,
  ``numpy.random.*``) or reading the wall clock (``time.time``,
  ``datetime.now``).  Seeded ``random.Random`` instances threaded
  through call sites are fine; ``time.perf_counter`` is tolerated
  because elapsed-time stats are excluded from result fingerprints.
* **R5** — iterating an unordered ``set`` where the visit order can leak
  into a schedule or a document.  CPython set order varies with
  insertion history and hash seeds across versions; ``sorted(...)`` the
  set first.

Module-level state written behind a fingerprint, codec or replay is a
runtime property; ``tests/test_purity.py`` checks it by calling those
entry points.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from repro.staticcheck.engine import Finding, Module, Rule, register

#: ``random`` module functions that consume the *global* (unseeded) RNG.
GLOBAL_RNG_FUNCTIONS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "weibullvariate",
        "triangular",
        "vonmisesvariate",
        "getrandbits",
        "randbytes",
        "seed",
    }
)

#: ``time`` module attributes that read the wall clock.
WALL_CLOCK_TIME_FUNCTIONS = frozenset(
    {"time", "time_ns", "localtime", "gmtime", "ctime"}
)

#: ``datetime.datetime`` / ``datetime.date`` constructors off "now".
WALL_CLOCK_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})


def _module_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the modules they import (``np`` -> ``numpy``)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
    return aliases


def _from_imports(tree: ast.Module) -> Dict[str, Tuple[str, str]]:
    """Map local names to ``(module, original_name)`` from-imports."""
    imported: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                imported[name.asname or name.name] = (node.module, name.name)
    return imported


@register
class UnseededRandomnessRule(Rule):
    """R1: no global-RNG draws or wall-clock reads."""

    id = "R1"
    title = "no unseeded RNG or wall-clock reads"
    hint = (
        "thread a seeded random.Random through the call site; elapsed "
        "timing uses time.perf_counter and stays out of results"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag unseeded RNG and wall-clock reads."""
        aliases = _module_aliases(module.tree)
        imported = _from_imports(module.tree)
        random_names = {
            name for name, target in aliases.items() if target == "random"
        }
        time_names = {
            name for name, target in aliases.items() if target == "time"
        }
        datetime_names = {
            name for name, target in aliases.items() if target == "datetime"
        }
        numpy_names = {
            name for name, target in aliases.items() if target == "numpy"
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                base, attr = node.value.id, node.attr
                if base in random_names and attr in GLOBAL_RNG_FUNCTIONS:
                    yield module.finding(
                        self,
                        node,
                        f"call to the process-global RNG random.{attr}; "
                        f"schedules must derive all randomness from a "
                        f"seeded random.Random",
                    )
                elif base in time_names and attr in WALL_CLOCK_TIME_FUNCTIONS:
                    yield module.finding(
                        self,
                        node,
                        f"wall-clock read time.{attr}; simulated time is the "
                        f"only clock here",
                    )
                elif base in numpy_names and attr == "random":
                    yield module.finding(
                        self,
                        node,
                        "numpy.random global state; "
                        "use a seeded Generator threaded from the scenario",
                    )
                elif (
                    base in datetime_names or base in {"datetime", "date"}
                ) and attr in WALL_CLOCK_DATETIME_METHODS:
                    # Covers datetime.datetime.now via the nested attribute
                    # (datetime.datetime).now handled below; this arm
                    # catches `from datetime import datetime` usage.
                    origin = imported.get(base)
                    if base in datetime_names or (
                        origin is not None and origin[0] == "datetime"
                    ):
                        yield module.finding(
                            self,
                            node,
                            f"wall-clock read {base}.{attr}; simulated time "
                            f"is the only clock here",
                        )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Attribute
            ):
                # datetime.datetime.now(...) / numpy.random.rand(...)
                inner = node.value
                if isinstance(inner.value, ast.Name):
                    root, mid, attr = inner.value.id, inner.attr, node.attr
                    if (
                        root in datetime_names
                        and mid in {"datetime", "date"}
                        and attr in WALL_CLOCK_DATETIME_METHODS
                    ):
                        yield module.finding(
                            self,
                            node,
                            f"wall-clock read datetime.{mid}.{attr}",
                        )
                    elif root in numpy_names and mid == "random":
                        yield module.finding(
                            self,
                            node,
                            f"numpy.random.{attr} draws from global state; "
                            f"use a seeded Generator",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ):
                origin = imported.get(node.func.id)
                if origin is None:
                    continue
                source_module, original = origin
                if (
                    source_module == "random"
                    and original in GLOBAL_RNG_FUNCTIONS
                ):
                    yield module.finding(
                        self,
                        node,
                        f"call to the process-global RNG "
                        f"random.{original} (imported as "
                        f"{node.func.id}); use a seeded random.Random",
                    )
                elif (
                    source_module == "time"
                    and original in WALL_CLOCK_TIME_FUNCTIONS
                ):
                    yield module.finding(
                        self,
                        node,
                        f"wall-clock read time.{original} (imported as "
                        f"{node.func.id})",
                    )


def _is_set_expression(node: ast.AST) -> bool:
    """True for expressions that are syntactically unordered sets."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def _is_set_annotation(annotation: ast.AST) -> bool:
    """True for ``Set[...]`` / ``FrozenSet[...]`` / ``set`` annotations."""
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr in {"Set", "FrozenSet", "AbstractSet", "MutableSet"}
    if isinstance(target, ast.Name):
        return target.id in {
            "Set",
            "FrozenSet",
            "AbstractSet",
            "MutableSet",
            "set",
            "frozenset",
        }
    return False


def _set_locals(function: ast.AST) -> Set[str]:
    """Local names provably bound to set objects inside one function."""
    names: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and _is_set_expression(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _is_set_annotation(node.annotation) or (
                node.value is not None and _is_set_expression(node.value)
            ):
                names.add(node.target.id)
        elif isinstance(node, ast.arg):
            if node.annotation is not None and _is_set_annotation(
                node.annotation
            ):
                names.add(node.arg)
    return names


@register
class SetIterationOrderRule(Rule):
    """R5: no iteration over unordered sets."""

    id = "R5"
    title = "no iteration over unordered sets"
    hint = "wrap the set in sorted(...) to pin the visit order"

    def _flag(self, module: Module, node: ast.AST, what: str) -> Finding:
        return module.finding(
            self,
            node,
            f"iteration over an unordered set ({what}); CPython set order "
            f"is not stable across runs and leaks into the result",
        )

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag iteration over provably unordered set expressions."""
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        # Nested functions are walked from both the outer and the inner
        # FunctionDef; dedupe by location so each site reports once.
        seen = set()
        for function in functions:
            set_names = _set_locals(function)
            for node in ast.walk(function):
                iterables = []
                if isinstance(node, ast.For):
                    iterables.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                           ast.DictComp)
                ):
                    iterables.extend(gen.iter for gen in node.generators)
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ):
                    # tuple(s) / list(s) materialize the unordered order.
                    if node.func.id in {"tuple", "list"} and node.args:
                        iterables.append(node.args[0])
                for candidate in iterables:
                    site = (candidate.lineno, candidate.col_offset)
                    if site in seen:
                        continue
                    if _is_set_expression(candidate):
                        seen.add(site)
                        yield self._flag(module, candidate, "set expression")
                    elif (
                        isinstance(candidate, ast.Name)
                        and candidate.id in set_names
                    ):
                        seen.add(site)
                        yield self._flag(
                            module, candidate, f"local set {candidate.id!r}"
                        )
