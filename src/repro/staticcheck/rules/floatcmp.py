"""R2: no raw float ``==`` / ``!=`` on time or bandwidth expressions.

Simulated times are floats derived from chains of arithmetic
(``start + size / bandwidth + latency``).  A raw ``==`` on two such
values encodes an assumption — "these were computed by the *identical*
expression" — that silently breaks when one side is refactored, and the
break surfaces as a nondeterministic tie in schedule construction.  The
:mod:`repro.core.units` comparators (``time_eq``, ``times_close``,
``duration_is_zero``, ...) make the intended semantics explicit and give
the grep-able single point where the convention lives.

Detection is a name heuristic: a comparison is flagged when either
operand's identifier (name, attribute, or subscripted container name)
contains a time/bandwidth token (``start``, ``deadline``, ``seconds``,
``bandwidth``, ...).  String/None/bool operands are never flagged.
``core/units.py`` itself implements the comparators and carries an
inline ``staticcheck: disable=R2`` suppression where the heuristic
fires on its own implementation.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.staticcheck.engine import Finding, Module, Rule, register

#: Identifier tokens (snake_case fragments) that mark a time quantity.
TIME_TOKENS = frozenset(
    {
        "time",
        "times",
        "start",
        "end",
        "deadline",
        "deadlines",
        "duration",
        "seconds",
        "horizon",
        "cursor",
        "arrival",
        "release",
        "latency",
        "slack",
        "elapsed",
        "gc",
        "wall",
        "cpu",
    }
)

#: Identifier tokens that mark a bandwidth/rate quantity.
BANDWIDTH_TOKENS = frozenset({"bandwidth", "rate"})

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def _identifier_hint(node: ast.AST) -> Optional[str]:
    """The identifier a comparison operand is named by, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _identifier_hint(node.value)
    if isinstance(node, ast.Call):
        # min(...) / max(...) / abs(...) pass their operand's nature
        # through; a named function's result is judged by its name
        # (``release_time_at(...)`` is a time).
        if isinstance(node.func, ast.Name) and node.func.id in {
            "min",
            "max",
            "abs",
        }:
            for arg in node.args:
                hint = _identifier_hint(arg)
                if hint is not None:
                    return hint
            return None
        return _identifier_hint(node.func)
    if isinstance(node, ast.UnaryOp):
        return _identifier_hint(node.operand)
    return None


def _is_time_like(node: ast.AST) -> bool:
    hint = _identifier_hint(node)
    if hint is None:
        return False
    tokens = set(_TOKEN_SPLIT.split(hint.lower())) - {""}
    return bool(tokens & (TIME_TOKENS | BANDWIDTH_TOKENS))


def _is_exempt_operand(node: ast.AST) -> bool:
    """Operands whose comparison can never be a float-equality hazard."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (str, bool, bytes)) or node.value is None
    return False


@register
class FloatTimeComparisonRule(Rule):
    """R2: require the core.units comparators for time/bandwidth floats."""

    id = "R2"
    title = "no raw float ==/!= on time or bandwidth expressions"
    hint = (
        "use repro.core.units comparators (time_eq / time_ne / "
        "times_close / duration_is_zero / bandwidth_eq) instead"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag raw ==/!= comparisons on time/bandwidth-named operands."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_exempt_operand(left) or _is_exempt_operand(right):
                    continue
                if _is_time_like(left) or _is_time_like(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield module.finding(
                        self,
                        node,
                        f"raw float {symbol} on a time/bandwidth "
                        f"expression; exact float equality encodes an "
                        f"identical-computation assumption",
                    )
