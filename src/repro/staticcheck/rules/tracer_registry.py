"""R3: event-name and reason-code literals must exist in the registry.

The observability pipeline (tracer -> metrics -> reports -> mergeable
JSON artifacts) is stringly keyed: an event emitted as
``tracer.emit("transfer_boked", ...)`` would never match a reader's
filter and would silently vanish from every aggregate.  The tracer
module's :data:`~repro.observability.tracer.EVENTS` registry and its
:data:`~repro.observability.tracer.REASON_CODES` tuple are the single
source of truth; this rule checks every literal used as an event name or
reason code against them.

Checked sites:

* ``*.emit("name", ...)`` — the one hook every event site calls; when
  the registered event has a ``reason`` field, a literal passed in that
  position is checked as a reason code too;
* ``*.named("name")`` — the reader-side filter on recorded events;
* ``reason="literal"`` keyword arguments to *any* call (forensics
  ledgers and test helpers alike);
* comparisons of a reason-named expression against a literal — the
  name hint is the attribute/variable name or, for subscripts like
  ``event["reason"]``, the constant string key.

Reason literals are checked against the union of the rejection codes
(``REASON_CODES``) and the tree-cache outcome codes
(``TREE_CACHE_REASONS``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.engine import (
    CheckContext,
    Finding,
    Module,
    Rule,
    register,
)


def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _attr_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        # ``event["reason"]`` — the constant key is the name hint.
        return _literal_str(node.slice)
    return None


@register
class TracerRegistryRule(Rule):
    """R3: tracer event/reason literals must exist in the registry."""

    id = "R3"
    title = "tracer event names and reason codes must be registered"
    hint = (
        "use a name from repro.observability.tracer EVENTS / "
        "REASON_CODES (add it to the registry if the taxonomy grew)"
    )

    def check(
        self, module: Module, context: CheckContext
    ) -> Iterator[Finding]:
        """Check event/reason string literals against the registry."""
        events = context.events
        reasons = context.reason_codes
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                callee = _attr_name(node.func)
                reason_args = [
                    keyword.value
                    for keyword in node.keywords
                    if keyword.arg == "reason"
                ]
                if callee == "emit" and node.args:
                    name = _literal_str(node.args[0])
                    if name is not None and name not in events:
                        yield module.finding(
                            self,
                            node.args[0],
                            f"event name {name!r} is not in the tracer "
                            f"EVENTS registry",
                        )
                    fields = events.get(name or "", ())
                    if "reason" in fields:
                        # Values follow the name in registry order.
                        position = fields.index("reason") + 1
                        reason_args.extend(node.args[position:position + 1])
                elif callee == "named" and node.args:
                    name = _literal_str(node.args[0])
                    if name is not None and name not in events:
                        yield module.finding(
                            self,
                            node.args[0],
                            f"named() filter {name!r} matches no "
                            f"registered event name",
                        )
                for value in reason_args:
                    reason = _literal_str(value)
                    if reason is not None and reason not in reasons:
                        yield module.finding(
                            self,
                            value,
                            f"reason code {reason!r} is not in the "
                            f"tracer REASON_CODES registry",
                        )
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for index, op in enumerate(node.ops):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    left, right = operands[index], operands[index + 1]
                    for named, literal in ((left, right), (right, left)):
                        hint = _attr_name(named)
                        value = _literal_str(literal)
                        if hint is None or value is None:
                            continue
                        if (
                            "reason" in hint.lower()
                            and value not in reasons
                        ):
                            yield module.finding(
                                self,
                                literal,
                                f"comparison against unregistered reason "
                                f"code {value!r}",
                            )
