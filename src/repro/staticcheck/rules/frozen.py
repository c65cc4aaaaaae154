"""R8: frozen-after-publish — no mutation of objects already shared.

The run cache, the :class:`RunRecord` stream, and the tracer event
pipeline all assume the objects handed to them are *final*: a record is
serialized when stored, but an in-memory cache entry, a tracer payload
dict, or a record kept in a results list is shared by reference.
Mutating it after the hand-off silently rewrites history — the cached
entry no longer matches what a recompute would produce, and replayed
runs diverge from fresh ones.

The rule is intraprocedural and textual: inside one function, once a
local name is *published* —

* passed (as a bare name) to a ``.store(...)`` / ``.insert(...)`` /
  ``.put(...)`` / ``.publish(...)`` call,
* passed to the tracer hook (``.emit(...)``), or
* assigned into a container attribute of ``self``
  (``self._cache[key] = entry``) —

any later mutation of that name (attribute or item assignment,
``del``, or an in-place mutator call such as ``.append``/``.update``)
on a line below the publish is a finding, unless the name was rebound
in between (a rebinding makes the local refer to a fresh object).
Publish first, mutate a *copy* — or finish mutating before publishing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.staticcheck.engine import (
    CheckContext,
    Finding,
    Module,
    Rule,
    register,
)
from repro.staticcheck.graph import FunctionNode, walk_body

#: Method names that publish their bare-name arguments into a store.
PUBLISH_METHODS = frozenset({"store", "insert", "put", "publish"})

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "add",
        "sort",
        "reverse",
    }
)


@dataclass
class _NameEvents:
    """Publish/kill/mutation sites of one local name, by line."""

    publishes: List[Tuple[int, str]] = field(default_factory=list)
    kills: List[int] = field(default_factory=list)
    mutations: List[Tuple[int, ast.AST, str]] = field(default_factory=list)


def _is_publish_call(call: ast.Call) -> Tuple[bool, str]:
    """Classify a call as publishing; returns ``(publishes, label)``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in PUBLISH_METHODS:
            return True, f".{func.attr}(...)"
        if func.attr == "emit":
            return True, "tracer .emit(...)"
    return False, ""


def _published_names(call: ast.Call) -> Iterator[str]:
    """Bare-name arguments handed over by a publishing call."""
    for arg in call.args:
        if isinstance(arg, ast.Name):
            yield arg.id
    for keyword in call.keywords:
        if isinstance(keyword.value, ast.Name):
            yield keyword.value.id


def _collect_events(function: FunctionNode) -> Dict[str, _NameEvents]:
    """Gather per-name publish/kill/mutation events for one function."""
    events: Dict[str, _NameEvents] = {}

    def of(name: str) -> _NameEvents:
        return events.setdefault(name, _NameEvents())

    for node in walk_body(function):
        if isinstance(node, ast.Call):
            publishes, label = _is_publish_call(node)
            if publishes:
                for name in _published_names(node):
                    of(name).publishes.append((node.lineno, label))
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in MUTATOR_METHODS
            ):
                of(func.value.id).mutations.append(
                    (node.lineno, node, f"call to .{func.attr}(...)")
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    of(target.id).kills.append(node.lineno)
                elif isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ):
                    of(target.value.id).mutations.append(
                        (
                            node.lineno,
                            node,
                            f"attribute assignment .{target.attr}",
                        )
                    )
                elif isinstance(target, ast.Subscript):
                    if isinstance(target.value, ast.Name):
                        of(target.value.id).mutations.append(
                            (node.lineno, node, "item assignment [...]")
                        )
                    # ``self._cache[key] = entry`` publishes the value.
                    if (
                        isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Name)
                        and isinstance(target.value, ast.Attribute)
                        and isinstance(target.value.value, ast.Name)
                        and target.value.value.id in {"self", "cls"}
                    ):
                        of(node.value.id).publishes.append(
                            (
                                node.lineno,
                                f"container insert "
                                f"self.{target.value.attr}[...]",
                            )
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and isinstance(target.value, ast.Name):
                    of(target.value.id).mutations.append(
                        (node.lineno, node, "del on an element/attribute")
                    )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for element in ast.walk(node.target):
                if isinstance(element, ast.Name):
                    of(element.id).kills.append(node.lineno)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for element in ast.walk(node.optional_vars):
                if isinstance(element, ast.Name):
                    of(element.id).kills.append(element.lineno)
    return events


@register
class FrozenAfterPublishRule(Rule):
    """R8: objects published to caches/records/tracers stay frozen."""

    id = "R8"
    title = "no mutation after publishing into a cache/record/tracer"
    hint = (
        "publish a finished object: mutate before the insert, or insert "
        "a copy (dataclasses.replace / dict(...) / list(...))"
    )

    def check(
        self, module: Module, context: CheckContext
    ) -> Iterator[Finding]:
        """Flag post-publish mutations of published locals."""
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            events = _collect_events(node)
            for name in sorted(events):
                record = events[name]
                if not record.publishes or not record.mutations:
                    continue
                for line, mutation_node, what in record.mutations:
                    publish = self._live_publish(record, line)
                    if publish is None:
                        continue
                    publish_line, label = publish
                    yield module.finding(
                        self,
                        mutation_node,
                        f"{what} mutates {name!r} after it was published "
                        f"via {label} on line {publish_line}; published "
                        f"objects must stay frozen",
                    )

    @staticmethod
    def _live_publish(
        record: _NameEvents, mutation_line: int
    ) -> "Tuple[int, str] | None":
        """The latest publish before ``mutation_line`` not killed since."""
        candidates = [
            (line, label)
            for line, label in record.publishes
            if line < mutation_line
        ]
        if not candidates:
            return None
        publish_line, label = max(candidates)
        if any(
            publish_line < kill <= mutation_line for kill in record.kills
        ):
            return None
        return publish_line, label
