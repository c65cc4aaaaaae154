"""R4: codec modules must be schema-versioned and field-consistent.

Serialized input documents (scenarios, schedules, fault plans) keep
hand-written codecs, and the run cache keys on their exact byte layout.
A codec edit that adds or renames a field without bumping the schema
version makes stale cache entries parse into silently-wrong objects.
(Run records, metrics, profiles, timelines and chaos reports go through
the shared codec derived from their dataclass fields, which writes no
dict literal, so R4 does not see them; their layouts are pinned to
their versions by a test.)  Two statically checkable invariants:

* a module defining ``to_dict`` / ``from_dict`` codecs (any function
  whose name is, or ends with, ``to_dict`` / ``from_dict``) must define
  a module-level version constant (``SCHEMA_VERSION``, ``*_SCHEMA_VERSION``
  or ``FORMAT_VERSION``);
* each ``X_to_dict`` / ``X_from_dict`` pair must agree on its field set:
  every key the encoder writes must be read back by the decoder (version
  stamps and the ``kind`` tag excepted), and every key the decoder
  *requires* (``doc["k"]`` / ``_require(doc, "k")``) must be written.
  Keys read via ``doc.get("k")`` are optional by construction and may
  legitimately be absent from the encoder (legacy tolerance).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.staticcheck.engine import (
    CheckContext,
    Finding,
    Module,
    Rule,
    register,
)

#: Keys exempt from the "written but never read back" check: pure
#: stamps the decoder validates elsewhere or ignores by design.
STAMP_KEYS = frozenset({"format_version", "schema_version"})


def _is_codec_name(name: str, suffix: str) -> bool:
    return name == suffix or name.endswith("_" + suffix)


def _codec_functions(
    body: List[ast.stmt],
) -> List[ast.FunctionDef]:
    return [
        node
        for node in body
        if isinstance(node, ast.FunctionDef)
        and (
            _is_codec_name(node.name, "to_dict")
            or _is_codec_name(node.name, "from_dict")
        )
    ]


def _has_version_constant(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and (
                    target.id == "SCHEMA_VERSION"
                    or target.id.endswith("_VERSION")
                ):
                    return True
        elif isinstance(node, ast.ImportFrom):
            # A codec module may delegate versioning to the module that
            # owns the constant (serialization.py imports
            # FAULTS_SCHEMA_VERSION, for example).
            for name in node.names:
                local = name.asname or name.name
                if local.endswith("_VERSION") or local == "SCHEMA_VERSION":
                    return True
    return False


def _written_keys(function: ast.FunctionDef) -> Optional[Set[str]]:
    """Top-level string keys of every dict literal the encoder returns.

    ``None`` when no return statement yields a plain dict literal (the
    encoder builds its document some other way; the pair check is
    skipped rather than guessed at).
    """
    keys: Set[str] = set()
    saw_dict = False
    for node in ast.walk(function):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            saw_dict = True
            for key in value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
    return keys if saw_dict else None


def _document_param(function: ast.FunctionDef) -> Optional[str]:
    """The decoder's document parameter name (first non-self/cls arg)."""
    for arg in function.args.args:
        if arg.arg in {"self", "cls"}:
            continue
        return arg.arg
    return None


def _read_keys(
    function: ast.FunctionDef,
) -> Tuple[Set[str], Set[str]]:
    """``(required, optional)`` keys the decoder reads off its document."""
    param = _document_param(function)
    required: Set[str] = set()
    optional: Set[str] = set()
    if param is None:
        return required, optional
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
        ):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(
                index.value, str
            ):
                required.add(index.value)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and isinstance(func.value, ast.Name)
                and func.value.id == param
                and node.args
            ):
                key = node.args[0]
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    optional.add(key.value)
            elif (
                isinstance(func, ast.Name)
                and func.id == "_require"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == param
            ):
                key = node.args[1]
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    required.add(key.value)
    return required, optional


def _pair_name(name: str) -> str:
    """The sibling codec's name (``x_to_dict`` <-> ``x_from_dict``)."""
    if _is_codec_name(name, "to_dict"):
        return name[: -len("to_dict")] + "from_dict"
    return name[: -len("from_dict")] + "to_dict"


def _codec_scopes(
    module: Module,
) -> Iterator[Tuple[str, List[ast.FunctionDef]]]:
    """Yield (scope label, codec functions) per module and class body."""
    top = _codec_functions(module.tree.body)
    if top:
        yield "module", top
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            methods = _codec_functions(node.body)
            if methods:
                yield node.name, methods


@register
class CodecSchemaRule(Rule):
    """R4: schema-version constants and to/from field-set agreement."""

    id = "R4"
    title = "codec modules need schema versions and consistent field sets"
    hint = (
        "add/bump a SCHEMA_VERSION constant and keep the to_dict/"
        "from_dict field sets in sync"
    )

    def check(
        self, module: Module, context: CheckContext
    ) -> Iterator[Finding]:
        """Check codec modules for version constants and field drift."""
        scopes = list(_codec_scopes(module))
        if not scopes:
            return
        if not _has_version_constant(module.tree):
            first = scopes[0][1][0]
            yield module.finding(
                self,
                first,
                "module defines to_dict/from_dict codecs but no "
                "module-level SCHEMA_VERSION (or *_VERSION) constant; "
                "cached artifacts cannot be invalidated on layout change",
            )
        for _scope, functions in scopes:
            by_name: Dict[str, ast.FunctionDef] = {
                function.name: function for function in functions
            }
            for function in functions:
                if not _is_codec_name(function.name, "to_dict"):
                    continue
                sibling = by_name.get(_pair_name(function.name))
                if sibling is None:
                    continue
                written = _written_keys(function)
                if written is None:
                    continue
                required, optional = _read_keys(sibling)
                drifted = sorted(
                    written - required - optional - STAMP_KEYS - {"kind"}
                )
                missing = sorted(required - written)
                if drifted:
                    yield module.finding(
                        self,
                        function,
                        f"{function.name} writes field(s) "
                        f"{', '.join(drifted)} that "
                        f"{sibling.name} never reads back — the codec "
                        f"field set drifted",
                    )
                if missing:
                    yield module.finding(
                        self,
                        sibling,
                        f"{sibling.name} requires field(s) "
                        f"{', '.join(missing)} that "
                        f"{function.name} never writes",
                    )
