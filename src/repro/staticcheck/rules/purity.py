"""R7: purity reachability — nothing impure behind a fingerprint.

The run cache keys every record on content fingerprints
(:func:`repro.serialization.scenario_fingerprint`, the ``*_to_dict``
codecs it canonicalizes, :meth:`RunCache.key_for`), and the incremental
:class:`~repro.heuristics.base.TreeCache` keeps trees only because its
journal replay is a pure function of the journal.  R1 catches an
RNG draw *written inside* those functions; R7 lifts the same invariant
to reachability: any function **transitively callable** from a
fingerprint/codec/cache-key entry point must not

* draw from the process-global RNG,
* read a wall clock (``time.perf_counter`` stays tolerated — elapsed
  timing is excluded from fingerprints), or
* write module-level state (a registry/memo assignment inside a
  fingerprint makes the "pure" function order-dependent).

Findings anchor at the impure operation itself and name the shortest
call chain from an entry point, so the report reads as a proof sketch:
``scenario_fingerprint -> canonical_scenario_json -> jitter``.
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
from repro.staticcheck.flow import reachable_from, render_chain
from repro.staticcheck.graph import FunctionInfo, index_module
from repro.staticcheck.rules.determinism import (
    GLOBAL_RNG_FUNCTIONS,
    WALL_CLOCK_DATETIME_METHODS,
    WALL_CLOCK_TIME_FUNCTIONS,
    _from_imports,
    _module_aliases,
)

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

#: Method names marking a function as a cache/codec entry point when a
#: ``*Cache`` class defines them: the run cache's key derivation, and the
#: tree cache's journal replay and its replay of a storage release.
_CACHE_ENTRY_METHODS = frozenset({"key_for", "_replay", "_replay_release"})

#: Module-scoped entry points: per relpath suffix, module-level functions
#: whose call trees must stay pure.  The compiled-scenario constructor is
#: memoized by identity and reused across searches, so any impurity
#: inside it would make the compiled kernel order-dependent.
_MODULE_ENTRY_FUNCTIONS: Dict[str, frozenset] = {
    "routing/compiled.py": frozenset({"compile_network"}),
}


def is_purity_entry(info: FunctionInfo) -> bool:
    """True for fingerprint, codec, cache-key, and compile entry points."""
    name = info.name
    if name == "fingerprint" or name.endswith("_fingerprint"):
        return True
    if name == "to_dict" or name.endswith("_to_dict"):
        return True
    if (
        info.class_name is not None
        and info.class_name.endswith("Cache")
        and name in _CACHE_ENTRY_METHODS
    ):
        return True
    if info.class_name is None:
        for suffix, names in _MODULE_ENTRY_FUNCTIONS.items():
            if name in names and info.relpath.endswith(suffix):
                return True
    return False


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """All nodes of a function including closures, minus nested classes."""
    queue: List[ast.AST] = list(ast.iter_child_nodes(node))
    while queue:
        child = queue.pop(0)
        if isinstance(child, ast.ClassDef):
            continue
        yield child
        queue.extend(ast.iter_child_nodes(child))


def _binding_names(target: ast.AST) -> Iterator[str]:
    """Names a store target *binds* (attribute/item stores bind nothing)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _binding_names(element)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def _locally_bound(function: ast.AST) -> Set[str]:
    """Names bound inside the function (shadowing module globals)."""
    bound: Set[str] = set()
    declared_global: Set[str] = set()
    for node in _walk_scope(function):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                bound.update(_binding_names(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bound.update(_binding_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            bound.update(_binding_names(node.optional_vars))
    return bound - declared_global


class _ModuleImpurityScanner:
    """Per-module context for spotting impure primitives in functions."""

    def __init__(self, module: Module) -> None:
        self.module = module
        aliases = _module_aliases(module.tree)
        self.imported = _from_imports(module.tree)
        self.random_names = {
            name for name, target in aliases.items() if target == "random"
        }
        self.time_names = {
            name for name, target in aliases.items() if target == "time"
        }
        self.datetime_names = {
            name for name, target in aliases.items() if target == "datetime"
        }
        self.numpy_names = {
            name for name, target in aliases.items() if target == "numpy"
        }
        self.module_globals = index_module(module).module_globals

    def impurities(
        self, function: ast.AST
    ) -> Iterator[Tuple[ast.AST, str]]:
        """Yield ``(node, description)`` for each impure primitive."""
        bound = _locally_bound(function)
        declared_global: Set[str] = set()
        for node in _walk_scope(function):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        writable_globals = (
            self.module_globals - bound
        ) | declared_global
        for node in _walk_scope(function):
            yield from self._check_node(
                node, writable_globals, declared_global
            )

    def _check_node(
        self,
        node: ast.AST,
        writable_globals: Set[str],
        declared_global: Set[str],
    ) -> Iterator[Tuple[ast.AST, str]]:
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            base, attr = node.value.id, node.attr
            if base in self.random_names and attr in GLOBAL_RNG_FUNCTIONS:
                yield node, f"process-global RNG draw random.{attr}"
            elif base in self.time_names and attr in WALL_CLOCK_TIME_FUNCTIONS:
                yield node, f"wall-clock read time.{attr}"
            elif base in self.numpy_names and attr == "random":
                yield node, "numpy.random global state"
            elif (
                base in self.datetime_names or base in {"datetime", "date"}
            ) and attr in WALL_CLOCK_DATETIME_METHODS:
                origin = self.imported.get(base)
                if base in self.datetime_names or (
                    origin is not None and origin[0] == "datetime"
                ):
                    yield node, f"wall-clock read {base}.{attr}"
        elif isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Attribute
        ):
            inner = node.value
            if isinstance(inner.value, ast.Name):
                root, mid, attr = inner.value.id, inner.attr, node.attr
                if (
                    root in self.datetime_names
                    and mid in {"datetime", "date"}
                    and attr in WALL_CLOCK_DATETIME_METHODS
                ):
                    yield node, f"wall-clock read datetime.{mid}.{attr}"
                elif root in self.numpy_names and mid == "random":
                    yield node, f"numpy.random.{attr} global state"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            origin = self.imported.get(node.func.id)
            if origin is not None:
                source_module, original = origin
                if (
                    source_module == "random"
                    and original in GLOBAL_RNG_FUNCTIONS
                ):
                    yield (
                        node,
                        f"process-global RNG draw random.{original} "
                        f"(imported as {node.func.id})",
                    )
                elif (
                    source_module == "time"
                    and original in WALL_CLOCK_TIME_FUNCTIONS
                ):
                    yield (
                        node,
                        f"wall-clock read time.{original} "
                        f"(imported as {node.func.id})",
                    )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in writable_globals
                and node.func.attr in MUTATOR_METHODS
            ):
                yield (
                    node,
                    f"mutation of module-level state "
                    f"{receiver.id!r} (.{node.func.attr})",
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                base = target
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if not isinstance(base, ast.Name):
                    continue
                if base is target:
                    # A plain rebinding only writes module state under a
                    # ``global`` declaration; otherwise it binds a local.
                    if base.id in declared_global:
                        yield (
                            node,
                            f"write to module-level state {base.id!r} "
                            f"(global declaration)",
                        )
                elif base.id in writable_globals:
                    yield (
                        node,
                        f"write to module-level state {base.id!r}",
                    )


@register
class PurityReachabilityRule(Rule):
    """R7: fingerprint/codec/cache-key call trees must stay pure."""

    id = "R7"
    title = "no impurity reachable from fingerprint/codec entry points"
    hint = (
        "fingerprints must be pure functions of their inputs; hoist the "
        "RNG/clock/global write out of the fingerprint call tree"
    )
    project = True
    needs_graph = True

    def check_project(self, context: CheckContext) -> Iterator[Finding]:
        """Flag impure primitives reachable from any purity entry point."""
        graph = context.graph
        if graph is None:
            return
        entries = sorted(
            qname
            for qname, info in graph.functions.items()
            if is_purity_entry(info)
        )
        if not entries:
            return
        chains = reachable_from(graph, entries)
        modules_by_path = {
            module.relpath: module for module in context.modules
        }
        scanners: Dict[str, _ModuleImpurityScanner] = {}
        seen_sites: Set[Tuple[str, int, int]] = set()
        for qname in sorted(chains):
            info = graph.functions[qname]
            module = modules_by_path.get(info.relpath)
            if module is None:
                continue
            scanner = scanners.get(info.relpath)
            if scanner is None:
                scanner = _ModuleImpurityScanner(module)
                scanners[info.relpath] = scanner
            chain = chains[qname]
            entry = chain[0]
            for node, description in scanner.impurities(info.node):
                site = (
                    info.relpath,
                    getattr(node, "lineno", info.lineno),
                    getattr(node, "col_offset", 0),
                )
                if site in seen_sites:
                    continue
                seen_sites.add(site)
                entry_info = graph.functions[entry]
                yield module.finding(
                    self,
                    node,
                    f"{description} is reachable from the "
                    f"{self._entry_kind(entry_info)} entry point "
                    f"{entry} via {render_chain(chain)}",
                )

    @staticmethod
    def _entry_kind(info: FunctionInfo) -> str:
        name = info.name
        if name == "fingerprint" or name.endswith("_fingerprint"):
            return "fingerprint"
        if name == "to_dict" or name.endswith("_to_dict"):
            return "codec"
        if info.class_name is None and name.startswith("compile_"):
            return "compile"
        return "cache"
