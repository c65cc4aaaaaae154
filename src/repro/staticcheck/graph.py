"""Project symbol table and call graph for the whole-program rule.

The file-local rules (R1, R2, R5) see one module at a time; the
invariant that matters most to the run cache — no RNG reachable from a
fingerprint — is a *whole-program* property.
This module builds the substrate that rule (R7) queries:

* a per-module symbol table (top-level functions, classes with their
  methods, import aliases, module-level names);
* a call graph over every function and method in the scanned tree.

Call resolution is deliberately simple and deterministic:

* ``f(...)`` resolves through local defs and from-imports (*direct*);
* ``mod.f(...)`` resolves through import aliases when ``mod`` maps to a
  file inside the tree (*direct*), and is classified *external* when it
  maps outside it;
* ``recv.m(...)`` resolves through the receiver's annotated type —
  parameter annotations, ``x: T`` locals, ``x = ClassName(...)``
  constructor assignments, ``self``/``cls``, and ``self.attr`` where the
  attribute's type is known from the class body or ``__init__``
  (*method*), following project base classes;
* any other attribute call falls back *conservatively* to every project
  method of that name (*fallback*), so dynamic dispatch can hide
  nothing from a reachability rule; a name matching no project function
  at all stays *unresolved*.

Everything is ordered (sorted names, source order within a module) so
two runs over the same tree build byte-identical graphs.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.staticcheck.engine import Module

#: Resolution classes a call site can land in (see module docstring).
RESOLUTION_DIRECT = "direct"
RESOLUTION_METHOD = "method"
RESOLUTION_EXTERNAL = "external"
RESOLUTION_FALLBACK = "fallback"
RESOLUTION_UNRESOLVED = "unresolved"

#: Resolutions counted as *resolved* in the coverage statistic: the
#: target set is exact (or provably outside the tree), not a guess.
RESOLVED_KINDS = frozenset(
    {RESOLUTION_DIRECT, RESOLUTION_METHOD, RESOLUTION_EXTERNAL}
)

#: Names of every builtin callable (``sorted``, ``len``, ``ValueError``).
_BUILTIN_NAMES = frozenset(dir(builtins))

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class ClassInfo:
    """One class definition in the scanned tree.

    Attributes:
        name: the bare class name.
        qname: ``relpath::ClassName``.
        relpath: defining module, relative to the scanned root.
        bases: base-class name texts (``Name``/``Attribute`` tails).
        methods: method name -> function qualified name.
        attr_types: instance-attribute name -> annotated type name,
            harvested from class-body ``AnnAssign`` fields (dataclasses)
            and ``self.x = param`` / ``self.x: T = ...`` in ``__init__``.
    """

    name: str
    qname: str
    relpath: str
    bases: Tuple[str, ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function or method in the scanned tree.

    Attributes:
        qname: ``relpath::name`` or ``relpath::Class.name``.
        relpath: defining module, relative to the scanned root.
        name: the bare function name.
        class_name: enclosing class name for methods, else ``None``.
        node: the parsed def node (body scans anchor findings here).
        lineno: 1-based definition line.
    """

    qname: str
    relpath: str
    name: str
    class_name: Optional[str]
    node: FunctionNode
    lineno: int


@dataclass(eq=False)
class CallSite:
    """One syntactic call inside a function body.

    Attributes:
        caller: qualified name of the enclosing function.
        node: the ``ast.Call`` node.
        text: rendered callee (``"obj.method"`` / ``"helper"``).
        targets: qualified names of possible project callees (empty for
            external and unresolved sites).
        resolution: one of the ``RESOLUTION_*`` classes.
    """

    caller: str
    node: ast.Call
    text: str
    targets: Tuple[str, ...]
    resolution: str

    @property
    def resolved(self) -> bool:
        """True when the target set is exact (counted as covered)."""
        return self.resolution in RESOLVED_KINDS


@dataclass
class ModuleIndex:
    """Symbol table of one module.

    Attributes:
        relpath: module path relative to the scanned root.
        functions: top-level function name -> qualified name.
        classes: class name -> :class:`ClassInfo`.
        imports: local name -> ``(module, original name)`` from-imports.
        module_aliases: local name -> dotted module (plain imports).
        module_globals: names assigned at module top level (registries,
            caches — the mutable state the purity rule watches).
    """

    relpath: str
    functions: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    module_aliases: Dict[str, str] = field(default_factory=dict)
    module_globals: Set[str] = field(default_factory=set)


@dataclass
class GraphCoverage:
    """Call-resolution accounting for ``datastage lint --stats``.

    Attributes:
        call_sites: total syntactic calls seen.
        resolved: sites whose resolution is exact (direct, method, or
            provably external).
    """

    call_sites: int
    resolved: int

    @property
    def percent(self) -> float:
        """Resolved share of all call sites, 100.0 for an empty graph."""
        if self.call_sites == 0:
            return 100.0
        return 100.0 * self.resolved / self.call_sites


def walk_body(node: FunctionNode) -> Iterator[ast.AST]:
    """Every AST node of a function body, *excluding* nested defs.

    Nested function and class definitions open their own scopes — an
    assignment inside a closure types nothing in the outer function — so
    intraprocedural scans stop at them.  (The call graph itself
    attributes nested calls to the outer function; see
    :func:`_walk_calls`.)
    """
    queue: List[ast.AST] = list(ast.iter_child_nodes(node))
    while queue:
        child = queue.pop(0)
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield child
        queue.extend(ast.iter_child_nodes(child))


def _walk_calls(node: FunctionNode) -> Iterator[ast.Call]:
    """Every call inside a function, including its nested closures.

    A closure runs with the outer function's data, so reachability rules
    treat its calls as the outer function's own; nested *class* bodies
    are skipped (their methods are graph nodes in their own right).
    """
    queue: List[ast.AST] = list(ast.iter_child_nodes(node))
    while queue:
        child = queue.pop(0)
        if isinstance(child, ast.ClassDef):
            continue
        if isinstance(child, ast.Call):
            yield child
        queue.extend(ast.iter_child_nodes(child))


def annotation_type_name(annotation: Optional[ast.AST]) -> Optional[str]:
    """Extract the class name an annotation refers to, when recognizable.

    Handles ``Name``, dotted ``Attribute`` tails, string annotations,
    ``Optional[T]`` / ``Union[T, None]`` / ``T | None`` unwrapping.
    Container annotations (``List[T]``) yield ``None`` — the receiver of
    a method call is the container, not its elements.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        text = annotation.value.strip()
        tail = text.split("[", 1)[0].split(".")[-1].strip()
        return tail if tail.isidentifier() else None
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = (
            head.id
            if isinstance(head, ast.Name)
            else head.attr
            if isinstance(head, ast.Attribute)
            else None
        )
        if head_name == "Optional":
            return annotation_type_name(annotation.slice)
        if head_name == "Union" and isinstance(annotation.slice, ast.Tuple):
            names = [
                annotation_type_name(element)
                for element in annotation.slice.elts
                if not (
                    isinstance(element, ast.Constant)
                    and element.value is None
                )
            ]
            if len(names) == 1:
                return names[0]
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        sides = [
            side
            for side in (annotation.left, annotation.right)
            if not (
                isinstance(side, ast.Constant) and side.value is None
            )
        ]
        if len(sides) == 1:
            return annotation_type_name(sides[0])
    return None


def _callee_text(func: ast.AST) -> str:
    """Render a call's callee expression for messages (best effort)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return f"{_callee_text(func.value)}.{func.attr}"
    if isinstance(func, ast.Call):
        return f"{_callee_text(func.func)}(...)"
    return "<expr>"


def _index_class(node: ast.ClassDef, relpath: str) -> ClassInfo:
    """Build the :class:`ClassInfo` of one class definition."""
    bases = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            bases.append(base.attr)
    info = ClassInfo(
        name=node.name,
        qname=f"{relpath}::{node.name}",
        relpath=relpath,
        bases=tuple(bases),
    )
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[child.name] = (
                f"{relpath}::{node.name}.{child.name}"
            )
            if child.name == "__init__":
                _harvest_init_attr_types(child, info)
        elif isinstance(child, ast.AnnAssign) and isinstance(
            child.target, ast.Name
        ):
            type_name = annotation_type_name(child.annotation)
            if type_name is not None:
                info.attr_types.setdefault(child.target.id, type_name)
    return info


def _harvest_init_attr_types(init: FunctionNode, info: ClassInfo) -> None:
    """Record ``self.x`` types assigned in ``__init__``."""
    param_types: Dict[str, str] = {}
    for arg in init.args.args + init.args.kwonlyargs:
        type_name = annotation_type_name(arg.annotation)
        if type_name is not None:
            param_types[arg.arg] = type_name
    for node in walk_body(init):
        target: Optional[ast.AST] = None
        type_name = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(node.value, ast.Name):
                type_name = param_types.get(node.value.id)
            elif isinstance(node.value, ast.Call) and isinstance(
                node.value.func, ast.Name
            ):
                type_name = node.value.func.id
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            type_name = annotation_type_name(node.annotation)
        if (
            type_name is not None
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            info.attr_types.setdefault(target.attr, type_name)


def index_module(module: Module) -> ModuleIndex:
    """Build one module's symbol table."""
    index = ModuleIndex(relpath=module.relpath)
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions[node.name] = f"{module.relpath}::{node.name}"
        elif isinstance(node, ast.ClassDef):
            index.classes[node.name] = _index_class(node, module.relpath)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    index.module_globals.add(target.id)
                elif isinstance(target, ast.Tuple):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            index.module_globals.add(element.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            index.module_globals.add(node.target.id)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                index.module_aliases[
                    name.asname or name.name.split(".")[0]
                ] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                index.imports[name.asname or name.name] = (
                    node.module,
                    name.name,
                )
    return index


class ProjectGraph:
    """The whole-program symbol table plus call graph.

    Built once per lint run by :func:`build_graph`; rules query it read
    only.  All accessors return deterministically ordered data.
    """

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules: Tuple[Module, ...] = tuple(modules)
        self.module_index: Dict[str, ModuleIndex] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.call_sites: List[CallSite] = []
        self._calls_by_caller: Dict[str, List[CallSite]] = {}
        self._classes_by_name: Dict[str, List[ClassInfo]] = {}
        self._methods_by_name: Dict[str, List[str]] = {}

    # -- module path resolution --------------------------------------

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Map a dotted import path to a relpath inside the tree.

        Tries suffixes longest-first (``repro.core.state`` matches
        ``core/state.py`` when the scanned root *is* the package), so
        both ``src/repro`` scans and fixture trees resolve naturally.
        """
        parts = dotted.split(".")
        for start in range(len(parts)):
            stem = "/".join(parts[start:])
            for candidate in (f"{stem}.py", f"{stem}/__init__.py"):
                if candidate in self.module_index:
                    return candidate
        return None

    def class_named(
        self, type_name: str, index: ModuleIndex
    ) -> Optional[ClassInfo]:
        """Resolve a type name seen in ``index``'s module to its class.

        Preference order: the module's own classes, its from-imports,
        then the (sorted-first) project-wide class of that name.
        """
        local = index.classes.get(type_name)
        if local is not None:
            return local
        imported = index.imports.get(type_name)
        if imported is not None:
            module_path = self.resolve_module(imported[0])
            if module_path is not None:
                other = self.module_index[module_path].classes.get(
                    imported[1]
                )
                if other is not None:
                    return other
        candidates = self._classes_by_name.get(type_name)
        if candidates:
            return candidates[0]
        return None

    def method_on(
        self, info: ClassInfo, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Look a method up on a class, following project base classes."""
        seen = _seen if _seen is not None else set()
        if info.qname in seen:
            return None
        seen.add(info.qname)
        found = info.methods.get(method)
        if found is not None:
            return found
        defining_index = self.module_index[info.relpath]
        for base_name in info.bases:
            base = self.class_named(base_name, defining_index)
            if base is None:
                continue
            found = self.method_on(base, method, seen)
            if found is not None:
                return found
        return None

    # -- graph accessors ----------------------------------------------

    def callees(self, qname: str) -> Tuple[CallSite, ...]:
        """The call sites inside one function, in source order."""
        return tuple(self._calls_by_caller.get(qname, ()))

    def coverage(self) -> GraphCoverage:
        """Resolution accounting over every call site."""
        return GraphCoverage(
            call_sites=len(self.call_sites),
            resolved=sum(1 for site in self.call_sites if site.resolved),
        )


def _local_types(
    function: FunctionNode, owner: Optional[ClassInfo]
) -> Dict[str, str]:
    """Map local names to their annotated (or constructed) type names."""
    types: Dict[str, str] = {}
    args = function.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        type_name = annotation_type_name(arg.annotation)
        if type_name is not None:
            types[arg.arg] = type_name
    if owner is not None and (args.args or args.posonlyargs):
        first = (args.posonlyargs + args.args)[0].arg
        decorators = {
            d.id
            for d in function.decorator_list
            if isinstance(d, ast.Name)
        }
        if "staticmethod" not in decorators:
            types[first] = owner.name
    for node in walk_body(function):
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            type_name = annotation_type_name(node.annotation)
            if type_name is not None:
                types[node.target.id] = type_name
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id[:1].isupper()
        ):
            types[node.targets[0].id] = node.value.func.id
    return types


def build_graph(modules: Sequence[Module]) -> ProjectGraph:
    """Index every module and resolve every call site."""
    graph = ProjectGraph(modules)
    for module in modules:
        graph.module_index[module.relpath] = index_module(module)
    for index in graph.module_index.values():
        for info in index.classes.values():
            graph._classes_by_name.setdefault(info.name, []).append(info)
            for method_name, qname in info.methods.items():
                graph._methods_by_name.setdefault(method_name, []).append(
                    qname
                )
    for name in graph._classes_by_name:
        graph._classes_by_name[name].sort(key=lambda c: c.qname)
    for name in graph._methods_by_name:
        graph._methods_by_name[name].sort()
    for module in modules:
        _register_functions(graph, module)
    for module in modules:
        index = graph.module_index[module.relpath]
        for info in _module_functions(module):
            owner = (
                index.classes.get(info.class_name)
                if info.class_name is not None
                else None
            )
            _resolve_function_calls(graph, module, info, owner)
    for qname in graph.functions:
        graph._calls_by_caller.setdefault(qname, [])
    return graph


def _module_functions(module: Module) -> Iterator[FunctionInfo]:
    """Top-level functions and class methods of one module, in order."""
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield FunctionInfo(
                qname=f"{module.relpath}::{node.name}",
                relpath=module.relpath,
                name=node.name,
                class_name=None,
                node=node,
                lineno=node.lineno,
            )
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield FunctionInfo(
                        qname=f"{module.relpath}::{node.name}.{child.name}",
                        relpath=module.relpath,
                        name=child.name,
                        class_name=node.name,
                        node=child,
                        lineno=child.lineno,
                    )


def _register_functions(graph: ProjectGraph, module: Module) -> None:
    for info in _module_functions(module):
        graph.functions[info.qname] = info


def _resolve_function_calls(
    graph: ProjectGraph,
    module: Module,
    info: FunctionInfo,
    owner: Optional[ClassInfo],
) -> None:
    index = graph.module_index[module.relpath]
    local_types = _local_types(info.node, owner)
    sites = graph._calls_by_caller.setdefault(info.qname, [])
    for call in _walk_calls(info.node):
        site = _resolve_call(graph, index, info, owner, local_types, call)
        sites.append(site)
        graph.call_sites.append(site)


def _constructor_targets(
    graph: ProjectGraph, class_info: ClassInfo
) -> Tuple[Tuple[str, ...], str]:
    """Edges for ``ClassName(...)``: ``__init__``/``__post_init__``."""
    targets = []
    for hook in ("__init__", "__post_init__"):
        found = graph.method_on(class_info, hook)
        if found is not None:
            targets.append(found)
    return tuple(sorted(targets)), RESOLUTION_METHOD


def _resolve_call(
    graph: ProjectGraph,
    index: ModuleIndex,
    info: FunctionInfo,
    owner: Optional[ClassInfo],
    local_types: Dict[str, str],
    call: ast.Call,
) -> CallSite:
    func = call.func
    text = _callee_text(func)

    def site(targets: Tuple[str, ...], resolution: str) -> CallSite:
        return CallSite(
            caller=info.qname,
            node=call,
            text=text,
            targets=targets,
            resolution=resolution,
        )

    if isinstance(func, ast.Name):
        name = func.id
        local = index.functions.get(name)
        if local is not None:
            return site((local,), RESOLUTION_DIRECT)
        local_class = index.classes.get(name)
        if local_class is not None:
            return site(*_constructor_targets(graph, local_class))
        imported = index.imports.get(name)
        if imported is not None:
            module_path = graph.resolve_module(imported[0])
            if module_path is None:
                return site((), RESOLUTION_EXTERNAL)
            other = graph.module_index[module_path]
            target = other.functions.get(imported[1])
            if target is not None:
                return site((target,), RESOLUTION_DIRECT)
            target_class = other.classes.get(imported[1])
            if target_class is not None:
                return site(*_constructor_targets(graph, target_class))
            return site((), RESOLUTION_EXTERNAL)
        if name in _BUILTIN_NAMES:
            return site((), RESOLUTION_EXTERNAL)
        return site((), RESOLUTION_UNRESOLVED)

    if isinstance(func, ast.Attribute):
        method = func.attr
        receiver = func.value
        receiver_type: Optional[str] = None
        if isinstance(receiver, ast.Name):
            base = receiver.id
            if base in index.module_aliases:
                dotted = f"{index.module_aliases[base]}"
                module_path = graph.resolve_module(dotted)
                if module_path is None:
                    return site((), RESOLUTION_EXTERNAL)
                other = graph.module_index[module_path]
                target = other.functions.get(method)
                if target is not None:
                    return site((target,), RESOLUTION_DIRECT)
                target_class = other.classes.get(method)
                if target_class is not None:
                    return site(*_constructor_targets(graph, target_class))
                return site((), RESOLUTION_EXTERNAL)
            receiver_type = local_types.get(base)
            if receiver_type is None and (
                base in index.classes or base in index.imports
            ):
                class_info = graph.class_named(base, index)
                if class_info is not None:
                    receiver_type = class_info.name
        elif (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
        ):
            base = receiver.value.id
            if base in index.module_aliases:
                dotted = f"{index.module_aliases[base]}.{receiver.attr}"
                module_path = graph.resolve_module(dotted)
                if module_path is not None:
                    other = graph.module_index[module_path]
                    target = other.functions.get(method)
                    if target is not None:
                        return site((target,), RESOLUTION_DIRECT)
                return site((), RESOLUTION_EXTERNAL)
            base_type = local_types.get(base)
            if base_type is not None:
                base_class = graph.class_named(base_type, index)
                if base_class is not None:
                    receiver_type = base_class.attr_types.get(receiver.attr)
        if receiver_type is not None:
            class_info = graph.class_named(receiver_type, index)
            if class_info is not None:
                target = graph.method_on(class_info, method)
                if target is not None:
                    return site((target,), RESOLUTION_METHOD)
                # The type is known but carries no such method anywhere
                # in the project: an inherited builtin (dict.get on a
                # Dict field) or a stdlib base — outside the tree.
                return site((), RESOLUTION_EXTERNAL)
        fallback = graph._methods_by_name.get(method)
        if fallback:
            return site(tuple(fallback), RESOLUTION_FALLBACK)
        return site((), RESOLUTION_UNRESOLVED)

    return site((), RESOLUTION_UNRESOLVED)
