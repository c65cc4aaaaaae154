"""Documentation audit: every public item carries a docstring.

Walks the installed ``repro`` package and asserts that every public
module, class, function, and method (anything not underscore-prefixed,
reachable from a ``repro.*`` module) has a non-trivial docstring — the
deliverable requires doc comments on every public item, and this test
keeps that true as the library grows.

The same walk holds the public signatures of ``repro.core`` and
``repro.heuristics`` fully annotated: the local tier of the strict mypy
gate in ``pyproject.toml``, which runs where mypy is installed.
"""

import ast
import importlib
import inspect
import pkgutil

import repro


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def _is_local(obj, module):
    return getattr(obj, "__module__", None) == module.__name__


def test_every_public_item_is_documented():
    missing = []
    for module in _iter_modules():
        if not module.__doc__ or len(module.__doc__.strip()) < 10:
            missing.append(f"module {module.__name__}")
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) and _is_local(obj, module):
                if not obj.__doc__ or len(obj.__doc__.strip()) < 5:
                    missing.append(f"class {module.__name__}.{name}")
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if isinstance(attr, property):
                        func = attr.fget
                    elif inspect.isfunction(attr):
                        func = attr
                    else:
                        continue
                    if not func.__doc__ or len(func.__doc__.strip()) < 5:
                        missing.append(
                            f"method {module.__name__}.{name}.{attr_name}"
                        )
            elif inspect.isfunction(obj) and _is_local(obj, module):
                if not obj.__doc__ or len(obj.__doc__.strip()) < 5:
                    missing.append(f"function {module.__name__}.{name}")
    assert not missing, "undocumented public items:\n" + "\n".join(missing)


#: The packages whose public signatures must be fully annotated.
TYPED_PACKAGES = ("repro.core", "repro.heuristics")


def _is_public(name):
    dunder = name.startswith("__") and name.endswith("__")
    return dunder or not name.startswith("_")


def _unannotated(function):
    """The parameters and return of ``function`` that lack annotations."""
    args = function.args
    positional = list(args.posonlyargs) + list(args.args)
    if positional and positional[0].arg in {"self", "cls"}:
        positional = positional[1:]
    params = positional + list(args.kwonlyargs)
    params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    missing = [arg.arg for arg in params if arg.annotation is None]
    if function.returns is None and function.name != "__init__":
        missing.append("return")
    return missing


def test_public_core_and_heuristics_signatures_are_annotated():
    # Module and class bodies only: nested helpers are private whatever
    # their name, and dunders defined in a class count as public.
    missing = []
    for module in _iter_modules():
        if not module.__name__.startswith(TYPED_PACKAGES):
            continue
        todo = list(ast.parse(inspect.getsource(module)).body)
        while todo:
            node = todo.pop(0)
            if isinstance(node, ast.ClassDef):
                todo.extend(node.body)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and _is_public(node.name):
                missing.extend(
                    f"{module.__name__}:{node.lineno} {node.name} {name}"
                    for name in _unannotated(node)
                )
    assert not missing, "unannotated public signatures:\n" + "\n".join(
        missing
    )
