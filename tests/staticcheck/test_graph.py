"""Call-graph construction: resolution classes, coverage, determinism."""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, Tuple

from repro.staticcheck.engine import load_module
from repro.staticcheck.flow import reachable_from
from repro.staticcheck.graph import (
    RESOLUTION_DIRECT,
    RESOLUTION_EXTERNAL,
    RESOLUTION_FALLBACK,
    RESOLUTION_METHOD,
    RESOLUTION_UNRESOLVED,
    ProjectGraph,
    build_graph,
)


def graph_of(tmp_path: Path, files: Dict[str, str]) -> ProjectGraph:
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    modules = tuple(
        load_module(path, tmp_path)
        for path in sorted(tmp_path.rglob("*.py"))
    )
    return build_graph(modules)


def resolutions(
    graph: ProjectGraph, caller: str
) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    return tuple(
        (site.resolution, site.targets) for site in graph.callees(caller)
    )


def test_direct_call_same_module(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "core/a.py": """
            def helper() -> int:
                return 1


            def caller() -> int:
                return helper()
            """
        },
    )
    sites = resolutions(graph, "core/a.py::caller")
    assert sites == ((RESOLUTION_DIRECT, ("core/a.py::helper",)),)


def test_direct_call_through_from_import(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "core/util.py": """
            def shared() -> int:
                return 1
            """,
            "core/main.py": """
            from core.util import shared


            def caller() -> int:
                return shared()
            """,
        },
    )
    assert resolutions(graph, "core/main.py::caller") == (
        (RESOLUTION_DIRECT, ("core/util.py::shared",)),
    )


def test_method_resolution_via_annotated_receiver(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "core/model.py": """
            class Booking:
                def cost(self) -> float:
                    return 1.0
            """,
            "core/use.py": """
            from core.model import Booking


            def total(booking: Booking) -> float:
                return booking.cost()
            """,
        },
    )
    assert resolutions(graph, "core/use.py::total") == (
        (RESOLUTION_METHOD, ("core/model.py::Booking.cost",)),
    )


def test_method_resolution_via_constructor_binding(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "core/model.py": """
            class Counter:
                def bump(self) -> None:
                    pass


            def run() -> None:
                counter = Counter()
                counter.bump()
            """
        },
    )
    kinds = {
        site.resolution: site.targets
        for site in graph.callees("core/model.py::run")
    }
    assert kinds[RESOLUTION_METHOD] == ("core/model.py::Counter.bump",)


def test_self_calls_resolve_to_own_class(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "core/model.py": """
            class Engine:
                def step(self) -> None:
                    self.finish()

                def finish(self) -> None:
                    pass
            """
        },
    )
    assert resolutions(graph, "core/model.py::Engine.step") == (
        (RESOLUTION_METHOD, ("core/model.py::Engine.finish",)),
    )


def test_unresolved_dynamic_receiver_stays_conservative(tmp_path):
    # An unannotated receiver with a method name defined somewhere in
    # the project falls back to *every* project method of that name —
    # over-approximate, never silently absent.
    graph = graph_of(
        tmp_path,
        {
            "core/one.py": """
            class A:
                def fire(self) -> None:
                    pass
            """,
            "core/two.py": """
            class B:
                def fire(self) -> None:
                    pass


            def poke(thing):
                thing.fire()
            """,
        },
    )
    sites = resolutions(graph, "core/two.py::poke")
    assert len(sites) == 1
    resolution, targets = sites[0]
    assert resolution == RESOLUTION_FALLBACK
    assert targets == (
        "core/one.py::A.fire",
        "core/two.py::B.fire",
    )


def test_unknown_names_are_unresolved_and_stdlib_is_external(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "core/a.py": """
            import json


            def caller(mystery) -> str:
                mystery()
                return json.dumps({})
            """
        },
    )
    kinds = sorted(
        site.resolution for site in graph.callees("core/a.py::caller")
    )
    assert kinds == [RESOLUTION_EXTERNAL, RESOLUTION_UNRESOLVED]
    coverage = graph.coverage()
    # json.dumps is provably external (resolved); mystery() is not.
    assert coverage.call_sites == 2
    assert coverage.resolved == 1
    assert coverage.percent == 50.0


def test_chain_is_shortest_and_deterministic(tmp_path):
    files = {
        "core/a.py": """
        def leaf() -> int:
            return 1


        def middle() -> int:
            return leaf()


        def long_way() -> int:
            return middle()


        def top() -> int:
            return middle() + long_way()
        """
    }
    graph = graph_of(tmp_path, files)
    chains = reachable_from(graph, ["core/a.py::top"])
    assert chains["core/a.py::leaf"] == (
        "core/a.py::top",
        "core/a.py::middle",
        "core/a.py::leaf",
    )
    assert "core/a.py::top" not in reachable_from(
        graph, ["core/a.py::leaf"]
    )


def test_two_builds_are_identical(tmp_path):
    files = {
        "core/model.py": """
        class Booking:
            def cost(self) -> float:
                return 1.0
        """,
        "core/use.py": """
        from core.model import Booking


        def total(booking: Booking) -> float:
            return booking.cost()
        """,
    }
    first = graph_of(tmp_path / "one", files)
    second = graph_of(tmp_path / "two", files)

    def snapshot(graph: ProjectGraph):
        return [
            (qname, resolutions(graph, qname))
            for qname in sorted(graph.functions)
        ]

    assert snapshot(first) == snapshot(second)
