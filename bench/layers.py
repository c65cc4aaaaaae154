"""Per-layer attribution, timed from outside the program.

A traced pass replaces public functions of each layer — a class attribute,
or the module attribute at the site that imports the function — with a
timing wrapper, and puts the original objects back afterwards.  Each
wrapper counts calls, counts results that are not ``None``, and adds up
self time: its own duration minus that of the wrapped calls nested inside
it.  The program receives no tracer and is not edited.

A target the program no longer has (say ``TreeCache`` after a refactor)
is skipped, and the metrics built on it read ``None``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

#: ``(layer, module, attribute path)``.  Targets sharing a layer name add
#: into one set of counters: the four cost criteria each define
#: ``evaluate``, and the storage timeline answers two kinds of probe.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("routing.tree", "repro.heuristics.base", "compute_shortest_path_tree"),
    (
        "core.state.earliest_transfer",
        "repro.core.state",
        "NetworkState.earliest_transfer",
    ),
    ("core.intervals.first_fit", "repro.core.intervals", "IntervalSet.first_fit"),
    ("core.timeline", "repro.core.timeline", "CapacityTimeline.can_reserve_span"),
    (
        "core.timeline",
        "repro.core.timeline",
        "CapacityTimeline.next_sufficient_start",
    ),
    ("heuristics.tree_cache", "repro.heuristics.base", "TreeCache.entry_for"),
    ("heuristics.candidates", "repro.heuristics.base", "enumerate_groups"),
    ("cost.evaluate", "repro.cost.criteria", "Cost1.evaluate"),
    ("cost.evaluate", "repro.cost.criteria", "Cost2.evaluate"),
    ("cost.evaluate", "repro.cost.criteria", "Cost3.evaluate"),
    ("cost.evaluate", "repro.cost.criteria", "Cost4.evaluate"),
    ("core.state.init", "repro.core.state", "NetworkState.__init__"),
    ("core.state.book_transfer", "repro.core.state", "NetworkState.book_transfer"),
    ("heuristics.drain", "repro.heuristics.base", "StagingHeuristic.drain"),
    ("core.state.remove_copy", "repro.core.state", "NetworkState.remove_copy"),
    ("core.state.reopen_request", "repro.core.state", "NetworkState.reopen_request"),
)

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
TIMED_LAYERS = (
    "routing.tree",
    "core.state.earliest_transfer",
    "core.intervals.first_fit",
    "core.timeline",
    "heuristics.candidates",
    "cost.evaluate",
    "core.state.init",
    "core.state.book_transfer",
    "heuristics.drain",
)

#: Layers reported as ``<layer>.calls`` only.
COUNTED_LAYERS = ("core.state.remove_copy", "core.state.reopen_request")


class Layer:
    """Counters of one layer over a traced pass."""

    __slots__ = ("calls", "results", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.results = 0
        self.self_s = 0.0


def resolve(module_name: str, path: str) -> Optional[Tuple[object, str]]:
    """``(owner, attribute)`` for a target, or ``None`` when it is gone.

    The attribute must be defined on the owner itself, so restoring it is
    a plain ``setattr`` of the saved object.
    """
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Probe:
    """Installs the timing wrappers and reads the layer counters."""

    def __init__(
        self, targets: Tuple[Tuple[str, str, str], ...] = TARGETS
    ) -> None:
        self._targets = targets
        self.layers: Dict[str, Layer] = {}
        self._saved: List[Tuple[object, str, object]] = []
        # One frame per active wrapped call, holding the time of the
        # wrapped calls nested in it; the bottom frame is the pass itself.
        self._stack: List[List[float]] = [[0.0]]

    def install(self) -> None:
        """Wrap every target that resolves."""
        for layer_name, module_name, path in self._targets:
            found = resolve(module_name, path)
            if found is None:
                continue
            owner, name = found
            original = vars(owner)[name]
            layer = self.layers.setdefault(layer_name, Layer())
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer))

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, original: Callable, layer: Layer) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):  # type: ignore[no-untyped-def]
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stack[-1][0] += elapsed
                layer.calls += 1
                layer.self_s += elapsed - frame[0]
            if result is not None:
                layer.results += 1
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def metrics(self, engine: Mapping[str, int]) -> Dict[str, Optional[float]]:
        """Layer metrics; ``engine`` holds the pass's summed ``EngineStats``
        counters (``cache_hits``, ``revalidations``, ``iterations``,
        ``hops_booked``)."""
        layers = self.layers
        out: Dict[str, Optional[float]] = {}
        for name in TIMED_LAYERS:
            layer = layers.get(name)
            out[f"{name}.calls"] = layer.calls if layer else None
            out[f"{name}.self_s"] = layer.self_s if layer else None
        for name in COUNTED_LAYERS:
            layer = layers.get(name)
            out[f"{name}.calls"] = layer.calls if layer else None
        tree = layers.get("routing.tree")
        out["routing.tree.us_per_call"] = (
            1e6 * tree.self_s / tree.calls if tree and tree.calls else None
        )
        probe = layers.get("core.state.earliest_transfer")
        out["core.state.earliest_transfer.feasible_ratio"] = (
            probe.results / probe.calls if probe and probe.calls else None
        )
        cache = layers.get("heuristics.tree_cache")
        requests = cache.calls if cache else None
        out["heuristics.tree_cache.requests"] = requests
        out["heuristics.tree_cache.self_s"] = cache.self_s if cache else None
        for metric, counter in (
            ("hit_ratio", "cache_hits"),
            ("revalidated_ratio", "revalidations"),
        ):
            count = engine.get(counter)
            out[f"heuristics.tree_cache.{metric}"] = (
                count / requests if requests and count is not None else None
            )
        out["heuristics.decisions"] = engine.get("iterations")
        out["heuristics.hops_booked"] = engine.get("hops_booked")
        return out


@contextmanager
def traced(
    targets: Tuple[Tuple[str, str, str], ...] = TARGETS,
) -> Iterator[Probe]:
    """A :class:`Probe` whose wrappers are installed for the ``with`` body."""
    probe = Probe(targets)
    try:
        probe.install()
        yield probe
    finally:
        probe.restore()


def wrapper_ns_per_call(calls: int = 200_000) -> float:
    """The time one wrapper adds to one call, in nanoseconds.

    Layer self times include this cost once per call of the layer and of
    every wrapped call nested in it; multiply by ``calls`` to discount it.
    """

    def noop() -> None:
        return None

    probe = Probe(())
    wrapped = probe._wrap(noop, Layer())
    clock = time.perf_counter
    started = clock()
    for _ in range(calls):
        noop()
    plain = clock() - started
    started = clock()
    for _ in range(calls):
        wrapped()
    return 1e9 * (clock() - started - plain) / calls
