"""The ``bench`` harness: a pinned perf matrix emitting BENCH documents.

One :func:`run_bench` call executes the pinned
scenario × heuristic × criterion matrix of a
:class:`BenchMatrix` with per-cell span profiling enabled and folds the
results into one JSON-ready *bench document*::

    {
      "format_version": 1,
      "kind": "bench",
      "schema_version": 1,
      "label": "ci",
      "scale": "ci",
      "environment": {"platform": ..., "python": ..., "cpu_count": ...},
      "cache": {"cells": 15, "computed": 15, "cache_hits": 0,
                "hit_rate": 0.0},
      "harness": {... profile document: scenario_generation,
                  serialization ...},
      "entries": {
        "partial/C4": {
          "tree_cache": {"hits": 120, "misses": 30, "hit_rate": 0.8,
                         "reasons": {"clean": 90, "revalidated": 30,
                                     "item_changed": 30}},
          "timeline": {"runs": 5, "requests": 250, "satisfied": 180,
                       "unsatisfied": 70, "peak_link": 12,
                       "peak_utilization": 0.91,
                       "top_rejection": "no_feasible_window"},
          "elapsed_seconds": 1.23,
          "cells": 5,
          "profile": {... profile document: tree, tree/dijkstra,
                      scoring, booking, gc ...},
          "hotspots": [{"path": "tree/dijkstra", ...}, ...]
        },
        ...
      }
    }

Phase timings come from two non-overlapping sources, so nothing is
double-counted: the harness's own :class:`ProfileCollector` observes only
scenario generation and an explicit codec round-trip (the
``serialization`` phase), while cell-internal phases (``tree``,
``dijkstra``, ``scoring``, ``booking``, ``gc``) ride back on the records
through :class:`~repro.experiments.executor.SweepExecutor`'s per-cell
profiles — crossing worker processes and the run cache, exactly like
:class:`~repro.observability.metrics.RunMetrics`.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.cost.weights import as_weights
from repro.errors import ModelError
from repro.experiments.executor import SweepCell, SweepExecutor
from repro.experiments.scale import ExperimentScale, scale_by_name
from repro.faults.plan import FaultPlan
from repro.observability.profiling import (
    PHASE_SERIALIZATION,
    Profile,
    ProfileCollector,
    span,
)
from repro.observability.tracer import use_tracer
from repro.serialization import (
    FORMAT_VERSION,
    document_from_dict,
    document_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.workload.generator import ScenarioGenerator

#: Version stamp written into every bench document.
BENCH_SCHEMA_VERSION = 1

#: The pinned heuristic/criterion pairs benchmarked at every scale — one
#: entry per paper heuristic, all under the paper's best criterion C4,
#: at the balanced E-U point.
BENCH_PAIRINGS: Tuple[Tuple[str, str], ...] = (
    ("partial", "C4"),
    ("full_one", "C4"),
    ("full_all", "C4"),
)

#: The E-U point the matrix is pinned to (log10(W_E/W_U)).
BENCH_LOG_RATIO = 0.0

#: Hotspot table length recorded per entry.
BENCH_HOTSPOT_LIMIT = 10


@dataclass(frozen=True)
class BenchMatrix:
    """The pinned perf matrix: a scale plus fixed scheduler coordinates.

    Attributes:
        scale: the experiment scale (cases, generator config, seeds).
        pairings: the benchmarked (heuristic, criterion) pairs.
        log_ratio: the single E-U point every pair runs at.
        fault_intensity: when positive, every cell runs under a seeded
            static :class:`~repro.faults.plan.FaultPlan` of this
            intensity — a faulted perf baseline that exercises capacity
            masking in the hot path.
        fault_seed: base seed for generated fault plans (case ``i`` uses
            ``fault_seed + i``).
    """

    scale: ExperimentScale
    pairings: Tuple[Tuple[str, str], ...] = BENCH_PAIRINGS
    log_ratio: float = BENCH_LOG_RATIO
    fault_intensity: float = 0.0
    fault_seed: int = 0

    @staticmethod
    def pinned(
        scale_name: str,
        fault_intensity: float = 0.0,
        fault_seed: int = 0,
    ) -> "BenchMatrix":
        """The standard matrix at a named scale (``ci``/``full``/``paper``).

        Raises:
            ConfigurationError: for unknown scale names.
        """
        return BenchMatrix(
            scale=scale_by_name(scale_name),
            fault_intensity=fault_intensity,
            fault_seed=fault_seed,
        )

    @property
    def cell_count(self) -> int:
        """Total grid cells the matrix expands to."""
        return self.scale.cases * len(self.pairings)


def environment_fingerprint() -> Dict[str, Any]:
    """The host coordinates stamped into every bench document.

    Comparisons across different fingerprints are still possible but the
    renderer flags them — absolute timings are only comparable on the
    same class of hardware.
    """
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cpu_count": os.cpu_count() or 1,
    }


def run_bench(
    matrix: BenchMatrix,
    label: str = "",
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Execute the matrix under profiling and build the bench document.

    Args:
        matrix: the pinned perf matrix to run.
        label: document label (defaults to the scale name).
        workers: process fan-out for the sweep grid.
        cache_dir: optional run-record cache.  Replayed cells contribute
            their *original* phase timings; the document's ``cache``
            section records the hit rate so a mostly-replayed bench is
            recognizable.

    Returns:
        The JSON-ready bench document (validated by
        :func:`validate_bench_document`).
    """
    harness = ProfileCollector()
    with use_tracer(harness):
        generator = ScenarioGenerator(matrix.scale.config)
        scenarios = generator.generate_suite(
            matrix.scale.cases, matrix.scale.base_seed
        )
        with span(PHASE_SERIALIZATION):
            for scenario in scenarios:
                scenario_from_dict(scenario_to_dict(scenario))

    plans: List[Optional[FaultPlan]] = [None] * len(scenarios)
    if matrix.fault_intensity > 0.0:
        plans = [
            FaultPlan.generate(
                scenario,
                matrix.fault_intensity,
                seed=matrix.fault_seed + case,
                churn=False,
            )
            for case, scenario in enumerate(scenarios)
        ]
    cells = [
        SweepCell(
            scenario=scenario,
            heuristic=heuristic,
            criterion=criterion,
            weights=as_weights(matrix.log_ratio),
            faults=plans[case],
        )
        for heuristic, criterion in matrix.pairings
        for case, scenario in enumerate(scenarios)
    ]
    with SweepExecutor(
        workers=workers,
        cache_dir=cache_dir,
        profile=True,
        metrics=True,
        timeline=True,
    ) as executor:
        records = executor.run_cells(cells)
        summary = executor.last_summary
        profiles = dict(executor.profile_by_scheduler)
        metrics = dict(executor.metrics_by_scheduler)
        timelines = dict(executor.timeline_by_scheduler)

    elapsed: Dict[str, float] = {}
    cell_counts: Dict[str, int] = {}
    for record in records:
        elapsed[record.scheduler] = (
            elapsed.get(record.scheduler, 0.0) + record.elapsed_seconds
        )
        cell_counts[record.scheduler] = (
            cell_counts.get(record.scheduler, 0) + 1
        )

    entries: Dict[str, Any] = {}
    for scheduler in sorted(elapsed):
        profile = profiles.get(scheduler)
        scheduler_metrics = metrics.get(scheduler)
        hits = misses = 0
        reasons: Dict[str, int] = {}
        if scheduler_metrics is not None:
            hits = scheduler_metrics.counters.get("tree_cache_hits", 0)
            misses = scheduler_metrics.counters.get("tree_cache_misses", 0)
            reasons = dict(scheduler_metrics.tree_cache_reasons)
        probes = hits + misses
        timeline = timelines.get(scheduler)
        entries[scheduler] = {
            "tree_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / probes if probes else 0.0,
                "reasons": reasons,
            },
            "timeline": (
                timeline.summary() if timeline is not None else None
            ),
            "elapsed_seconds": elapsed[scheduler],
            "cells": cell_counts[scheduler],
            "profile": (
                document_to_dict(profile)
                if profile is not None
                else None
            ),
            "hotspots": [
                {
                    "path": hotspot.path,
                    "self_wall_seconds": hotspot.self_wall_seconds,
                    "total_wall_seconds": hotspot.total_wall_seconds,
                    "count": hotspot.count,
                    "share": hotspot.share,
                }
                for hotspot in (
                    profile.hotspots(BENCH_HOTSPOT_LIMIT)
                    if profile is not None
                    else ()
                )
            ],
        }

    cache_hits = summary.cache_hits if summary is not None else 0
    total_cells = summary.cells if summary is not None else len(cells)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "bench",
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": label or matrix.scale.name,
        "scale": matrix.scale.name,
        "environment": environment_fingerprint(),
        "cache": {
            "cells": total_cells,
            "computed": total_cells - cache_hits,
            "cache_hits": cache_hits,
            "hit_rate": (
                cache_hits / total_cells if total_cells else 0.0
            ),
        },
        "harness": document_to_dict(harness.finalize()),
        "entries": entries,
    }


def validate_bench_document(document: Mapping[str, Any]) -> None:
    """Structurally validate a parsed bench JSON document.

    Raises:
        ModelError: on a wrong kind, unsupported schema version, or any
            structurally invalid section.  Returns silently when the
            document conforms to the layout produced by
            :func:`run_bench`.
    """
    if document.get("kind") != "bench":
        raise ModelError(
            f"expected a bench document, got "
            f"kind={document.get('kind')!r}"
        )
    if document.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ModelError(
            f"unsupported bench schema version "
            f"{document.get('schema_version')!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    for key in ("label", "scale"):
        if not isinstance(document.get(key), str):
            raise ModelError(f"bench document key {key!r} must be a string")
    if not isinstance(document.get("environment"), Mapping):
        raise ModelError(
            "bench document key 'environment' must be a mapping"
        )
    cache = document.get("cache")
    if not isinstance(cache, Mapping):
        raise ModelError("bench document key 'cache' must be a mapping")
    for key in ("cells", "computed", "cache_hits", "hit_rate"):
        value = cache.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ModelError(
                f"bench document cache.{key} has invalid value {value!r}"
            )
    harness = document.get("harness")
    if harness is not None:
        document_from_dict(Profile, harness)
    entries = document.get("entries")
    if not isinstance(entries, Mapping):
        raise ModelError("bench document key 'entries' must be a mapping")
    for scheduler, entry in entries.items():
        context = f"bench entries[{scheduler!r}]"
        if not isinstance(entry, Mapping):
            raise ModelError(f"{context} must be a mapping")
        value = entry.get("elapsed_seconds")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ModelError(
                f"{context}.elapsed_seconds has invalid value {value!r}"
            )
        # ``tree_cache`` is additive (absent from schema-1 documents
        # written before it existed), but must be well-formed when given.
        tree_cache = entry.get("tree_cache")
        if tree_cache is not None:
            if not isinstance(tree_cache, Mapping):
                raise ModelError(f"{context}.tree_cache must be a mapping")
            for key in ("hits", "misses", "hit_rate"):
                value = tree_cache.get(key)
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    raise ModelError(
                        f"{context}.tree_cache.{key} has invalid "
                        f"value {value!r}"
                    )
            reasons = tree_cache.get("reasons")
            if not isinstance(reasons, Mapping) or any(
                not isinstance(count, int) or isinstance(count, bool)
                for count in reasons.values()
            ):
                raise ModelError(
                    f"{context}.tree_cache.reasons must map reason "
                    f"codes to integer counts"
                )
        # ``timeline`` is additive (absent from schema-1 documents
        # written before it existed), but must be well-formed when given.
        timeline = entry.get("timeline")
        if timeline is not None:
            if not isinstance(timeline, Mapping):
                raise ModelError(f"{context}.timeline must be a mapping")
            for key in (
                "runs",
                "requests",
                "satisfied",
                "unsatisfied",
                "peak_link",
            ):
                value = timeline.get(key)
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ModelError(
                        f"{context}.timeline.{key} has invalid "
                        f"value {value!r}"
                    )
            value = timeline.get("peak_utilization")
            if not isinstance(value, (int, float)) or isinstance(
                value, bool
            ):
                raise ModelError(
                    f"{context}.timeline.peak_utilization has invalid "
                    f"value {value!r}"
                )
            value = timeline.get("top_rejection")
            if value is not None and not isinstance(value, str):
                raise ModelError(
                    f"{context}.timeline.top_rejection has invalid "
                    f"value {value!r}"
                )
        if entry.get("profile") is not None:
            document_from_dict(Profile, entry["profile"])
        hotspots = entry.get("hotspots")
        if not isinstance(hotspots, list):
            raise ModelError(f"{context}.hotspots must be a list")
        for hotspot in hotspots:
            if not isinstance(hotspot, Mapping) or not isinstance(
                hotspot.get("path"), str
            ):
                raise ModelError(
                    f"{context}.hotspots entries must be mappings "
                    f"with a 'path'"
                )


def load_bench_document(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a bench document from ``path``.

    Raises:
        ModelError: when the file is not valid JSON or fails
            :func:`validate_bench_document`.
        OSError: when the file cannot be read.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path} is not valid JSON: {exc}") from exc
    validate_bench_document(document)
    return document


def render_bench(document: Mapping[str, Any], top: int = 5) -> str:
    """A plain-text summary of one bench document."""
    lines: List[str] = []
    lines.append(
        f"bench {document['label']} (scale {document['scale']}, "
        f"python {document['environment'].get('python', '?')})"
    )
    cache = document["cache"]
    lines.append(
        f"  cells: {cache['cells']} "
        f"({cache['computed']} computed, {cache['cache_hits']} cached, "
        f"hit rate {cache['hit_rate']:.0%})"
    )
    for scheduler, entry in sorted(document["entries"].items()):
        lines.append(
            f"  {scheduler}: {entry['elapsed_seconds']:.2f}s scheduled"
        )
        tree_cache = entry.get("tree_cache")
        if tree_cache is not None:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(tree_cache["reasons"].items())
            )
            lines.append(
                f"    tree cache: {tree_cache['hits']} hits / "
                f"{tree_cache['misses']} misses "
                f"({tree_cache['hit_rate']:.0%})"
                + (f"  [{reasons}]" if reasons else "")
            )
        timeline = entry.get("timeline")
        if timeline is not None:
            rejection = timeline.get("top_rejection") or "-"
            lines.append(
                f"    timeline: {timeline['satisfied']}/"
                f"{timeline['requests']} satisfied, peak link "
                f"L{timeline['peak_link']} at "
                f"{timeline['peak_utilization']:.0%}, "
                f"top rejection {rejection}"
            )
        for hotspot in entry["hotspots"][:top]:
            lines.append(
                f"    {hotspot['path']:<24} "
                f"self {hotspot['self_wall_seconds']:8.3f}s "
                f"({hotspot['share']:5.1%})  x{hotspot['count']}"
            )
    return "\n".join(lines)
