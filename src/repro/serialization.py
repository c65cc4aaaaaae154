"""JSON serialization of scenarios, schedules, and experiment results.

Round-trippable plain-dict codecs: ``scenario_to_dict`` /
``scenario_from_dict`` and friends (including :class:`~repro.experiments
.runner.RunRecord` via ``run_record_to_dict`` / ``run_record_from_dict``),
plus file helpers and the content-addressed :func:`scenario_fingerprint`
used by the run cache.  The format is versioned so future extensions can
stay backward compatible.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Union

from repro.core.data import DataItem, SourceLocation
from repro.core.intervals import Interval
from repro.core.link import PhysicalLink
from repro.core.machine import Machine
from repro.core.network import Network
from repro.core.priority import PriorityWeighting
from repro.core.request import Request
from repro.core.scenario import Scenario
from repro.core.schedule import Schedule
from repro.errors import ModelError
from repro.faults.plan import (
    FAULTS_SCHEMA_VERSION,
    BandwidthDegradation,
    CancellationFault,
    FaultPlan,
    LateArrivalFault,
    OutageWindow,
)
from repro.observability.metrics import (
    METRICS_SCHEMA_VERSION,
    RunMetrics,
    TimingStat,
    validate_metrics_document,
)
from repro.observability.profiling import (
    PROFILE_SCHEMA_VERSION,
    Profile,
    SpanStat,
    validate_profile_document,
)
from repro.observability.timeline import (
    TIMELINE_SCHEMA_VERSION,
    Timeline,
    validate_timeline_document,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports
    # the core model; experiments modules import this module back)
    from repro.experiments.runner import RunRecord

#: Format version written into every serialized document.
FORMAT_VERSION = 1


def _require(
    document: Dict[str, Any], key: str, where: str = "serialized document"
) -> Any:
    if not isinstance(document, dict):
        raise ModelError(
            f"{where} must be an object, got {type(document).__name__}"
        )
    if key not in document:
        raise ModelError(f"{where} is missing key {key!r}")
    return document[key]


def _number(value: Any, what: str) -> float:
    """``value`` when it is a real, non-NaN number (bools excluded)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or math.isnan(value)
    ):
        raise ModelError(f"{what} must be a number, got {value!r}")
    return value


def _integer(value: Any, what: str) -> int:
    """``value`` when it is an integer (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{what} must be an integer, got {value!r}")
    return value


def _entries(value: Any, what: str) -> Any:
    """``value`` when it is a list of document entries."""
    if not isinstance(value, (list, tuple)):
        raise ModelError(
            f"{what} must be a list, got {type(value).__name__}"
        )
    return value


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """A JSON-ready dict capturing the complete scenario."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "scenario",
        "name": scenario.name,
        "gc_delay": scenario.gc_delay,
        "horizon": scenario.horizon,
        "weighting": {
            "name": scenario.weighting.name,
            "weights": list(scenario.weighting.weights),
        },
        "machines": [
            {
                "index": machine.index,
                "capacity": machine.capacity,
                "name": machine.name,
            }
            for machine in scenario.network.machines
        ],
        "physical_links": [
            {
                "physical_id": link.physical_id,
                "source": link.source,
                "destination": link.destination,
                "bandwidth": link.bandwidth,
                "latency": link.latency,
                "windows": [[w.start, w.end] for w in link.windows],
            }
            for link in scenario.network.physical_links
        ],
        "items": [
            {
                "item_id": item.item_id,
                "name": item.name,
                "size": item.size,
                "sources": [
                    {
                        "machine": src.machine,
                        "available_from": src.available_from,
                    }
                    for src in item.sources
                ],
            }
            for item in scenario.items
        ],
        "requests": [
            {
                "request_id": request.request_id,
                "item_id": request.item_id,
                "destination": request.destination,
                "priority": request.priority,
                "deadline": request.deadline,
            }
            for request in scenario.requests
        ],
    }


def scenario_from_dict(document: Dict[str, Any]) -> Scenario:
    """Rebuild a scenario from :func:`scenario_to_dict` output.

    Raises:
        ModelError: naming the offending entry, on a document or entry
            that is not an object, an entry collection that is not a
            list, a missing key, a quantity or weight that is not a number
            (or is NaN), an id, index, machine or priority that is not an
            integer, a wrong document kind, or a physical link whose
            windows are malformed, inverted, unsorted or overlapping.
    """
    if _require(document, "kind") != "scenario":
        raise ModelError(
            f"expected a scenario document, got kind={document.get('kind')!r}"
        )
    machines = tuple(
        Machine(
            index=_integer(
                _require(entry, "index", f"machine entry {index}"),
                f"machine entry {index} index",
            ),
            capacity=_number(
                _require(entry, "capacity", f"machine entry {index}"),
                f"machine entry {index} capacity",
            ),
            name=entry.get("name", ""),
        )
        for index, entry in enumerate(
            _entries(_require(document, "machines"), "machines")
        )
    )
    links = tuple(
        _physical_link_from_dict(index, entry)
        for index, entry in enumerate(
            _entries(_require(document, "physical_links"), "physical_links")
        )
    )
    items = tuple(
        _item_from_dict(index, entry)
        for index, entry in enumerate(
            _entries(_require(document, "items"), "items")
        )
    )
    requests = tuple(
        _request_from_dict(index, entry)
        for index, entry in enumerate(
            _entries(_require(document, "requests"), "requests")
        )
    )
    weighting_doc = _require(document, "weighting")
    weights = [
        _number(weight, f"weighting weight {k}")
        for k, weight in enumerate(
            _entries(
                _require(weighting_doc, "weights", "weighting"),
                "weighting weights",
            )
        )
    ]
    return Scenario(
        network=Network(machines, links),
        items=items,
        requests=requests,
        weighting=PriorityWeighting(
            weights, name=weighting_doc.get("name", "")
        ),
        gc_delay=_number(_require(document, "gc_delay"), "gc_delay"),
        horizon=_number(_require(document, "horizon"), "horizon"),
        name=document.get("name", "scenario"),
    )


def _item_from_dict(index: int, entry: Dict[str, Any]) -> DataItem:
    """One ``items`` entry of a scenario document.

    Raises:
        ModelError: naming the entry (and source), when a key is missing
            or a value has the wrong type.
    """
    where = f"item entry {index}"
    return DataItem(
        item_id=_integer(
            _require(entry, "item_id", where), f"{where} item_id"
        ),
        name=_require(entry, "name", where),
        size=_number(_require(entry, "size", where), f"{where} size"),
        sources=tuple(
            SourceLocation(
                machine=_integer(
                    _require(src, "machine", f"{where} source {j}"),
                    f"{where} source {j} machine",
                ),
                available_from=_number(
                    _require(src, "available_from", f"{where} source {j}"),
                    f"{where} source {j} available_from",
                ),
            )
            for j, src in enumerate(
                _entries(_require(entry, "sources", where), f"{where} sources")
            )
        ),
    )


def _request_from_dict(index: int, entry: Dict[str, Any]) -> Request:
    """One ``requests`` entry of a scenario document.

    Raises:
        ModelError: naming the entry, when a key is missing or a value
            has the wrong type.
    """
    where = f"request entry {index}"
    return Request(
        request_id=_integer(
            _require(entry, "request_id", where), f"{where} request_id"
        ),
        item_id=_integer(
            _require(entry, "item_id", where), f"{where} item_id"
        ),
        destination=_integer(
            _require(entry, "destination", where), f"{where} destination"
        ),
        priority=_integer(
            _require(entry, "priority", where), f"{where} priority"
        ),
        deadline=_number(
            _require(entry, "deadline", where), f"{where} deadline"
        ),
    )


def _physical_link_from_dict(index: int, entry: Dict[str, Any]) -> PhysicalLink:
    """One ``physical_links`` entry of a scenario document.

    Raises:
        ModelError: naming the entry, when a key is missing or a window is
            not a ``[start, end]`` pair with ``start <= end``; unsorted or
            overlapping windows are rejected by :class:`PhysicalLink`.
    """
    where = f"physical link entry {index}"
    windows = []
    windows_doc = _require(entry, "windows", where)
    for window in _entries(windows_doc, f"{where} windows"):
        try:
            start, end = window
            windows.append(
                Interval(
                    _number(start, f"{where} window start"),
                    _number(end, f"{where} window end"),
                )
            )
        except (TypeError, ValueError) as error:
            raise ModelError(
                f"{where} has a malformed window {window!r}: {error}"
            ) from error
    return PhysicalLink(
        physical_id=_integer(
            _require(entry, "physical_id", where), f"{where} physical_id"
        ),
        source=_integer(_require(entry, "source", where), f"{where} source"),
        destination=_integer(
            _require(entry, "destination", where), f"{where} destination"
        ),
        bandwidth=_number(
            _require(entry, "bandwidth", where), f"{where} bandwidth"
        ),
        latency=_number(_require(entry, "latency", where), f"{where} latency"),
        windows=tuple(windows),
    )


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """A JSON-ready dict capturing steps and deliveries."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "schedule",
        "name": schedule.name,
        "steps": [
            {
                "item_id": step.item_id,
                "source": step.source,
                "destination": step.destination,
                "link_id": step.link_id,
                "start": step.start,
                "end": step.end,
            }
            for step in schedule.steps
        ],
        "deliveries": [
            {
                "request_id": delivery.request_id,
                "arrival": delivery.arrival,
                "hops": delivery.hops,
            }
            for delivery in schedule.deliveries.values()
        ],
    }


def schedule_from_dict(document: Dict[str, Any]) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output.

    Raises:
        ModelError: on missing keys or a wrong document kind.
    """
    if _require(document, "kind") != "schedule":
        raise ModelError(
            f"expected a schedule document, got kind={document.get('kind')!r}"
        )
    schedule = Schedule(name=document.get("name", ""))
    for entry in _require(document, "steps"):
        schedule.add_step(
            item_id=entry["item_id"],
            source=entry["source"],
            destination=entry["destination"],
            link_id=entry["link_id"],
            start=entry["start"],
            end=entry["end"],
        )
    for entry in _require(document, "deliveries"):
        schedule.add_delivery(
            request_id=entry["request_id"],
            arrival=entry["arrival"],
            hops=entry["hops"],
        )
    return schedule


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

def run_record_to_dict(record: "RunRecord") -> Dict[str, Any]:
    """A JSON-ready dict capturing one scheduler execution record."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "run_record",
        "scenario": record.scenario,
        "scheduler": record.scheduler,
        "eu_label": record.eu_label,
        "weighted_sum": record.weighted_sum,
        "satisfied_by_priority": list(record.satisfied_by_priority),
        "total_by_priority": list(record.total_by_priority),
        "steps": record.steps,
        "dijkstra_runs": record.dijkstra_runs,
        "elapsed_seconds": record.elapsed_seconds,
        "average_hops": record.average_hops,
        "cache_hit": record.cache_hit,
        "metrics": (
            run_metrics_to_dict(record.metrics)
            if record.metrics is not None
            else None
        ),
        "profile": (
            profile_to_dict(record.profile)
            if record.profile is not None
            else None
        ),
        "timeline": (
            timeline_to_dict(record.timeline)
            if record.timeline is not None
            else None
        ),
    }


def run_record_from_dict(document: Dict[str, Any]) -> "RunRecord":
    """Rebuild a run record from :func:`run_record_to_dict` output.

    Raises:
        ModelError: on missing keys or a wrong document kind.
    """
    from repro.experiments.runner import RunRecord

    if _require(document, "kind") != "run_record":
        raise ModelError(
            f"expected a run_record document, got "
            f"kind={document.get('kind')!r}"
        )
    return RunRecord(
        scenario=_require(document, "scenario"),
        scheduler=_require(document, "scheduler"),
        eu_label=_require(document, "eu_label"),
        weighted_sum=_require(document, "weighted_sum"),
        satisfied_by_priority=tuple(
            _require(document, "satisfied_by_priority")
        ),
        total_by_priority=tuple(_require(document, "total_by_priority")),
        steps=_require(document, "steps"),
        dijkstra_runs=_require(document, "dijkstra_runs"),
        elapsed_seconds=_require(document, "elapsed_seconds"),
        average_hops=_require(document, "average_hops"),
        cache_hit=bool(document.get("cache_hit", False)),
        metrics=(
            run_metrics_from_dict(document["metrics"])
            if document.get("metrics") is not None
            else None
        ),
        profile=(
            profile_from_dict(document["profile"])
            if document.get("profile") is not None
            else None
        ),
        timeline=(
            timeline_from_dict(document["timeline"])
            if document.get("timeline") is not None
            else None
        ),
    )


# ---------------------------------------------------------------------------
# Run metrics
# ---------------------------------------------------------------------------

def run_metrics_to_dict(metrics: RunMetrics) -> Dict[str, Any]:
    """A JSON-ready dict capturing one metrics aggregate.

    Link maps are keyed by link id; JSON object keys must be strings, so
    ids are stringified here and parsed back in
    :func:`run_metrics_from_dict`.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "run_metrics",
        "schema_version": METRICS_SCHEMA_VERSION,
        "counters": dict(metrics.counters),
        "rejection_reasons": dict(metrics.rejection_reasons),
        "tree_cache_reasons": dict(metrics.tree_cache_reasons),
        "link_busy_seconds": {
            str(link_id): value
            for link_id, value in metrics.link_busy_seconds.items()
        },
        "link_transfer_counts": {
            str(link_id): value
            for link_id, value in metrics.link_transfer_counts.items()
        },
        "link_window_seconds": {
            str(link_id): value
            for link_id, value in metrics.link_window_seconds.items()
        },
        "decision_seconds": metrics.decision_seconds.to_dict(),
        "cell_seconds": metrics.cell_seconds.to_dict(),
        "workers": list(metrics.workers),
    }


def run_metrics_from_dict(document: Dict[str, Any]) -> RunMetrics:
    """Rebuild a metrics aggregate from :func:`run_metrics_to_dict` output.

    Raises:
        ModelError: on a wrong kind, schema version, or invalid structure
            (delegates to
            :func:`repro.observability.metrics.validate_metrics_document`).
    """
    validate_metrics_document(document)
    return RunMetrics(
        counters={
            key: int(value)
            for key, value in document["counters"].items()
        },
        rejection_reasons={
            key: int(value)
            for key, value in document["rejection_reasons"].items()
        },
        tree_cache_reasons={
            key: int(value)
            for key, value in document["tree_cache_reasons"].items()
        },
        link_busy_seconds={
            int(link_id): float(value)
            for link_id, value in document["link_busy_seconds"].items()
        },
        link_transfer_counts={
            int(link_id): int(value)
            for link_id, value in document["link_transfer_counts"].items()
        },
        link_window_seconds={
            int(link_id): float(value)
            for link_id, value in document["link_window_seconds"].items()
        },
        decision_seconds=TimingStat.from_dict(document["decision_seconds"]),
        cell_seconds=TimingStat.from_dict(document["cell_seconds"]),
        workers=tuple(int(pid) for pid in document["workers"]),
    )


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def profile_to_dict(profile: Profile) -> Dict[str, Any]:
    """A JSON-ready dict capturing one span profile.

    Span paths become object keys; each entry carries the ``wall`` and
    ``cpu`` timing stats (empty stats omit min/max, like
    :class:`~repro.observability.metrics.TimingStat`).
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "profile",
        "schema_version": PROFILE_SCHEMA_VERSION,
        "spans": {
            path: stat.to_dict()
            for path, stat in sorted(profile.spans.items())
        },
    }


def profile_from_dict(document: Dict[str, Any]) -> Profile:
    """Rebuild a span profile from :func:`profile_to_dict` output.

    Raises:
        ModelError: on a wrong kind, schema version, or invalid structure
            (delegates to :func:`repro.observability.profiling
            .validate_profile_document`).
    """
    validate_profile_document(document)
    return Profile(
        spans={
            path: SpanStat.from_dict(stat)
            for path, stat in document["spans"].items()
        }
    )


# ---------------------------------------------------------------------------
# Timelines
# ---------------------------------------------------------------------------

def timeline_to_dict(timeline: Timeline) -> Dict[str, Any]:
    """A JSON-ready dict capturing one simulated-time telemetry document.

    The body layout (key-sorted link/storage/class/forensics maps) is
    produced by :meth:`repro.observability.timeline.Timeline.to_dict`;
    this wrapper adds the ``kind`` tag and version stamps.  Equal
    timelines serialize byte-identically, which is what the cache-replay
    invariance tests pin.
    """
    document: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "timeline",
        "schema_version": TIMELINE_SCHEMA_VERSION,
    }
    document.update(timeline.to_dict())
    return document


def timeline_from_dict(document: Dict[str, Any]) -> Timeline:
    """Rebuild a timeline from :func:`timeline_to_dict` output.

    Raises:
        ModelError: on a wrong kind, schema version, or invalid
            structure (delegates to :func:`repro.observability.timeline
            .validate_timeline_document`).
    """
    validate_timeline_document(document)
    return Timeline.from_dict(document)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

def fault_plan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    """A JSON-ready dict capturing the complete fault plan.

    Plans are canonically ordered at construction, so two equal plans
    serialize to identical documents (the basis of
    :func:`fault_plan_fingerprint` and the run cache's fault keying).
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "fault_plan",
        "schema_version": FAULTS_SCHEMA_VERSION,
        "name": plan.name,
        "outages": [
            {
                "physical_id": outage.physical_id,
                "start": outage.start,
                "end": outage.end,
            }
            for outage in plan.outages
        ],
        "degradations": [
            {
                "physical_id": degradation.physical_id,
                "factor": degradation.factor,
            }
            for degradation in plan.degradations
        ],
        "cancellations": [
            {"request_id": fault.request_id, "time": fault.time}
            for fault in plan.cancellations
        ],
        "late_arrivals": [
            {"request_id": fault.request_id, "time": fault.time}
            for fault in plan.late_arrivals
        ],
    }


def fault_plan_from_dict(document: Dict[str, Any]) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` serialized by :func:`fault_plan_to_dict`.

    Raises:
        ModelError: on missing keys, a wrong document kind, or an
            unsupported schema version.
    """
    if _require(document, "kind") != "fault_plan":
        raise ModelError(
            f"expected a fault_plan document, got "
            f"kind={document.get('kind')!r}"
        )
    schema = _require(document, "schema_version")
    if schema != FAULTS_SCHEMA_VERSION:
        raise ModelError(
            f"unsupported fault plan schema version {schema!r} "
            f"(expected {FAULTS_SCHEMA_VERSION})"
        )
    return FaultPlan(
        outages=tuple(
            OutageWindow(
                physical_id=entry["physical_id"],
                start=entry["start"],
                end=entry["end"],
            )
            for entry in _require(document, "outages")
        ),
        degradations=tuple(
            BandwidthDegradation(
                physical_id=entry["physical_id"],
                factor=entry["factor"],
            )
            for entry in _require(document, "degradations")
        ),
        cancellations=tuple(
            CancellationFault(
                request_id=entry["request_id"], time=entry["time"]
            )
            for entry in _require(document, "cancellations")
        ),
        late_arrivals=tuple(
            LateArrivalFault(
                request_id=entry["request_id"], time=entry["time"]
            )
            for entry in _require(document, "late_arrivals")
        ),
        name=_require(document, "name"),
    )


def fault_plan_fingerprint(plan: FaultPlan) -> str:
    """SHA-256 hex digest of the plan's canonical JSON.

    Because plans normalize at construction, logically equal plans
    fingerprint equal; the executor keys cached runs on this digest so a
    faulted record can never shadow a healthy one (or vice versa).
    """
    canonical = json.dumps(
        fault_plan_to_dict(plan),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

def canonical_scenario_json(scenario: Scenario) -> str:
    """The scenario's canonical JSON text (sorted keys, no whitespace).

    Two scenarios produce the same text exactly when
    :func:`scenario_to_dict` captures them identically, so this is the
    content-addressing basis of the run cache.
    """
    return json.dumps(
        scenario_to_dict(scenario),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )


def scenario_fingerprint(scenario: Scenario) -> str:
    """SHA-256 hex digest of :func:`canonical_scenario_json`.

    Any change to the scenario content — topology, windows, items,
    requests, weighting, name — yields a different fingerprint, which
    invalidates every cached run record keyed on it.
    """
    return hashlib.sha256(
        canonical_scenario_json(scenario).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    """Write a scenario to a JSON file."""
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2), encoding="utf-8"
    )


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read a scenario from a JSON file."""
    return scenario_from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> None:
    """Write a schedule to a JSON file."""
    Path(path).write_text(
        json.dumps(schedule_to_dict(schedule), indent=2), encoding="utf-8"
    )


def load_schedule(path: Union[str, Path]) -> Schedule:
    """Read a schedule from a JSON file."""
    return schedule_from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


def save_suite(scenarios, directory: Union[str, Path]) -> None:
    """Write a test-case suite, one ``case-NNN.json`` per scenario.

    Together with :func:`load_suite` this lets the exact cases behind a
    recorded experiment be shared and replayed byte-identically (the
    paper's "same 40 randomly generated test cases").
    """
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    for index, scenario in enumerate(scenarios):
        save_scenario(scenario, base / f"case-{index:03d}.json")


def load_suite(directory: Union[str, Path]):
    """Read back a suite written by :func:`save_suite`, in case order.

    Raises:
        ModelError: when the directory contains no suite files.
    """
    base = Path(directory)
    paths = sorted(base.glob("case-*.json"))
    if not paths:
        raise ModelError(f"no case-*.json files under {base}")
    return tuple(load_scenario(path) for path in paths)
