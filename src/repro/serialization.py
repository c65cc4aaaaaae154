"""JSON serialization of scenarios, schedules, and experiment results.

Two kinds of codec live here:

* **Input documents** — scenarios, schedules and fault plans — keep
  hand-written ``*_to_dict`` / ``*_from_dict`` pairs, because their
  decoders run domain checks through the model constructors.
* **Output documents** — :class:`~repro.experiments.runner.RunRecord`,
  :class:`~repro.observability.metrics.RunMetrics`,
  :class:`~repro.observability.timeline.Timeline` and
  :class:`~repro.experiments.chaos.ChaosReport` — share one codec derived
  from their dataclass field types: :func:`document_to_dict`,
  :func:`document_from_dict` and the fold :func:`merge_documents`.

Plus file helpers and the content-addressed :func:`scenario_fingerprint`
used by the run cache.  Every document carries ``format_version``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import re
import typing
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    cast,
)

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

#: Format version written into every serialized document.
FORMAT_VERSION = 1

_T = TypeVar("_T")


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


#: The integers a document may hold: ids, indices and counts live in
#: signed 64-bit columns (``array("l")``) once decoded.
_INT64 = range(-(2**63), 2**63)


def _integer(value: Any, what: str) -> int:
    """``value`` when it is a signed 64-bit integer (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{what} must be an integer, got {value!r}")
    if value not in _INT64:
        raise ModelError(f"{what} is out of the 64-bit range: {value}")
    return value


def _string(value: Any, what: str) -> str:
    """``value`` when it is a string."""
    if not isinstance(value, str):
        raise ModelError(f"{what} must be a string, got {value!r}")
    return value


def _entries(value: Any, what: str) -> Any:
    """``value`` when it is a list of document entries."""
    if not isinstance(value, (list, tuple)):
        raise ModelError(
            f"{what} must be a list, got {type(value).__name__}"
        )
    return value


def _built_entries(
    document: Dict[str, Any],
    key: str,
    what: str,
    build: Callable[..., _T],
    integers: Tuple[str, ...],
    numbers: Tuple[str, ...],
) -> Tuple[_T, ...]:
    """``build(**fields)`` for each entry of the list ``document[key]``.

    ``integers`` and ``numbers`` name the entry's fields and their types.

    Raises:
        ModelError: naming the entry (``"<what> entry <index>"``), when
            the list or an entry is malformed, a field is missing or has
            the wrong type, or ``build`` rejects the fields.
    """
    built: List[_T] = []
    for index, entry in enumerate(_entries(_require(document, key), key)):
        where = f"{what} entry {index}"
        fields: Dict[str, Any] = {
            name: _integer(_require(entry, name, where), f"{where} {name}")
            for name in integers
        }
        for name in numbers:
            fields[name] = _number(
                _require(entry, name, where), f"{where} {name}"
            )
        try:
            built.append(build(**fields))
        except ModelError as exc:
            raise ModelError(f"{where}: {exc}") from exc
    return tuple(built)


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
            integer, a name that is not a string, a wrong document kind,
            or a physical link whose windows are malformed, inverted,
            unsorted or overlapping.
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
            name=_string(
                entry.get("name", ""), f"machine entry {index} name"
            ),
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
            weights,
            name=_string(weighting_doc.get("name", ""), "weighting name"),
        ),
        gc_delay=_number(_require(document, "gc_delay"), "gc_delay"),
        horizon=_number(_require(document, "horizon"), "horizon"),
        name=_string(document.get("name", "scenario"), "scenario name"),
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
        name=_string(_require(entry, "name", where), f"{where} name"),
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
        ModelError: naming the offending entry, on a document or entry
            that is not an object, a step or delivery collection that is
            not a list, a missing key, a time that is not a number (or is
            NaN), an id, machine or hop count that is not an integer, a
            name that is not a string, a wrong document kind, or a step
            or delivery the schedule rejects.
    """
    if _require(document, "kind") != "schedule":
        raise ModelError(
            f"expected a schedule document, got kind={document.get('kind')!r}"
        )
    schedule = Schedule(
        name=_string(document.get("name", ""), "schedule name")
    )
    _built_entries(
        document,
        "steps",
        "step",
        schedule.add_step,
        ("item_id", "source", "destination", "link_id"),
        ("start", "end"),
    )
    _built_entries(
        document,
        "deliveries",
        "delivery",
        schedule.add_delivery,
        ("request_id", "hops"),
        ("arrival",),
    )
    return schedule


# ---------------------------------------------------------------------------
# Output documents
# ---------------------------------------------------------------------------

#: A decoder for one annotated type: JSON value in, document value out.
_Decoder = Callable[[Any], Any]

#: JSON scalars, which encode as themselves.
_SCALARS = (str, int, float, bool, type(None))

#: How :func:`document_to_dict` writes an integer dict key.
_INTEGER_KEY = re.compile(r"-?(0|[1-9][0-9]*)")

_D = TypeVar("_D")
_M = TypeVar("_M", bound="_Mergeable")


class _Mergeable(typing.Protocol):
    """An output document with an associative ``merged``."""

    def merged(self: _M, other: _M) -> _M: ...


class _Malformed(Exception):
    """A malformed value; containers add their path segments on the way
    out, so a decode pays for the path only when it fails."""

    def __init__(self, problem: str) -> None:
        super().__init__(problem)
        self.problem = problem
        self.segments: List[str] = []


def document_to_dict(value: Any) -> Any:
    """The JSON form of an output document, or of any value inside one.

    Dataclasses become objects in field order; a class declaring a
    ``KIND`` ClassVar is a top-level document and is stamped with
    ``format_version``, ``kind`` and ``schema_version``, also when it is
    nested in another document.  Dicts get sorted, stringified keys, and
    tuples and lists become lists, so equal documents encode equally.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {str(key): _encoded(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_encoded(item) for item in value]
    document: Dict[str, Any] = {}
    kind = getattr(value, "KIND", None)
    if kind is not None:
        document["format_version"] = FORMAT_VERSION
        document["kind"] = kind
        document["schema_version"] = value.SCHEMA_VERSION
    for name in _field_names(type(value)):
        document[name] = _encoded(getattr(value, name))
    return document


def _encoded(value: Any) -> Any:
    """:func:`document_to_dict`, without the call for a scalar."""
    return value if isinstance(value, _SCALARS) else document_to_dict(value)


@functools.lru_cache(maxsize=None)
def _field_names(cls: Any) -> Tuple[str, ...]:
    """A dataclass's field names, in declaration order."""
    return tuple(field.name for field in dataclasses.fields(cls))


def document_from_dict(cls: Type[_D], document: Any) -> _D:
    """Rebuild an output document of class ``cls`` from its JSON form.

    The decoder is derived from the dataclass field types and checks every
    value, so anything :func:`document_to_dict` did not write is refused
    at the boundary.

    Raises:
        ModelError: naming the path of the malformed value
            (``timeline.links['abc']``): wrong stamps, a missing field, a
            value of the wrong type, a dict key that does not parse, or a
            row of the wrong width.
    """
    try:
        return cast(_D, _decoder(cls)(document))
    except _Malformed as error:
        path = getattr(cls, "KIND", cls.__name__)
        path += "".join(reversed(error.segments))
        raise ModelError(f"{path} {error.problem}") from None


def merge_documents(cls: Type[_M], parts: Iterable[Optional[_M]]) -> _M:
    """Fold many (possibly ``None``) documents of one kind into one.

    The fold starts from the empty ``cls()``; each class's own associative
    ``merged`` carries its policy (summed tallies, min/max windows, the
    forensics chain cap).
    """
    total = cls()
    for part in parts:
        if part is not None:
            total = total.merged(part)
    return total


def _shown(value: Any) -> str:
    """A malformed value for an error message (containers by type only)."""
    if isinstance(value, _SCALARS):
        return repr(value)
    return type(value).__name__


def _decode_any(value: Any) -> Any:
    return value


def _decode_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise _Malformed(f"must be a boolean, got {_shown(value)}")


def _decode_int(value: Any) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        if value in _INT64:
            return value
        raise _Malformed(f"is out of the 64-bit range: {value}")
    raise _Malformed(f"must be an integer, got {_shown(value)}")


def _decode_float(value: Any) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise _Malformed(f"must be a number, got {_shown(value)}")


def _decode_str(value: Any) -> str:
    if isinstance(value, str):
        return value
    raise _Malformed(f"must be a string, got {_shown(value)}")


def _int_key(key: Any) -> int:
    """A stringified integer dict key, parsed back (canonical form only)."""
    # No 64-bit integer has more than 20 characters; longer digit strings
    # can pass the limit on what int() will parse.
    if isinstance(key, str) and len(key) <= 20 and _INTEGER_KEY.fullmatch(key):
        return _decode_int(int(key))
    raise _Malformed("has a non-integer key")


_SCALAR_DECODERS: Dict[Any, _Decoder] = {
    Any: _decode_any,
    bool: _decode_bool,
    int: _decode_int,
    float: _decode_float,
    str: _decode_str,
}

_KEY_DECODERS: Dict[Any, _Decoder] = {int: _int_key, str: _decode_str}


@functools.lru_cache(maxsize=None)
def _decoder(hint: Any) -> _Decoder:
    """The decoder for one annotated type, built once and cached.

    Raises:
        ModelError: when ``hint`` is a type no document may carry.
    """
    if hint in _SCALAR_DECODERS:
        return _SCALAR_DECODERS[hint]
    if dataclasses.is_dataclass(hint):
        return _dataclass_decoder(hint)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union and len(args) == 2 and args[1] is type(None):
        return _optional_decoder(_decoder(args[0]))
    if origin is dict and args[0] in _KEY_DECODERS:
        return _dict_decoder(_KEY_DECODERS[args[0]], _decoder(args[1]))
    if origin is list:
        return _sequence_decoder(list, _decoder(args[0]))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence_decoder(tuple, _decoder(args[0]))
    if origin is tuple:
        return _row_decoder(tuple(_decoder(arg) for arg in args))
    raise ModelError(f"no document codec for type {hint!r}")


def _optional_decoder(decode_value: _Decoder) -> _Decoder:
    def decode(value: Any) -> Any:
        return None if value is None else decode_value(value)

    return decode


def _dict_decoder(decode_key: _Decoder, decode_value: _Decoder) -> _Decoder:
    def decode(value: Any) -> Dict[Any, Any]:
        if not isinstance(value, dict):
            raise _Malformed(f"must be an object, got {_shown(value)}")
        result: Dict[Any, Any] = {}
        for key, item in value.items():
            try:
                result[decode_key(key)] = decode_value(item)
            except _Malformed as error:
                error.segments.append(f"[{key!r}]")
                raise
        return result

    return decode


def _sequence_decoder(
    container: Callable[[List[Any]], Any], decode_item: _Decoder
) -> _Decoder:
    def decode(value: Any) -> Any:
        if not isinstance(value, (list, tuple)):
            raise _Malformed(f"must be a list, got {_shown(value)}")
        items = []
        for item in value:
            try:
                items.append(decode_item(item))
            except _Malformed as error:
                error.segments.append(f"[{len(items)}]")
                raise
        return container(items)

    return decode


def _row_decoder(columns: Tuple[_Decoder, ...]) -> _Decoder:
    width = len(columns)

    def decode(value: Any) -> Tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise _Malformed(f"must be a row, got {_shown(value)}")
        if len(value) != width:
            raise _Malformed(
                f"must be a row of {width} values, got {len(value)}"
            )
        row = []
        for column, item in zip(columns, value):
            try:
                row.append(column(item))
            except _Malformed as error:
                error.segments.append(f"[{len(row)}]")
                raise
        return tuple(row)

    return decode


def _dataclass_decoder(cls: Any) -> _Decoder:
    hints = typing.get_type_hints(cls)
    fields = tuple(
        (name, _decoder(hints[name])) for name in _field_names(cls)
    )
    kind = getattr(cls, "KIND", None)
    stamps = (
        ()
        if kind is None
        else (
            ("kind", kind),
            ("format_version", FORMAT_VERSION),
            ("schema_version", cls.SCHEMA_VERSION),
        )
    )

    def decode(value: Any) -> Any:
        if not isinstance(value, dict):
            raise _Malformed(f"must be an object, got {_shown(value)}")
        for stamp, expected in stamps:
            found = value.get(stamp)
            if found != expected:
                raise _Malformed(
                    f"must be a {kind} document: expected {stamp} "
                    f"{expected!r}, got {found!r}"
                )
        arguments: Dict[str, Any] = {}
        for name, decode_field in fields:
            if name not in value:
                raise _Malformed(f"is missing field {name!r}")
            try:
                arguments[name] = decode_field(value[name])
            except _Malformed as error:
                error.segments.append(f".{name}")
                raise
        return cls(**arguments)

    return decode


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
        ModelError: naming the offending entry, on a document or entry
            that is not an object, an entry collection that is not a
            list, a missing key, a time or factor that is not a number
            (or is NaN), an id that is not an integer, a name that is not
            a string, a wrong document kind, an unsupported schema
            version, or an entry the fault plan rejects.
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
        outages=_built_entries(
            document,
            "outages",
            "outage",
            OutageWindow,
            ("physical_id",),
            ("start", "end"),
        ),
        degradations=_built_entries(
            document,
            "degradations",
            "degradation",
            BandwidthDegradation,
            ("physical_id",),
            ("factor",),
        ),
        cancellations=_built_entries(
            document,
            "cancellations",
            "cancellation",
            CancellationFault,
            ("request_id",),
            ("time",),
        ),
        late_arrivals=_built_entries(
            document,
            "late_arrivals",
            "late arrival",
            LateArrivalFault,
            ("request_id",),
            ("time",),
        ),
        name=_string(_require(document, "name"), "fault plan name"),
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


def read_document(path: Union[str, Path]) -> Dict[str, Any]:
    """The JSON object stored in the file at ``path``.

    Raises:
        ModelError: naming the path, when the file is not UTF-8 text,
            not JSON (or nested or numbered past what the parser
            takes), or holds something other than an object.
        OSError: when the file cannot be read.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"{path} is not a JSON document: {exc}") from exc
    if not isinstance(document, dict):
        raise ModelError(
            f"{path} must hold a JSON object, got {type(document).__name__}"
        )
    return document


def decode_file(
    path: Union[str, Path], decode: Callable[[Dict[str, Any]], _T]
) -> _T:
    """``decode`` applied to the JSON object stored at ``path``.

    Raises:
        ModelError: naming the path, when :func:`read_document` or
            ``decode`` refuses the file.
        OSError: when the file cannot be read.
    """
    document = read_document(path)
    try:
        return decode(document)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from exc


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read a scenario from a JSON file.

    Raises:
        ModelError: naming the path, when the file is not a valid
            scenario document.
        OSError: when the file cannot be read.
    """
    return decode_file(path, scenario_from_dict)


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> None:
    """Write a schedule to a JSON file."""
    Path(path).write_text(
        json.dumps(schedule_to_dict(schedule), indent=2), encoding="utf-8"
    )


def load_schedule(path: Union[str, Path]) -> Schedule:
    """Read a schedule from a JSON file.

    Raises:
        ModelError: naming the path, when the file is not a valid
            schedule document.
        OSError: when the file cannot be read.
    """
    return decode_file(path, schedule_from_dict)


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
        ModelError: when the directory contains no suite files, or one
            of them is not a valid scenario document.
    """
    base = Path(directory)
    paths = sorted(base.glob("case-*.json"))
    if not paths:
        raise ModelError(f"no case-*.json files under {base}")
    return tuple(load_scenario(path) for path in paths)
