"""JSON documents: one codec, derived from the model's annotated fields.

Every document — the inputs (:class:`~repro.core.scenario.Scenario`,
:class:`~repro.core.schedule.Schedule`,
:class:`~repro.faults.plan.FaultPlan`) and the outputs
(:class:`~repro.experiments.runner.RunRecord`,
:class:`~repro.observability.metrics.RunMetrics`,
:class:`~repro.observability.timeline.Timeline`,
:class:`~repro.experiments.chaos.ChaosReport`) — is written by
:func:`document_to_dict` and read back by :func:`document_from_dict`,
both derived from the class's fields and their annotated types.
:func:`merge_documents` folds output documents.

A value is written as an object of its fields, in order: a dataclass's
fields, or the ``FIELDS`` a class declares (name to type; each read as
an attribute and passed to the constructor).  Three declarations shape
the input documents:

* a class with ``ROW`` set (:class:`~repro.core.intervals.Interval`) is
  written as a row of its fields, ``[start, end]``;
* a dataclass field with ``inline`` metadata (the scenario's network) is
  written into the enclosing object, so the scenario document is flat;
* a method in ``FIELDS`` (the schedule's ``add_step`` and
  ``add_delivery``) stands for a list of that method's calls, each entry
  holding its arguments, read off the records (a mapping's values) of
  the attribute of the same name.

A class declaring ``KIND`` is a top-level document, stamped with
``format_version``, ``kind`` and its ``SCHEMA_VERSION`` when it declares
one (scenarios and schedules declare none, so none is written).
Decoding checks every value, refuses NaN wherever a number is read, and
re-raises a model constructor's refusal with the path of the entry.

Plus file helpers and the content digests :func:`scenario_fingerprint`
and :func:`fault_plan_fingerprint` that key the run cache.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import re
import sys
import typing
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    cast,
)

from repro.core.scenario import Scenario
from repro.core.schedule import Schedule
from repro.errors import ModelError
from repro.faults.plan import FaultPlan

#: Format version written into every serialized document.
FORMAT_VERSION = 1

_T = TypeVar("_T")

#: A decoder for one annotated type: JSON value in, document value out.
_Decoder = Callable[[Any], Any]

#: JSON scalars, which encode as themselves.
_SCALARS = (str, int, float, bool, type(None))

#: How :func:`document_to_dict` writes an integer dict key.
_INTEGER_KEY = re.compile(r"-?(0|[1-9][0-9]*)")

#: The integers a document may hold: ids, indices and counts live in
#: signed 64-bit columns (``array("l")``) once decoded.
_INT64 = range(-(2**63), 2**63)

_D = TypeVar("_D")
_M = TypeVar("_M", bound="_Mergeable")


class _Mergeable(typing.Protocol):
    """An output document with an associative ``merged``."""

    def merged(self: _M, other: _M) -> _M: ...


class _Malformed(Exception):
    """A malformed value; containers add their path segments on the way
    out, so a decode pays for the path only when it fails."""

    def __init__(self, problem: str, separator: str = " ") -> None:
        super().__init__(problem)
        self.problem = problem
        self.separator = separator
        self.segments: List[str] = []


@functools.lru_cache(maxsize=None)
def _fields(owner: Any) -> Tuple[Tuple[str, Any, bool], ...]:
    """``(name, annotated type, inline)`` of each field ``owner`` writes:
    a dataclass's fields, a class's declared ``FIELDS``, or, for one
    call of a method, its arguments after ``self``."""
    if inspect.isfunction(owner):
        hints = typing.get_type_hints(owner)
        names = list(inspect.signature(owner).parameters)[1:]
        return tuple((name, hints[name], False) for name in names)
    declared = getattr(owner, "FIELDS", None)
    if declared is not None:
        return tuple((name, hint, False) for name, hint in declared.items())
    hints = typing.get_type_hints(owner)
    return tuple(
        (field.name, hints[field.name], bool(field.metadata.get("inline")))
        for field in dataclasses.fields(owner)
    )


@functools.lru_cache(maxsize=None)
def _stamps(cls: Any) -> Tuple[Tuple[str, Any], ...]:
    """The stamps a top-level document class writes and checks."""
    kind = getattr(cls, "KIND", None)
    if kind is None:
        return ()
    stamps: Tuple[Tuple[str, Any], ...] = (
        ("format_version", FORMAT_VERSION),
        ("kind", kind),
    )
    if hasattr(cls, "SCHEMA_VERSION"):
        stamps += (("schema_version", cls.SCHEMA_VERSION),)
    return stamps


def document_to_dict(value: Any) -> Any:
    """The JSON form of a document, or of any value inside one.

    A top-level document class is stamped also when it is nested in
    another document.  Dicts get sorted, stringified keys, and tuples and
    lists become lists, so equal documents encode equally.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {
            str(key): document_to_dict(value[key]) for key in sorted(value)
        }
    if isinstance(value, (list, tuple)):
        return [document_to_dict(item) for item in value]
    return _encoder(type(value))(value)


def _identity(value: Any) -> Any:
    return value


@functools.lru_cache(maxsize=None)
def _encoder(hint: Any) -> Callable[[Any], Any]:
    """The writer for one annotated type, built once and cached; an
    ``Any`` value is written by its own type."""
    if hint in _SCALAR_DECODERS:
        return document_to_dict if hint is Any else _identity
    if getattr(hint, "ROW", False):
        columns = tuple(
            (name, _encoder(field)) for name, field, _ in _fields(hint)
        )
        return lambda value: [
            encode(getattr(value, name)) for name, encode in columns
        ]
    if dataclasses.is_dataclass(hint) or hasattr(hint, "FIELDS"):
        return _object_encoder(hint)
    if inspect.isfunction(hint):
        encode_call = _object_encoder(hint)
        return lambda records: [
            encode_call(record)
            for record in (
                records.values() if isinstance(records, Mapping) else records
            )
        ]
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union and len(args) == 2 and args[1] is type(None):
        encode_value = _encoder(args[0])
        return lambda value: None if value is None else encode_value(value)
    if origin is dict:
        encode_item = _encoder(args[1])
        return lambda value: {
            str(key): encode_item(value[key]) for key in sorted(value)
        }
    if origin is list or (
        origin is tuple and len(args) == 2 and args[1] is Ellipsis
    ):
        encode_item = _encoder(args[0])
        return lambda value: [encode_item(item) for item in value]
    if origin is tuple:
        encoders = tuple(_encoder(arg) for arg in args)
        return lambda value: [
            encode(item) for encode, item in zip(encoders, value)
        ]
    raise ModelError(f"no document codec for type {hint!r}")


def _object_encoder(owner: Any) -> Callable[[Any], Any]:
    """The writer of an object holding ``owner``'s fields, stamped when
    ``owner`` is a top-level document class."""
    stamps = _stamps(owner)
    fields = tuple(
        (name, inline, _encoder(hint)) for name, hint, inline in _fields(owner)
    )

    def encode(value: Any) -> Dict[str, Any]:
        document: Dict[str, Any] = dict(stamps)
        for name, inline, encode_field in fields:
            if inline:
                document.update(encode_field(getattr(value, name)))
            else:
                document[name] = encode_field(getattr(value, name))
        return document

    return encode


def document_from_dict(cls: Type[_D], document: Any) -> _D:
    """Rebuild a document of class ``cls`` from its JSON form.

    The decoder is derived from the class's field types and checks every
    value, so anything :func:`document_to_dict` did not write is refused
    at the boundary.

    Raises:
        ModelError: naming the path of the malformed value
            (``scenario.machines[0].capacity``): wrong stamps, a missing
            field, a value of the wrong type, NaN, a dict key that does
            not parse, a row of the wrong width, or an entry its model
            constructor refuses.
    """
    try:
        return cast(_D, _decoder(cls)(document))
    except _Malformed as error:
        path = getattr(cls, "KIND", cls.__name__)
        path += "".join(reversed(error.segments))
        raise ModelError(f"{path}{error.separator}{error.problem}") from None


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
    """A JSON number as parsed (an integer stays one, so it keys as
    written), refusing NaN and integers no float can hold."""
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value == value
    ):
        if isinstance(value, float) or abs(value) <= sys.float_info.max:
            return value
        raise _Malformed("is an integer past the float range")
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
    Any: _identity,
    bool: _decode_bool,
    int: _decode_int,
    float: _decode_float,
    str: _decode_str,
}

_KEY_DECODERS: Dict[Any, _Decoder] = {int: _int_key, str: _decode_str}


def _built(build: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
    """``build(...)``, a model constructor's refusal made a malformed
    value (:class:`~repro.core.intervals.Interval` refuses with
    ``ValueError``)."""
    try:
        return build(*args, **kwargs)
    except (ModelError, ValueError) as error:
        raise _Malformed(str(error), separator=": ") from None


@functools.lru_cache(maxsize=None)
def _decoder(hint: Any) -> _Decoder:
    """The decoder for one annotated type, built once and cached.

    Raises:
        ModelError: when ``hint`` is a type no document may carry.
    """
    if hint in _SCALAR_DECODERS:
        return _SCALAR_DECODERS[hint]
    if getattr(hint, "ROW", False):
        decode_row = _row_decoder(
            tuple(_decoder(field) for _, field, _ in _fields(hint))
        )
        return lambda value: _built(hint, *decode_row(value))
    if dataclasses.is_dataclass(hint) or hasattr(hint, "FIELDS"):
        return _object_decoder(hint, _fields(hint), _stamps(hint))
    if inspect.isfunction(hint):
        return _sequence_decoder(list, _object_decoder(dict, _fields(hint), ()))
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


def _object_decoder(
    build: Callable[..., Any],
    layout: Tuple[Tuple[str, Any, bool], ...],
    stamps: Tuple[Tuple[str, Any], ...],
) -> _Decoder:
    """The decoder of an object holding ``layout``'s fields: it checks the
    ``stamps``, calls ``build`` with the fields, then makes on what was
    built the calls that the method-typed fields hold."""
    fields = tuple(
        (name, hint, inline, _decoder(hint)) for name, hint, inline in layout
    )
    kind = dict(stamps).get("kind")

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
        calls: List[Tuple[str, Any, List[Dict[str, Any]]]] = []
        for name, hint, inline, decode_field in fields:
            if inline:
                arguments[name] = decode_field(value)
                continue
            if name not in value:
                raise _Malformed(f"is missing field {name!r}")
            try:
                decoded = decode_field(value[name])
            except _Malformed as error:
                error.segments.append(f".{name}")
                raise
            if inspect.isfunction(hint):
                calls.append((name, hint, decoded))
            else:
                arguments[name] = decoded
        built = _built(build, **arguments)
        for name, method, entries in calls:
            for index, entry in enumerate(entries):
                try:
                    _built(method, built, **entry)
                except _Malformed as error:
                    error.segments += [f"[{index}]", f".{name}"]
                    raise
        return built

    return decode


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

def _canonical_json(value: Any) -> str:
    """A document's canonical JSON text (sorted keys, no whitespace)."""
    return json.dumps(
        document_to_dict(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )


def _digest(value: Any) -> str:
    """SHA-256 hex digest of a document's canonical JSON."""
    return hashlib.sha256(_canonical_json(value).encode("utf-8")).hexdigest()


def canonical_scenario_json(scenario: Scenario) -> str:
    """The scenario's canonical JSON text (sorted keys, no whitespace).

    Two scenarios produce the same text exactly when their documents are
    equal, so this is the content-addressing basis of the run cache.
    """
    return _canonical_json(scenario)


def scenario_fingerprint(scenario: Scenario) -> str:
    """SHA-256 hex digest of :func:`canonical_scenario_json`.

    Any change to the scenario content — topology, windows, items,
    requests, weighting, name — yields a different fingerprint, which
    invalidates every cached run record keyed on it.
    """
    return _digest(scenario)


def fault_plan_fingerprint(plan: FaultPlan) -> str:
    """SHA-256 hex digest of the plan's canonical JSON.

    Because plans normalize at construction, logically equal plans
    fingerprint equal; the executor keys cached runs on this digest so a
    faulted record can never shadow a healthy one (or vice versa).
    """
    return _digest(plan)


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    """Write a scenario to a JSON file."""
    Path(path).write_text(
        json.dumps(document_to_dict(scenario), indent=2), encoding="utf-8"
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
    return decode_file(path, functools.partial(document_from_dict, Scenario))


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> None:
    """Write a schedule to a JSON file."""
    Path(path).write_text(
        json.dumps(document_to_dict(schedule), indent=2), encoding="utf-8"
    )


def load_schedule(path: Union[str, Path]) -> Schedule:
    """Read a schedule from a JSON file.

    Raises:
        ModelError: naming the path, when the file is not a valid
            schedule document.
        OSError: when the file cannot be read.
    """
    return decode_file(path, functools.partial(document_from_dict, Schedule))


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
