"""The shared document codec, over every document class.

One codec in :mod:`repro.serialization` derives the JSON form and the
validation of every document from its fields, and the fold of every
output document.  These tests pin, for every class at once:

* malformed documents fail with :class:`~repro.errors.ModelError` naming
  the path of the bad value;
* decoding an encoded document gives it back, and its sorted-key JSON is
  stable across the round trip;
* ``merge_documents`` is associative for the mergeable kinds;
* each class's field layout is pinned to its ``(KIND, SCHEMA_VERSION)``,
  so changing a document's fields without bumping its version fails.

The input documents (scenario, schedule, fault plan) are drawn from the
generator and the heuristics, since their constructors check the model.
"""

import copy
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import typing
from typing import Any, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scenario import Scenario
from repro.core.schedule import Schedule
from repro.errors import ModelError
from repro.experiments.chaos import ChaosPoint, ChaosReport
from repro.experiments.runner import RunRecord
from repro.faults.plan import FaultPlan
from repro.heuristics.registry import make_heuristic
from repro.observability import (
    ClassSeries,
    LinkSeries,
    RequestForensics,
    RunMetrics,
    StorageSeries,
    Timeline,
    TimingStat,
)
from repro.serialization import (
    document_from_dict,
    document_to_dict,
    merge_documents,
)
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

#: Every top-level output document class.
DOCUMENTS = (RunRecord, RunMetrics, Timeline, ChaosReport)

#: Every top-level input document class.
INPUTS = (Scenario, Schedule, FaultPlan)

#: The kinds ``merge_documents`` folds.
MERGEABLE = (RunMetrics, Timeline)


def canonical(document):
    return json.dumps(document, sort_keys=True)


# -- malformed documents -----------------------------------------------------


def _stat(*values):
    stat = TimingStat()
    for value in values:
        stat.note(value)
    return stat


def _timeline():
    return Timeline(
        horizon=100.0,
        runs=1,
        links={
            7: LinkSeries(
                window_start=0.0,
                window_end=50.0,
                attempts=2,
                rejections={"link_busy": 1},
                bookings=[(1.0, 2.0, 3)],
            )
        },
        storage={0: StorageSeries(capacity=9.0, reservations=[])},
        classes={
            1: ClassSeries(requests=2, satisfied=1, drains=[2.0])
        },
        forensics={
            "s#0": RequestForensics(
                scenario="s", chain=[("attempt", 7)], arrivals=[(2.0, 8.0)]
            )
        },
    )


def _metrics():
    return RunMetrics(
        counters={"bookings": 1},
        rejection_reasons={"link_busy": 1},
        link_busy_seconds={7: 1.0},
        link_transfer_counts={7: 1},
        link_window_seconds={7: 50.0},
        decision_seconds=_stat(0.5),
        workers=(11,),
    )


def _record():
    return RunRecord(
        scenario="s",
        scheduler="partial/C4",
        eu_label="0",
        weighted_sum=3.0,
        satisfied_by_priority=(1, 2),
        total_by_priority=(2, 2),
        steps=4,
        dijkstra_runs=5,
        elapsed_seconds=0.25,
        average_hops=1.5,
        metrics=_metrics(),
        timeline=_timeline(),
    )


def _chaos():
    return ChaosReport(
        scale="ci",
        criterion="C4",
        log_ratio=2.0,
        cases=1,
        fault_seed=0,
        intensities=(0.0,),
        heuristics=("partial",),
        points=(ChaosPoint("partial", 0.0, 1.0, 2.0, 0.0),),
        plan_notes=(),
    )


_VALID = {
    RunRecord: _record,
    RunMetrics: _metrics,
    Timeline: _timeline,
    ChaosReport: _chaos,
}


def _set(*path_and_value):
    """A corruption assigning the value at ``path`` (keys or indexes)."""
    *path, value = path_and_value

    def corrupt(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return corrupt


def _delete(key):
    def corrupt(document):
        del document[key]

    return corrupt


def _rename_key(mapping, old, new):
    def corrupt(document):
        document[mapping][new] = document[mapping].pop(old)

    return corrupt


#: (class, case id, corruption, the path the error must name).
MALFORMED = [
    (
        Timeline,
        "non-integer-link-key",
        _rename_key("links", "7", "abc"),
        "timeline.links['abc']",
    ),
    (
        RunMetrics,
        "non-integer-link-key",
        _rename_key("link_busy_seconds", "7", "abc"),
        "run_metrics.link_busy_seconds['abc']",
    ),
    (
        Timeline,
        "string-tally",
        _set("links", "7", "rejections", "link_busy", "many"),
        "timeline.links['7'].rejections['link_busy']",
    ),
    (
        RunMetrics,
        "string-tally",
        _set("rejection_reasons", "link_busy", "many"),
        "run_metrics.rejection_reasons['link_busy']",
    ),
    (
        Timeline,
        "string-drain",
        _set("classes", "1", "drains", ["soon"]),
        "timeline.classes['1'].drains[0]",
    ),
    (
        Timeline,
        "wrong-type-booking-row",
        _set("links", "7", "bookings", [["a", 1, 2]]),
        "timeline.links['7'].bookings[0][0]",
    ),
    (
        Timeline,
        "non-list-booking-row",
        _set("links", "7", "bookings", ["row"]),
        "timeline.links['7'].bookings[0]",
    ),
    (
        Timeline,
        "wrong-width-booking-row",
        _set("links", "7", "bookings", [[1.0, 2.0]]),
        "timeline.links['7'].bookings[0]",
    ),
    (
        RunMetrics,
        "bool-counter",
        _set("counters", "bookings", True),
        "run_metrics.counters['bookings']",
    ),
    (Timeline, "bool-counter", _set("runs", True), "timeline.runs"),
    (RunRecord, "bool-counter", _set("steps", False), "run_record.steps"),
    (ChaosReport, "bool-counter", _set("cases", True), "chaos_report.cases"),
    (
        RunRecord,
        "string-flag",
        _set("cache_hit", "no"),
        "run_record.cache_hit",
    ),
    (
        RunRecord,
        "nested-wrong-schema",
        _set("metrics", "schema_version", 2),
        "run_record.metrics",
    ),
    (
        ChaosReport,
        "non-string-field",
        _set("points", 0, "heuristic", 3),
        "chaos_report.points[0].heuristic",
    ),
]
for _cls, _missing in (
    (RunRecord, "weighted_sum"),
    (RunMetrics, "workers"),
    (Timeline, "forensics"),
    (ChaosReport, "points"),
):
    MALFORMED += [
        (
            _cls,
            "missing-field",
            _delete(_missing),
            f"{_cls.KIND} is missing field '{_missing}'",
        ),
        (_cls, "wrong-kind", _set("kind", "schedule"), "got 'schedule'"),
        (
            _cls,
            "wrong-schema-version",
            _set("schema_version", _cls.SCHEMA_VERSION + 1),
            f"got {_cls.SCHEMA_VERSION + 1}",
        ),
    ]


@pytest.mark.parametrize(
    "cls, corrupt, where",
    [
        pytest.param(cls, corrupt, where, id=f"{cls.KIND}-{case}")
        for cls, case, corrupt, where in MALFORMED
    ],
)
def test_malformed_documents_fail_with_a_model_error(cls, corrupt, where):
    document = json.loads(json.dumps(document_to_dict(_VALID[cls]())))
    assert document_from_dict(cls, copy.deepcopy(document)) == _VALID[cls]()
    corrupt(document)
    with pytest.raises(ModelError) as raised:
        document_from_dict(cls, document)
    assert where in str(raised.value)


def test_non_object_documents_are_refused():
    for cls in DOCUMENTS + INPUTS:
        for document in (None, [], "timeline", 3):
            with pytest.raises(ModelError, match="must be an object"):
                document_from_dict(cls, document)


@functools.lru_cache(maxsize=None)
def _inputs():
    """Three generated scenarios, a schedule of each and a fault plan."""
    generator = ScenarioGenerator(GeneratorConfig.tiny())
    scenarios = tuple(generator.generate(seed) for seed in range(3))
    return {
        Scenario: scenarios,
        Schedule: tuple(
            make_heuristic("partial", "C4", 0.0).run(scenario).schedule
            for scenario in scenarios
        ),
        FaultPlan: tuple(
            FaultPlan.generate(scenario, 0.5, seed=seed, churn=True)
            for seed, scenario in enumerate(scenarios)
        ),
    }


def _duplicate_first(key):
    def corrupt(document):
        document[key].insert(1, copy.deepcopy(document[key][0]))

    return corrupt


#: (class, case id, corruption, the path the error must name).
INPUT_MALFORMED = [
    (
        Scenario,
        "string-capacity",
        _set("machines", 0, "capacity", "big"),
        "scenario.machines[0].capacity must be a number, got 'big'",
    ),
    (
        Scenario,
        "nan-size",
        _set("items", 0, "size", math.nan),
        "scenario.items[0].size must be a number, got nan",
    ),
    (
        Scenario,
        "wide-window",
        _set("physical_links", 0, "windows", 0, [0.0, 1.0, 2.0]),
        "scenario.physical_links[0].windows[0] must be a row of 2 values",
    ),
    (
        Scenario,
        "refused-window",
        _set("physical_links", 0, "windows", 0, [2.0, 1.0]),
        "scenario.physical_links[0].windows[0]: interval end",
    ),
    (
        Scenario,
        "refused-entry",
        _set("machines", 0, "capacity", -1.0),
        "scenario.machines[0]: machine capacity must be >= 0",
    ),
    (
        Scenario,
        "refused-scenario",
        _set("requests", 0, "item_id", 99),
        "scenario: request 0 references unknown item 99",
    ),
    (
        Schedule,
        "nan-start",
        _set("steps", 0, "start", math.nan),
        "schedule.steps[0].start must be a number, got nan",
    ),
    (
        Schedule,
        "float-hops",
        _set("deliveries", 0, "hops", 1.0),
        "schedule.deliveries[0].hops must be an integer",
    ),
    (
        Schedule,
        "refused-step",
        _set("steps", 0, "end", -1.0),
        "schedule.steps[0]: step 0 ends (-1.0) before it starts",
    ),
    (
        Schedule,
        "refused-delivery",
        _duplicate_first("deliveries"),
        "schedule.deliveries[1]: request",
    ),
    (
        FaultPlan,
        "nan-factor",
        _set("degradations", 0, "factor", math.nan),
        "fault_plan.degradations[0].factor must be a number, got nan",
    ),
    (
        FaultPlan,
        "refused-entry",
        _set("outages", 0, "start", -1.0),
        "fault_plan.outages[0]: outage start must be >= 0",
    ),
    (
        FaultPlan,
        "wrong-schema-version",
        _set("schema_version", 2),
        "got 2",
    ),
]
for _cls, _missing in (
    (Scenario, "physical_links"),
    (Schedule, "deliveries"),
    (FaultPlan, "late_arrivals"),
):
    INPUT_MALFORMED += [
        (
            _cls,
            "missing-field",
            _delete(_missing),
            f"{_cls.KIND} is missing field '{_missing}'",
        ),
        (_cls, "wrong-kind", _set("kind", "timeline"), "got 'timeline'"),
    ]


@pytest.mark.parametrize(
    "cls, corrupt, where",
    [
        pytest.param(cls, corrupt, where, id=f"{cls.KIND}-{case}")
        for cls, case, corrupt, where in INPUT_MALFORMED
    ],
)
def test_malformed_input_documents_fail_with_a_model_error(
    cls, corrupt, where
):
    document = json.loads(json.dumps(document_to_dict(_inputs()[cls][0])))
    corrupt(document)
    with pytest.raises(ModelError) as raised:
        document_from_dict(cls, document)
    assert where in str(raised.value)


@pytest.mark.parametrize("cls", INPUTS, ids=lambda cls: cls.KIND)
def test_input_round_trip_is_exact_and_json_stable(cls):
    for value in _inputs()[cls]:
        document = document_to_dict(value)
        text = canonical(document)
        rebuilt = document_from_dict(cls, json.loads(text))
        assert document_to_dict(rebuilt) == document
        assert canonical(document_to_dict(rebuilt)) == text
        assert cls is not FaultPlan or rebuilt == value


# -- round trip and merge ----------------------------------------------------

# Dyadic floats: exact under the few additions a merge makes, so the
# associativity check is not hostage to float rounding order.
_floats = st.integers(-(2**20), 2**20).map(lambda n: n / 1024)
_SCALARS = {
    int: st.integers(-1000, 1000),
    float: _floats,
    str: st.text(max_size=4),
    bool: st.booleans(),
    Any: st.one_of(st.integers(-9, 9), st.text(max_size=3), _floats),
}


def strategy_for(hint):
    """Values of an annotated document type, mirroring the codec's types.

    Timing stats are drawn as folds of observations, the only way the
    program builds them: an empty stat's ``min``/``max`` are placeholders
    that ``merged`` does not carry.
    """
    if hint is TimingStat:
        return st.lists(_floats, max_size=3).map(
            lambda values: _stat(*values)
        )
    if hint in _SCALARS:
        return _SCALARS[hint]
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return st.builds(
            hint,
            **{
                field.name: strategy_for(hints[field.name])
                for field in dataclasses.fields(hint)
            },
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        inner = args[0] if args[1] is type(None) else args[1]
        return st.none() | strategy_for(inner)
    if origin is dict:
        return st.dictionaries(
            strategy_for(args[0]), strategy_for(args[1]), max_size=2
        )
    if origin is list:
        return st.lists(strategy_for(args[0]), max_size=2)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(strategy_for(args[0]), max_size=2).map(tuple)
    if origin is tuple:
        return st.tuples(*(strategy_for(arg) for arg in args))
    raise TypeError(f"no strategy for {hint!r}")


@pytest.mark.parametrize(
    "cls", DOCUMENTS + (TimingStat,), ids=lambda cls: cls.__name__
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip_is_exact_and_json_stable(cls, data):
    value = data.draw(strategy_for(cls))
    document = document_to_dict(value)
    assert document_from_dict(cls, document) == value
    text = canonical(document)
    rebuilt = document_from_dict(cls, json.loads(text))
    assert rebuilt == value
    assert canonical(document_to_dict(rebuilt)) == text


@pytest.mark.parametrize(
    "cls", MERGEABLE, ids=lambda cls: cls.__name__
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_merge_documents_is_associative(cls, data):
    a, b, c = (data.draw(strategy_for(cls)) for _ in range(3))
    left = merge_documents(cls, [merge_documents(cls, [a, b]), c])
    right = merge_documents(cls, [a, merge_documents(cls, [b, c])])
    assert left == right
    assert merge_documents(cls, [None, a, None, b, c]) == left


# -- layouts pinned to versions ----------------------------------------------

_CONTAINERS = {dict: "Dict", list: "List", tuple: "Tuple", Union: "Union"}


def _written(hint):
    """``(name, type, mark)`` of each field a class writes: its declared
    ``FIELDS``, or its dataclass fields, an inline one marked."""
    declared = getattr(hint, "FIELDS", None)
    if declared is not None:
        return [(name, field, "") for name, field in declared.items()]
    hints = typing.get_type_hints(hint)
    return [
        (
            field.name,
            hints[field.name],
            " inline" if field.metadata.get("inline") else "",
        )
        for field in dataclasses.fields(hint)
    ]


def layout(hint, top=True):
    """A document type's field-name/type tree as text.

    A nested top-level document appears by its kind only: it carries its
    own stamps, so its layout is pinned under its own version.  A row
    class is marked ``Row``, and a method (a list of its calls) shows
    its arguments.
    """
    if hint is Any:
        return "Any"
    if hint is Ellipsis:
        return "..."
    if inspect.isfunction(hint):
        hints = typing.get_type_hints(hint)
        arguments = ", ".join(
            f"{name}: {layout(hints[name], top=False)}"
            for name in list(inspect.signature(hint).parameters)[1:]
        )
        return f"Calls[{hint.__name__}({arguments})]"
    if dataclasses.is_dataclass(hint) or hasattr(hint, "FIELDS"):
        if not top and hasattr(hint, "KIND"):
            return f"<{hint.KIND}>"
        fields = ", ".join(
            f"{name}{mark}: {layout(field, top=False)}"
            for name, field, mark in _written(hint)
        )
        row = "Row" if getattr(hint, "ROW", False) else ""
        return f"{row}{hint.__name__}({fields})"
    origin = typing.get_origin(hint)
    if origin in _CONTAINERS:
        args = ", ".join(
            layout(arg, top=False) for arg in typing.get_args(hint)
        )
        return f"{_CONTAINERS[origin]}[{args}]"
    return hint.__name__


def layout_digest(cls):
    return hashlib.sha256(layout(cls).encode("utf-8")).hexdigest()[:16]


#: Every ``(kind, schema version)`` ever shipped and its layout digest.
#: Entries are only ever added: a field change bumps the class's
#: ``SCHEMA_VERSION`` and pins the new digest under the new key.
PINNED_LAYOUTS = {
    ("run_record", 1): "91f44f4d732d93b8",
    ("run_record", 2): "e45c1dc0ebf7547e",
    ("run_metrics", 3): "1cbb8d13713f6090",
    ("profile", 2): "cb181fa926babca7",
    ("timeline", 1): "470135f541643464",
    ("chaos_report", 1): "3fba92950db94a44",
    ("scenario", None): "85b4fa9e4612804f",
    ("schedule", None): "649062745e4d8624",
    ("fault_plan", 1): "6cd76dbeb2587fab",
}


@pytest.mark.parametrize(
    "cls", DOCUMENTS + INPUTS, ids=lambda cls: cls.KIND
)
def test_layout_is_pinned_to_its_schema_version(cls):
    # Scenarios and schedules carry no schema version, so their pins are
    # keyed on None: a field change to one fails here until it is
    # re-pinned, and a scenario's bytes key the run cache, so that change
    # also bumps CACHE_FORMAT_VERSION.
    key = (cls.KIND, getattr(cls, "SCHEMA_VERSION", None))
    assert key in PINNED_LAYOUTS, f"pin the layout of {key}"
    assert layout_digest(cls) == PINNED_LAYOUTS[key], (
        f"{cls.__name__}'s fields changed: bump its SCHEMA_VERSION and "
        f"pin the new layout\n{layout(cls)}"
    )
