"""The error boundary, driven with real inputs.

Every document a user can hand the library — scenario, schedule, fault
plan, timeline — and every file a subcommand reads must fail only with
a :mod:`repro.errors` type, and the CLI must turn that failure into
exit code 2 and a one-line ``error:`` message, never a traceback.

* A whole-document fuzzer mutates valid documents (drops keys, swaps
  values for ``None``, strings, containers, bools, NaN, infinities,
  negatives, integers outside 64 bits and past the float range) and feeds them to the codecs
  and, written to files next to invalid-JSON and non-UTF-8 bytes, to
  the seven subcommands that read files.
* An AST check holds scheduling code to catching what it can recover
  from: a bare or ``Exception``/``BaseException`` handler must re-raise.
"""

from __future__ import annotations

import ast
import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.core.intervals import Interval
from repro.core.scenario import Scenario
from repro.core.schedule import Schedule
from repro.errors import DataStagingError
from repro.faults.plan import (
    BandwidthDegradation,
    CancellationFault,
    FaultPlan,
    LateArrivalFault,
    OutageWindow,
)
from repro.heuristics.registry import make_heuristic
from repro.observability import Timeline
from repro.observability.timeline import (
    ClassSeries,
    LinkSeries,
    RequestForensics,
    StorageSeries,
)
from repro.serialization import (
    document_from_dict,
    document_to_dict,
)

from tests.helpers import make_item, make_link, make_network, make_scenario


def _scenario():
    links = [
        make_link(0, 0, 1),
        make_link(
            1,
            1,
            2,
            latency=0.5,
            windows=(Interval(0.0, 40.0), Interval(50.0, 900.0)),
        ),
        make_link(2, 2, 0, bandwidth=500.0),
    ]
    items = [
        make_item(0, 1000.0, [(0, 0.0)]),
        make_item(1, 2000.0, [(1, 5.0), (2, 0.0)]),
    ]
    return make_scenario(
        make_network(3, links),
        items,
        [(0, 2, 2, 100.0), (1, 0, 0, 400.0), (0, 1, 1, 3.0)],
    )


SCENARIO = _scenario()
SCENARIO_DOC = document_to_dict(SCENARIO)
SCHEDULE_DOC = document_to_dict(
    make_heuristic("full_one", "C4", 0.0).run(SCENARIO).schedule
)
FAULT_PLAN_DOC = document_to_dict(
    FaultPlan(
        outages=(OutageWindow(1, 10.0, 20.0),),
        degradations=(BandwidthDegradation(2, 0.5),),
        cancellations=(CancellationFault(1, 30.0),),
        late_arrivals=(LateArrivalFault(0, 2.0),),
        name="plan",
    )
)
TIMELINE_DOC = document_to_dict(
    Timeline(
        horizon=100.0,
        runs=1,
        links={
            1: LinkSeries(
                window_start=0.0,
                window_end=50.0,
                attempts=2,
                rejections={"link_busy": 1},
                bookings=[(1.0, 2.0, 0)],
            )
        },
        storage={2: StorageSeries(capacity=9.0, reservations=[(1.0, 3.0)])},
        classes={1: ClassSeries(requests=2, satisfied=1, drains=[2.0])},
        forensics={
            "test#0": RequestForensics(
                scenario="test",
                chain=[("attempt", 1)],
                arrivals=[(2.0, 8.0)],
            )
        },
    )
)

#: The valid document of each kind and the class it decodes to.
VALID = {
    "scenario": SCENARIO_DOC,
    "schedule": SCHEDULE_DOC,
    "fault_plan": FAULT_PLAN_DOC,
    "timeline": TIMELINE_DOC,
}
CLASSES = {
    "scenario": Scenario,
    "schedule": Schedule,
    "fault_plan": FaultPlan,
    "timeline": Timeline,
}

#: A mutation slot's verdict: delete the key or list entry.
DROP = object()

#: What a mutation puts in place of a value.
REPLACEMENTS = (
    DROP,
    None,
    "x",
    "",
    [],
    [1],
    {},
    {"x": 1},
    True,
    False,
    math.nan,
    math.inf,
    -math.inf,
    -1,
    -1.5,
    0,
    2**63,
    -(2**63) - 1,
    2**63 - 1,
    10**400,
)


def _slots(value, holder, key):
    """Every ``(container, key)`` position inside ``holder[key]``."""
    yield holder, key
    if isinstance(value, dict):
        for child in value:
            yield from _slots(value[child], value, child)
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _slots(child, value, index)


def _mutate(root, slot, replacement):
    """Apply one drop or value swap at ``slot`` of the document in ``root``."""
    holder, key = list(_slots(root[0], root, 0))[slot]
    if replacement is not DROP:
        holder[key] = copy.deepcopy(replacement)
    elif holder is not root:
        del holder[key]


@st.composite
def mutated(draw, document):
    """``document`` after one to three drops or value swaps."""
    root = [copy.deepcopy(document)]
    for _ in range(draw(st.integers(1, 3))):
        slots = len(list(_slots(root[0], root, 0)))
        _mutate(
            root,
            draw(st.integers(0, slots - 1)),
            draw(st.sampled_from(REPLACEMENTS)),
        )
    return root[0]


def single_mutations(document):
    """Every document one drop or value swap away from ``document``."""
    for slot in range(len(list(_slots(document, [document], 0)))):
        for replacement in REPLACEMENTS:
            root = [copy.deepcopy(document)]
            _mutate(root, slot, replacement)
            yield root[0]


def _with(document, path, value):
    """A copy of ``document`` with the value at ``path`` replaced."""
    changed = copy.deepcopy(document)
    target = changed
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return changed


def _encoded(document):
    return json.dumps(document).encode("utf-8")


#: A step id past the signed 64-bit range, pinned as a fuzzer example.
HUGE_STEP_ID = _with(SCHEDULE_DOC, ("steps", 0, "item_id"), 2**63)
#: A request id past the signed 64-bit range.
HUGE_REQUEST_ID = _with(SCENARIO_DOC, ("requests", 0, "request_id"), 2**63)
#: The timeline's one link series, to put under another key.
LINK_SERIES = TIMELINE_DOC["links"]["1"]


def _documents():
    return st.sampled_from(sorted(VALID)).flatmap(
        lambda kind: st.tuples(st.just(kind), mutated(VALID[kind]))
    )


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_documents())
@example(("schedule", HUGE_STEP_ID))
@example(("scenario", HUGE_REQUEST_ID))
@example(
    ("timeline", _with(TIMELINE_DOC, ("links",), {"9" * 5000: LINK_SERIES}))
)
def test_codecs_fail_only_with_repro_errors(case):
    kind, document = case
    try:
        document_from_dict(CLASSES[kind], document)
    except DataStagingError:
        pass


@pytest.mark.parametrize("kind", sorted(VALID))
def test_codecs_refuse_every_single_mutation_cleanly(kind):
    # The fuzzer draws one to three mutations at random; every single one
    # is tried here, so a lone missing key or wrong type cannot hide.
    for document in single_mutations(VALID[kind]):
        try:
            document_from_dict(CLASSES[kind], document)
        except DataStagingError:
            pass


@pytest.mark.parametrize("kind", ["fault_plan", "scenario", "schedule"])
def test_nan_is_refused_anywhere_in_an_input_document(kind):
    document = VALID[kind]
    for slot in range(len(list(_slots(document, [document], 0)))):
        root = [copy.deepcopy(document)]
        _mutate(root, slot, math.nan)
        with pytest.raises(DataStagingError):
            document_from_dict(CLASSES[kind], root[0])


# -- the subcommands that read files ----------------------------------------

#: The subcommands that read files, by the kind of file they are fuzzed
#: on; the other arguments are valid files.
COMMANDS = {
    "scenario": (
        ("run", "{scenario}"),
        ("bounds", "{scenario}"),
        ("describe", "{scenario}"),
        ("validate", "{scenario}", "{schedule}"),
        ("stats", "{scenario}", "{schedule}"),
        ("gantt", "{scenario}", "{schedule}"),
    ),
    "schedule": (
        ("validate", "{scenario}", "{schedule}"),
        ("stats", "{scenario}", "{schedule}"),
        ("gantt", "{scenario}", "{schedule}"),
    ),
    "timeline": (("report", "--timeline", "{timeline}"),),
}

INVALID_JSON = b'{"kind": "scenario",'
NON_UTF8 = b'{"kind": "\xff\xfe"}'


def _payloads():
    documents = st.sampled_from(sorted(COMMANDS)).flatmap(
        lambda kind: st.tuples(
            st.just(kind),
            mutated(VALID[kind]).map(_encoded),
        )
    )
    raw = st.tuples(
        st.sampled_from(sorted(COMMANDS)),
        st.sampled_from([INVALID_JSON, NON_UTF8, b"", b"[]", b"7"]),
    )
    return st.one_of(documents, raw)


def _write_files(tmp_path, kind, payload):
    """Valid files of every kind but ``kind``, which holds ``payload``."""
    paths = {}
    for name, document in VALID.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        paths[name] = str(path)
    Path(paths[kind]).write_bytes(payload)
    return paths


def _run_subcommands(tmp_path, kind, payload, capsys):
    """``(command, exit code, stderr)`` of each subcommand on the files.

    A subcommand either succeeds or fails with exit 2 and an ``error:``
    line; ``validate`` may also judge a schedule invalid (exit 1), which
    is left out of the result.
    """
    paths = _write_files(tmp_path, kind, payload)
    results = []
    for command in COMMANDS[kind]:
        argv = [part.format(**paths) for part in command]
        code = main(argv)
        out, err = capsys.readouterr()
        if command[0] == "validate" and code == 1:
            assert out.startswith("INVALID: "), (argv, out)
            continue
        assert code in (0, 2), (argv, code, out, err)
        if code == 2:
            assert err.startswith("error: "), (argv, err)
        results.append((command[0], code, err))
    return results


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(_payloads())
# Each example below crashed a subcommand with a traceback before the
# boundary fixes: undecodable bytes, ids past 64 bits, and a schedule
# naming an unknown machine or running off the time axis.
@example(("scenario", INVALID_JSON))
@example(("schedule", NON_UTF8))
@example(("timeline", NON_UTF8))
@example(("schedule", _encoded(HUGE_STEP_ID)))
@example(("scenario", _encoded(HUGE_REQUEST_ID)))
@example(
    ("schedule", _encoded(_with(SCHEDULE_DOC, ("steps", 1, "destination"), 9)))
)
@example(
    ("schedule", _encoded(_with(SCHEDULE_DOC, ("steps", 0, "start"), -1e19)))
)
@example(
    ("schedule", _encoded(_with(SCHEDULE_DOC, ("steps", 0, "end"), math.inf)))
)
def test_file_reading_subcommands_exit_cleanly(tmp_path, capsys, case):
    kind, payload = case
    _run_subcommands(tmp_path, kind, payload, capsys)


#: Files every subcommand must refuse, by the kind of file each replaces.
BAD_FILES = {
    "invalid-json": dict.fromkeys(COMMANDS, INVALID_JSON),
    "non-utf8": dict.fromkeys(COMMANDS, NON_UTF8),
    "non-object": dict.fromkeys(COMMANDS, b"[]"),
    "huge-id": {
        "scenario": _encoded(HUGE_REQUEST_ID),
        "schedule": _encoded(HUGE_STEP_ID),
        "timeline": _encoded(_with(TIMELINE_DOC, ("runs",), 2**63)),
    },
}


@pytest.mark.parametrize("bad", sorted(BAD_FILES))
def test_every_file_reading_subcommand_refuses_a_bad_file(
    tmp_path, capsys, bad
):
    refused = []
    for kind, payload in BAD_FILES[bad].items():
        path = str(tmp_path / f"{kind}.json")
        for command, code, err in _run_subcommands(
            tmp_path, kind, payload, capsys
        ):
            assert code == 2, (command, kind)
            assert path in err, err
            refused.append((kind, command))
    assert refused == [
        (kind, command[0])
        for kind, commands in COMMANDS.items()
        for command in commands
    ]
    assert {command for _, command in refused} == {
        "run",
        "bounds",
        "describe",
        "validate",
        "stats",
        "gantt",
        "report",
    }


# -- broad handlers in scheduling code ---------------------------------------

#: The packages whose code must not swallow arbitrary failures.
SWALLOW_SCOPE = (
    "core",
    "routing",
    "heuristics",
    "baselines",
    "dynamic",
    "experiments",
    "faults",
    "workload",
    "observability",
)

#: Handler types that catch everything.
CATCH_ALL = ("Exception", "BaseException")


def swallowing_handlers(source):
    """Lines of broad ``except`` handlers that never re-raise."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = (
            node.type.elts
            if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        broad = any(
            element is None
            or (isinstance(element, ast.Name) and element.id in CATCH_ALL)
            or (
                isinstance(element, ast.Attribute)
                and element.attr in CATCH_ALL
            )
            for element in caught
        )
        if broad and not any(
            isinstance(child, ast.Raise) for child in ast.walk(node)
        ):
            lines.append(node.lineno)
    return lines


def test_scheduling_code_never_swallows_every_failure():
    root = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(root)}:{line}"
        for package in SWALLOW_SCOPE
        for path in sorted((root / package).rglob("*.py"))
        for line in swallowing_handlers(path.read_text(encoding="utf-8"))
    ]
    assert not found, (
        "broad except without a re-raise (catch the narrow recoverable "
        "set instead):\n" + "\n".join(found)
    )


@pytest.mark.parametrize(
    "handler, swallows",
    [
        ("except:\n    pass", True),
        ("except Exception:\n    x = 1", True),
        ("except (ValueError, BaseException):\n    pass", True),
        ("except builtins.Exception:\n    pass", True),
        ("except Exception:\n    cleanup()\n    raise", False),
        ("except Exception as exc:\n    raise Wrapped() from exc", False),
        ("except ValueError:\n    pass", False),
    ],
    ids=[
        "bare",
        "broad",
        "broad-in-tuple",
        "dotted",
        "reraise",
        "wrap",
        "narrow",
    ],
)
def test_swallow_check_flags_only_broad_handlers_without_reraise(
    handler, swallows
):
    source = "try:\n    work()\n" + handler + "\n"
    assert bool(swallowing_handlers(source)) is swallows
