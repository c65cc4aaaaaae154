"""Fingerprints, codecs, cache keys and journal replays are pure.

The run cache keys every record on content digests
(:func:`~repro.serialization.scenario_fingerprint`,
:func:`~repro.serialization.fault_plan_fingerprint`,
:meth:`~repro.experiments.executor.RunCache.key_for`) built from the
``*_to_dict`` codecs that also write the saved suites behind the paper's
"same 40 randomly generated test cases".  The compiled kernel memoizes
:func:`~repro.routing.compiled.compile_network` by network identity, and
the §4.5 tree cache keeps a tree only because its journal replay
(``TreeCache._replay`` and ``TreeCache._replay_release``) is a function
of the journal.  Each of those entry points is called here on generated
scenarios with 0.5-intensity fault plans, inside :func:`_pure`:

* ``random``'s module-level functions (the process-global RNG) and
  ``time.time`` (the wall clock) raise when called;
* no global of a loaded ``repro.*`` module may change identity or
  length across the call.

Then two interpreters with different ``PYTHONHASHSEED`` values, visiting
the scenarios in opposite orders, must compute the same fingerprints and
cache keys as this process, so no digest depends on hash order, object
identity or what ran before.  ``python -m tests.test_purity SEED...``
prints those digests as JSON.
"""

from __future__ import annotations

import collections.abc
import contextlib
import functools
import gc
import json
import os
import random
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple
from unittest import mock

import pytest

import repro
from repro.core.network import Network
from repro.core.scenario import Scenario
from repro.core.schedule import Schedule
from repro.cost.weights import EUWeights
from repro.dynamic.driver import DynamicDriver
from repro.experiments.executor import RunCache, SweepCell, _run_cell
from repro.experiments.runner import RunRecord
from repro.faults.context import use_faults
from repro.faults.plan import FaultPlan
from repro.heuristics.base import TreeCache
from repro.heuristics.registry import make_heuristic
from repro.routing.compiled import compile_network
from repro.serialization import (
    document_to_dict,
    fault_plan_fingerprint,
    fault_plan_to_dict,
    scenario_fingerprint,
    scenario_from_dict,
    scenario_to_dict,
    schedule_to_dict,
)
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import dynamic_fault_events

#: Generator seeds of the scenarios every entry point is called on.
SEEDS = (1, 2, 3)

#: Fault intensity of each scenario's plan (outages, degradations, churn).
INTENSITY = 0.5

#: ``random``'s module-level functions: each draws from, reads or seeds
#: the process-global RNG.
GLOBAL_RNG_FUNCTIONS = tuple(
    name for name in random.__all__ if name not in ("Random", "SystemRandom")
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``key_for`` derives keys without touching the cache directory.
CACHE = RunCache(os.devnull)


def _case(seed: int) -> Tuple[Scenario, FaultPlan]:
    scenario = ScenarioGenerator(GeneratorConfig.tiny()).generate(seed)
    plan = FaultPlan.generate(scenario, INTENSITY, seed=seed, churn=True)
    return scenario, plan


def _cell(scenario: Scenario, plan: FaultPlan) -> SweepCell:
    weights = EUWeights(1.0, 1.0)
    return SweepCell(
        scenario, "partial", "C4", weights, faults=plan.static_only()
    )


def digests(seeds: Sequence[int]) -> Dict[str, List[str]]:
    """Per seed, in visit order: the scenario's fingerprint, its plan's
    fingerprint and its faulted cell's run-cache key."""
    result: Dict[str, List[str]] = {}
    for seed in seeds:
        scenario, plan = _case(seed)
        result[str(seed)] = [
            scenario_fingerprint(scenario),
            fault_plan_fingerprint(plan),
            CACHE.key_for(_cell(scenario, plan)),
        ]
    return result


# -- the guard ---------------------------------------------------------------

def _contents(value: object) -> object:
    """A shallow snapshot of a mutable container: each key's id mapped to
    its value's id for a mapping, the items' ids in order for a sequence,
    the members' ids for a set; ``None`` for anything else.  So a write
    that overwrites an existing memo key changes it, not only one that
    grows or shrinks the container."""
    if isinstance(value, collections.abc.MutableMapping):
        return {id(key): id(item) for key, item in list(value.items())}
    if isinstance(value, collections.abc.MutableSequence):
        return tuple(id(item) for item in value)
    if isinstance(value, collections.abc.MutableSet):
        return frozenset(id(item) for item in value)
    return None


def _repro_globals() -> Dict[Tuple[str, str], Tuple[int, object]]:
    """Identity and, for mutable containers, shallow contents
    (:func:`_contents`) of every non-module global of every loaded
    ``repro.*`` module."""
    return {
        (module_name, name): (id(value), _contents(value))
        for module_name, module in list(sys.modules.items())
        if module_name == "repro" or module_name.startswith("repro.")
        for name, value in vars(module).items()
        if not isinstance(value, types.ModuleType)
    }


@contextlib.contextmanager
def _pure(entry: str) -> Iterator[None]:
    """Fail when the body draws from the global RNG, reads the wall
    clock, or rebinds or writes into a ``repro`` module global.

    A refused call raises and is also recorded, so a body that swallows
    the exception still fails.  Modules first imported by the body are
    not compared.  Garbage collection pauses meanwhile, so no weak
    reference callback can shrink a memo under the body.
    """
    refused: List[str] = []

    def refuse(name: str):
        def call(*args, **kwargs):
            refused.append(name)
            raise AssertionError(f"{entry} called {name}")

        return call

    collecting = gc.isenabled()
    gc.disable()
    before = _repro_globals()
    try:
        draws = {
            name: refuse(f"random.{name}") for name in GLOBAL_RNG_FUNCTIONS
        }
        with mock.patch.multiple(random, **draws), mock.patch.object(
            time, "time", refuse("time.time")
        ):
            yield
        after = _repro_globals()
    finally:
        if collecting:
            gc.enable()
    assert not refused, f"{entry} called {refused}"
    loaded = {module_name for module_name, _ in before}
    changed = sorted(
        key
        for key in before.keys() | after.keys()
        if key[0] in loaded and before.get(key) != after.get(key)
    )
    assert not changed, f"{entry} changed module globals {changed}"


def test_the_guard_refuses_rng_clock_and_global_writes(monkeypatch):
    with pytest.raises(AssertionError, match="random.shuffle"):
        with _pure("draw"):
            with contextlib.suppress(AssertionError):
                random.shuffle([1, 2])
    with pytest.raises(AssertionError, match="time.time"):
        with _pure("clock"):
            time.time()
    monkeypatch.setattr(repro, "_PURITY_PROBE", {}, raising=False)
    with pytest.raises(AssertionError, match="_PURITY_PROBE"):
        with _pure("write"):
            repro._PURITY_PROBE["seen"] = 1  # type: ignore[attr-defined]
    with pytest.raises(AssertionError, match="_PURITY_PROBE"):
        with _pure("rebind"):
            monkeypatch.setattr(repro, "_PURITY_PROBE", {"seen": 1})
    with pytest.raises(AssertionError, match="_PURITY_PROBE"):
        with _pure("overwrite"):
            repro._PURITY_PROBE["seen"] = [2]  # type: ignore[attr-defined]


# -- the entry points --------------------------------------------------------

class Case(NamedTuple):
    """One seed's inputs to the entry points."""

    scenario: Scenario
    plan: FaultPlan
    schedule: Schedule
    record: RunRecord
    #: An equal copy of the scenario's network that nothing compiled, so
    #: a memo written per network shows as a new entry.
    network: Network


@pytest.fixture(scope="module")
def cases() -> List[Case]:
    """Per seed: the scenario, its fault plan, a faulted schedule, a
    faulted run record carrying metrics and a timeline, and a network
    nothing compiled."""
    built = []
    for seed in SEEDS:
        scenario, plan = _case(seed)
        with use_faults(plan.static_only()):
            schedule = make_heuristic("partial").run(scenario).schedule
        record = _run_cell(
            _cell(scenario, plan), collect_metrics=True, collect_timeline=True
        )
        assert record.metrics is not None and record.timeline is not None
        copy = scenario_from_dict(scenario_to_dict(scenario))
        built.append(Case(scenario, plan, schedule, record, copy.network))
    return built


ENTRY_POINTS = {
    "scenario_fingerprint": lambda case: scenario_fingerprint(case.scenario),
    "fault_plan_fingerprint": lambda case: fault_plan_fingerprint(case.plan),
    "scenario_to_dict": lambda case: scenario_to_dict(case.scenario),
    "schedule_to_dict": lambda case: schedule_to_dict(case.schedule),
    "fault_plan_to_dict": lambda case: fault_plan_to_dict(case.plan),
    "document_to_dict": lambda case: document_to_dict(case.record),
    "RunCache.key_for": lambda case: CACHE.key_for(
        _cell(case.scenario, case.plan)
    ),
    "compile_network": lambda case: compile_network(case.network),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_is_pure(cases, entry):
    for case in cases:
        with _pure(entry):
            ENTRY_POINTS[entry](case)


def test_tree_cache_replay_is_pure(monkeypatch):
    # A faulted dynamic run: outages, degradations, churn, a link that
    # fails for good, and copy losses, whose release records reach
    # _replay_release through _replay.
    calls = {"_replay": 0, "_replay_release": 0}

    def guarded(method):
        @functools.wraps(method)
        def wrapper(self, *args):
            calls[method.__name__] += 1
            with _pure(f"TreeCache.{method.__name__}"):
                return method(self, *args)

        return wrapper

    for name in calls:
        original = getattr(TreeCache, name)
        monkeypatch.setattr(TreeCache, name, guarded(original))
    scenario, _ = _case(SEEDS[0])
    events, plan = dynamic_fault_events(scenario, SEEDS[0], INTENSITY)
    with use_faults(plan):
        DynamicDriver("partial", "C4", 2.0).run(scenario, events)
    assert calls["_replay"] > 0 and calls["_replay_release"] > 0, calls


# -- across interpreters -----------------------------------------------------

def test_digests_agree_across_hash_seeds_and_visit_orders():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), str(REPO_ROOT)]
    )
    orders = (SEEDS, tuple(reversed(SEEDS)))
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "tests.test_purity", *map(str, order)],
            cwd=REPO_ROOT,
            env={**env, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for hash_seed, order in zip(("1", "2"), orders)
    ]
    outputs = [child.communicate(timeout=60)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    expected = digests(SEEDS)
    for output in outputs:
        assert json.loads(output) == expected


if __name__ == "__main__":
    print(json.dumps(digests([int(seed) for seed in sys.argv[1:]])))
