"""The run cache's keys, pinned to literal digests.

:func:`~repro.serialization.scenario_fingerprint` and
:func:`~repro.serialization.fault_plan_fingerprint` hash a document's
canonical JSON, and every cached run is keyed on them.  A codec change
that moved those bytes the same way on every run would pass every
determinism and round-trip test and still miss every cached run, so the
digests are pinned here literally.  A failure means saved caches no
longer match: restore the bytes, or bump ``CACHE_FORMAT_VERSION`` and
re-pin these digests in the same change.
"""

from repro.faults.plan import FaultPlan
from repro.serialization import (
    fault_plan_fingerprint,
    load_scenario,
    scenario_fingerprint,
)
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

#: A scenario as a person would write it: ``capacity``, ``bandwidth``,
#: ``size`` and the times are integers, which load (and key) as written.
HAND_WRITTEN = """{
  "format_version": 1,
  "kind": "scenario",
  "name": "hand-written",
  "gc_delay": 10,
  "horizon": 500,
  "weighting": {"name": "1-10-100", "weights": [1, 10, 100]},
  "machines": [
    {"index": 0, "capacity": 5, "name": "a"},
    {"index": 1, "capacity": 7, "name": "b"}
  ],
  "physical_links": [
    {"physical_id": 0, "source": 0, "destination": 1, "bandwidth": 2,
     "latency": 0, "windows": [[0, 100], [200, 300]]}
  ],
  "items": [
    {"item_id": 0, "name": "x", "size": 4,
     "sources": [{"machine": 0, "available_from": 0}]}
  ],
  "requests": [
    {"request_id": 0, "item_id": 0, "destination": 1, "priority": 2,
     "deadline": 250}
  ]
}
"""


def _tiny_scenario():
    return ScenarioGenerator(GeneratorConfig.tiny()).generate(0)


def test_generated_scenario_key_is_pinned():
    assert scenario_fingerprint(_tiny_scenario()) == (
        "d2b95d3c13f7e31f16407fa7e0049d65afc3e64076fd0052eab35854cfa649a6"
    )


def test_fault_plan_key_is_pinned():
    plan = FaultPlan.generate(_tiny_scenario(), 0.5, seed=0, churn=True)
    assert fault_plan_fingerprint(plan) == (
        "801a28058098a6eecc55e4b17e7498e2769484010bb55c1a34ba5bf8eb9fe501"
    )


def test_hand_written_scenario_key_is_pinned(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(HAND_WRITTEN, encoding="utf-8")
    scenario = load_scenario(path)
    assert scenario.network.machines[0].capacity == 5
    assert isinstance(scenario.network.machines[0].capacity, int)
    assert scenario_fingerprint(scenario) == (
        "e4737ed5230fbe63252f7dbe17e1f9e5957107ed4b4376e9d9ba6ea4f72d61db"
    )
