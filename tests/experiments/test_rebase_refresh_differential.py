"""Differential property: a rebase refreshes its entry exactly, in place.

:meth:`~repro.heuristics.base.TreeCache.rebase` proves each rebase from
the journal records of the item's own bookings, refreshes the cached
entry in place and takes only the new seeds out of the receiver index.
The oracle is the rebase it replaced: the old tree kept from the seeds
the state's copy set gives (``TreeCache._seeds``) toward the item's
current targets.  After every decision the refreshed entry must be the
same object, its tree must equal the oracle's, it must be current at the
journal's end with no conflict, and both indexes must equal the ones
``TreeCache._store`` builds from scratch (:func:`tests.helpers
.assert_index_exact`).  A decision that leaves its item no open request
must leave the item's entry as it was.
"""

from typing import Dict
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamic.driver import DynamicDriver
from repro.faults.context import use_faults
from repro.faults.plan import FaultPlan
from repro.heuristics.base import TreeCache, deadline_targets
from repro.heuristics.registry import make_heuristic
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

from tests.helpers import assert_index_exact, dynamic_fault_events

_GENERATORS = {
    "tiny": ScenarioGenerator(GeneratorConfig.tiny()),
    "reduced": ScenarioGenerator(GeneratorConfig.reduced()),
}

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_HEURISTICS = ("partial", "full_one", "full_all")


def _fields(entry):
    return (
        entry.tree,
        entry.item_revision,
        entry.journal_position,
        entry.not_before,
        entry.degradation_epoch,
        entry.conflict,
    )


def _checked(counts: Dict[str, int]):
    """Check every decision's rebase (or its absence) against the
    oracle; ``counts`` tallies the rebased and the finished decisions."""
    rebase = TreeCache.rebase

    def checked(self: TreeCache, item_id: int) -> bool:
        state = self._state
        entry = self._trees.get(item_id)
        before = None if entry is None else _fields(entry)
        rebased = rebase(self, item_id)
        if rebased:
            expected = before[0]._keeping(
                self._seeds(item_id), deadline_targets(state, item_id)
            )
            tree = entry.tree
            assert self._trees[item_id] is entry
            assert tree._seeds == expected._seeds
            assert tree._labels == expected._labels
            assert dict(tree.planned_hops) == dict(expected.planned_hops)
            assert tree.fallback_receivers == expected.fallback_receivers
            assert entry.item_revision == state.item_revision(item_id)
            assert entry.journal_position == state.journal_length()
            assert entry.conflict == ""
            counts["rebased"] += 1
        if not state.open_request_counts()[item_id]:
            assert not rebased
            assert self._trees.get(item_id) is entry
            assert entry is None or _fields(entry) == before
            counts["finished"] += 1
        assert_index_exact(self)
        assert_index_exact(self, release=True)
        return rebased

    return mock.patch.object(TreeCache, "rebase", checked)


def _static(scale, seed, heuristic, intensity) -> Dict[str, int]:
    scenario = _GENERATORS[scale].generate(seed)
    plan = (
        FaultPlan.generate(scenario, intensity, seed=seed, churn=False)
        if intensity > 0.0
        else None
    )
    counts = {"rebased": 0, "finished": 0}
    with use_faults(plan), _checked(counts):
        make_heuristic(heuristic, "C4", 2.0).run(scenario)
    return counts


def _dynamic(seed, fault_seed, heuristic, loss_fraction) -> Dict[str, int]:
    scenario = _GENERATORS["tiny"].generate(seed)
    events, plan = dynamic_fault_events(
        scenario, fault_seed, 0.5, loss_fraction
    )
    counts = {"rebased": 0, "finished": 0}
    with use_faults(plan), _checked(counts):
        DynamicDriver(heuristic, "C4", 2.0).run(scenario, events)
    return counts


@given(
    scale=st.sampled_from(sorted(_GENERATORS)),
    seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(_HEURISTICS),
    intensity=st.sampled_from((0.0, 0.5)),
)
@_SETTINGS
def test_static_rebases_refresh_their_entries_exactly(
    scale, seed, heuristic, intensity
):
    _static(scale, seed, heuristic, intensity)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    heuristic=st.sampled_from(_HEURISTICS),
    loss_fraction=st.sampled_from((0.3, 0.6)),
)
@_SETTINGS
def test_dynamic_rebases_with_churn_and_losses_refresh_exactly(
    seed, fault_seed, heuristic, loss_fraction
):
    _dynamic(seed, fault_seed, heuristic, loss_fraction)


def test_the_seeded_draws_rebase_and_finish_items():
    """Both kinds of decision occur on fixed draws, so the properties
    above cannot pass vacuously."""
    for counts in (
        _static("reduced", 0, "full_one", 0.0),
        _static("tiny", 0, "full_all", 0.5),
        _dynamic(0, 0, "partial", 0.3),
    ):
        assert counts["rebased"] > 0 and counts["finished"] > 0, counts
