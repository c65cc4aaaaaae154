"""The FaultPlan value object: validation, canonical form, codecs,
fingerprints, and seeded generation.

Determinism is the load-bearing property here — two logically equal
plans must compare, serialize, and fingerprint identically, because the
run cache keys cells on the plan fingerprint.
"""

import pytest

from repro.errors import ModelError
from repro.faults import (
    BandwidthDegradation,
    CancellationFault,
    FaultPlan,
    LateArrivalFault,
    OutageWindow,
)
from repro.serialization import (
    fault_plan_fingerprint,
    fault_plan_from_dict,
    fault_plan_to_dict,
)
from tests.helpers import single_item_line_scenario


class TestComponentValidation:
    def test_outage_rejects_empty_window(self):
        with pytest.raises(ModelError):
            OutageWindow(physical_id=0, start=5.0, end=5.0)

    def test_outage_rejects_inverted_window(self):
        with pytest.raises(ModelError):
            OutageWindow(physical_id=0, start=5.0, end=1.0)

    def test_outage_rejects_negative_start(self):
        with pytest.raises(ModelError):
            OutageWindow(physical_id=0, start=-1.0, end=1.0)

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_degradation_rejects_bad_factor(self, factor):
        with pytest.raises(ModelError):
            BandwidthDegradation(physical_id=0, factor=factor)

    def test_degradation_accepts_boundary_factor(self):
        assert BandwidthDegradation(physical_id=0, factor=1.0).factor == 1.0

    def test_churn_rejects_negative_time(self):
        with pytest.raises(ModelError):
            CancellationFault(request_id=0, time=-1.0)
        with pytest.raises(ModelError):
            LateArrivalFault(request_id=0, time=-1.0)


class TestCanonicalForm:
    def test_overlapping_outages_merge(self):
        plan = FaultPlan(
            outages=(
                OutageWindow(0, 10.0, 20.0),
                OutageWindow(0, 15.0, 30.0),
                OutageWindow(0, 30.0, 40.0),
            )
        )
        assert plan.outages == (OutageWindow(0, 10.0, 40.0),)

    def test_outages_sort_by_link_then_time(self):
        plan = FaultPlan(
            outages=(
                OutageWindow(1, 0.0, 5.0),
                OutageWindow(0, 50.0, 60.0),
                OutageWindow(0, 10.0, 20.0),
            )
        )
        assert [o.physical_id for o in plan.outages] == [0, 0, 1]
        assert plan.outages[0].start == 10.0

    def test_noop_degradation_is_dropped(self):
        plan = FaultPlan(
            degradations=(BandwidthDegradation(0, 1.0),)
        )
        assert plan.is_empty()

    def test_duplicate_degradation_rejected(self):
        with pytest.raises(ModelError):
            FaultPlan(
                degradations=(
                    BandwidthDegradation(0, 0.5),
                    BandwidthDegradation(0, 0.25),
                )
            )

    def test_duplicate_cancellation_rejected(self):
        with pytest.raises(ModelError):
            FaultPlan(
                cancellations=(
                    CancellationFault(0, 1.0),
                    CancellationFault(0, 2.0),
                )
            )

    def test_duplicate_late_arrival_rejected(self):
        with pytest.raises(ModelError):
            FaultPlan(
                late_arrivals=(
                    LateArrivalFault(0, 1.0),
                    LateArrivalFault(0, 2.0),
                )
            )

    def test_logically_equal_plans_compare_equal(self):
        first = FaultPlan(
            outages=(
                OutageWindow(0, 0.0, 10.0),
                OutageWindow(0, 5.0, 20.0),
            ),
            degradations=(
                BandwidthDegradation(1, 0.5),
                BandwidthDegradation(0, 1.0),
            ),
        )
        second = FaultPlan(
            outages=(OutageWindow(0, 0.0, 20.0),),
            degradations=(BandwidthDegradation(1, 0.5),),
        )
        assert first == second
        assert fault_plan_fingerprint(first) == fault_plan_fingerprint(second)


class TestClassification:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty()
        assert not plan.has_churn()
        assert plan.label() == "healthy"

    def test_static_only_strips_churn(self):
        plan = FaultPlan(
            outages=(OutageWindow(0, 0.0, 5.0),),
            cancellations=(CancellationFault(0, 1.0),),
            late_arrivals=(LateArrivalFault(1, 2.0),),
        )
        assert plan.has_churn()
        stripped = plan.static_only()
        assert not stripped.has_churn()
        assert stripped.outages == plan.outages

    def test_static_only_on_static_plan_is_identity(self):
        plan = FaultPlan(outages=(OutageWindow(0, 0.0, 5.0),))
        assert plan.static_only() is plan

    def test_label_counts_components(self):
        plan = FaultPlan(
            outages=(OutageWindow(0, 0.0, 5.0),),
            degradations=(BandwidthDegradation(1, 0.5),),
        )
        assert plan.label() == "1out/1deg/0cxl/0late"


class TestLookups:
    def test_outage_intervals_per_link(self):
        plan = FaultPlan(
            outages=(
                OutageWindow(0, 0.0, 5.0),
                OutageWindow(1, 10.0, 20.0),
            )
        )
        assert len(plan.outage_intervals(0)) == 1
        assert plan.outage_intervals(2) == ()

    def test_bandwidth_factor_defaults_to_healthy(self):
        plan = FaultPlan(degradations=(BandwidthDegradation(1, 0.25),))
        assert plan.bandwidth_factor(1) == 0.25
        assert plan.bandwidth_factor(0) == 1.0


class TestScenarioChecks:
    def test_unknown_physical_link_rejected(self):
        scenario = single_item_line_scenario()
        plan = FaultPlan(outages=(OutageWindow(99, 0.0, 5.0),))
        with pytest.raises(ModelError):
            plan.check_against(scenario)

    def test_unknown_request_rejected(self):
        scenario = single_item_line_scenario()
        plan = FaultPlan(cancellations=(CancellationFault(99, 1.0),))
        with pytest.raises(ModelError):
            plan.check_against(scenario)

    def test_known_ids_pass(self):
        scenario = single_item_line_scenario()
        plan = FaultPlan(
            outages=(OutageWindow(0, 0.0, 5.0),),
            cancellations=(CancellationFault(0, 1.0),),
        )
        plan.check_against(scenario)


class TestCodec:
    def _sample(self):
        return FaultPlan(
            outages=(OutageWindow(0, 1.0, 5.0), OutageWindow(2, 0.0, 3.0)),
            degradations=(BandwidthDegradation(1, 0.5),),
            cancellations=(CancellationFault(3, 12.0),),
            late_arrivals=(LateArrivalFault(4, 6.0),),
            name="sample",
        )

    def test_round_trip(self):
        plan = self._sample()
        assert fault_plan_from_dict(fault_plan_to_dict(plan)) == plan

    def test_wrong_kind_rejected(self):
        document = fault_plan_to_dict(self._sample())
        document["kind"] = "scenario"
        with pytest.raises(ModelError):
            fault_plan_from_dict(document)

    def test_unsupported_schema_version_rejected(self):
        document = fault_plan_to_dict(self._sample())
        document["schema_version"] = 999
        with pytest.raises(ModelError):
            fault_plan_from_dict(document)

    @pytest.mark.parametrize(
        "corrupt, where",
        [
            (
                lambda doc: doc["degradations"][0].pop("physical_id"),
                "degradation entry 0 is missing key 'physical_id'",
            ),
            (
                lambda doc: doc["outages"].__setitem__(0, 3),
                "outage entry 0 must be an object",
            ),
            (lambda doc: doc.update(outages={}), "outages must be a list"),
            (
                lambda doc: doc["cancellations"][0].update(time="soon"),
                "cancellation entry 0 time must be a number",
            ),
            (
                lambda doc: doc["late_arrivals"][0].update(request_id=4.0),
                "late arrival entry 0 request_id must be an integer",
            ),
            (
                lambda doc: doc["outages"][0].update(start=-1.0),
                "outage entry 0: outage start must be >= 0",
            ),
            (
                lambda doc: doc.update(name=None),
                "fault plan name must be a string",
            ),
        ],
        ids=[
            "key-missing",
            "entry-not-an-object",
            "outages-not-a-list",
            "time-string",
            "request-id-float",
            "negative-start",
            "name-none",
        ],
    )
    def test_malformed_entry_rejected(self, corrupt, where):
        document = fault_plan_to_dict(self._sample())
        corrupt(document)
        with pytest.raises(ModelError, match=where):
            fault_plan_from_dict(document)

    def test_fingerprint_is_stable_across_round_trips(self):
        plan = self._sample()
        replayed = fault_plan_from_dict(fault_plan_to_dict(plan))
        assert fault_plan_fingerprint(plan) == fault_plan_fingerprint(
            replayed
        )

    def test_fingerprints_separate_different_plans(self):
        first = FaultPlan(outages=(OutageWindow(0, 0.0, 5.0),))
        second = FaultPlan(outages=(OutageWindow(0, 0.0, 6.0),))
        assert fault_plan_fingerprint(first) != fault_plan_fingerprint(
            second
        )


class TestGeneration:
    def test_same_inputs_same_plan(self):
        scenario = single_item_line_scenario()
        first = FaultPlan.generate(scenario, 0.7, seed=5)
        second = FaultPlan.generate(scenario, 0.7, seed=5)
        assert first == second
        assert fault_plan_fingerprint(first) == fault_plan_fingerprint(
            second
        )

    def test_different_seeds_usually_differ(self):
        scenario = single_item_line_scenario()
        plans = {
            fault_plan_fingerprint(
                FaultPlan.generate(scenario, 0.8, seed=seed)
            )
            for seed in range(8)
        }
        assert len(plans) > 1

    def test_zero_intensity_is_empty(self):
        scenario = single_item_line_scenario()
        assert FaultPlan.generate(scenario, 0.0, seed=3).is_empty()

    def test_churn_false_is_static_safe(self):
        scenario = single_item_line_scenario()
        for seed in range(10):
            plan = FaultPlan.generate(scenario, 0.9, seed=seed, churn=False)
            assert not plan.has_churn()

    def test_generated_plan_references_only_known_ids(self):
        scenario = single_item_line_scenario()
        for seed in range(5):
            FaultPlan.generate(scenario, 0.9, seed=seed).check_against(
                scenario
            )

    def test_out_of_range_intensity_rejected(self):
        scenario = single_item_line_scenario()
        with pytest.raises(ModelError):
            FaultPlan.generate(scenario, 1.5)
        with pytest.raises(ModelError):
            FaultPlan.generate(scenario, -0.1)
