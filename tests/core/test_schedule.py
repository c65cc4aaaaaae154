"""Unit tests for schedules, steps, deliveries, and effects."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.schedule import (
    CommunicationStep,
    Delivery,
    Schedule,
    ScheduleEffect,
)
from repro.errors import ModelError


class TestCommunicationStep:
    def test_duration(self):
        step = CommunicationStep(0, 0, 1, 2, 5, 10.0, 14.0)
        assert step.duration == 4.0

    def test_inverted_times_rejected(self):
        with pytest.raises(ModelError):
            CommunicationStep(0, 0, 1, 2, 5, 14.0, 10.0)

    def test_self_transfer_rejected(self):
        with pytest.raises(ModelError):
            CommunicationStep(0, 0, 1, 1, 5, 0.0, 1.0)


class TestDelivery:
    def test_negative_hops_rejected(self):
        with pytest.raises(ModelError):
            Delivery(request_id=0, arrival=5.0, hops=-1)


class TestSlottedRecords:
    """Steps and deliveries are frozen and slotted, and still survive
    pickling (process-pool workers) and copying."""

    RECORDS = (
        CommunicationStep(3, 0, 1, 2, 5, 10.0, 14.0),
        Delivery(request_id=7, arrival=5.0, hops=2),
    )

    @pytest.mark.parametrize("record", RECORDS, ids=["step", "delivery"])
    def test_round_trips(self, record):
        for restored in (
            pickle.loads(pickle.dumps(record)),
            copy.deepcopy(record),
            copy.copy(record),
        ):
            assert restored == record
            assert type(restored) is type(record)

    @pytest.mark.parametrize("record", RECORDS, ids=["step", "delivery"])
    def test_frozen_without_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.hops = 0


class TestSchedule:
    def test_steps_get_dense_ids(self):
        schedule = Schedule("s")
        first = schedule.add_step(0, 0, 1, 0, 0.0, 1.0)
        second = schedule.add_step(0, 1, 2, 1, 1.0, 2.0)
        assert (first, second) == (0, 1)
        assert [step.step_id for step in schedule.steps] == [0, 1]
        assert schedule.step_count == 2

    def test_steps_are_rebuilt_from_their_rows(self):
        schedule = Schedule("s")
        schedule.add_step(4, 0, 1, 7, 0.5, 1.25)
        assert schedule.steps == (CommunicationStep(0, 4, 0, 1, 7, 0.5, 1.25),)

    @pytest.mark.parametrize(
        "row", [(0, 0, 1, 0, 2.0, 1.0), (0, 1, 1, 0, 0.0, 1.0)],
        ids=["inverted-times", "self-transfer"],
    )
    def test_add_step_keeps_the_step_checks(self, row):
        schedule = Schedule()
        with pytest.raises(ModelError):
            schedule.add_step(*row)
        assert schedule.step_count == 0

    def test_pickle_round_trip_keeps_steps_and_deliveries(self):
        schedule = Schedule("s")
        schedule.add_step(0, 0, 1, 0, 0.0, 1.0)
        schedule.add_delivery(3, arrival=1.0, hops=1)
        restored = pickle.loads(pickle.dumps(schedule))
        assert restored.name == "s"
        assert restored.steps == schedule.steps
        assert restored.deliveries == schedule.deliveries

    def test_deliveries(self):
        schedule = Schedule()
        schedule.add_delivery(3, arrival=5.0, hops=2)
        assert schedule.is_satisfied(3)
        assert not schedule.is_satisfied(4)
        assert schedule.delivery(3).arrival == 5.0
        assert schedule.delivery(4) is None
        assert schedule.satisfied_request_ids() == (3,)

    def test_duplicate_delivery_rejected(self):
        schedule = Schedule()
        schedule.add_delivery(3, arrival=5.0, hops=2)
        with pytest.raises(ModelError):
            schedule.add_delivery(3, arrival=6.0, hops=1)
        assert schedule.delivery(3) == Delivery(3, 5.0, 2)

    def test_negative_delivery_hops_rejected(self):
        schedule = Schedule()
        with pytest.raises(ModelError, match="negative hop count"):
            schedule.add_delivery(3, arrival=5.0, hops=-1)
        assert not schedule.deliveries

    def test_deliveries_keep_insertion_order_across_removal(self):
        """Deliveries live in columns; a removal closes the gap and a
        re-added delivery goes last, as in a dict."""
        schedule = Schedule()
        for request_id, arrival in ((5, 1.0), (2, 2.0), (9, 3.5)):
            schedule.add_delivery(request_id, arrival=arrival, hops=1)
        schedule.remove_delivery(2)
        assert list(schedule.deliveries) == [5, 9]
        assert schedule.delivery(2) is None
        schedule.add_delivery(2, arrival=4.0, hops=3)
        assert list(schedule.deliveries.values()) == [
            Delivery(5, 1.0, 1),
            Delivery(9, 3.5, 1),
            Delivery(2, 4.0, 3),
        ]
        assert schedule.satisfied_request_ids() == (2, 5, 9)
        assert schedule.average_hops_per_delivery() == 5 / 3
        with pytest.raises(ModelError):
            schedule.remove_delivery(7)

    def test_total_bytes_transferred(self):
        schedule = Schedule()
        schedule.add_step(0, 0, 1, 0, 0.0, 1.0)
        schedule.add_step(1, 0, 1, 0, 1.0, 2.0)
        assert schedule.total_bytes_transferred({0: 10.0, 1: 32.0}) == 42.0

    def test_average_hops(self):
        schedule = Schedule()
        assert schedule.average_hops_per_delivery() == 0.0
        schedule.add_delivery(0, arrival=1.0, hops=1)
        schedule.add_delivery(1, arrival=2.0, hops=3)
        assert schedule.average_hops_per_delivery() == 2.0

    def test_extend_from_renumbers(self):
        source = Schedule()
        source.add_step(0, 0, 1, 0, 0.0, 1.0)
        target = Schedule()
        target.add_step(5, 1, 2, 1, 0.0, 1.0)
        target.extend_from(source.steps)
        assert [s.step_id for s in target.steps] == [0, 1]
        assert target.steps[1].item_id == 0


class TestScheduleEffect:
    def _effect(self):
        return ScheduleEffect(
            weighted_sum=120.0,
            satisfied_by_priority=(2, 1, 1),
            total_by_priority=(4, 2, 2),
        )

    def test_effect_is_negated_weighted_sum(self):
        assert self._effect().effect == -120.0

    def test_counts(self):
        effect = self._effect()
        assert effect.satisfied_count == 4
        assert effect.total_count == 8

    def test_satisfaction_rates(self):
        effect = self._effect()
        assert effect.satisfaction_rate() == 0.5
        assert effect.satisfaction_rate(0) == 0.5
        assert effect.satisfaction_rate(1) == 0.5

    def test_rate_with_zero_total(self):
        effect = ScheduleEffect(0.0, (0,), (0,))
        assert effect.satisfaction_rate() == 0.0
