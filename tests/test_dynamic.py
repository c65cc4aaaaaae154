"""Tests for the dynamic (event-driven) scheduling extension."""

import re

import pytest

from repro.core.state import NetworkState
from repro.dynamic.driver import DynamicDriver, reveal_at_item_start
from repro.dynamic.events import (
    CopyLoss,
    LinkOutage,
    RequestArrival,
    RequestCancellation,
    sorted_events,
)
from repro.errors import InfeasibleTransferError, ModelError, SchedulingError
from repro.heuristics.registry import make_heuristic
from repro.core.evaluation import evaluate_schedule

from tests.helpers import line_network, make_item, make_scenario


def _line_scenario(deadline=100.0, gc_delay=50.0):
    return make_scenario(
        line_network(3),
        [make_item(0, 1000.0, [(0, 0.0)])],
        [(0, 2, 2, deadline)],
        gc_delay=gc_delay,
        horizon=1000.0,
    )


class TestEvents:
    def test_sorted_events_orders_by_time_arrivals_first(self):
        events = [
            CopyLoss(time=5.0, item_id=0, machine=1),
            RequestArrival(time=5.0, request_id=0),
            RequestArrival(time=1.0, request_id=1),
        ]
        ordered = sorted_events(events)
        assert isinstance(ordered[0], RequestArrival)
        assert ordered[0].time == 1.0
        assert isinstance(ordered[1], RequestArrival)  # arrival before loss
        assert isinstance(ordered[2], CopyLoss)

    def test_negative_times_rejected(self):
        with pytest.raises(ModelError):
            RequestArrival(time=-1.0, request_id=0)
        with pytest.raises(ModelError):
            CopyLoss(time=-1.0, item_id=0, machine=0)

    @pytest.mark.parametrize(
        "make_event",
        [
            lambda time: RequestArrival(time=time, request_id=0),
            lambda time: CopyLoss(time=time, item_id=0, machine=0),
            lambda time: LinkOutage(time=time, physical_id=0),
            lambda time: RequestCancellation(time=time, request_id=0),
        ],
        ids=["arrival", "loss", "outage", "cancellation"],
    )
    def test_nan_time_rejected(self, make_event):
        """A NaN instant never compares equal to itself, so a driver fed
        one would run passes at ``now=nan`` forever."""
        with pytest.raises(ModelError):
            make_event(float("nan"))


class TestStateSurgery:
    def test_remove_copy_releases_storage(self):
        scenario = _line_scenario()
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        state.book_transfer(state.earliest_transfer(0, link, 0.0))
        timeline = state.machine_timeline(1)
        assert timeline.free_at(10.0) == 1_000_000.0 - 1000.0
        state.remove_copy(0, 1, at_time=10.0)
        assert not state.holds(0, 1)
        assert timeline.free_at(10.0) == 1_000_000.0
        assert timeline.free_at(5.0) == 1_000_000.0 - 1000.0  # past kept

    def test_remove_copy_of_source_keeps_capacity(self):
        scenario = _line_scenario()
        state = NetworkState(scenario)
        state.remove_copy(0, 0, at_time=10.0)
        assert not state.holds(0, 0)
        assert state.machine_timeline(0).free_at(10.0) == 1_000_000.0

    def test_remove_missing_copy_rejected(self):
        state = NetworkState(_line_scenario())
        with pytest.raises(InfeasibleTransferError):
            state.remove_copy(0, 1, at_time=10.0)

    def test_remove_outside_residency_rejected(self):
        scenario = _line_scenario()
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        state.book_transfer(state.earliest_transfer(0, link, 0.0))
        with pytest.raises(InfeasibleTransferError):
            state.remove_copy(0, 1, at_time=0.5)  # before arrival at 1.0

    def test_reopen_request(self):
        scenario = _line_scenario()
        state = NetworkState(scenario)
        network = scenario.network
        state.book_transfer(state.earliest_transfer(0, network.link(0), 0.0))
        state.book_transfer(state.earliest_transfer(0, network.link(1), 1.0))
        assert state.is_satisfied(0)
        revision = state.item_revision(0)
        state.reopen_request(0)
        assert not state.is_satisfied(0)
        assert state.schedule.delivery(0) is None
        assert state.item_revision(0) > revision

    def test_reopen_unsatisfied_rejected(self):
        state = NetworkState(_line_scenario())
        with pytest.raises(SchedulingError):
            state.reopen_request(0)


class TestDynamicDriver:
    def test_no_events_matches_static(self, tiny_scenarios):
        for scenario in tiny_scenarios[:3]:
            static = make_heuristic("partial", "C4", 2.0).run(scenario)
            dynamic = DynamicDriver("partial", "C4", 2.0).run(scenario, ())
            static_ws = evaluate_schedule(
                scenario, static.schedule
            ).weighted_sum
            assert dynamic.effect.weighted_sum == static_ws

    def test_late_reveal_cannot_beat_full_foresight(self, tiny_scenarios):
        for scenario in tiny_scenarios[:3]:
            driver = DynamicDriver("partial", "C4", 2.0)
            clairvoyant = driver.run(scenario, ())
            revealed_late = driver.run(
                scenario, reveal_at_item_start(scenario)
            )
            assert (
                revealed_late.effect.weighted_sum
                <= clairvoyant.effect.weighted_sum + 1e-9
            )

    def test_transfers_start_at_or_after_reveal(self):
        scenario = _line_scenario(deadline=200.0)
        driver = DynamicDriver("partial", "C4", 2.0)
        result = driver.run(
            scenario, [RequestArrival(time=50.0, request_id=0)]
        )
        assert result.effect.satisfied_count == 1
        for step in result.schedule.steps:
            assert step.start >= 50.0

    def test_reveal_after_deadline_unsatisfiable(self):
        scenario = _line_scenario(deadline=100.0)
        driver = DynamicDriver("partial", "C4", 2.0)
        result = driver.run(
            scenario, [RequestArrival(time=150.0, request_id=0)]
        )
        assert result.effect.satisfied_count == 0
        assert result.schedule.step_count == 0

    def test_destination_loss_reopens_and_recovers(self):
        # Deliver by t=2; lose the destination copy at t=10; the source
        # still holds the item so a re-delivery must happen.
        scenario = _line_scenario(deadline=100.0)
        driver = DynamicDriver("partial", "C4", 2.0)
        result = driver.run(
            scenario, [CopyLoss(time=10.0, item_id=0, machine=2)]
        )
        assert result.effect.satisfied_count == 1
        loss_pass = result.outcomes[-1]
        assert loss_pass.losses == ((0, 2),)
        assert loss_pass.reopened == (0,)
        assert loss_pass.hops_booked > 0
        delivery = result.schedule.delivery(0)
        assert delivery.arrival > 10.0

    def test_gc_held_intermediate_serves_recovery(self):
        # Lose the destination copy; the intermediate at machine 1 still
        # holds the item (γ window), so recovery needs only one hop.
        scenario = _line_scenario(deadline=100.0, gc_delay=500.0)
        driver = DynamicDriver("partial", "C4", 2.0)
        result = driver.run(
            scenario, [CopyLoss(time=10.0, item_id=0, machine=2)]
        )
        assert result.effect.satisfied_count == 1
        recovery_steps = [
            step for step in result.schedule.steps if step.start >= 10.0
        ]
        assert len(recovery_steps) == 1
        assert recovery_steps[0].source == 1  # served from the intermediate

    def test_loss_of_never_held_copy_is_noop(self):
        scenario = _line_scenario()
        driver = DynamicDriver("partial", "C4", 2.0)
        result = driver.run(
            scenario, [CopyLoss(time=0.5, item_id=0, machine=1)]
        )
        assert result.effect.satisfied_count == 1
        assert result.outcomes[-1].reopened == ()

    def test_duplicate_arrival_rejected(self):
        scenario = _line_scenario()
        driver = DynamicDriver()
        with pytest.raises(ModelError):
            driver.run(
                scenario,
                [
                    RequestArrival(time=1.0, request_id=0),
                    RequestArrival(time=2.0, request_id=0),
                ],
            )

    def test_unknown_request_rejected(self):
        scenario = _line_scenario()
        with pytest.raises(ModelError):
            DynamicDriver().run(
                scenario, [RequestArrival(time=1.0, request_id=99)]
            )

    @pytest.mark.parametrize(
        "machine",
        [
            pytest.param(-1, id="negative"),
            pytest.param(3, id="past-the-last"),
            pytest.param(True, id="bool"),
            pytest.param(1.0, id="float"),
        ],
    )
    def test_loss_at_an_unknown_machine_rejected(self, machine):
        scenario = _line_scenario()
        loss = CopyLoss(time=5.0, item_id=0, machine=machine)
        with pytest.raises(ModelError, match=re.escape(repr(loss))):
            DynamicDriver().run(scenario, [loss])

    def test_label(self):
        assert DynamicDriver("full_one", "C2").label() == (
            "dynamic(full_one/C2)"
        )

    def test_lossless_dynamic_schedules_pass_static_validation(
        self, tiny_scenarios
    ):
        # Without loss events no delivery is ever retracted, so the static
        # replay validator applies in full.
        from repro.core.validation import ScheduleValidator

        for scenario in tiny_scenarios[:3]:
            result = DynamicDriver("partial", "C4", 2.0).run(
                scenario, reveal_at_item_start(scenario)
            )
            ScheduleValidator(scenario).validate(result.schedule)

    def test_reveal_at_item_start_times(self, tiny_scenarios):
        scenario = tiny_scenarios[0]
        events = reveal_at_item_start(scenario)
        assert len(events) == scenario.request_count
        for event in events:
            request = scenario.request(event.request_id)
            item = scenario.item(request.item_id)
            assert event.time == item.earliest_availability()
