"""Unit tests for the free-capacity step function ``Cap[i](t)``."""

import pytest

from repro.core.intervals import Interval
from repro.core.timeline import CapacityTimeline
from repro.errors import CapacityError


class TestConstruction:
    def test_initial_capacity_everywhere(self):
        timeline = CapacityTimeline(100.0)
        assert timeline.free_at(-1e9) == 100.0
        assert timeline.free_at(0.0) == 100.0
        assert timeline.free_at(1e9) == 100.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CapacityTimeline(-1.0)

    def test_zero_capacity_allowed(self):
        timeline = CapacityTimeline(0.0)
        assert not timeline.can_reserve(1.0, Interval(0, 1))
        assert timeline.can_reserve(0.0, Interval(0, 1))


class TestReserve:
    def test_reserve_subtracts_over_interval(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(30.0, Interval(10, 20))
        assert timeline.free_at(9.999) == 100.0
        assert timeline.free_at(10.0) == 70.0
        assert timeline.free_at(19.999) == 70.0
        assert timeline.free_at(20.0) == 100.0

    def test_overlapping_reservations_stack(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(30.0, Interval(0, 20))
        timeline.reserve(50.0, Interval(10, 30))
        assert timeline.free_at(5) == 70.0
        assert timeline.free_at(15) == 20.0
        assert timeline.free_at(25) == 50.0

    def test_reserve_beyond_capacity_raises_and_leaves_state(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(80.0, Interval(0, 10))
        with pytest.raises(CapacityError):
            timeline.reserve(30.0, Interval(5, 15))
        # The failed reservation must not have partially applied.
        assert timeline.free_at(7) == 20.0
        assert timeline.free_at(12) == 100.0

    def test_reserve_exactly_full_capacity(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(100.0, Interval(0, 10))
        assert timeline.free_at(5) == 0.0

    def test_reserve_zero_amount_is_noop(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(0.0, Interval(0, 10))
        assert timeline.breakpoints() == ((float("-inf"), 100.0),)

    def test_reserve_empty_interval_is_noop(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(50.0, Interval(5, 5))
        assert timeline.free_at(5) == 100.0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            CapacityTimeline(100.0).reserve(-1.0, Interval(0, 1))


class TestQueries:
    def test_min_free_over_interval(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(30.0, Interval(10, 20))
        timeline.reserve(60.0, Interval(15, 18))
        assert timeline.min_free(Interval(0, 30)) == 10.0
        assert timeline.min_free(Interval(0, 12)) == 70.0
        assert timeline.min_free(Interval(20, 30)) == 100.0

    def test_min_free_half_open_boundary(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(30.0, Interval(10, 20))
        # [0, 10) never sees the reservation; [0, 10.5) does.
        assert timeline.min_free(Interval(0, 10)) == 100.0
        assert timeline.min_free(Interval(0, 10.5)) == 70.0
        # [20, 25) starts exactly when the reservation ends.
        assert timeline.min_free(Interval(20, 25)) == 100.0

    def test_min_free_empty_interval(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(100.0, Interval(0, 10))
        assert timeline.min_free(Interval(5, 5)) == 100.0

    def test_can_reserve(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(70.0, Interval(0, 10))
        assert timeline.can_reserve(30.0, Interval(0, 10))
        assert not timeline.can_reserve(31.0, Interval(0, 10))
        assert timeline.can_reserve(100.0, Interval(10, 20))


class TestRelease:
    def test_release_restores_capacity(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(40.0, Interval(0, 10))
        timeline.release(40.0, Interval(0, 10))
        assert timeline.min_free(Interval(0, 10)) == 100.0

    def test_unmatched_release_rejected(self):
        timeline = CapacityTimeline(100.0)
        with pytest.raises(ValueError):
            timeline.release(1.0, Interval(0, 10))

    def test_partial_release(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(40.0, Interval(0, 20))
        timeline.release(40.0, Interval(10, 20))
        assert timeline.free_at(5) == 60.0
        assert timeline.free_at(15) == 100.0

    def test_a_matched_release_on_a_large_machine_is_accepted(self):
        # Reserving then releasing these rounds 3.8e-6 bytes past the
        # capacity (one unit in the last place at this scale).
        capacity, amount = 18956299369.01491, 60072207.25532341
        assert (capacity - amount) + amount > capacity + 1e-6
        timeline = CapacityTimeline(capacity)
        timeline.reserve(amount, Interval(0, 20))
        timeline.release(amount, Interval(10, 20))
        assert timeline.free_at(15) > capacity
        with pytest.raises(ValueError):
            timeline.release(1.0, Interval(10, 20))


class TestCopy:
    def test_copy_is_independent(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(40.0, Interval(0, 10))
        clone = timeline.copy()
        clone.reserve(60.0, Interval(0, 10))
        assert timeline.free_at(5) == 60.0
        assert clone.free_at(5) == 0.0
        assert clone.capacity == 100.0
