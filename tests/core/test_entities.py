"""Unit tests for machines, links, data items, requests, and priorities."""

import pytest

from repro.core.data import DataItem, SourceLocation
from repro.core.intervals import Interval
from repro.core.link import PhysicalLink, VirtualLink
from repro.core.machine import Machine
from repro.core.priority import (
    Priority,
    PriorityWeighting,
    WEIGHTING_1_5_10,
    WEIGHTING_1_10_100,
)
from repro.core.request import Request
from repro.errors import ModelError


class TestMachine:
    def test_default_name(self):
        assert Machine(index=3, capacity=100.0).name == "M[3]"

    def test_explicit_name(self):
        assert Machine(index=0, capacity=1.0, name="hq").name == "hq"

    def test_negative_index_rejected(self):
        with pytest.raises(ModelError):
            Machine(index=-1, capacity=100.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ModelError):
            Machine(index=0, capacity=-1.0)


class TestVirtualLink:
    def _link(self, **overrides):
        kwargs = dict(
            link_id=0,
            source=0,
            destination=1,
            start=0.0,
            end=100.0,
            bandwidth=1000.0,
            latency=0.5,
        )
        kwargs.update(overrides)
        return VirtualLink(**kwargs)

    def test_window(self):
        assert self._link().window == Interval(0.0, 100.0)

    def test_transfer_seconds_includes_latency(self):
        assert self._link().transfer_seconds(2000.0) == 2.5

    def test_can_ever_carry(self):
        link = self._link()
        assert link.can_ever_carry(99_000.0)
        assert not link.can_ever_carry(100_000.0)  # 100.5s > 100s window

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            self._link(destination=0)

    def test_empty_window_rejected(self):
        with pytest.raises(ModelError):
            self._link(end=0.0)

    def test_non_positive_bandwidth_rejected(self):
        with pytest.raises(ModelError):
            self._link(bandwidth=0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ModelError):
            self._link(latency=-0.1)


class TestPhysicalLink:
    def test_virtual_links_one_per_window(self):
        plink = PhysicalLink(
            physical_id=7,
            source=0,
            destination=1,
            bandwidth=500.0,
            latency=0.1,
            windows=(Interval(0, 10), Interval(20, 30)),
        )
        vlinks = plink.virtual_links(first_link_id=40)
        assert [v.link_id for v in vlinks] == [40, 41]
        assert all(v.physical_id == 7 for v in vlinks)
        assert all(v.bandwidth == 500.0 for v in vlinks)
        assert vlinks[0].window == Interval(0, 10)
        assert vlinks[1].window == Interval(20, 30)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ModelError):
            PhysicalLink(
                physical_id=0,
                source=0,
                destination=1,
                bandwidth=1.0,
                latency=0.0,
                windows=(Interval(0, 10), Interval(5, 15)),
            )

    def test_unsorted_windows_rejected(self):
        with pytest.raises(ModelError):
            PhysicalLink(
                physical_id=0,
                source=0,
                destination=1,
                bandwidth=1.0,
                latency=0.0,
                windows=(Interval(20, 30), Interval(0, 10)),
            )

    @pytest.mark.parametrize(
        "windows",
        [
            (Interval(-5, -1),),
            (Interval(-5, 10),),
            (Interval(-5, 0), Interval(10, 20)),
        ],
    )
    def test_windows_before_time_zero_rejected(self, windows):
        with pytest.raises(ModelError, match="before time 0"):
            PhysicalLink(
                physical_id=0,
                source=0,
                destination=1,
                bandwidth=1.0,
                latency=0.0,
                windows=windows,
            )

    def test_adjacent_windows_allowed(self):
        plink = PhysicalLink(
            physical_id=0,
            source=0,
            destination=1,
            bandwidth=1.0,
            latency=0.0,
            windows=(Interval(0, 10), Interval(10, 20)),
        )
        assert len(plink.windows) == 2


class TestDataItem:
    def test_source_machines(self):
        item = DataItem(
            item_id=0,
            name="maps",
            size=100.0,
            sources=(SourceLocation(2, 5.0), SourceLocation(4, 0.0)),
        )
        assert item.source_machines == (2, 4)
        assert item.earliest_availability() == 0.0

    def test_no_sources_rejected(self):
        with pytest.raises(ModelError):
            DataItem(item_id=0, name="x", size=1.0, sources=())

    def test_duplicate_source_machine_rejected(self):
        with pytest.raises(ModelError):
            DataItem(
                item_id=0,
                name="x",
                size=1.0,
                sources=(SourceLocation(1, 0.0), SourceLocation(1, 2.0)),
            )

    def test_non_positive_size_rejected(self):
        with pytest.raises(ModelError):
            DataItem(
                item_id=0, name="x", size=0.0, sources=(SourceLocation(0),)
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            DataItem(
                item_id=0, name="", size=1.0, sources=(SourceLocation(0),)
            )


class TestRequest:
    def test_satisfied_by_arrival_at_deadline(self):
        request = Request(
            request_id=0, item_id=0, destination=1, priority=2, deadline=50.0
        )
        assert request.is_satisfied_by_arrival(50.0)
        assert request.is_satisfied_by_arrival(49.9)
        assert not request.is_satisfied_by_arrival(50.1)

    def test_negative_fields_rejected(self):
        with pytest.raises(ModelError):
            Request(-1, 0, 0, 0, 1.0)
        with pytest.raises(ModelError):
            Request(0, -1, 0, 0, 1.0)
        with pytest.raises(ModelError):
            Request(0, 0, -1, 0, 1.0)
        with pytest.raises(ModelError):
            Request(0, 0, 0, -1, 1.0)
        with pytest.raises(ModelError):
            Request(0, 0, 0, 0, -1.0)


class TestPriorityWeighting:
    def test_paper_weightings(self):
        assert WEIGHTING_1_5_10.weights == (1.0, 5.0, 10.0)
        assert WEIGHTING_1_10_100.weights == (1.0, 10.0, 100.0)
        assert WEIGHTING_1_10_100.name == "1-10-100"

    def test_weight_lookup(self):
        assert WEIGHTING_1_10_100.weight(Priority.HIGH) == 100.0
        assert WEIGHTING_1_10_100.weight(0) == 1.0

    def test_out_of_range_priority_rejected(self):
        with pytest.raises(ModelError):
            WEIGHTING_1_10_100.weight(3)
        with pytest.raises(ModelError):
            WEIGHTING_1_10_100.weight(-1)

    def test_decreasing_weights_rejected(self):
        with pytest.raises(ModelError):
            PriorityWeighting((10, 5, 1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ModelError):
            PriorityWeighting((-1, 5))

    def test_empty_weighting_rejected(self):
        with pytest.raises(ModelError):
            PriorityWeighting(())

    def test_highest_priority(self):
        assert WEIGHTING_1_10_100.highest_priority == 2
        assert PriorityWeighting((1,)).highest_priority == 0

    def test_default_name_from_weights(self):
        assert PriorityWeighting((1, 2, 4)).name == "1-2-4"

    def test_priority_enum_values(self):
        assert Priority.LOW == 0
        assert Priority.MEDIUM == 1
        assert Priority.HIGH == 2


_NAN = float("nan")


@pytest.mark.parametrize(
    "field, build",
    [
        ("deadline", lambda: Request(0, 0, 1, 0, _NAN)),
        ("available_from", lambda: SourceLocation(0, _NAN)),
        (
            "size",
            lambda: DataItem(0, "x", _NAN, (SourceLocation(0, 0.0),)),
        ),
        ("capacity", lambda: Machine(index=0, capacity=_NAN)),
        (
            "bandwidth",
            lambda: PhysicalLink(
                physical_id=0, source=0, destination=1,
                bandwidth=_NAN, latency=0.0,
            ),
        ),
        (
            "latency",
            lambda: PhysicalLink(
                physical_id=0, source=0, destination=1,
                bandwidth=1.0, latency=_NAN,
            ),
        ),
        (
            "bandwidth",
            lambda: VirtualLink(
                link_id=0, source=0, destination=1,
                start=0.0, end=1.0, bandwidth=_NAN,
            ),
        ),
        (
            "latency",
            lambda: VirtualLink(
                link_id=0, source=0, destination=1,
                start=0.0, end=1.0, bandwidth=1.0, latency=_NAN,
            ),
        ),
        ("weights", lambda: PriorityWeighting((1.0, _NAN))),
    ],
)
def test_nan_is_rejected_naming_the_field(field, build):
    """``x < 0`` is False for NaN, so each check is written ``not x >= 0``
    (or ``not x > 0``) and a NaN fails it."""
    with pytest.raises(ModelError, match=field):
        build()
