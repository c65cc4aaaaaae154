"""TimingStat empty-stat semantics and merge laws (satellite tests).

Emptiness is explicit: ``count == 0`` marks an empty stat, whose 0.0
``min``/``max`` placeholders are written to the JSON form but never read
as an observation.  ``merged()`` is locked down as an associative,
commutative fold with the empty stat as identity.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import TimingStat
from repro.serialization import document_from_dict, document_to_dict

# Integer-valued floats: exactly representable, and their sums are exact
# in float64, so merge-vs-concatenation equality is exact rather than
# hostage to addition order.
_values = st.integers(min_value=-(10**6), max_value=10**6).map(float)
_value_lists = st.lists(_values, max_size=20)


def _round_trip(stat):
    return document_from_dict(TimingStat, document_to_dict(stat))


def _stat(values):
    stat = TimingStat()
    for value in values:
        stat.note(value)
    return stat


class TestEmptySemantics:
    def test_empty_round_trip_is_canonical(self):
        assert _round_trip(TimingStat()) == TimingStat()

    def test_real_zero_observation_survives_the_round_trip(self):
        # The case the sentinel used to shadow: an actual 0.0 sample.
        stat = _stat([0.0])
        document = document_to_dict(stat)
        assert document == {"count": 1, "total": 0.0, "min": 0.0, "max": 0.0}
        assert document_from_dict(TimingStat, document) == stat

    @given(values=_value_lists)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_lossless(self, values):
        stat = _stat(values)
        assert _round_trip(stat) == stat

    @given(values=_value_lists)
    @settings(max_examples=100, deadline=None)
    def test_count_alone_marks_an_empty_stat(self, values):
        document = document_to_dict(_stat(values))
        assert set(document) == {"count", "total", "min", "max"}
        assert (document["count"] > 0) == bool(values)


class TestMergeLaws:
    @given(left=_value_lists, right=_value_lists)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_concatenation(self, left, right):
        assert _stat(left).merged(_stat(right)) == _stat(left + right)

    @given(left=_value_lists, right=_value_lists)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_commutative(self, left, right):
        assert _stat(left).merged(_stat(right)) == (
            _stat(right).merged(_stat(left))
        )

    @given(a=_value_lists, b=_value_lists, c=_value_lists)
    @settings(max_examples=50, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        stat_a, stat_b, stat_c = _stat(a), _stat(b), _stat(c)
        assert stat_a.merged(stat_b).merged(stat_c) == (
            stat_a.merged(stat_b.merged(stat_c))
        )

    @given(values=_value_lists)
    @settings(max_examples=100, deadline=None)
    def test_empty_is_the_identity(self, values):
        stat = _stat(values)
        assert stat.merged(TimingStat()) == stat
        assert TimingStat().merged(stat) == stat

    @given(values=_value_lists)
    @settings(max_examples=100, deadline=None)
    def test_merged_never_aliases_its_inputs(self, values):
        stat = _stat(values)
        merged = stat.merged(TimingStat())
        merged.note(123.0)
        assert merged != stat or not values
        assert stat == _stat(values)
