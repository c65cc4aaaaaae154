"""Unit tests for E-U weights and the paper's ratio grid."""

import math

import pytest

from repro.cost.weights import (
    PAPER_LOG_RATIOS,
    EUWeights,
    as_weights,
    paper_sweep,
)
from repro.errors import ConfigurationError
from repro.heuristics.registry import make_heuristic


class TestEUWeights:
    def test_finite_ratio(self):
        weights = EUWeights.from_log_ratio(2.0)
        assert weights.effective == 100.0
        assert weights.urgency == 1.0
        assert weights.log_ratio == 2.0

    def test_negative_ratio(self):
        weights = EUWeights.from_log_ratio(-3.0)
        assert weights.effective == pytest.approx(1e-3)
        assert weights.log_ratio == pytest.approx(-3.0)

    def test_positive_infinity_is_priority_only(self):
        weights = EUWeights.from_log_ratio(float("inf"))
        assert weights == EUWeights(1.0, 0.0)
        assert weights.log_ratio == float("inf")
        assert weights.label() == "inf"

    def test_negative_infinity_is_urgency_only(self):
        weights = EUWeights.from_log_ratio(float("-inf"))
        assert weights == EUWeights(0.0, 1.0)
        assert weights.log_ratio == float("-inf")
        assert weights.label() == "-inf"

    def test_labels_are_integers_when_possible(self):
        assert EUWeights.from_log_ratio(3.0).label() == "3"
        assert EUWeights.from_log_ratio(-2.0).label() == "-2"
        assert EUWeights(math.sqrt(10), 1.0).label() == "0.5"

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            EUWeights(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            EUWeights(1.0, -1.0)

    def test_both_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            EUWeights(0.0, 0.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EUWeights(math.nan, 1.0),
            lambda: EUWeights(1.0, math.nan),
            lambda: EUWeights(math.inf, 1.0),
            lambda: EUWeights(1.0, math.inf),
            lambda: EUWeights.from_log_ratio(math.nan),
            lambda: EUWeights.from_log_ratio(400.0),
            lambda: as_weights(math.nan),
            lambda: make_heuristic("partial", "C4", math.nan),
        ],
        ids=[
            "nan-effective",
            "nan-urgency",
            "inf-effective",
            "inf-urgency",
            "nan-ratio",
            "overflowing-ratio",
            "nan-coerced",
            "nan-heuristic",
        ],
    )
    def test_non_finite_weights_and_ratios_rejected(self, build):
        """An infinite weight would be labelled like ``(1, 0)`` yet rank
        differently, so the run cache keyed by the label would mix them."""
        with pytest.raises(ConfigurationError):
            build()

    def test_extreme_finite_weights_keep_a_finite_label(self):
        assert EUWeights(1e308, 1e-308).label() == "616"
        assert EUWeights(1e-308, 1e308).label() == "-616"


class TestGrid:
    def test_paper_grid_shape(self):
        assert PAPER_LOG_RATIOS[0] == float("-inf")
        assert PAPER_LOG_RATIOS[-1] == float("inf")
        assert PAPER_LOG_RATIOS[1:-1] == (-3, -2, -1, 0, 1, 2, 3, 4, 5)

    def test_paper_sweep_realizes_grid(self):
        sweep = paper_sweep()
        assert len(sweep) == len(PAPER_LOG_RATIOS)
        assert [w.label() for w in sweep] == [
            "-inf", "-3", "-2", "-1", "0", "1", "2", "3", "4", "5", "inf",
        ]

    def test_as_weights_coercion(self):
        assert as_weights(2.0) == EUWeights.from_log_ratio(2.0)
        existing = EUWeights(5.0, 2.0)
        assert as_weights(existing) is existing
