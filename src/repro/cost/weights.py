"""The relative weights ``W_E`` and ``W_U`` of §4.8 and the E-U ratio.

The paper's figures sweep ``log10(W_E / W_U)`` from −3 to 5 plus the two
extremes: ``+inf`` (only the effective-priority term counts) and ``−inf``
(only the urgency term counts).  :class:`EUWeights` realizes each point of
that sweep as a concrete weight pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

from repro.errors import ConfigurationError

#: The E-U grid of the paper's figures: −inf, −3..5, +inf.
PAPER_LOG_RATIOS: Tuple[float, ...] = (
    float("-inf"),
    -3.0,
    -2.0,
    -1.0,
    0.0,
    1.0,
    2.0,
    3.0,
    4.0,
    5.0,
    float("inf"),
)


@dataclass(frozen=True)
class EUWeights:
    """The pair ``(W_E, W_U)`` weighting effective priority vs urgency.

    Attributes:
        effective: ``W_E`` — weight of the effective-priority term.
        urgency: ``W_U`` — weight of the urgency term.
    """

    effective: float
    urgency: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.effective) and math.isfinite(self.urgency)):
            raise ConfigurationError(
                f"E-U weights must be finite numbers, got "
                f"({self.effective}, {self.urgency})"
            )
        if self.effective < 0 or self.urgency < 0:
            raise ConfigurationError(
                f"E-U weights must be non-negative, got "
                f"({self.effective}, {self.urgency})"
            )
        if self.effective == 0 and self.urgency == 0:
            raise ConfigurationError("at least one E-U weight must be positive")

    @classmethod
    def from_log_ratio(cls, log10_ratio: float) -> "EUWeights":
        """Realize one point of the paper's E-U sweep.

        ``+inf`` maps to ``(1, 0)`` (priority only), ``−inf`` to ``(0, 1)``
        (urgency only); a finite ``x`` maps to ``(10**x, 1)``.

        Raises:
            ConfigurationError: for a NaN ratio, or one whose ``10**x``
                overflows a float.
        """
        if math.isnan(log10_ratio):
            raise ConfigurationError("the E-U log10 ratio must not be NaN")
        if math.isinf(log10_ratio):
            if log10_ratio > 0:
                return cls(effective=1.0, urgency=0.0)
            return cls(effective=0.0, urgency=1.0)
        try:
            effective = 10.0 ** log10_ratio
        except OverflowError:
            raise ConfigurationError(
                f"the E-U log10 ratio {log10_ratio} is too large: "
                f"10**{log10_ratio} overflows"
            ) from None
        return cls(effective=effective, urgency=1.0)

    @property
    def log_ratio(self) -> float:
        """``log10(W_E / W_U)`` (``±inf`` when one weight is zero)."""
        if self.urgency == 0:
            return float("inf")
        if self.effective == 0:
            return float("-inf")
        ratio = self.effective / self.urgency
        if ratio == 0 or math.isinf(ratio):
            # The quotient left the float range; the logarithms do not.
            return math.log10(self.effective) - math.log10(self.urgency)
        return math.log10(ratio)

    def label(self) -> str:
        """Axis label used in the figures (``-inf``, ``-3`` .. ``5``, ``inf``)."""
        ratio = self.log_ratio
        if math.isinf(ratio):
            return "inf" if ratio > 0 else "-inf"
        if ratio == int(ratio):
            return str(int(ratio))
        return f"{ratio:g}"

    def __str__(self) -> str:
        return f"EU(log10={self.label()})"


def paper_sweep() -> Tuple[EUWeights, ...]:
    """The full E-U grid used by Figures 2–5."""
    return tuple(EUWeights.from_log_ratio(x) for x in PAPER_LOG_RATIOS)


def as_weights(value: Union[float, EUWeights]) -> EUWeights:
    """Coerce a raw ``log10`` ratio or an :class:`EUWeights` to weights."""
    if isinstance(value, EUWeights):
        return value
    return EUWeights.from_log_ratio(float(value))
