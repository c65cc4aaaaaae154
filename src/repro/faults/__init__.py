"""Deterministic fault injection (outages, degradation, request churn).

See :mod:`repro.faults.plan` for the model and ``docs/FAULTS.md`` for the
fault taxonomy, determinism rules, and CLI examples.
"""

from repro.faults.context import current_faults, use_faults
from repro.faults.plan import (
    BandwidthDegradation,
    CancellationFault,
    FaultPlan,
    LateArrivalFault,
    OutageWindow,
)

__all__ = [
    "BandwidthDegradation",
    "CancellationFault",
    "FaultPlan",
    "LateArrivalFault",
    "OutageWindow",
    "current_faults",
    "use_faults",
]
