"""The cost-criterion building blocks of §4.8: ``Sat``, ``Efp``, ``Urgency``.

Given the latest shortest-path tree for a data item, each *unsatisfied*
request for that item is evaluated against its predicted arrival ``A_T``:

* ``Sat`` — 1 if the predicted arrival meets the deadline, else 0 (and if
  the shortest path misses the deadline, no path makes it);
* ``Efp = Sat * W[Priority]`` — the effective priority;
* ``Urgency = -Sat * (Rft - A_T)`` — minus the slack; larger (closer to
  zero) means more urgent, and unsatisfiable requests contribute 0.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.core.priority import PriorityWeighting
from repro.core.request import Request
from repro.routing.paths import ShortestPathTree

#: Guard against division by zero in ``Cost3`` when slack is exactly zero;
#: one millisecond is far below the model's meaningful time resolution.
URGENCY_EPSILON = 1e-3


class DestinationEvaluation(NamedTuple):
    """The §4.8 terms for one request given the current tree.

    Attributes:
        request: the evaluated (unsatisfied) request.
        arrival: predicted earliest arrival ``A_T`` at the destination
            (``inf`` when unreachable).
        satisfiable: the ``Sat`` indicator.
        effective_priority: ``Efp`` — 0 when unsatisfiable.
        urgency: the (non-positive) urgency term — 0 when unsatisfiable.
    """

    request: Request
    arrival: float
    satisfiable: bool
    effective_priority: float
    urgency: float

    @property
    def slack(self) -> float:
        """``Rft − A_T`` for satisfiable requests, else ``inf``."""
        if not self.satisfiable:
            return float("inf")
        return self.request.deadline - self.arrival

    @property
    def guarded_urgency(self) -> float:
        """Urgency bounded away from zero for the ``Cost3`` ratio."""
        return min(self.urgency, -URGENCY_EPSILON)


def evaluate_destination(
    request: Request,
    tree: ShortestPathTree,
    weighting: PriorityWeighting,
) -> DestinationEvaluation:
    """Compute ``Sat``/``Efp``/``Urgency`` for one request.

    Args:
        request: a request for the tree's data item.
        tree: the item's current shortest-path tree.
        weighting: the scenario's priority weighting ``W``.
    """
    arrival = tree.arrival(request.destination)
    satisfiable = arrival <= request.deadline
    if satisfiable:
        effective_priority = weighting.weight(request.priority)
        urgency = -(request.deadline - arrival)
    else:
        effective_priority = 0.0
        urgency = 0.0
    return DestinationEvaluation(
        request, arrival, satisfiable, effective_priority, urgency
    )


def most_urgent_satisfiable(
    evaluations: Tuple[DestinationEvaluation, ...]
) -> Optional[DestinationEvaluation]:
    """The satisfiable evaluation with the largest urgency (smallest slack).

    Ties break on request id for determinism.  Returns ``None`` when no
    evaluation is satisfiable.
    """
    return sums_and_most_urgent(evaluations)[2]


def sums_and_most_urgent(
    evaluations: Tuple[DestinationEvaluation, ...]
) -> Tuple[float, float, Optional[DestinationEvaluation]]:
    """``ΣEfp``, ``ΣUrgency`` and :func:`most_urgent_satisfiable`, in one
    pass: each sum adds up in evaluation order from the integer 0, as
    ``sum`` does."""
    efp_sum: float = 0
    urgency_sum: float = 0
    best: Optional[DestinationEvaluation] = None
    for evaluation in evaluations:
        efp_sum += evaluation.effective_priority
        urgency_sum += evaluation.urgency
        if evaluation.satisfiable and (
            best is None
            or evaluation.urgency > best.urgency
            or (
                evaluation.urgency == best.urgency
                and evaluation.request.request_id < best.request.request_id
            )
        ):
            best = evaluation
    return efp_sum, urgency_sum, best
