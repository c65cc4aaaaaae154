"""The four cost criteria of §4.8.

A *candidate communication step* moves item ``Rq[i]`` from a copy holder
``M[s]`` to the next machine ``M[r]`` of the current shortest paths; the set
of destinations whose paths run through ``M[r]`` is ``Drq[i,r]``.  Each
criterion maps the destination evaluations of one candidate to a scalar
cost — the heuristics schedule the candidate with the **smallest** cost —
and nominates the *selected destination* used by the full-path/one-
destination heuristic:

* **C1** — per-destination cost ``-W_E·Efp − W_U·Urgency``; the group cost
  is the best (smallest) destination cost, and that destination is selected.
* **C2** — ``-W_E·ΣEfp − W_U·max Urgency`` (the most urgent satisfiable
  destination supplies the urgency term and is selected).
* **C3** — ``Σ Efp/Urgency`` over satisfiable destinations; independent of
  ``W_E``/``W_U`` by construction.  The most urgent destination is selected.
* **C4** — ``-W_E·ΣEfp − W_U·ΣUrgency``; the most urgent destination is
  selected.

Unsatisfiable destinations contribute zero to every sum (their ``Efp`` and
``Urgency`` are zero), matching the paper.
"""

from __future__ import annotations

import abc
from typing import Dict, NamedTuple, Optional, Tuple, Type

from repro.cost.terms import (
    DestinationEvaluation,
    most_urgent_satisfiable,
    sums_and_most_urgent,
)
from repro.cost.weights import EUWeights
from repro.errors import ConfigurationError


class CostResult(NamedTuple):
    """A criterion's verdict on one candidate communication step.

    Attributes:
        cost: the scalar to minimize across candidates.
        selected: the destination the full-path/one-destination heuristic
            should complete, or ``None`` when no destination is satisfiable
            (such candidates are never scheduled).
    """

    cost: float
    selected: Optional[DestinationEvaluation]


#: The verdict on a candidate without a satisfiable destination.
_UNSELECTED = CostResult(float("inf"), None)


class CostCriterion(abc.ABC):
    """Interface shared by the four §4.8 criteria (and user extensions).

    Subclasses are stateless; one instance can serve any number of
    concurrent scheduling runs.
    """

    #: Short identifier used in figures and the registry ("C1".."C4").
    name: str = ""

    #: ``False`` for criteria that cannot express multi-destination value;
    #: the full-path/all-destinations heuristic refuses such criteria
    #: (the paper excludes C1 from full_all for exactly this reason).
    supports_all_destinations: bool = True

    #: ``True`` when the cost is unaffected by ``W_E``/``W_U`` (C3); sweep
    #: drivers use this to evaluate the criterion once instead of per ratio.
    eu_independent: bool = False

    @abc.abstractmethod
    def evaluate(
        self,
        evaluations: Tuple[DestinationEvaluation, ...],
        weights: EUWeights,
    ) -> CostResult:
        """Score one candidate step given its ``Drq`` destination terms."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Cost1(CostCriterion):
    """Per-destination cost; the best destination prices the candidate."""

    name = "C1"
    supports_all_destinations = False

    def evaluate(
        self,
        evaluations: Tuple[DestinationEvaluation, ...],
        weights: EUWeights,
    ) -> CostResult:
        """Best per-destination ``-W_E·Efp − W_U·Urgency`` in the group."""
        best_cost = float("inf")
        best: Optional[DestinationEvaluation] = None
        for evaluation in evaluations:
            if not evaluation.satisfiable:
                continue
            cost = (
                -weights.effective * evaluation.effective_priority
                - weights.urgency * evaluation.urgency
            )
            if cost < best_cost or (
                cost == best_cost
                and best is not None
                and evaluation.request.request_id < best.request.request_id
            ):
                best_cost = cost
                best = evaluation
        if best is None:
            return _UNSELECTED
        return CostResult(best_cost, best)


class Cost2(CostCriterion):
    """Sum of effective priorities, urgency of the most urgent destination."""

    name = "C2"

    def evaluate(
        self,
        evaluations: Tuple[DestinationEvaluation, ...],
        weights: EUWeights,
    ) -> CostResult:
        """``-W_E·ΣEfp − W_U·(most urgent satisfiable urgency)``."""
        efp_sum, __, most_urgent = sums_and_most_urgent(evaluations)
        if most_urgent is None:
            return _UNSELECTED
        cost = (
            -weights.effective * efp_sum
            - weights.urgency * most_urgent.urgency
        )
        return CostResult(cost, most_urgent)


class Cost3(CostCriterion):
    """Priority-to-urgency ratio, summed over satisfiable destinations.

    Independent of the E-U weights: scaling ``Efp`` by ``W_E`` and
    ``Urgency`` by ``W_U`` multiplies every candidate's cost by the same
    ``W_E/W_U``, leaving the ranking unchanged (§4.8).
    """

    name = "C3"
    eu_independent = True

    def evaluate(
        self,
        evaluations: Tuple[DestinationEvaluation, ...],
        weights: EUWeights,
    ) -> CostResult:
        """``Σ Efp/Urgency`` over satisfiable destinations (weights-free)."""
        most_urgent = most_urgent_satisfiable(evaluations)
        if most_urgent is None:
            return _UNSELECTED
        cost = sum(
            e.effective_priority / e.guarded_urgency
            for e in evaluations
            if e.satisfiable
        )
        return CostResult(cost=cost, selected=most_urgent)


class Cost4(CostCriterion):
    """Sum of effective priorities and sum of urgencies (the paper's best)."""

    name = "C4"

    def evaluate(
        self,
        evaluations: Tuple[DestinationEvaluation, ...],
        weights: EUWeights,
    ) -> CostResult:
        """``-W_E·ΣEfp − W_U·ΣUrgency`` over the whole group."""
        efp_sum, urgency_sum, most_urgent = sums_and_most_urgent(
            evaluations
        )
        if most_urgent is None:
            return _UNSELECTED
        cost = (
            -weights.effective * efp_sum - weights.urgency * urgency_sum
        )
        return CostResult(cost, most_urgent)


_CRITERIA: Dict[str, Type[CostCriterion]] = {
    cls.name: cls for cls in (Cost1, Cost2, Cost3, Cost4)
}


def criterion_names() -> Tuple[str, ...]:
    """The registered criterion names, C1 first."""
    return tuple(sorted(_CRITERIA))


def get_criterion(name: str) -> CostCriterion:
    """Instantiate a criterion by registry name (case-insensitive).

    Raises:
        ConfigurationError: for unknown names.
    """
    key = name.upper()
    if key not in _CRITERIA:
        raise ConfigurationError(
            f"unknown cost criterion {name!r}; known: {criterion_names()}"
        )
    return _CRITERIA[key]()


def register_criterion(cls: Type[CostCriterion]) -> Type[CostCriterion]:
    """Register a user-defined criterion class (usable as a decorator).

    The class must define a unique, non-empty ``name``.

    Raises:
        ConfigurationError: on a missing or duplicate name.
    """
    if not cls.name:
        raise ConfigurationError("cost criteria need a non-empty name")
    key = cls.name.upper()
    if key in _CRITERIA:
        raise ConfigurationError(
            f"cost criterion {cls.name!r} is already registered"
        )
    _CRITERIA[key] = cls
    return cls
