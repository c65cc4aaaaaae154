"""Name-based construction of heuristic/criterion pairs.

The simulation study refers to schedulers as ``"partial/C4"`` etc.; this
module maps those names to configured :class:`StagingHeuristic` instances
and enumerates the eleven valid pairings of the paper (twelve combinations
minus ``full_all/C1``, which the paper excludes by design).
"""

from __future__ import annotations

from typing import Dict, Tuple, Type, Union

from repro.cost.criteria import CostCriterion, get_criterion
from repro.cost.weights import EUWeights, as_weights
from repro.errors import ConfigurationError
from repro.heuristics.base import StagingHeuristic
from repro.heuristics.full_path_all import FullPathAllDestinationsHeuristic
from repro.heuristics.full_path_one import FullPathOneDestinationHeuristic
from repro.heuristics.partial_path import PartialPathHeuristic

_HEURISTICS: Dict[str, Type[StagingHeuristic]] = {
    cls.name: cls
    for cls in (
        PartialPathHeuristic,
        FullPathOneDestinationHeuristic,
        FullPathAllDestinationsHeuristic,
    )
}


def heuristic_names() -> Tuple[str, ...]:
    """The registered heuristic names, in the paper's presentation order."""
    return ("partial", "full_one", "full_all")


def make_heuristic(
    heuristic: str,
    criterion: Union[str, CostCriterion] = "C4",
    weights: Union[float, EUWeights] = 0.0,
    use_tree_cache: bool = True,
) -> StagingHeuristic:
    """Build a configured heuristic by name.

    Args:
        heuristic: ``"partial"``, ``"full_one"``, or ``"full_all"``.
        criterion: a criterion name (``"C1"``..``"C4"``) or instance.
        weights: an :class:`EUWeights` pair or a raw ``log10(W_E/W_U)``.
        use_tree_cache: forwarded to the heuristic (see
            :class:`~repro.heuristics.base.StagingHeuristic`).

    Raises:
        ConfigurationError: for unknown names or invalid pairings
            (``full_all`` with ``C1``).
    """
    key = heuristic.lower()
    if key not in _HEURISTICS:
        raise ConfigurationError(
            f"unknown heuristic {heuristic!r}; known: {heuristic_names()}"
        )
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)
    return _HEURISTICS[key](
        criterion=criterion,
        weights=as_weights(weights),
        use_tree_cache=use_tree_cache,
    )


def paper_pairings() -> Tuple[Tuple[str, str], ...]:
    """The eleven heuristic/criterion pairs evaluated in the paper.

    The criterion set is fixed to the paper's C1–C4 (user-registered
    criteria are deliberately not included), and ``full_all``/``C1`` is
    excluded: C1 cannot express multi-destination value (§4.8/§5.4).
    """
    pairs = []
    for heuristic in heuristic_names():
        for criterion in ("C1", "C2", "C3", "C4"):
            if heuristic == "full_all" and criterion == "C1":
                continue
            pairs.append((heuristic, criterion))
    return tuple(pairs)
