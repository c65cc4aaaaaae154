"""Per-pass tree caches, kept as a differential oracle for carried trees.

A :class:`~repro.dynamic.driver.DynamicDriver` makes each pass's tree
cache with :meth:`~repro.heuristics.base.TreeCache.advanced`, which keeps
the trees of the pass before and carries each one on its first request
at the later "now".  Before trees were carried, ``advanced`` made a cache
with no trees and the same no-candidate marks, so every pass searched
each item it requested again.  :func:`use_reference_advance` restores
that for the duration of a ``with`` block, so the tests can show that
carrying changes no schedule and no record but the search counts.

Within a pass the oracle's cache is the production cache: a fresh cache
starts its replay at the journal's end, and copy losses happen only
between passes, so no release record ever reaches it.

It patches the class attribute, so the switch holds only in this
process: run reference schedules serially and in-process.
"""

from __future__ import annotations

from typing import ContextManager
from unittest import mock

from repro.errors import ConfigurationError
from repro.heuristics.base import TreeCache


def _fresh_each_pass(self: TreeCache, now: float) -> TreeCache:
    """The cache for a later pass at ``now``: no trees, the same marks."""
    if not now >= self.not_before:
        raise ConfigurationError(
            f"cannot advance a tree cache from t={self.not_before} "
            f"to the earlier t={now}"
        )
    cache = type(self)(self._state, self._stats, self.enabled, now)
    cache._marks = dict(self._marks)
    return cache


def use_reference_advance() -> ContextManager[None]:
    """Make every dynamic pass start with a tree cache holding no tree."""
    return mock.patch.object(TreeCache, "advanced", _fresh_each_pass)
