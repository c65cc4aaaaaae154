"""Per-pass tree caches, kept as a differential oracle for carried trees.

A :class:`~repro.dynamic.driver.DynamicDriver` makes each pass's tree
cache with :meth:`~repro.heuristics.base.TreeCache.advanced`, which keeps
the trees of the pass before and carries each one on its first request
at the later "now".  Before trees were carried, ``advanced`` made a cache
with no trees, so every pass searched each item it requested again.
:func:`use_reference_advance` restores that for the duration of a
``with`` block, so the tests can show that carrying changes no schedule
and no record but the search counts.

A pass with a cache of its own cannot keep the payloads of the pass
before (their entries, and the journal records that would drop them, are
gone), so the oracle also gives each drain its own shortlist, with the
no-candidate marks of that time
(:func:`~tests.heuristics.reference_shortlist.use_reference_shortlist`).
Within a pass the oracle's cache is the production cache: a fresh cache
starts its replay at the journal's end, and copy losses happen only
between passes, so no release record ever reaches it.

It patches class attributes, so the switch holds only in this process:
run reference schedules serially and in-process.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.errors import ConfigurationError
from repro.heuristics.base import TreeCache

from tests.heuristics.reference_shortlist import use_reference_shortlist


def _fresh_each_pass(self: TreeCache, now: float) -> TreeCache:
    """The cache for a later pass at ``now``, holding no tree."""
    if not now >= self.not_before:
        raise ConfigurationError(
            f"cannot advance a tree cache from t={self.not_before} "
            f"to the earlier t={now}"
        )
    return type(self)(self._state, self._stats, self.enabled, now)


@contextmanager
def use_reference_advance() -> Iterator[None]:
    """Make every dynamic pass start with a tree cache holding no tree
    and a shortlist of its own."""
    with use_reference_shortlist(), mock.patch.object(
        TreeCache, "advanced", _fresh_each_pass
    ):
        yield
