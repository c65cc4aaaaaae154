"""Aggregated scheduler metrics: the collector and its serializable output.

:class:`MetricsCollector` is a :class:`~repro.observability.tracer.Tracer`
that folds every event into counters, reason tallies, per-link busy time,
and timing summaries — no per-event allocation.  :meth:`finalize` snapshots
the aggregate into a :class:`RunMetrics`, which merges associatively
(per-cell metrics from parallel workers combine into sweep totals) and
round-trips through :func:`repro.serialization.document_to_dict` /
:func:`~repro.serialization.document_from_dict`, which also validate a
parsed document against :attr:`RunMetrics.SCHEMA_VERSION`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Tuple

from repro.observability.tracer import Tracer

#: Counter keys every RunMetrics carries (missing keys default to 0).
COUNTER_KEYS: Tuple[str, ...] = (
    "booking_attempts",
    "booking_rejections",
    "bookings",
    "booking_failures",
    "copies_removed",
    "requests_reopened",
    "links_disabled",
    "dijkstra_searches",
    "edge_relaxations",
    "edges_pruned",
    "tree_cache_hits",
    "tree_cache_misses",
    "items_scored",
    "candidate_groups",
    "decisions",
    "hops_booked",
    "runs",
    "cells",
    "run_cache_hits",
    "run_cache_misses",
    "requests_satisfied",
    "storage_reservations",
)


@dataclass
class TimingStat:
    """A streaming summary of one timing distribution (seconds).

    Emptiness is explicit: ``count == 0`` means *no observations*, and
    the 0.0 ``min``/``max`` an empty stat carries (and serializes) are
    placeholders, never read as observations.

    Attributes:
        count: number of observations.
        total: summed observations.
        min: smallest observation (a 0.0 placeholder when empty).
        max: largest observation (likewise).
    """

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0

    def note(self, value: float) -> None:
        """Fold one observation in."""
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def merged(self, other: "TimingStat") -> "TimingStat":
        """The combined summary of two distributions."""
        if self.count == 0:
            return TimingStat(other.count, other.total, other.min, other.max)
        if other.count == 0:
            return TimingStat(self.count, self.total, self.min, self.max)
        return TimingStat(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )


@dataclass
class RunMetrics:
    """The serializable aggregate of one (or many merged) observed runs.

    Attributes:
        counters: event tallies, keyed by :data:`COUNTER_KEYS` entries.
        rejection_reasons: rejection/failure tallies keyed by reason code.
        tree_cache_reasons: tree-cache outcome tallies keyed by
            :data:`~repro.observability.tracer.TREE_CACHE_REASONS` codes
            (how hits were justified and what forced recomputes).
        link_busy_seconds: summed booked transfer seconds per virtual link.
        link_transfer_counts: booked transfer count per virtual link.
        link_window_seconds: each observed link's window length (constant
            per link; kept to derive utilization fractions in reports).
        decision_seconds: per-decision wall time (choose + execute).
        cell_seconds: per-executor-cell wall time.
        workers: sorted pids of the processes that contributed.
    """

    KIND: ClassVar[str] = "run_metrics"
    #: Version 2: adds the ``tree_cache_reasons`` tally.  Version 3:
    #: empty timing stats write their 0.0 ``min``/``max``.
    SCHEMA_VERSION: ClassVar[int] = 3

    counters: Dict[str, int] = field(default_factory=dict)
    rejection_reasons: Dict[str, int] = field(default_factory=dict)
    tree_cache_reasons: Dict[str, int] = field(default_factory=dict)
    link_busy_seconds: Dict[int, float] = field(default_factory=dict)
    link_transfer_counts: Dict[int, int] = field(default_factory=dict)
    link_window_seconds: Dict[int, float] = field(default_factory=dict)
    decision_seconds: TimingStat = field(default_factory=TimingStat)
    cell_seconds: TimingStat = field(default_factory=TimingStat)
    workers: Tuple[int, ...] = ()

    def counter(self, key: str) -> int:
        """One counter's value (0 when never bumped)."""
        return self.counters.get(key, 0)

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment one counter."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def merged(self, other: "RunMetrics") -> "RunMetrics":
        """The element-wise combination of two aggregates (associative)."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        reasons = dict(self.rejection_reasons)
        for key, value in other.rejection_reasons.items():
            reasons[key] = reasons.get(key, 0) + value
        cache_reasons = dict(self.tree_cache_reasons)
        for key, value in other.tree_cache_reasons.items():
            cache_reasons[key] = cache_reasons.get(key, 0) + value
        busy = dict(self.link_busy_seconds)
        for key, value in other.link_busy_seconds.items():
            busy[key] = busy.get(key, 0.0) + value
        transfers = dict(self.link_transfer_counts)
        for key, value in other.link_transfer_counts.items():
            transfers[key] = transfers.get(key, 0) + value
        windows = dict(self.link_window_seconds)
        windows.update(other.link_window_seconds)
        return RunMetrics(
            counters=counters,
            rejection_reasons=reasons,
            tree_cache_reasons=cache_reasons,
            link_busy_seconds=busy,
            link_transfer_counts=transfers,
            link_window_seconds=windows,
            decision_seconds=self.decision_seconds.merged(
                other.decision_seconds
            ),
            cell_seconds=self.cell_seconds.merged(other.cell_seconds),
            workers=tuple(sorted(set(self.workers) | set(other.workers))),
        )


class MetricsCollector(Tracer):
    """A tracer that aggregates events into a :class:`RunMetrics`.

    One collector observes one logical unit of work (typically one sweep
    cell); :meth:`finalize` stamps the collecting process's pid so merged
    sweep metrics report which workers contributed.  Each event goes to
    the bound handler registered for its name; events without one are
    ignored.
    """

    def __init__(self) -> None:
        self._metrics = RunMetrics()
        self._handlers: Dict[str, Callable[..., None]] = {
            "transfer_attempt": self._transfer_attempt,
            "transfer_rejected": self._transfer_rejected,
            "transfer_booked": self._transfer_booked,
            "booking_failed": self._booking_failed,
            "copy_removed": self._counter("copies_removed"),
            "request_satisfied": self._counter("requests_satisfied"),
            "storage_reserved": self._counter("storage_reservations"),
            "request_reopened": self._counter("requests_reopened"),
            "link_disabled": self._counter("links_disabled"),
            "dijkstra": self._dijkstra,
            "tree_cache": self._tree_cache,
            "item_scored": self._item_scored,
            "decision": self._decision,
            "run_end": self._counter("runs"),
            "cell": self._cell,
        }

    def emit(self, event: str, *values: Any) -> None:
        """Fold one event into the aggregate."""
        handler = self._handlers.get(event)
        if handler is not None:
            handler(*values)

    def _counter(self, key: str) -> Callable[..., None]:
        """A handler that bumps counter ``key`` once per event."""
        bump = self._metrics.bump

        def handler(*values: Any) -> None:
            bump(key)

        return handler

    def _transfer_attempt(self, item_id: int, link_id: int) -> None:
        self._metrics.bump("booking_attempts")

    def _transfer_rejected(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        metrics = self._metrics
        metrics.bump("booking_rejections")
        metrics.rejection_reasons[reason] = (
            metrics.rejection_reasons.get(reason, 0) + 1
        )

    def _transfer_booked(
        self,
        item_id: int,
        link_id: int,
        start: float,
        end: float,
        window_seconds: float,
    ) -> None:
        metrics = self._metrics
        metrics.bump("bookings")
        metrics.link_busy_seconds[link_id] = (
            metrics.link_busy_seconds.get(link_id, 0.0) + (end - start)
        )
        metrics.link_transfer_counts[link_id] = (
            metrics.link_transfer_counts.get(link_id, 0) + 1
        )
        metrics.link_window_seconds[link_id] = window_seconds

    def _booking_failed(self, item_id: int, link_id: int, reason: str) -> None:
        metrics = self._metrics
        metrics.bump("booking_failures")
        metrics.rejection_reasons[reason] = (
            metrics.rejection_reasons.get(reason, 0) + 1
        )

    def _dijkstra(
        self,
        item_id: int,
        relaxations: int,
        pruned: int,
        finalized: int,
        seeds: int,
    ) -> None:
        metrics = self._metrics
        metrics.bump("dijkstra_searches")
        metrics.bump("edge_relaxations", relaxations)
        metrics.bump("edges_pruned", pruned)

    def _tree_cache(self, item_id: int, hit: bool, reason: str) -> None:
        metrics = self._metrics
        metrics.bump("tree_cache_hits" if hit else "tree_cache_misses")
        metrics.tree_cache_reasons[reason] = (
            metrics.tree_cache_reasons.get(reason, 0) + 1
        )

    def _item_scored(self, item_id: int, candidates: int) -> None:
        metrics = self._metrics
        metrics.bump("items_scored")
        metrics.bump("candidate_groups", candidates)

    def _decision(
        self,
        item_id: int,
        next_machine: int,
        cost: float,
        hops: int,
        elapsed_seconds: float,
    ) -> None:
        metrics = self._metrics
        metrics.bump("decisions")
        metrics.bump("hops_booked", hops)
        metrics.decision_seconds.note(elapsed_seconds)

    def _cell(
        self,
        index: int,
        scheduler: str,
        cache_hit: bool,
        elapsed_seconds: float,
    ) -> None:
        metrics = self._metrics
        metrics.bump("cells")
        metrics.bump("run_cache_hits" if cache_hit else "run_cache_misses")
        metrics.cell_seconds.note(elapsed_seconds)

    def finalize(self) -> RunMetrics:
        """The collected aggregate, stamped with this process's pid."""
        metrics = self._metrics
        if not metrics.workers:
            metrics.workers = (os.getpid(),)
        return metrics
