"""Aggregated scheduler metrics: the collector and its serializable output.

:class:`MetricsCollector` is a :class:`~repro.observability.tracer.Tracer`
that folds every event into counters, reason tallies, per-link busy time,
and timing summaries — no per-event allocation.  :meth:`finalize` snapshots
the aggregate into a :class:`RunMetrics`, which merges associatively
(per-cell metrics from parallel workers combine into sweep totals) and
round-trips through :mod:`repro.serialization`.

The JSON layout is schema-versioned (:data:`METRICS_SCHEMA_VERSION`);
:func:`validate_metrics_document` structurally checks a parsed document,
which is what the CI metrics job asserts against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ModelError
from repro.observability.tracer import Tracer

#: Version stamp written into every serialized metrics document.
#: Version 2: adds the ``tree_cache_reasons`` tally (hit/miss outcome
#: codes from :data:`repro.observability.tracer.TREE_CACHE_REASONS`).
METRICS_SCHEMA_VERSION = 2

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
    the JSON form of an empty stat omits ``min``/``max`` entirely (an
    in-memory empty stat keeps the 0.0 placeholders, but they are never
    serialized, so a round-trip cannot manufacture a fake 0.0
    observation).

    Attributes:
        count: number of observations.
        total: summed observations.
        min: smallest observation (meaningless placeholder when empty;
            omitted from :meth:`to_dict` output).
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

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready form (``min``/``max`` present only when non-empty)."""
        if self.count == 0:
            return {"count": 0, "total": self.total}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "TimingStat":
        """Rebuild from :meth:`to_dict` output.

        An empty stat (``count == 0``) rebuilds as the canonical empty
        :class:`TimingStat` regardless of any ``min``/``max`` keys a
        pre-omission document may still carry.
        """
        count = int(document.get("count", 0))
        if count == 0:
            return TimingStat(total=float(document.get("total", 0.0)))
        return TimingStat(
            count=count,
            total=float(document.get("total", 0.0)),
            min=float(document.get("min", 0.0)),
            max=float(document.get("max", 0.0)),
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


def merge_metrics(parts: Iterable[Optional[RunMetrics]]) -> RunMetrics:
    """Fold many (possibly ``None``) aggregates into one."""
    total = RunMetrics()
    for part in parts:
        if part is not None:
            total = total.merged(part)
    return total


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


# -- document validation -----------------------------------------------------

def _check_mapping(
    document: Mapping[str, Any],
    key: str,
    value_types: Tuple[type, ...],
) -> None:
    mapping = document.get(key)
    if not isinstance(mapping, Mapping):
        raise ModelError(f"metrics document key {key!r} must be a mapping")
    for name, value in mapping.items():
        if not isinstance(name, str):
            raise ModelError(
                f"metrics document {key!r} has a non-string key {name!r}"
            )
        if not isinstance(value, value_types) or isinstance(value, bool):
            raise ModelError(
                f"metrics document {key}[{name!r}] has invalid value "
                f"{value!r}"
            )


def validate_metrics_document(document: Mapping[str, Any]) -> None:
    """Structurally validate a parsed metrics JSON document.

    Raises:
        ModelError: on a wrong kind, unsupported schema version, or any
            structurally invalid field.  Returns silently when the document
            conforms to the :data:`METRICS_SCHEMA_VERSION` layout produced
            by :func:`repro.serialization.run_metrics_to_dict`.
    """
    if document.get("kind") != "run_metrics":
        raise ModelError(
            f"expected a run_metrics document, got "
            f"kind={document.get('kind')!r}"
        )
    if document.get("schema_version") != METRICS_SCHEMA_VERSION:
        raise ModelError(
            f"unsupported metrics schema version "
            f"{document.get('schema_version')!r} "
            f"(expected {METRICS_SCHEMA_VERSION})"
        )
    _check_mapping(document, "counters", (int,))
    _check_mapping(document, "rejection_reasons", (int,))
    _check_mapping(document, "tree_cache_reasons", (int,))
    _check_mapping(document, "link_busy_seconds", (int, float))
    _check_mapping(document, "link_transfer_counts", (int,))
    _check_mapping(document, "link_window_seconds", (int, float))
    for key in ("decision_seconds", "cell_seconds"):
        stat = document.get(key)
        if not isinstance(stat, Mapping):
            raise ModelError(f"metrics document key {key!r} must be a mapping")
        for stat_key in ("count", "total"):
            value = stat.get(stat_key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ModelError(
                    f"metrics document {key}.{stat_key} has invalid value "
                    f"{value!r}"
                )
        # min/max are mandatory for non-empty stats; an empty stat omits
        # them (tolerated when present, for pre-omission documents).
        for stat_key in ("min", "max"):
            if stat_key not in stat:
                if stat.get("count"):
                    raise ModelError(
                        f"metrics document {key}.{stat_key} is required "
                        f"when count > 0"
                    )
                continue
            value = stat.get(stat_key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ModelError(
                    f"metrics document {key}.{stat_key} has invalid value "
                    f"{value!r}"
                )
    workers = document.get("workers")
    if not isinstance(workers, (list, tuple)) or not all(
        isinstance(pid, int) for pid in workers
    ):
        raise ModelError("metrics document 'workers' must be a list of pids")
