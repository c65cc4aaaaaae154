"""Parallel sweep execution with a persistent run-record cache.

The paper's figures and tables all reduce to evaluating a grid of
``(scenario, heuristic, criterion, E-U weights)`` cells, and every cell is
independent of every other — an embarrassingly parallel workload.
:class:`SweepExecutor` shards such grids across a
:class:`~concurrent.futures.ProcessPoolExecutor` (``workers=1`` keeps the
exact in-process serial path) and, when given a cache directory, skips
cells whose results are already on disk.

Determinism contract: records are returned in *cell order*, regardless of
worker count or completion order, so figure and table output is
byte-identical at any parallelism.  Cache identity is the scenario's
content fingerprint plus the scheduler coordinates — wall-clock timing is
deliberately *not* part of the identity, and replayed records are marked
with ``cache_hit=True`` (their ``elapsed_seconds`` reports the original
run).  A cache entry that fails to parse is treated as a miss: the cell is
recomputed, the entry rewritten, and a warning logged.

Every :meth:`SweepExecutor.run_cells` call logs a one-line summary —
cells computed versus replayed, wall time, and the speedup over the
serial scheduler time it represents — through the standard
:mod:`logging` machinery (logger ``repro.experiments.executor``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.scenario import Scenario
from repro.cost.criteria import CostCriterion, get_criterion
from repro.cost.weights import EUWeights, as_weights
from repro.errors import ConfigurationError, DataStagingError
from repro.experiments.runner import RunRecord, run_pair, run_scheduler
from repro.faults.context import use_faults
from repro.faults.plan import FaultPlan
from repro.observability.metrics import MetricsCollector, RunMetrics
from repro.observability.timeline import Timeline, TimelineCollector
from repro.observability.tracer import TeeTracer, current_tracer, use_tracer
from repro.serialization import (
    document_from_dict,
    document_to_dict,
    fault_plan_fingerprint,
    fault_plan_from_dict,
    fault_plan_to_dict,
    merge_documents,
    scenario_fingerprint,
    scenario_to_dict,
    scenario_from_dict,
)

logger = logging.getLogger(__name__)

#: Version stamp of the cache entry layout; bump to invalidate old caches.
#: Version 2: cached records may carry an embedded ``metrics`` aggregate.
#: Version 3: cached records may carry an embedded span ``profile``.
#: Version 4: the cell identity includes the fault-plan fingerprint.
#: Version 5: embedded metrics moved to metrics schema 2
#: (``tree_cache_reasons``).
#: Version 6: cached records may carry an embedded simulated-time
#: ``timeline`` document.
#: Version 7: embedded metrics may carry the ``bandwidth_degraded`` cache
#: reason.
#: Version 8: embedded metrics drop the removed compiled-kernel counter.
#: Version 9: drains no longer search items whose open requests are all
#: hidden, so tier cells report fewer ``dijkstra_runs`` and searches.
#: Version 10: drains no longer search items proven to have no candidate,
#: so every cell kind reports fewer ``dijkstra_runs`` and searches.
#: Version 11: searches stop once no target can still meet its deadline,
#: and bookings that delay only a missed path keep the tree, so cells
#: report fewer ``dijkstra_runs`` and search events.
#: Version 12: records are written by the shared document codec (stamped
#: ``run_record`` schema 1; embedded metrics schema 3 and profiles schema
#: 2 write the 0.0 ``min``/``max`` of empty timing stats).
#: Version 13: a booking rebases the booked item's tree instead of
#: searching it again, so a cached ``dijkstra_runs`` is stale for the
#: same key.
#: Version 14: records drop the span ``profile`` field (``run_record``
#: schema 2).
CACHE_FORMAT_VERSION = 14

#: The cell kinds an executor knows how to run.
CELL_KINDS = ("pair", "tier")

#: How many times a cell is re-submitted after a *transient* worker
#: failure (a broken pool, a pipe/OS error) before the failure is raised.
MAX_TRANSIENT_RETRIES = 2

#: Base of the deterministic linear backoff between retries (seconds).
RETRY_BACKOFF_SECONDS = 0.05

#: Exception types treated as transient infrastructure failures.  A
#: scheduler bug raises its own (deterministic) exception type and is
#: *never* retried — retrying would just fail again and mask the bug.
TRANSIENT_EXCEPTIONS = (BrokenExecutor, OSError, EOFError)


def retry_backoff_seconds(attempt: int) -> float:
    """Deterministic backoff before retry ``attempt`` (1-based)."""
    return RETRY_BACKOFF_SECONDS * attempt


@dataclass(frozen=True)
class SweepCell:
    """One independently executable grid cell.

    Attributes:
        scenario: the problem instance.
        heuristic: heuristic registry name (``"partial"`` ...).
        criterion: criterion registry name or instance.  Parallel workers
            and the cache resolve it *by name*, so instances must carry a
            registered ``name``.
        weights: the E-U point.
        kind: ``"pair"`` runs the plain heuristic/criterion pair;
            ``"tier"`` wraps it in the §5.4
            :class:`~repro.baselines.priority_tier.PriorityTierScheduler`.
        faults: optional static fault plan applied to the run (outages and
            bandwidth degradation; see :mod:`repro.faults`).  Part of the
            cell's cache identity.  Churn-bearing plans are rejected —
            cancellations and late arrivals only make sense under the
            dynamic driver, not a single offline schedule.
    """

    scenario: Scenario
    heuristic: str
    criterion: Union[str, CostCriterion]
    weights: EUWeights
    kind: str = "pair"
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ConfigurationError(
                f"unknown cell kind {self.kind!r}; known: {CELL_KINDS}"
            )
        if self.faults is not None and self.faults.has_churn():
            raise ConfigurationError(
                "sweep cells take static fault plans only (outages, "
                "degradation); churn faults need the dynamic driver — "
                "use FaultPlan.static_only() to strip them"
            )

    def effective_faults(self) -> Optional[FaultPlan]:
        """The cell's fault plan, with the empty plan normalized to None."""
        if self.faults is None or self.faults.is_empty():
            return None
        return self.faults

    def criterion_name(self) -> str:
        """The criterion's registry name."""
        if isinstance(self.criterion, str):
            return self.criterion
        return self.criterion.name

    def resolved_criterion(self) -> CostCriterion:
        """The criterion instance (resolving names via the registry)."""
        if isinstance(self.criterion, str):
            return get_criterion(self.criterion)
        return self.criterion


def _dispatch_cell(cell: SweepCell) -> RunRecord:
    """Run one cell's scheduler (the exact serial code path)."""
    if cell.kind == "tier":
        from repro.baselines.priority_tier import PriorityTierScheduler

        tier = PriorityTierScheduler(
            heuristic=cell.heuristic,
            criterion=cell.criterion,
            weights=cell.weights,
        )
        return run_scheduler(cell.scenario, tier)
    return run_pair(cell.scenario, cell.heuristic, cell.criterion, cell.weights)


def _run_cell(
    cell: SweepCell,
    collect_metrics: bool = False,
    collect_timeline: bool = False,
) -> RunRecord:
    """Execute one cell in-process, optionally under observability sinks.

    With ``collect_metrics`` the cell runs inside an ambient
    :class:`~repro.observability.metrics.MetricsCollector`, and with
    ``collect_timeline`` inside an ambient
    :class:`~repro.observability.timeline.TimelineCollector`; the
    finalized aggregates ride back on the record (they cross process
    boundaries as part of the record's serialization dict).

    A cell carrying a (non-empty) fault plan runs inside ``use_faults``
    so the scheduler's :class:`~repro.core.state.NetworkState` picks the
    plan up ambiently; an empty or absent plan takes the exact healthy
    code path (pinned byte-identical by a property test).
    """
    plan = cell.effective_faults()
    if plan is not None:
        with use_faults(plan):
            return _run_observed_cell(cell, collect_metrics, collect_timeline)
    return _run_observed_cell(cell, collect_metrics, collect_timeline)


def _run_observed_cell(
    cell: SweepCell,
    collect_metrics: bool,
    collect_timeline: bool,
) -> RunRecord:
    """The observability-sink half of :func:`_run_cell`."""
    if not collect_metrics and not collect_timeline:
        return _dispatch_cell(cell)
    metrics = MetricsCollector() if collect_metrics else None
    timeline = (
        TimelineCollector(cell.scenario) if collect_timeline else None
    )
    ambient = current_tracer()
    # Keep an already-installed tracer (e.g. a --trace-out stream) in the
    # loop instead of shadowing it for the cell's duration.
    sinks: List[Any] = [
        sink for sink in (metrics, timeline) if sink is not None
    ]
    if ambient.enabled:
        sinks.append(ambient)
    tracer: Any = sinks[0] if len(sinks) == 1 else TeeTracer(tuple(sinks))
    with use_tracer(tracer):
        record = _dispatch_cell(cell)
    return dataclasses.replace(
        record,
        metrics=metrics.finalize() if metrics is not None else None,
        timeline=timeline.finalize() if timeline is not None else None,
    )


#: The serialized cell crossing the process boundary (see
#: :func:`_execute_payload`).
_CellPayload = Tuple[
    int,
    Dict[str, Any],
    str,
    str,
    float,
    float,
    str,
    bool,
    bool,
    Optional[Dict[str, Any]],
]


def _execute_payload(payload: _CellPayload) -> Tuple[int, Dict[str, Any]]:
    """Worker-side execution of one serialized cell.

    The scenario (and any fault plan) crosses the process boundary as its
    serialization dict (guaranteed picklable; the test suite pins that a
    round-tripped scenario schedules identically), and the record returns
    the same way.
    """
    (
        index,
        scenario_doc,
        heuristic,
        criterion,
        effective,
        urgency,
        kind,
        collect_metrics,
        collect_timeline,
        faults_doc,
    ) = payload
    cell = SweepCell(
        scenario=scenario_from_dict(scenario_doc),
        heuristic=heuristic,
        criterion=criterion,
        weights=EUWeights(effective=effective, urgency=urgency),
        kind=kind,
        faults=(
            fault_plan_from_dict(faults_doc)
            if faults_doc is not None
            else None
        ),
    )
    return index, document_to_dict(
        _run_cell(cell, collect_metrics, collect_timeline)
    )


@dataclass(frozen=True)
class SweepSummary:
    """Accounting of one :meth:`SweepExecutor.run_cells` call.

    Attributes:
        cells: total grid cells requested.
        computed: cells actually executed by a scheduler.
        cache_hits: cells replayed from the run cache.
        wall_seconds: wall-clock duration of the call.
        scheduled_seconds: summed scheduler time the returned records
            represent (cached records contribute their original timing).
        retries: transient worker failures survived by re-submission.
        quarantined: corrupted cache entries renamed aside and recomputed.
    """

    cells: int
    computed: int
    cache_hits: int
    wall_seconds: float
    scheduled_seconds: float
    retries: int = 0
    quarantined: int = 0

    @property
    def speedup(self) -> float:
        """``scheduled_seconds / wall_seconds`` (0.0 for an empty call)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.scheduled_seconds / self.wall_seconds

    @property
    def degraded(self) -> bool:
        """True when the call survived faults (retries or quarantines).

        A degraded call still returned a complete, correct record list —
        this flag only marks that the run report should mention the
        recoveries (the CLI's degraded-mode summary).
        """
        return self.retries > 0 or self.quarantined > 0


@dataclass
class ExecutorStats:
    """Cumulative cell accounting over an executor's lifetime.

    Attributes:
        computed: cells executed by a scheduler.
        cache_hits: cells replayed from the run cache.
        cache_errors: cache entries dropped as unreadable.
        wall_seconds: total wall-clock time spent in ``run_cells``.
        scheduled_seconds: total scheduler time represented.
        retries: transient worker failures survived by re-submission.
        quarantined: corrupted cache entries quarantined and recomputed.
    """

    computed: int = 0
    cache_hits: int = 0
    cache_errors: int = 0
    wall_seconds: float = 0.0
    scheduled_seconds: float = 0.0
    retries: int = 0
    quarantined: int = 0

    def note(self, summary: SweepSummary) -> None:
        """Fold one call's summary into the running totals."""
        self.computed += summary.computed
        self.cache_hits += summary.cache_hits
        self.wall_seconds += summary.wall_seconds
        self.scheduled_seconds += summary.scheduled_seconds
        self.retries += summary.retries
        self.quarantined += summary.quarantined


class RunCache:
    """Content-addressed on-disk store of :class:`RunRecord` documents.

    One JSON file per cell under ``directory``, named by the SHA-256 of
    the cell's identity: scenario fingerprint + heuristic + criterion +
    E-U label + cell kind (+ the cache format version).  Timing and
    collected metrics are not part of the identity, so a warm cache
    replays records regardless of how long the original runs took or
    whether they were observed; a replayed record's embedded metrics
    (when present) describe the original run.

    The scenario fingerprint covers *all* scenario content — including
    the garbage-collection delay γ and the scheduling horizon — so
    perturbing either invalidates every affected entry.  A cell carrying
    a static fault plan keys on the plan's content fingerprint too (the
    empty plan normalizes to the same key as no plan), so faulted and
    healthy runs never shadow each other.  Dynamic-only events
    (copy losses, churn) never enter a :class:`SweepCell` and are
    therefore out of scope for this cache.

    Args:
        directory: cache root; created on first use.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.errors = 0
        self.quarantined = 0

    def key_for(
        self,
        cell: SweepCell,
        fingerprints: Optional[Dict[int, str]] = None,
    ) -> str:
        """The cell's cache key (SHA-256 hex digest of its identity).

        Args:
            cell: the grid cell.
            fingerprints: optional ``id(scenario) -> fingerprint`` memo so
                a grid sharing scenarios fingerprints each one once.
        """
        scenario = cell.scenario
        if fingerprints is not None and id(scenario) in fingerprints:
            fingerprint = fingerprints[id(scenario)]
        else:
            fingerprint = scenario_fingerprint(scenario)
            if fingerprints is not None:
                fingerprints[id(scenario)] = fingerprint
        criterion = cell.resolved_criterion()
        plan = cell.effective_faults()
        identity = {
            "cache_format": CACHE_FORMAT_VERSION,
            "scenario": fingerprint,
            "heuristic": cell.heuristic,
            "criterion": cell.criterion_name(),
            "weights": "-" if criterion.eu_independent else cell.weights.label(),
            "kind": cell.kind,
            "faults": "-" if plan is None else fault_plan_fingerprint(plan),
        }
        text = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[RunRecord]:
        """The cached record under ``key``, or ``None``.

        A present-but-unreadable entry (truncated file, invalid JSON,
        missing fields, wrong kind) is treated as a miss: the file is
        *quarantined* — renamed to ``<name>.quarantined`` so the corrupt
        bytes stay available for forensics instead of being silently
        overwritten — a warning is logged, a ``cache_quarantined`` tracer
        event emitted, and the caller recomputes (writing a fresh entry).
        """
        path = self._path(key)
        if not path.exists():
            return None
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
            if document.get("kind") != "run_cache_entry":
                raise ValueError(
                    f"unexpected kind {document.get('kind')!r}"
                )
            return document_from_dict(RunRecord, document["record"])
        except (
            DataStagingError,
            ValueError,
            KeyError,
            TypeError,
            OSError,
            EOFError,
            json.JSONDecodeError,
        ) as exc:  # any recognized corruption shape => miss
            self.errors += 1
            self.quarantined += 1
            quarantine = path.with_name(f"{path.name}.quarantined")
            try:
                os.replace(path, quarantine)
            except OSError:
                # Rename failed (exotic filesystem): recomputing will
                # overwrite the entry in place instead.
                quarantine = path
            logger.warning(
                "run cache entry %s is unreadable (%s); quarantined as %s, "
                "recomputing",
                path,
                exc,
                quarantine.name,
            )
            tracer = current_tracer()
            if tracer.enabled:
                tracer.emit("cache_quarantined", str(quarantine))
            return None

    def store(self, key: str, cell: SweepCell, record: RunRecord) -> None:
        """Persist ``record`` under ``key`` (atomic rename, compact JSON)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        plan = cell.effective_faults()
        document = {
            "format_version": CACHE_FORMAT_VERSION,
            "kind": "run_cache_entry",
            "key": key,
            "heuristic": cell.heuristic,
            "criterion": cell.criterion_name(),
            "cell_kind": cell.kind,
            "faults": None if plan is None else fault_plan_to_dict(plan),
            "record": document_to_dict(
                dataclasses.replace(record, cache_hit=False)
            ),
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps(document, sort_keys=True, separators=(",", ":")),
            encoding="utf-8",
        )
        os.replace(tmp, path)


class SweepExecutor:
    """Runs sweep grids — serially, in parallel, and through the cache.

    Args:
        workers: process count.  ``1`` (the default) executes every cell
            in-process on the exact pre-existing serial path; ``N > 1``
            fans misses out over a lazily started
            :class:`~concurrent.futures.ProcessPoolExecutor` that is
            reused across calls until :meth:`close`.
        cache_dir: optional run-cache directory; ``None`` disables
            caching entirely.
        metrics: collect per-cell scheduler metrics.  Each computed cell
            runs under a
            :class:`~repro.observability.metrics.MetricsCollector`; the
            per-run aggregates ride back on the records, accumulate into
            :attr:`metrics_by_scheduler`, and merge into
            :meth:`metrics_total`.  Collection never changes scheduling
            results (pinned by a property test).
        timeline: collect per-cell simulated-time telemetry.  Each
            computed cell runs under a
            :class:`~repro.observability.timeline.TimelineCollector`;
            the per-run timelines ride back on the records (crossing the
            process boundary and the run cache — simulated time is
            deterministic, so a replayed timeline is byte-identical to a
            recompute), accumulate into :attr:`timeline_by_scheduler`,
            and merge into :meth:`timeline_total`.  Like metrics,
            timeline collection never changes scheduling results.

    The executor is also a context manager (``with SweepExecutor(...)``),
    closing its worker pool on exit.  If a worker raises mid-run, the
    pool is torn down (pending cells cancelled) before the exception
    propagates, so a broken pool is never reused and no worker processes
    leak from executors used without a ``with`` block.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        metrics: bool = False,
        timeline: bool = False,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        self.workers = int(workers)
        self.cache = RunCache(cache_dir) if cache_dir is not None else None
        self.stats = ExecutorStats()
        self.last_summary: Optional[SweepSummary] = None
        self.metrics = bool(metrics)
        self.timeline = bool(timeline)
        #: Merged per-run aggregates keyed by scheduler label.
        self.metrics_by_scheduler: Dict[str, RunMetrics] = {}
        #: Merged per-run timelines keyed by scheduler label.
        self.timeline_by_scheduler: Dict[str, Timeline] = {}
        self._collector = MetricsCollector() if self.metrics else None
        self._pool: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "SweepExecutor":
        """Enter a ``with`` block; returns the executor itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the worker pool on ``with`` block exit."""
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._shutdown_pool()

    def _shutdown_pool(self, cancel: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel)
            self._pool = None

    def metrics_total(self) -> RunMetrics:
        """Every observed aggregate merged: all schedulers + executor events.

        Includes the executor's own cell accounting (cell counts and
        run-cache hit/miss tallies), which is collected even for cells
        replayed from the cache.
        """
        total = merge_documents(
            RunMetrics, self.metrics_by_scheduler.values()
        )
        if self._collector is not None:
            total = total.merged(self._collector.finalize())
        return total

    def timeline_total(self) -> Timeline:
        """Every collected per-scheduler timeline merged into one.

        Labels merge in sorted order so the merged document — and its
        serialization — is identical at any worker count.
        """
        return merge_documents(
            Timeline,
            (
                self.timeline_by_scheduler[label]
                for label in sorted(self.timeline_by_scheduler)
            ),
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def run_cells(self, cells: Sequence[SweepCell]) -> List[RunRecord]:
        """Execute a cell grid; records come back in cell order.

        Cached cells are replayed (marked ``cache_hit=True``); the rest
        are computed — in-process when ``workers == 1``, otherwise across
        the worker pool — and newly computed records are written back to
        the cache.  Ordering is deterministic regardless of parallelism.
        """
        cells = list(cells)
        started = time.perf_counter()
        records: List[Optional[RunRecord]] = [None] * len(cells)
        keys: List[Optional[str]] = [None] * len(cells)
        fingerprints: Dict[int, str] = {}
        pending: List[int] = []
        quarantined_before = (
            self.cache.quarantined if self.cache is not None else 0
        )
        for index, cell in enumerate(cells):
            if self.cache is not None:
                keys[index] = self.cache.key_for(cell, fingerprints)
                cached = self.cache.load(keys[index])
                if cached is not None:
                    records[index] = dataclasses.replace(
                        cached, cache_hit=True
                    )
                    continue
            pending.append(index)
        retries = 0
        if pending:
            if self.workers == 1 or len(pending) == 1:
                for index in pending:
                    records[index], attempts = self._compute_serial(
                        index, cells[index]
                    )
                    retries += attempts
            else:
                retries = self._compute_parallel(cells, pending, records)
            if self.cache is not None:
                for index in pending:
                    self.cache.store(
                        keys[index], cells[index], records[index]
                    )
        self._note_cell_metrics(records)
        wall = time.perf_counter() - started
        summary = SweepSummary(
            cells=len(cells),
            computed=len(pending),
            cache_hits=len(cells) - len(pending),
            wall_seconds=wall,
            scheduled_seconds=sum(r.elapsed_seconds for r in records),
            retries=retries,
            quarantined=(
                self.cache.quarantined - quarantined_before
                if self.cache is not None
                else 0
            ),
        )
        self.stats.note(summary)
        if self.cache is not None:
            self.stats.cache_errors = self.cache.errors
        self.last_summary = summary
        degraded_note = (
            f", degraded mode: {summary.retries} retries, "
            f"{summary.quarantined} quarantined cache entries"
            if summary.degraded
            else ""
        )
        logger.info(
            "sweep: %d cells (%d computed, %d cached) in %.2fs wall, "
            "%.2fs scheduled, speedup %.1fx%s",
            summary.cells,
            summary.computed,
            summary.cache_hits,
            summary.wall_seconds,
            summary.scheduled_seconds,
            summary.speedup,
            degraded_note,
        )
        return records

    def _compute_serial(
        self, index: int, cell: SweepCell
    ) -> Tuple[RunRecord, int]:
        """Run one cell in-process, retrying transient failures.

        Returns the record plus the number of retries spent on it.
        Deterministic scheduler exceptions propagate on first raise —
        only infrastructure errors (:data:`TRANSIENT_EXCEPTIONS`) are
        retried, at most :data:`MAX_TRANSIENT_RETRIES` times with
        :func:`retry_backoff_seconds` sleeps between attempts.
        """
        attempt = 0
        while True:
            try:
                record = _run_cell(
                    cell,
                    collect_metrics=self.metrics,
                    collect_timeline=self.timeline,
                )
                return record, attempt
            except TRANSIENT_EXCEPTIONS as exc:
                attempt += 1
                if attempt > MAX_TRANSIENT_RETRIES:
                    raise
                self._note_retry(index, attempt, exc)
                time.sleep(retry_backoff_seconds(attempt))

    def _compute_parallel(
        self,
        cells: Sequence[SweepCell],
        pending: Sequence[int],
        records: List[Optional[RunRecord]],
    ) -> int:
        """Fan pending cells out over the pool, retrying transient failures.

        Each pending cell is submitted as its own future; a future failing
        with a :data:`TRANSIENT_EXCEPTIONS` member (typically a
        :class:`~concurrent.futures.process.BrokenProcessPool` after a
        worker died) is re-submitted — onto a fresh pool when the old one
        broke — up to :data:`MAX_TRANSIENT_RETRIES` times per cell.  Any
        other exception (a deterministic scheduler bug) tears the pool
        down and propagates immediately, exactly like the pre-retry
        behavior.  Returns the total retry count.
        """
        payloads: Dict[int, _CellPayload] = {
            index: (
                index,
                scenario_to_dict(cells[index].scenario),
                cells[index].heuristic,
                cells[index].criterion_name(),
                cells[index].weights.effective,
                cells[index].weights.urgency,
                cells[index].kind,
                self.metrics,
                self.timeline,
                (
                    fault_plan_to_dict(plan)
                    if (plan := cells[index].effective_faults()) is not None
                    else None
                ),
            )
            for index in pending
        }
        retries = 0
        attempts: Dict[int, int] = {}
        try:
            waiting: Dict[Future[Tuple[int, Dict[str, Any]]], int] = {
                self._submit(payloads[index]): index for index in pending
            }
            while waiting:
                done, _ = wait(set(waiting), return_when=FIRST_COMPLETED)
                for future in done:
                    index = waiting.pop(future)
                    error = future.exception()
                    if error is None:
                        cell_index, document = future.result()
                        records[cell_index] = document_from_dict(
                            RunRecord, document
                        )
                        continue
                    attempt = attempts.get(index, 0) + 1
                    if (
                        not isinstance(error, TRANSIENT_EXCEPTIONS)
                        or attempt > MAX_TRANSIENT_RETRIES
                    ):
                        raise error
                    attempts[index] = attempt
                    retries += 1
                    self._note_retry(index, attempt, error)
                    time.sleep(retry_backoff_seconds(attempt))
                    waiting[self._submit(payloads[index])] = index
        except BaseException:
            # A worker raised (or the pool broke beyond retry): tear the
            # pool down — cancelling cells not yet started — so the next
            # call starts fresh and no processes leak even without a
            # ``with`` block.
            self._shutdown_pool(cancel=True)
            raise
        return retries

    def _submit(
        self, payload: _CellPayload
    ) -> Future[Tuple[int, Dict[str, Any]]]:
        """Submit one payload, replacing the pool if it broke."""
        pool = self._ensure_pool()
        try:
            return pool.submit(_execute_payload, payload)
        except BrokenExecutor:
            self._shutdown_pool(cancel=True)
            return self._ensure_pool().submit(_execute_payload, payload)

    def _note_retry(
        self, index: int, attempt: int, error: BaseException
    ) -> None:
        """Log and trace one transient-failure retry."""
        logger.warning(
            "cell %d hit a transient failure (%s: %s); retry %d/%d after "
            "%.2fs backoff",
            index,
            type(error).__name__,
            error,
            attempt,
            MAX_TRANSIENT_RETRIES,
            retry_backoff_seconds(attempt),
        )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(
                "cell_retry", index, attempt, type(error).__name__
            )

    def _note_cell_metrics(self, records: Sequence[RunRecord]) -> None:
        """Fold finished records into the metric sinks.

        Cell events go to both the ambient tracer (so ``--trace-out``
        captures executor activity) and, when metrics collection is on,
        the executor's own collector; per-run aggregates and timelines
        riding on the records (including replayed cache entries, which
        report the *original* run's work, exactly like their timing)
        merge into :attr:`metrics_by_scheduler` /
        :attr:`timeline_by_scheduler`.
        """
        tracer = current_tracer()
        if (
            not tracer.enabled
            and self._collector is None
            and not self.timeline
        ):
            return
        for index, record in enumerate(records):
            if tracer.enabled:
                tracer.emit(
                    "cell",
                    index,
                    record.scheduler,
                    record.cache_hit,
                    record.elapsed_seconds,
                )
            if self.timeline and record.timeline is not None:
                existing_timeline = self.timeline_by_scheduler.get(
                    record.scheduler
                )
                self.timeline_by_scheduler[record.scheduler] = (
                    Timeline().merged(record.timeline)
                    if existing_timeline is None
                    else existing_timeline.merged(record.timeline)
                )
            if self._collector is None:
                continue
            self._collector.emit(
                "cell",
                index,
                record.scheduler,
                record.cache_hit,
                record.elapsed_seconds,
            )
            if record.metrics is not None:
                existing = self.metrics_by_scheduler.get(record.scheduler)
                self.metrics_by_scheduler[record.scheduler] = (
                    record.metrics
                    if existing is None
                    else existing.merged(record.metrics)
                )

    def run_pairs(
        self,
        scenarios: Sequence[Scenario],
        heuristic: str,
        criterion: Union[str, CostCriterion],
        weights: Union[float, EUWeights] = 0.0,
    ) -> List[RunRecord]:
        """One heuristic/criterion run per scenario, at one E-U point."""
        eu = as_weights(weights)
        return self.run_cells(
            [
                SweepCell(
                    scenario=scenario,
                    heuristic=heuristic,
                    criterion=criterion,
                    weights=eu,
                )
                for scenario in scenarios
            ]
        )


def ensure_executor(executor: Optional[SweepExecutor]) -> SweepExecutor:
    """``executor`` itself, or a fresh serial, cache-less default."""
    if executor is not None:
        return executor
    return SweepExecutor()
