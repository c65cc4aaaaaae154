"""Executor robustness: corrupted-cache quarantine and transient retries.

Two failure families the sweep must survive without aborting:

* a corrupted/truncated cache record (e.g. a run killed mid-write) — the
  file is quarantined aside, a tracer event is emitted, and the cell is
  recomputed;
* a transient worker failure (a dying process, a flaky filesystem) —
  bounded deterministic retries, while deterministic scheduler errors
  still propagate on first raise (pinned by test_executor_failures.py).
"""

import json
from concurrent.futures import Future

import pytest

import repro.experiments.executor as executor_module
from repro.cost.weights import as_weights
from repro.errors import ConfigurationError
from repro.experiments.executor import (
    MAX_TRANSIENT_RETRIES,
    RETRY_BACKOFF_SECONDS,
    SweepCell,
    SweepExecutor,
    retry_backoff_seconds,
)
from repro.observability import RecordingTracer, use_tracer
from repro.serialization import document_to_dict


def _cells(scenarios):
    return [
        SweepCell(
            scenario=scenario,
            heuristic="full_one",
            criterion="C4",
            weights=as_weights(0.0),
        )
        for scenario in scenarios
    ]


def _canonical(record):
    return json.dumps(
        document_to_dict(record.without_timing()), sort_keys=True
    )


class TestCacheQuarantine:
    def test_truncated_record_is_quarantined_and_recomputed(
        self, tiny_scenarios, tmp_path
    ):
        cells = _cells(tiny_scenarios[:2])
        with SweepExecutor(workers=1, cache_dir=tmp_path) as executor:
            originals = executor.run_cells(cells)
        cached = sorted(tmp_path.glob("*/*.json"))
        assert len(cached) == 2
        victim = cached[0]
        # A run killed mid-write leaves a truncated document behind.
        victim.write_text(
            victim.read_text(encoding="utf-8")[:40], encoding="utf-8"
        )

        tracer = RecordingTracer()
        with SweepExecutor(workers=1, cache_dir=tmp_path) as executor:
            with use_tracer(tracer):
                records = executor.run_cells(cells)
            summary = executor.last_summary

        # The sweep survived, recomputed the corrupted cell, and the
        # result matches the original computation.
        assert [_canonical(r) for r in records] == [
            _canonical(r) for r in originals
        ]
        assert summary is not None
        assert summary.quarantined == 1
        assert summary.computed == 1
        assert summary.cache_hits == 1
        assert summary.degraded

        quarantined = list(tmp_path.glob("*/*.json.quarantined"))
        assert [p.name for p in quarantined] == [
            f"{victim.name}.quarantined"
        ]
        events = tracer.named("cache_quarantined")
        assert len(events) == 1
        assert dict(events[0].fields)["path"] == str(quarantined[0])

        # The recomputation healed the cache: a third run replays fully.
        with SweepExecutor(workers=1, cache_dir=tmp_path) as executor:
            replayed = executor.run_cells(cells)
        assert all(record.cache_hit for record in replayed)

    def test_garbage_json_is_quarantined(self, tiny_scenarios, tmp_path):
        cells = _cells(tiny_scenarios[:1])
        with SweepExecutor(workers=1, cache_dir=tmp_path) as executor:
            executor.run_cells(cells)
            (path,) = tmp_path.glob("*/*.json")
            path.write_text('{"kind": "not-a-run-record"}', encoding="utf-8")
            records = executor.run_cells(cells)
            assert executor.last_summary is not None
            assert executor.last_summary.quarantined == 1
        assert len(records) == 1
        assert not records[0].cache_hit


class _Flaky:
    """A stand-in for ``_run_cell`` failing transiently N times."""

    def __init__(self, failures, error=OSError):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(
        self,
        cell,
        collect_metrics=False,
        collect_profile=False,
        collect_timeline=False,
    ):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"transient failure {self.calls}")
        return executor_module._dispatch_cell(cell)


@pytest.fixture()
def no_sleep(monkeypatch):
    naps = []
    monkeypatch.setattr(
        executor_module.time, "sleep", lambda seconds: naps.append(seconds)
    )
    return naps


class TestSerialRetries:
    def test_transient_failures_are_retried(
        self, tiny_scenarios, monkeypatch, no_sleep
    ):
        flaky = _Flaky(failures=2)
        monkeypatch.setattr(executor_module, "_run_cell", flaky)
        executor = SweepExecutor(workers=1)
        records = executor.run_cells(_cells(tiny_scenarios[:1]))
        assert len(records) == 1
        assert flaky.calls == 3
        assert executor.last_summary is not None
        assert executor.last_summary.retries == 2
        assert executor.last_summary.degraded
        # Deterministic linear backoff between the attempts.
        assert no_sleep == [
            retry_backoff_seconds(1),
            retry_backoff_seconds(2),
        ]

    def test_retries_are_bounded(
        self, tiny_scenarios, monkeypatch, no_sleep
    ):
        flaky = _Flaky(failures=10)
        monkeypatch.setattr(executor_module, "_run_cell", flaky)
        executor = SweepExecutor(workers=1)
        with pytest.raises(OSError):
            executor.run_cells(_cells(tiny_scenarios[:1]))
        assert flaky.calls == MAX_TRANSIENT_RETRIES + 1

    def test_deterministic_errors_are_not_retried(
        self, tiny_scenarios, monkeypatch, no_sleep
    ):
        flaky = _Flaky(failures=10, error=ConfigurationError)
        monkeypatch.setattr(executor_module, "_run_cell", flaky)
        executor = SweepExecutor(workers=1)
        with pytest.raises(ConfigurationError):
            executor.run_cells(_cells(tiny_scenarios[:1]))
        assert flaky.calls == 1
        assert no_sleep == []

    def test_retry_emits_a_tracer_event(
        self, tiny_scenarios, monkeypatch, no_sleep
    ):
        monkeypatch.setattr(executor_module, "_run_cell", _Flaky(failures=1))
        tracer = RecordingTracer()
        with use_tracer(tracer):
            SweepExecutor(workers=1).run_cells(_cells(tiny_scenarios[:1]))
        events = tracer.named("cell_retry")
        assert len(events) == 1
        fields = dict(events[0].fields)
        assert fields["index"] == 0
        assert fields["attempt"] == 1
        assert fields["error"] == "OSError"


class _FlakyPool:
    """An in-process pool failing selected payload indices once.

    Real worker processes re-import the executor module, so monkeypatching
    ``_run_cell`` never reaches them; instead the pool itself is faked and
    payloads execute in-process via the genuine ``_execute_payload``.
    """

    def __init__(self, fail_once):
        self.fail_once = dict(fail_once)
        self.submissions = 0

    def submit(self, fn, payload):
        self.submissions += 1
        future = Future()
        index = payload[0]
        if self.fail_once.get(index):
            self.fail_once[index] -= 1
            future.set_exception(OSError(f"worker died on cell {index}"))
        else:
            future.set_result(fn(payload))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestParallelRetries:
    def test_one_crashing_worker_does_not_abort_the_sweep(
        self, tiny_scenarios, monkeypatch, no_sleep
    ):
        cells = _cells(tiny_scenarios)
        baseline = SweepExecutor(workers=1).run_cells(cells)

        executor = SweepExecutor(workers=2)
        pool = _FlakyPool(fail_once={1: 1})
        executor._pool = pool
        records = executor.run_cells(cells)
        assert [_canonical(r) for r in records] == [
            _canonical(r) for r in baseline
        ]
        assert pool.submissions == len(cells) + 1
        assert executor.last_summary is not None
        assert executor.last_summary.retries == 1

    def test_persistent_failure_propagates_after_bounded_retries(
        self, tiny_scenarios, monkeypatch, no_sleep
    ):
        cells = _cells(tiny_scenarios)
        executor = SweepExecutor(workers=2)
        executor._pool = _FlakyPool(
            fail_once={0: MAX_TRANSIENT_RETRIES + 1}
        )
        with pytest.raises(OSError):
            executor.run_cells(cells)
        # The broken run tore the (fake) pool down, like any failure.
        assert executor._pool is None


def test_backoff_is_deterministic_and_linear():
    assert retry_backoff_seconds(1) == RETRY_BACKOFF_SECONDS
    assert retry_backoff_seconds(2) == 2 * RETRY_BACKOFF_SECONDS
    assert retry_backoff_seconds(3) == 3 * RETRY_BACKOFF_SECONDS
