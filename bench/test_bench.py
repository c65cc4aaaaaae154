"""Tests of the benchmark itself: ``pytest bench``."""

from __future__ import annotations

import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from repro import GeneratorConfig, ScenarioGenerator  # noqa: E402
from repro.serialization import scenario_fingerprint  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


def tiny_jobs():
    """Twelve static jobs and one dynamic job on millisecond scenarios."""
    scenarios = ScenarioGenerator(GeneratorConfig.tiny()).generate_suite(4, 0)
    jobs = [
        workloads.Job(f"{s.name}/{h}", s, h, "C4", 0.0)
        for s in scenarios
        for h in ("partial", "full_one", "full_all")
    ]
    return jobs + [workloads._churn_job(scenarios[0], 0, 0)]


def test_metric_names_and_counts():
    names = END_TO_END + PER_LAYER
    assert len(END_TO_END) <= 16
    assert len(PER_LAYER) <= 128
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]{1,64}", name), name


def test_benchmark_computes_exactly_the_declared_metrics():
    jobs = tiny_jobs()
    first = child.run_pass(jobs, timed_drains=True)
    computed = child.end_to_end(jobs, [first], 0, {})
    assert set(computed) | {"setup_s"} == set(END_TO_END)
    setup_and_bench = {
        "workload.generate_s",
        "faults.generate_s",
        "bench.check_s",
        "bench.traced_overhead_x",
        "bench.wrapper_ns_per_call",
    }
    assert set(layers.Probe().metrics({})) | setup_and_bench == set(PER_LAYER)


def snapshot():
    attributes = {}
    for _, module, path in layers.TARGETS:
        owner, name = layers.resolve(module, path)
        attributes[path] = vars(owner)[name]
    return attributes


def test_traced_pass_restores_every_wrapped_attribute():
    before = snapshot()
    jobs = tiny_jobs()
    with layers.traced() as probe:
        during = snapshot()
        traced = child.run_pass(jobs, timed_drains=False, sample_speed=False)
    assert all(during[path] is not before[path] for path in before)
    assert all(snapshot()[path] is before[path] for path in before)
    metrics = probe.metrics(child.engine_totals(traced.outcomes))
    assert metrics["routing.tree.calls"] > 0
    assert metrics["core.state.init.calls"] == len(jobs)
    assert 0 < metrics["heuristics.tree_cache.hit_ratio"] < 1
    assert metrics["heuristics.drain.calls"] > len(jobs)


def test_traced_and_untraced_passes_agree():
    jobs = tiny_jobs()
    untraced = child.run_pass(jobs, timed_drains=True)
    with layers.traced():
        traced = child.run_pass(jobs, timed_drains=False, sample_speed=False)
    notes = []
    failed = child.check("tiny", jobs, [untraced, traced], None, notes)
    assert (failed, notes) == (0, [])


def test_missing_wrapper_target_gives_null_metrics(monkeypatch):
    import repro.heuristics.base

    monkeypatch.delattr(repro.heuristics.base, "TreeCache")
    targets = layers.TARGETS + (("gone", "repro.no_such_module", "f"),)
    with layers.traced(targets) as probe:
        pass
    metrics = probe.metrics({"cache_hits": 3, "revalidations": 1})
    assert metrics["heuristics.tree_cache.requests"] is None
    assert metrics["heuristics.tree_cache.hit_ratio"] is None
    assert metrics["heuristics.tree_cache.self_s"] is None
    assert metrics["routing.tree.calls"] == 0


def test_tampered_golden_digest_counts_as_failed():
    jobs = tiny_jobs()
    first = child.run_pass(jobs, timed_drains=True)
    golden = {o.job_id: [o.digest, o.weighted_sum] for o in first.outcomes}
    assert child.check("tiny", jobs, [first], golden, []) == 0
    tampered = dict(golden)
    tampered[jobs[0].job_id] = ["0" * 16, golden[jobs[0].job_id][1]]
    failed = child.check("tiny", jobs, [first], tampered, [])
    assert failed == 1
    ok_ratio = child.end_to_end(jobs, [first], failed, {})["ok_ratio"]
    assert ok_ratio == 1 - 1 / len(jobs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_build_jobs_gives_the_same_inputs_twice(workload):
    def fingerprint(jobs):
        return [
            (
                job.job_id,
                scenario_fingerprint(job.scenario),
                job.heuristic,
                job.criterion,
                job.log_ratio,
                job.events,
                job.faults,
            )
            for job in jobs
        ]

    first, _ = workloads.build_jobs(workload, 3)
    second, _ = workloads.build_jobs(workload, 3)
    assert fingerprint(first) == fingerprint(second)
    golden = json.loads(
        (BENCH / "expected" / f"{workload}.json").read_text(encoding="utf-8")
    )
    assert set(golden["jobs"]) == {job.job_id for job in first}


def test_committed_figures_parse():
    cells = child.read_figures()
    assert len(cells) == 11 * 6
    assert cells[("partial/C4", "0")] == "2394.2"


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, steady, 0.1, "lower")[0] == "within"
    assert compare.verdict(steady, [x * 1.2 for x in steady], 0.1, "lower")[0] == "worse"
    assert compare.verdict(steady, [x * 1.2 for x in steady], 0.1, "higher")[0] == "better"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(noisy, steady, 0.1, "lower")[0] == "unresolved"
    assert compare.verdict(noisy, [1.0, 1.1], 0.1, "lower")[0] == "better"


def test_speed_sampler_scales_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with timing.SpeedSampler() as sampler:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.1:
            timing.kernel()
        ended = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    samples = sampler.kernel_samples
    # One sample on entry, one on exit, and the alarms in between.
    assert len(samples) >= 4
    net = sampler.net(started, ended)
    assert 0 < net < ended - started
    near = sampler._within(started - timing.PERIOD_S, ended + timing.PERIOD_S)
    kernel_s = sum(samples[i] for i in near) / len(near)
    assert sampler.scaled(started, ended) == net / timing.slowdown(kernel_s)
