"""One measured run of one workload, in a fresh process.

``run.py`` starts this script and reads the one JSON object it prints.  The
script builds the workload's inputs, runs timed passes over its jobs,
checks every output, and reports the metrics of ``BENCHMARK.json``.

Regenerate a workload's golden file after an intended change of schedules::

    python3 bench/child.py --workload figures-ci --bless
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected"
FIGURES = ROOT / "benchmarks" / "results" / "ci"


@dataclass
class Pass:
    outcomes: list
    #: Wall-clock seconds of the pass, less the speed sampler's.
    raw_wall: float
    #: Seconds of all jobs, and of each scheduling call, on the reference
    #: host (see ``timing.py``); raw seconds when the speed was not
    #: sampled.
    wall: float
    latencies: List[float]
    kernel_samples: List[float]
    #: Peak resident memory of the process so far, in MB (Linux reports
    #: kilobytes); read before any check runs.
    peak_rss_mb: float


def run_pass(jobs, timed_drains: bool, sample_speed: bool = True) -> Pass:
    """Run every job once, back to back; checks come afterwards."""
    import timing
    import workloads

    drains: List[workloads.Span] = []
    outcomes = []
    sampler = timing.SpeedSampler()
    with sampler if sample_speed else nullcontext():
        with workloads.drain_timer(drains) if timed_drains else nullcontext():
            started = time.perf_counter()
            for job in jobs:
                outcomes.append(workloads.run_job(job, drains))
            ended = time.perf_counter()
    scale = sampler.scaled if sample_speed else lambda start, end: end - start
    return Pass(
        outcomes=outcomes,
        raw_wall=sampler.net(started, ended),
        wall=sum(scale(*outcome.span) for outcome in outcomes),
        latencies=[scale(*call) for o in outcomes for call in o.calls],
        kernel_samples=sampler.kernel_samples,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def load_expected(workload: str, seed: int) -> Optional[Dict[str, list]]:
    """The golden ``{job_id: [digest, weighted_sum]}`` that applies at
    ``seed``, or ``None``.  A golden without a seed (a fixed corpus) applies
    at every seed."""
    document = json.loads(
        (EXPECTED / f"{workload}.json").read_text(encoding="utf-8")
    )
    if document["seed"] is not None and document["seed"] != seed:
        return None
    return document["jobs"]


def read_figures() -> Dict[Tuple[str, str], str]:
    """``{(series, E-U label): printed mean}`` from the committed Figures
    3-5 at ci scale."""
    cells: Dict[Tuple[str, str], str] = {}
    for number in (3, 4, 5):
        lines = (FIGURES / f"figure{number}.txt").read_text(
            encoding="utf-8"
        ).splitlines()
        labels = lines[1].split()[1:]
        for line in lines[3:]:
            series, *values = line.split()
            cells.update(
                ((series, label), value) for label, value in zip(labels, values)
            )
    return cells


def figure_failures(jobs, outcomes, notes: List[str]) -> Set[str]:
    """Jobs in a figure cell whose mean differs from the committed figure
    at its printed precision."""
    sums: Dict[Tuple[str, str], List[float]] = {}
    members: Dict[Tuple[str, str], List[str]] = {}
    for job, outcome in zip(jobs, outcomes):
        sums.setdefault(job.cell, []).append(outcome.weighted_sum)
        members.setdefault(job.cell, []).append(job.job_id)
    try:
        printed = read_figures()
    except OSError as exc:
        notes.append(f"figures unreadable: {exc}")
        return {job.job_id for job in jobs}
    failed: Set[str] = set()
    for cell, values in sums.items():
        mean = f"{statistics.fmean(values):.1f}"
        if printed.get(cell) != mean:
            notes.append(f"figure cell {cell}: {mean} != {printed.get(cell)}")
            failed.update(members[cell])
    return failed


def check(
    workload: str,
    jobs,
    passes: List[Pass],
    expected: Optional[Dict[str, list]],
    notes: List[str],
) -> int:
    """Failed job executions over all passes.

    The first pass is checked in full: no exception, a schedule the
    independent validator accepts (static jobs), the golden digest and
    weighted sum where a golden applies, and the committed figures on
    ``figures-ci``.  Later passes must reproduce the first pass's digests.
    """
    from repro import ScheduleValidator, ValidationError

    first = passes[0].outcomes
    bad: Set[str] = set()
    for job, outcome in zip(jobs, first):
        if outcome.error:
            notes.append(f"{job.job_id} raised: {outcome.error.strip()}")
            bad.add(job.job_id)
            continue
        if job.events is None:
            try:
                ScheduleValidator(job.scenario).validate(outcome.schedule)
            except ValidationError as exc:
                notes.append(f"{job.job_id} invalid: {exc}")
                bad.add(job.job_id)
    if expected is not None:
        for outcome in first:
            if expected.get(outcome.job_id) != [
                outcome.digest,
                outcome.weighted_sum,
            ]:
                notes.append(f"{outcome.job_id} differs from the golden")
                bad.add(outcome.job_id)
    if workload == "figures-ci":
        bad |= figure_failures(jobs, first, notes)
    digests = {outcome.job_id: outcome.digest for outcome in first}
    failed = len(bad)
    for later in passes[1:]:
        for outcome in later.outcomes:
            if outcome.job_id in bad or outcome.error or (
                outcome.digest != digests[outcome.job_id]
            ):
                failed += 1
    return failed


def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and the
    sample at it."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        raise ValueError(f"{count} latency samples are too few for a tail")
    return 100.0 * (count - 10) / count, ordered[count - 11]


def end_to_end(jobs, passes: List[Pass], failed: int, notes: Dict) -> Dict:
    """The end-to-end metrics of untraced passes."""
    first = passes[0].outcomes
    wall = statistics.median(p.wall for p in passes)
    # One latency per scheduling call, the median of its passes.
    latencies = [
        statistics.median(column) for column in zip(*(p.latencies for p in passes))
    ]
    percentile, tail_value = tail(latencies)
    notes["latency_samples"] = len(latencies)
    notes["latency_tail_percentile"] = round(percentile, 2)
    notes["passes"] = len(passes)
    notes["raw_wall_s"] = statistics.median(p.raw_wall for p in passes)
    attempted = len(jobs) * len(passes)
    return {
        "wall_s": wall,
        "requests_per_s": sum(len(job.scenario.requests) for job in jobs) / wall,
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_tail": 1e3 * tail_value,
        "peak_rss_mb": passes[-1].peak_rss_mb,
        "weighted_satisfied_ratio": sum(o.weighted_sum for o in first)
        / sum(o.weighted_total for o in first),
        "satisfied_ratio": sum(o.satisfied for o in first)
        / sum(o.total for o in first),
        "ok_ratio": 1.0 - failed / attempted,
    }


def engine_totals(outcomes) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for outcome in outcomes:
        for name, value in outcome.stats.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="exit once the inputs are built (a set-up time sample)",
    )
    parser.add_argument(
        "--bless",
        action="store_true",
        help="write expected/<workload>.json from one pass at --seed",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import timing
    import workloads

    jobs, setup_timings = workloads.build_jobs(args.workload, args.seed)
    ready_at = time.monotonic()
    # The host's speed right after set-up, to scale the set-up time with.
    setup_slowdown = timing.slowdown(timing.current_kernel_s())
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "slowdown": setup_slowdown}))
        return 0
    dynamic = any(job.events is not None for job in jobs)
    if args.bless:
        return bless(args.workload, args.seed, jobs, run_pass(jobs, dynamic))

    expected = load_expected(args.workload, args.seed)
    measure_started = time.perf_counter()
    passes = [run_pass(jobs, dynamic)]
    notes: Dict = {}
    messages: List[str] = []
    if args.trace:
        with layers.traced() as probe:
            traced = run_pass(jobs, timed_drains=False, sample_speed=False)
        checked = time.perf_counter()
        failed = check(args.workload, jobs, passes + [traced], expected, messages)
        metrics = probe.metrics(engine_totals(traced.outcomes))
        metrics.update(setup_timings)
        metrics["bench.check_s"] = time.perf_counter() - checked
        metrics["bench.traced_overhead_x"] = traced.raw_wall / passes[0].raw_wall
        metrics["bench.wrapper_ns_per_call"] = layers.wrapper_ns_per_call()
        notes["raw_wall_s"] = passes[0].raw_wall
        notes["traced_raw_wall_s"] = traced.raw_wall
        attempted = 2 * len(jobs)
    else:
        # Whole passes only, while another one fits in --seconds.
        while (
            time.perf_counter() - measure_started + passes[-1].raw_wall
            <= args.seconds
        ):
            passes.append(run_pass(jobs, dynamic))
        failed = check(args.workload, jobs, passes, expected, messages)
        metrics = end_to_end(jobs, passes, failed, notes)
        attempted = len(jobs) * len(passes)
    notes["kernel_ms"] = 1e3 * statistics.median(
        sample for p in passes for sample in p.kernel_samples
    )
    notes["failures"] = messages[:20]
    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "slowdown": setup_slowdown,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "notes": notes,
            }
        )
    )
    return 0


def bless(workload: str, seed: int, jobs, first: Pass) -> int:
    """Write the golden file of ``workload`` from one checked pass."""
    dynamic = any(job.events is not None for job in jobs)
    messages: List[str] = []
    failed = check(workload, jobs, [first], None, messages)
    for message in messages:
        print(message, file=sys.stderr)
    if failed:
        return 1
    document = {
        "workload": workload,
        # Static workloads run a fixed corpus, so their golden holds at
        # every seed; fault draws make the dynamic one seed-specific.
        "seed": seed if dynamic else None,
        "jobs": {
            outcome.job_id: [outcome.digest, outcome.weighted_sum]
            for outcome in sorted(first.outcomes, key=lambda o: o.job_id)
        },
    }
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / f"{workload}.json").write_text(
        json.dumps(document, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
