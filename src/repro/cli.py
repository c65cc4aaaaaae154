"""Command-line interface: ``datastage`` / ``python -m repro``.

Subcommands:

* ``generate`` — draw a random BADD-like scenario and write it to JSON;
* ``run`` — schedule a scenario with one heuristic/criterion pair, print
  the outcome, optionally save the schedule;
* ``bounds`` — print the §5.2 bounds of a scenario;
* ``figure`` — reproduce one of Figures 2–5 as an ASCII table;
* ``validate`` — check a saved schedule against a saved scenario;
* ``stats`` / ``gantt`` / ``describe`` — summarize a saved schedule or
  scenario;
* ``sweep`` / ``chaos`` — E-U and fault-intensity sweeps over random
  cases;
* ``report`` — assemble recorded benchmark artifacts, or render a
  timeline document.

Scheduler performance is measured outside the CLI, by the end-to-end
benchmark under ``bench/`` (see ``bench/README.md``) and by the exact
work counts pinned in ``tests/integration/test_work_counts.py``.

The ``sweep`` and ``figure`` subcommands accept ``--workers`` (process
fan-out), ``--cache-dir`` (persistent run-record cache), and
``--no-cache`` (ignore an otherwise-configured cache); see
:mod:`repro.experiments.executor`.  They also accept the observability
flags ``--metrics PATH`` (collect per-scheduler metrics and write the
merged aggregate as schema-versioned JSON), ``--timeline PATH``
(collect simulated-time telemetry — link utilization, slack
trajectories, per-request forensics — and write the merged timeline
document as JSON), and ``--trace-out PATH`` (stream structured
scheduler events as JSON lines); see ``docs/OBSERVABILITY.md``.

The ``report`` subcommand doubles as the telemetry exporter: with
``--timeline TL.json`` it prints the plain-text digest and can render a
self-contained HTML report (``--html``) and a Perfetto-compatible
Chrome trace (``--chrome-trace``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import List, Optional

from repro.analysis.gantt import render_gantt
from repro.analysis.stats import schedule_stats
from repro.baselines.bounds import possible_satisfy, upper_bound
from repro.core.evaluation import evaluate_schedule
from repro.core.validation import ScheduleValidator
from repro.cost.criteria import criterion_names
from repro.errors import (
    ConfigurationError,
    DataStagingError,
    ValidationError,
)
from repro.experiments.executor import SweepExecutor, SweepSummary
from repro.experiments.figures import figure2, heuristic_figure
from repro.experiments.report import build_report
from repro.experiments.runner import run_pair
from repro.experiments.scale import scale_by_name
from repro.experiments.tables import render_figure
from repro.heuristics.registry import heuristic_names, make_heuristic
from repro.observability import (
    JsonlTracer,
    Timeline,
    render_link_utilization,
    render_scheduler_summaries,
    render_timeline,
    use_tracer,
    write_chrome_trace,
    write_html_report,
)
from repro.serialization import (
    decode_file,
    document_from_dict,
    document_to_dict,
    load_scenario,
    load_schedule,
    save_scenario,
    save_schedule,
)
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator
from repro.workload.describe import describe, render_description
from repro.workload.presets import badd_theater, two_route_diamond


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep grid (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="run-record cache directory; repeat runs replay cached cells",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and recompute every cell",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help=(
            "collect scheduler metrics, print per-scheduler summaries, "
            "and write the merged aggregate to PATH as JSON"
        ),
    )
    parser.add_argument(
        "--timeline",
        default=None,
        metavar="PATH",
        help=(
            "collect simulated-time telemetry, print its digest, and "
            "write the merged timeline document to PATH as JSON "
            "(render it with 'datastage report --timeline PATH')"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="stream structured scheduler events to PATH as JSON lines",
    )


def _executor_from_args(args: argparse.Namespace) -> SweepExecutor:
    cache_dir = None if args.no_cache else args.cache_dir
    return SweepExecutor(
        workers=args.workers,
        cache_dir=cache_dir,
        metrics=args.metrics is not None,
        timeline=args.timeline is not None,
    )


def _install_tracer(args: argparse.Namespace, stack: ExitStack) -> None:
    """Make a ``--trace-out`` stream the ambient tracer for the block.

    With ``--workers N > 1`` the stream only captures main-process events
    (cell accounting); scheduler events from worker processes are
    aggregated through ``--metrics`` instead.
    """
    if args.trace_out:
        tracer = stack.enter_context(JsonlTracer(args.trace_out))
        stack.enter_context(use_tracer(tracer))


def _emit_metrics(args: argparse.Namespace, executor: SweepExecutor) -> None:
    """Print metric summaries and write the merged aggregate JSON."""
    if not executor.metrics:
        return
    total = executor.metrics_total()
    if executor.metrics_by_scheduler:
        print(render_scheduler_summaries(executor.metrics_by_scheduler))
    if total.link_busy_seconds:
        print(render_link_utilization(total))
    Path(args.metrics).write_text(
        json.dumps(document_to_dict(total), indent=2, sort_keys=True),
        encoding="utf-8",
    )
    print(f"metrics written to {args.metrics}")


def _emit_timeline(args: argparse.Namespace, executor: SweepExecutor) -> None:
    """Print the timeline digest and write the merged document JSON."""
    if not executor.timeline:
        return
    total = executor.timeline_total()
    print(render_timeline(total))
    Path(args.timeline).write_text(
        json.dumps(document_to_dict(total), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"timeline written to {args.timeline}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datastage",
        description=(
            "Data staging scheduling heuristics for oversubscribed "
            "networks with priorities and deadlines (Theys et al., "
            "ICDCS 2000)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="draw a random scenario and write it to JSON"
    )
    generate.add_argument("output", help="output JSON path")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--profile",
        choices=("paper", "reduced", "tiny", "theater", "diamond"),
        default="reduced",
        help=(
            "generator parameter profile, or a hand-built preset "
            "(theater / diamond); default: reduced"
        ),
    )

    run = sub.add_parser(
        "run", help="schedule a scenario with one heuristic/criterion pair"
    )
    run.add_argument("scenario", help="scenario JSON path")
    run.add_argument(
        "--heuristic", choices=heuristic_names(), default="full_one"
    )
    run.add_argument("--criterion", choices=criterion_names(), default="C4")
    run.add_argument(
        "--log-ratio",
        type=float,
        default=0.0,
        help="log10(W_E/W_U); use inf or -inf for the extremes",
    )
    run.add_argument("--save-schedule", help="write the schedule to JSON")

    bounds = sub.add_parser("bounds", help="print the §5.2 bounds")
    bounds.add_argument("scenario", help="scenario JSON path")

    figure = sub.add_parser(
        "figure", help="reproduce a paper figure as an ASCII table"
    )
    figure.add_argument(
        "figure_id", choices=("2", "3", "4", "5"), help="paper figure number"
    )
    figure.add_argument(
        "--scale",
        default="ci",
        choices=("ci", "full", "paper"),
        help="experiment scale (default: ci)",
    )
    _add_executor_flags(figure)

    validate = sub.add_parser(
        "validate", help="check a saved schedule against its scenario"
    )
    validate.add_argument("scenario", help="scenario JSON path")
    validate.add_argument("schedule", help="schedule JSON path")

    stats = sub.add_parser(
        "stats", help="summarize a saved schedule (utilization, slack)"
    )
    stats.add_argument("scenario", help="scenario JSON path")
    stats.add_argument("schedule", help="schedule JSON path")

    gantt = sub.add_parser(
        "gantt", help="render a saved schedule's link occupancy as ASCII"
    )
    gantt.add_argument("scenario", help="scenario JSON path")
    gantt.add_argument("schedule", help="schedule JSON path")
    gantt.add_argument("--width", type=int, default=72)

    describe = sub.add_parser(
        "describe", help="print workload statistics of a saved scenario"
    )
    describe.add_argument("scenario", help="scenario JSON path")

    sweep = sub.add_parser(
        "sweep",
        help="E-U sweep of one heuristic/criterion pair over random cases",
    )
    sweep.add_argument(
        "--heuristic", choices=heuristic_names(), default="full_one"
    )
    sweep.add_argument("--criterion", choices=criterion_names(), default="C4")
    sweep.add_argument(
        "--scale",
        default="ci",
        choices=("ci", "full", "paper"),
    )
    _add_executor_flags(sweep)

    chaos = sub.add_parser(
        "chaos",
        help=(
            "sweep fault intensities over random cases and report "
            "per-heuristic deadline-miss deltas vs the healthy baseline"
        ),
    )
    chaos.add_argument(
        "--scale",
        default="ci",
        choices=("ci", "full", "paper"),
        help="experiment scale (default: ci)",
    )
    chaos.add_argument(
        "--cases",
        type=int,
        default=None,
        help="cap the number of test cases (default: the scale's count)",
    )
    chaos.add_argument(
        "--heuristic",
        action="append",
        choices=heuristic_names(),
        dest="heuristics",
        help="heuristic to include (repeatable; default: all registered)",
    )
    chaos.add_argument(
        "--criterion", choices=criterion_names(), default="C4"
    )
    chaos.add_argument(
        "--log-ratio",
        type=float,
        default=2.0,
        help="log10(W_E/W_U) for all runs (default: 2.0)",
    )
    chaos.add_argument(
        "--intensities",
        default="0,0.25,0.5",
        help=(
            "comma-separated fault intensities in [0, 1]; 0 (the healthy "
            "baseline) is always included (default: 0,0.25,0.5)"
        ),
    )
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="base seed for generated fault plans (default: 0)",
    )
    chaos.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the robustness report to PATH as JSON",
    )
    _add_executor_flags(chaos)

    report = sub.add_parser(
        "report",
        help=(
            "assemble recorded benchmark artifacts into markdown, or — "
            "with --timeline — render a timeline document as HTML and "
            "Chrome trace-event JSON"
        ),
    )
    report.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="results directory written by the benchmarks",
    )
    report.add_argument(
        "--scale",
        default="ci",
        choices=("ci", "full", "paper"),
    )
    report.add_argument("--output", help="write to a file instead of stdout")
    report.add_argument(
        "--timeline",
        default=None,
        metavar="PATH",
        help=(
            "timeline JSON written by a sweep/figure/chaos run's "
            "--timeline flag; switches the subcommand to telemetry mode"
        ),
    )
    report.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="write the self-contained HTML report to PATH",
    )
    report.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help=(
            "write Chrome trace-event JSON to PATH (load in Perfetto or "
            "chrome://tracing)"
        ),
    )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    presets = {"theater": badd_theater, "diamond": two_route_diamond}
    if args.profile in presets:
        scenario = presets[args.profile]()
    else:
        profiles = {
            "paper": GeneratorConfig.paper,
            "reduced": GeneratorConfig.reduced,
            "tiny": GeneratorConfig.tiny,
        }
        generator = ScenarioGenerator(profiles[args.profile]())
        scenario = generator.generate(args.seed)
    save_scenario(scenario, args.output)
    print(
        f"wrote {scenario.name}: {scenario.network.machine_count} machines, "
        f"{scenario.item_count} items, {scenario.request_count} requests "
        f"-> {args.output}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    record = run_pair(
        scenario, args.heuristic, args.criterion, args.log_ratio
    )
    print(
        f"{record.scheduler} @ log10(E-U)={record.eu_label}: "
        f"weighted sum {record.weighted_sum:g} "
        f"({record.satisfied_count}/{sum(record.total_by_priority)} "
        f"requests), {record.steps} steps, "
        f"{record.dijkstra_runs} Dijkstra runs, "
        f"{record.elapsed_seconds:.2f}s"
    )
    if args.save_schedule:
        scheduler = make_heuristic(
            args.heuristic, args.criterion, args.log_ratio
        )
        result = scheduler.run(scenario)
        save_schedule(result.schedule, args.save_schedule)
        print(f"schedule written to {args.save_schedule}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    print(f"upper_bound      {upper_bound(scenario):g}")
    print(f"possible_satisfy {possible_satisfy(scenario):g}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    scale = scale_by_name(args.scale)
    generator = ScenarioGenerator(scale.config)
    scenarios = generator.generate_suite(scale.cases, scale.base_seed)
    with ExitStack() as stack:
        _install_tracer(args, stack)
        executor = stack.enter_context(_executor_from_args(args))
        if args.figure_id == "2":
            data = figure2(
                scenarios, scale.log_ratios, executor=executor
            )
        else:
            heuristic = {"3": "partial", "4": "full_one", "5": "full_all"}[
                args.figure_id
            ]
            data = heuristic_figure(
                scenarios, heuristic, scale.log_ratios, executor=executor
            )
    print(render_figure(data))
    _emit_metrics(args, executor)
    _emit_timeline(args, executor)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    schedule = load_schedule(args.schedule)
    try:
        ScheduleValidator(scenario).validate(schedule)
    except ValidationError as exc:
        print(f"INVALID: {exc}")
        return 1
    effect = evaluate_schedule(scenario, schedule)
    print(f"valid; {effect}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    schedule = load_schedule(args.schedule)
    stats = schedule_stats(scenario, schedule)
    print(f"steps:                 {stats.steps}")
    print(f"deliveries:            {stats.deliveries}")
    print(f"bytes transferred:     {stats.bytes_transferred:.0f}")
    print(f"mean link utilization: {stats.mean_link_utilization:.4f}")
    print(f"max link utilization:  {stats.max_link_utilization:.4f}")
    print(f"mean delivery slack:   {stats.latency.mean_slack:.1f}s")
    print(f"min delivery slack:    {stats.latency.min_slack:.1f}s")
    print(f"mean hops/delivery:    {stats.latency.mean_hops:.2f}")
    print(f"peak storage fraction: {stats.peak_storage_fraction:.4f}")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    if args.width < 10:
        raise ConfigurationError(
            f"--width must be at least 10 columns, got {args.width}"
        )
    scenario = load_scenario(args.scenario)
    schedule = load_schedule(args.schedule)
    print(render_gantt(scenario, schedule, width=args.width))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    print(render_description(describe(scenario)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.aggregate import mean_by_scheduler
    from repro.experiments.sweep import resolve_ratios, sweep_pair
    from repro.experiments.tables import render_table

    scale = scale_by_name(args.scale)
    generator = ScenarioGenerator(scale.config)
    scenarios = generator.generate_suite(scale.cases, scale.base_seed)
    grid = resolve_ratios(scale.log_ratios)
    with ExitStack() as stack:
        _install_tracer(args, stack)
        executor = stack.enter_context(_executor_from_args(args))
        records = sweep_pair(
            scenarios, args.heuristic, args.criterion, grid, executor
        )
        summary = executor.last_summary
    means = mean_by_scheduler(records)
    labels = [weights.label() for weights in grid]
    scheduler = records[0].scheduler
    eu_labels = {record.eu_label for record in records}
    row = [scheduler]
    for label in labels:
        key = label if label in eu_labels else "-"
        row.append(f"{means[(scheduler, key)].mean:.1f}")
    print(
        render_table(
            ["series"] + labels,
            [row],
            title=(
                f"E-U sweep, {scale.cases} cases at scale {scale.name}"
            ),
        )
    )
    _print_summary(summary)
    _emit_metrics(args, executor)
    _emit_timeline(args, executor)
    return 0


def _print_summary(summary: Optional[SweepSummary]) -> None:
    """Print the executor's cell accounting, flagging degraded runs."""
    if summary is None:
        return
    print(
        f"[{summary.cells} cells: {summary.computed} computed, "
        f"{summary.cache_hits} cached; {summary.wall_seconds:.2f}s "
        f"wall, speedup {summary.speedup:.1f}x]"
    )
    if summary.degraded:
        print(
            f"[degraded mode: {summary.retries} transient retries, "
            f"{summary.quarantined} cache records quarantined]"
        )


def _parse_intensities(text: str) -> List[float]:
    values: List[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise ConfigurationError(
                f"--intensities expects comma-separated floats, got "
                f"{token!r}"
            ) from None
    if not values:
        raise ConfigurationError("--intensities must name at least one value")
    return values


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import render_chaos_report, run_chaos

    intensities = _parse_intensities(args.intensities)
    scale = scale_by_name(args.scale)
    cases = scale.cases if args.cases is None else args.cases
    if cases < 1:
        raise ConfigurationError("--cases must be at least 1")
    generator = ScenarioGenerator(scale.config)
    scenarios = generator.generate_suite(cases, scale.base_seed)
    with ExitStack() as stack:
        _install_tracer(args, stack)
        executor = stack.enter_context(_executor_from_args(args))
        report = run_chaos(
            scenarios,
            heuristics=args.heuristics,
            criterion=args.criterion,
            log_ratio=args.log_ratio,
            intensities=intensities,
            fault_seed=args.fault_seed,
            executor=executor,
            scale=scale.name,
        )
        summary = executor.last_summary
    print(render_chaos_report(report))
    _print_summary(summary)
    if args.out:
        Path(args.out).write_text(
            json.dumps(document_to_dict(report), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"chaos report written to {args.out}")
    _emit_metrics(args, executor)
    _emit_timeline(args, executor)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.timeline is not None:
        return _cmd_report_timeline(args)
    if args.html or args.chrome_trace:
        raise ConfigurationError(
            "--html/--chrome-trace require --timeline PATH"
        )
    text = build_report(args.results_dir, args.scale)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_report_timeline(args: argparse.Namespace) -> int:
    """Telemetry mode: render a saved timeline document."""
    timeline = decode_file(
        args.timeline, functools.partial(document_from_dict, Timeline)
    )
    print(render_timeline(timeline))
    if args.html:
        write_html_report(timeline, args.html)
        print(f"HTML report written to {args.html}")
    if args.chrome_trace:
        write_chrome_trace(timeline, args.chrome_trace)
        print(f"Chrome trace written to {args.chrome_trace}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "bounds": _cmd_bounds,
    "figure": _cmd_figure,
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "gantt": _cmd_gantt,
    "describe": _cmd_describe,
    "sweep": _cmd_sweep,
    "chaos": _cmd_chaos,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DataStagingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
