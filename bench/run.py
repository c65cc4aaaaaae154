"""End-to-end benchmark of the data-staging scheduler.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Each workload runs in its own fresh process (``child.py``), one after
another; without ``--workload`` all of them run.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` from untraced passes, ``--trace 1``
the per-layer metrics from a pass wrapped by ``layers.py``.  Set-up time is
the median of several fresh processes, each timed from its start until its
inputs are built and scaled by the host's speed measured right after.  The metrics are printed by name with their units; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Fresh processes timed for ``setup_s``: the measured run plus this many
#: processes that stop once their inputs are built.
EXTRA_SETUPS = 4

#: Seconds one workload may take before its child is killed.
TIME_LIMIT = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(arguments: List[str], deadline: float) -> dict:
    """Run ``child.py``; return its JSON result plus its set-up time,
    scaled to the reference host like every other time (``timing.py``)."""
    spawned = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *arguments],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        output, _ = process.communicate(
            timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child.py {' '.join(arguments)} timed out") from exc
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0 or not output.strip():
        raise BenchError(
            f"child.py {' '.join(arguments)} exited with {process.returncode}"
        )
    try:
        result = json.loads(output.strip().splitlines()[-1])
        result["setup_s"] = (result["ready_at"] - spawned) / result["slowdown"]
    except (ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"child.py {' '.join(arguments)}: {exc}") from exc
    return result


def run_workload(
    spec: dict, workload: str, seed: int, seconds: float, trace: int,
    deadline: float,
) -> Tuple[dict, dict]:
    """The contract result of one workload, and the run's notes."""
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(EXTRA_SETUPS):
            setups.append(
                run_child(common + ["--setup-only"], deadline)["setup_s"]
            )
    result = run_child(
        common + ["--seconds", str(seconds), "--trace", str(trace)], deadline
    )
    values = result["metrics"]
    if not trace:
        setups.append(result["setup_s"])
        values["setup_s"] = statistics.median(setups)
    declared = spec["per_layer" if trace else "end_to_end"]
    contract = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {
                "value": values.get(metric["name"]),
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }
    return contract, result["notes"]


def describe(workload: str, contract: dict, notes: dict) -> None:
    """Print the metrics by name with their units, then any failures."""
    for name, metric in contract["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:13} {name:44} {shown:>14} {metric['unit']}")
    if "latency_samples" in notes:
        print(
            f"{workload:13} latency tail is p{notes['latency_tail_percentile']}"
            f" of {notes['latency_samples']} samples, {notes['passes']} pass(es)"
        )
    print(
        f"{workload:13} {contract['attempted']} jobs attempted, "
        f"{contract['failed']} failed"
    )
    for failure in notes.get("failures", []):
        print(f"{workload:13} FAILED {failure.splitlines()[-1]}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the run as JSON")
    args = parser.parse_args(argv)
    results: Dict[str, dict] = {}
    try:
        for workload in [args.workload] if args.workload else names:
            contract, notes = run_workload(
                spec,
                workload,
                args.seed,
                args.seconds,
                args.trace,
                time.monotonic() + TIME_LIMIT,
            )
            describe(workload, contract, notes)
            results[workload] = dict(contract, notes=notes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        document = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "workloads": results,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    for result in results.values():
        print(json.dumps({key: result[key] for key in (
            "correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
