"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py A/ B/ [--save FILE]

``A`` and ``B`` are directories of run documents written by
``run.py --trace 0 --out``.  For each workload and end-to-end metric the
script prints both sides' median and quartiles, the change of B's median
against A's, and a verdict:

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, so a change within the bound cannot be told
  from noise; ``better`` instead if every run of B beats every run of A;
* ``better``: B's median is better than A's by more than the bound;
* ``within``: otherwise.

Exits 1 when any verdict is ``worse`` or ``unresolved``.  ``--save``
also writes both sets' quartiles, of the end-to-end metrics and of the
per-layer metrics of any ``--trace 1`` runs in the directories, with the
seeds and the host they ran on: a point of the benchmark's trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

Runs = Dict[str, Dict[str, List[float]]]


def documents(directory: Path) -> List[dict]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.json"))
    ]


def collect(directory: Path, trace: int = 0) -> Runs:
    """``{workload: {metric: [value per run]}}`` of the runs made with
    ``--trace trace``."""
    runs: Runs = {}
    for document in documents(directory):
        if document.get("trace", 0) != trace:
            continue
        for workload, result in document["workloads"].items():
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    runs.setdefault(workload, {}).setdefault(name, []).append(
                        metric["value"]
                    )
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def share(amount: float, base: float) -> float:
    if base:
        return amount / abs(base)
    return 0.0 if amount == 0 else float("inf")


def verdict(
    a: List[float], b: List[float], bound: float, better: str
) -> Tuple[str, float]:
    """The verdict on B against A, and B's change as a share of A's
    median (positive is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    a_first, a_median, a_third = quartiles(a)
    b_first, b_median, b_third = quartiles(b)
    change = sign * share(b_median - a_median, a_median)
    spread = max(
        share(a_third - a_first, a_median), share(b_third - b_first, b_median)
    )
    if spread > bound:
        beats_all = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if beats_all else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within", change


def compare(a: Runs, b: Runs, spec: dict) -> List[Tuple[str, ...]]:
    """One row per workload and end-to-end metric."""
    rows = []
    for workload in sorted(set(a) | set(b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            left: Optional[List[float]] = a.get(workload, {}).get(name)
            right: Optional[List[float]] = b.get(workload, {}).get(name)
            if not left or not right:
                rows.append((workload, name, "", "", "", "unresolved"))
                continue
            result, change = verdict(
                left, right, metric["bound"], metric["better"]
            )
            rows.append(
                (
                    workload,
                    name,
                    "{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(left)),
                    "{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(right)),
                    f"{100 * change:+.2f}% (bound {100 * metric['bound']:g}%)",
                    result,
                )
            )
    return rows


def summary(directory: Path) -> dict:
    """Quartiles of every metric of one set of runs, with its seeds."""
    found = documents(directory)
    hosts = {
        (document["nproc"], document["python"], document["platform"])
        for document in found
    }
    return {
        "seeds": sorted({document["seed"] for document in found}),
        "hosts": [
            {"nproc": nproc, "python": python, "platform": platform}
            for nproc, python, platform in sorted(hosts)
        ],
        "end_to_end": quartile_table(collect(directory, 0)),
        "per_layer": quartile_table(collect(directory, 1)),
    }


def quartile_table(runs: Runs) -> dict:
    return {
        workload: {
            name: dict(
                zip(("q1", "median", "q3"), quartiles(values)), runs=len(values)
            )
            for name, values in metrics.items()
        }
        for workload, metrics in runs.items()
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--save", type=Path, help="write both sets' quartiles")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(collect(args.a), collect(args.b), spec)
    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "B vs A (+ is worse)", "verdict")
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    if args.save is not None:
        document = {
            "A": summary(args.a),
            "B": summary(args.b),
            "verdicts": {f"{row[0]}/{row[1]}": row[-1] for row in rows},
        }
        args.save.write_text(json.dumps(document, indent=1) + "\n")
    return 1 if any(row[-1] in ("worse", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
