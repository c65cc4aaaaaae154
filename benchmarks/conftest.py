"""Shared fixtures for the benchmark harness.

Every benchmark honours the ``REPRO_SCALE`` environment variable (``ci`` |
``full`` | ``paper``; see :mod:`repro.experiments.scale`), prints its
reproduced figure/table to stdout (run pytest with ``-s`` to watch live),
and writes the same text under ``benchmarks/results/<scale>/`` so
EXPERIMENTS.md can reference the exact artifacts.

The figure benchmarks additionally honour ``REPRO_WORKERS`` (process
fan-out of the sweep grid; default 1, the serial path),
and ``REPRO_CACHE_DIR`` (persistent run-record cache, so repeated
benchmark runs replay unchanged cells) through a shared
:class:`~repro.experiments.executor.SweepExecutor` — output is
byte-identical at any worker count.  Per-layer timings come from the
end-to-end benchmark (``python3 bench/run.py --trace 1``), not from here.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.executor import SweepExecutor
from repro.experiments.scale import current_scale
from repro.workload.generator import ScenarioGenerator

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale():
    """The active experiment scale (cases, generator config, E-U grid)."""
    return current_scale()


@pytest.fixture(scope="session")
def scenarios(scale):
    """The shared test cases — the paper's "same 40 randomly generated
    test cases" (fewer at ci scale)."""
    generator = ScenarioGenerator(scale.config)
    return generator.generate_suite(scale.cases, scale.base_seed)


@pytest.fixture(scope="session")
def executor():
    """The shared sweep executor (``REPRO_WORKERS`` /
    ``REPRO_CACHE_DIR``)."""
    workers = int(os.environ.get("REPRO_WORKERS", "1"))
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    with SweepExecutor(workers=workers, cache_dir=cache_dir) as instance:
        yield instance


@pytest.fixture(scope="session")
def artifact_writer(scale):
    """Persist a rendered figure/table under ``benchmarks/results``."""

    def write(name: str, text: str) -> Path:
        directory = RESULTS_DIR / scale.name
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    return write
