"""Timing that holds steady on a shared host.

The host this benchmark was built on is shared with other tenants, and the
same job can take half as long again from one second to the next.  While
a pass runs, a :class:`SpeedSampler` times a fixed pure-Python kernel —
Dijkstra on a fixed random graph, using no code of the program — every
``PERIOD_S`` seconds from a timer signal.  The kernel's slowdown is its
mean time in or within ``PERIOD_S`` of a measured interval over
``REFERENCE_KERNEL_S``; the interval, less the sampler's own time in it,
is divided by that slowdown to the power ``SENSITIVITY``.  Contention
slows the kernel and the program together, so a scaled time reads as
seconds on the reference host at its usual speed, while a change to the
program moves the interval and leaves the kernel alone.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import signal
import statistics
import time
from types import FrameType, TracebackType
from typing import List, Optional, Tuple, Type

#: Median kernel time on the host that recorded
#: ``results/baseline-seed0.json`` (2 vCPUs at 2.1 GHz, CPython 3.11).
REFERENCE_KERNEL_S = 0.00084

#: How strongly the program follows the kernel: contention that slows
#: the kernel by a factor ``f`` slows the program by ``f ** SENSITIVITY``.
#: The slope of log job time on log kernel time over repeats of one job,
#: fitted on that host: 0.66-0.73 over three jobs, with r^2 >= 0.93
#: whenever the host was busy.
SENSITIVITY = 0.7

#: Seconds between kernel samples; a call shorter than this is scaled by
#: the samples within this distance of it as well.
PERIOD_S = 0.02

_NODES = 60
_rng = random.Random(7)
_GRAPH: List[List[Tuple[int, float]]] = [
    [(_rng.randrange(_NODES), _rng.uniform(1.0, 10.0)) for _ in range(6)]
    for _ in range(_NODES)
]


def kernel() -> int:
    """Shortest paths from every sixth node of a fixed graph; under 1 ms."""
    reached = 0
    for source in range(0, _NODES, 6):
        labels = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            label, node = heapq.heappop(heap)
            if label > labels[node]:
                continue
            for neighbour, weight in _GRAPH[node]:
                candidate = label + weight
                if candidate < labels.get(neighbour, float("inf")):
                    labels[neighbour] = candidate
                    heapq.heappush(heap, (candidate, neighbour))
        reached += len(labels)
    return reached


def slowdown(kernel_s: float) -> float:
    """How much slower the program runs than on the reference host, given
    the kernel's time."""
    return (kernel_s / REFERENCE_KERNEL_S) ** SENSITIVITY


def current_kernel_s(samples: int = 9) -> float:
    """The kernel's median time over back-to-back runs, now."""
    sampler = SpeedSampler()
    for _ in range(samples):
        sampler._sample()
    return statistics.median(sampler.kernel_samples)


class SpeedSampler:
    """Samples the host's speed while it is entered; scales intervals.

    Intervals are ``(start, end)`` pairs of :func:`time.perf_counter`
    readings taken while the sampler was entered.
    """

    def __init__(self) -> None:
        self._entered: List[float] = []
        self._left: List[float] = []
        self._kernel: List[float] = []
        self._previous: object = None

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(
        self,
        kind: Optional[Type[BaseException]],
        value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)  # type: ignore[arg-type]
        self._sample()

    def _on_alarm(self, signum: int, frame: Optional[FrameType]) -> None:
        self._sample()

    def _sample(self) -> None:
        # The collector stays off so that the program's heap, which a
        # change may grow, cannot slow the kernel.
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            kernel()
            seconds = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self._entered.append(entered)
        self._left.append(time.perf_counter())
        self._kernel.append(seconds)

    @property
    def kernel_samples(self) -> List[float]:
        return list(self._kernel)

    def _within(self, start: float, end: float) -> range:
        """Indices of the samples taken wholly inside the interval."""
        return range(
            bisect.bisect_left(self._entered, start),
            bisect.bisect_right(self._left, end),
        )

    def net(self, start: float, end: float) -> float:
        """Seconds of the interval not spent sampling."""
        inside = self._within(start, end)
        return end - start - sum(
            self._left[i] - self._entered[i] for i in inside
        )

    def scaled(self, start: float, end: float) -> float:
        """The interval's net seconds on the reference host."""
        near = self._within(start - PERIOD_S, end + PERIOD_S)
        if not near:
            # A long call into C held the signal back: use the next sample.
            index = min(near.start, len(self._kernel) - 1)
            near = range(index, index + 1)
        kernel_s = sum(self._kernel[i] for i in near) / len(near)
        return self.net(start, end) / slowdown(kernel_s)
