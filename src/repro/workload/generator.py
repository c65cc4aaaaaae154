"""Random BADD-like scenario generation (paper §5.3).

:class:`ScenarioGenerator` reproduces the paper's test-case generator: a
strongly connected random topology with intermittently available links,
plus a randomly drawn data-location table and request table.  Generation is
fully deterministic in the seed, so experiment suites ("the same 40 test
cases") are reproducible by construction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.core.data import DataItem, SourceLocation
from repro.core.intervals import Interval
from repro.core.link import PhysicalLink
from repro.core.machine import Machine
from repro.core.network import Network
from repro.core.priority import PriorityWeighting, WEIGHTING_1_10_100
from repro.core.request import Request
from repro.core.scenario import Scenario
from repro.errors import ConfigurationError
from repro.workload.config import GeneratorConfig
from repro.workload.connectivity import (
    is_strongly_connected,
    repair_strong_connectivity,
)


class ScenarioGenerator:
    """Draws random scenarios from a :class:`GeneratorConfig`.

    Args:
        config: the parameter ranges (defaults to the paper's §5.3 values).
        weighting: the priority weighting attached to generated scenarios;
            the request *priorities* are independent of it, so the same seed
            can be regenerated under a different weighting for the §5.4
            weighting comparison.
    """

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        weighting: PriorityWeighting = WEIGHTING_1_10_100,
    ) -> None:
        self._config = config if config is not None else GeneratorConfig.paper()
        if weighting.highest_priority + 1 < self._config.priority_levels:
            raise ConfigurationError(
                f"weighting {weighting} has fewer classes than the "
                f"configured {self._config.priority_levels} priority levels"
            )
        self._weighting = weighting

    @property
    def config(self) -> GeneratorConfig:
        """The generator's parameter ranges."""
        return self._config

    def generate(self, seed: int, name: str = "") -> Scenario:
        """Draw one scenario, deterministically from ``seed``."""
        rng = random.Random(seed)
        cfg = self._config
        machine_count = rng.randint(*cfg.machines)
        machines = tuple(
            Machine(index=i, capacity=rng.uniform(*cfg.capacity_bytes))
            for i in range(machine_count)
        )
        physical_links = self._generate_links(rng, machine_count)
        network = Network(machines, physical_links)
        items, requests = self._generate_requests(rng, machine_count)
        latest_deadline = max(request.deadline for request in requests)
        return Scenario(
            network=network,
            items=tuple(items),
            requests=tuple(requests),
            weighting=self._weighting,
            gc_delay=cfg.gc_delay_seconds,
            horizon=latest_deadline + cfg.gc_delay_seconds + 1.0,
            name=name or f"badd-{seed}",
        )

    def generate_suite(
        self, count: int, base_seed: int = 0
    ) -> Tuple[Scenario, ...]:
        """Draw ``count`` scenarios with consecutive seeds."""
        return tuple(
            self.generate(base_seed + offset) for offset in range(count)
        )

    # -- topology -------------------------------------------------------------

    def _generate_links(
        self, rng: random.Random, machine_count: int
    ) -> List[PhysicalLink]:
        cfg = self._config
        adjacency: Dict[int, Set[int]] = {
            i: set() for i in range(machine_count)
        }
        pair_counts: Dict[Tuple[int, int], int] = {}
        for source in range(machine_count):
            degree = rng.randint(*cfg.out_degree)
            degree = min(degree, machine_count - 1)
            others = [m for m in range(machine_count) if m != source]
            for target in rng.sample(others, degree):
                adjacency[source].add(target)
                pair_counts[(source, target)] = 1
        # A second parallel physical link between connected pairs, at the
        # configured rate (the paper caps multiplicity at two).
        for pair in sorted(pair_counts):
            if rng.random() < cfg.parallel_link_probability:
                pair_counts[pair] = 2
        if not is_strongly_connected(adjacency):
            repair_strong_connectivity(adjacency, pair_counts, rng)
        links: List[PhysicalLink] = []
        for (source, target), multiplicity in sorted(pair_counts.items()):
            for _ in range(multiplicity):
                links.append(
                    self._generate_physical_link(
                        rng, len(links), source, target
                    )
                )
        return links

    def _generate_physical_link(
        self,
        rng: random.Random,
        physical_id: int,
        source: int,
        target: int,
    ) -> PhysicalLink:
        cfg = self._config
        bandwidth = rng.uniform(*cfg.bandwidth_bytes_per_s)
        latency = rng.uniform(*cfg.latency_seconds)
        windows = self._generate_windows(rng)
        return PhysicalLink(
            physical_id=physical_id,
            source=source,
            destination=target,
            bandwidth=bandwidth,
            latency=latency,
            windows=windows,
        )

    def _generate_windows(self, rng: random.Random) -> Tuple[Interval, ...]:
        """Availability windows per the §5.3 procedure.

        A window duration and a percentage of the day are drawn; the window
        count is the available time divided by the duration; the first
        window starts within the first third of the total unavailable time;
        the remaining unavailable time is split randomly into positive gaps
        between consecutive windows (plus trailing slack).
        """
        cfg = self._config
        duration = rng.choice(cfg.window_durations)
        percent = rng.choice(cfg.availability_percents)
        available = cfg.day_seconds * percent / 100.0
        count = max(1, round(available / duration))
        count = min(count, int(cfg.day_seconds // duration))
        unavailable = cfg.day_seconds - count * duration
        first_start = rng.uniform(0.0, unavailable / 3.0)
        remaining = unavailable - first_start
        shares = [rng.random() for _ in range(count)]
        total_share = sum(shares) or 1.0
        gaps = [remaining * share / total_share for share in shares]
        windows = []
        cursor = first_start
        for index in range(count):
            windows.append(Interval(cursor, cursor + duration))
            cursor += duration + gaps[index]
        return tuple(windows)

    # -- data items and requests ---------------------------------------------

    def _generate_requests(
        self, rng: random.Random, machine_count: int
    ) -> Tuple[List[DataItem], List[Request]]:
        cfg = self._config
        target = rng.randint(*cfg.requests_per_machine) * machine_count
        items: List[DataItem] = []
        requests: List[Request] = []
        while len(requests) < target:
            item, item_requests = self._generate_item(
                rng,
                machine_count,
                item_id=len(items),
                first_request_id=len(requests),
                budget=target - len(requests),
            )
            items.append(item)
            requests.extend(item_requests)
        return items, requests

    def _generate_item(
        self,
        rng: random.Random,
        machine_count: int,
        item_id: int,
        first_request_id: int,
        budget: int,
    ) -> Tuple[DataItem, List[Request]]:
        cfg = self._config
        source_count = rng.randint(*cfg.sources_per_item)
        source_count = min(source_count, machine_count - 1)
        destination_count = rng.randint(*cfg.destinations_per_item)
        destination_count = min(
            destination_count, machine_count - source_count, budget
        )
        destination_count = max(destination_count, 1)
        source_machines = rng.sample(range(machine_count), source_count)
        remaining = [
            m for m in range(machine_count) if m not in source_machines
        ]
        destinations = rng.sample(remaining, destination_count)
        start = rng.uniform(*cfg.item_start_seconds)
        item = DataItem(
            item_id=item_id,
            name=f"item-{item_id:04d}",
            size=rng.uniform(*cfg.item_size_bytes),
            sources=tuple(
                SourceLocation(machine=machine, available_from=start)
                for machine in source_machines
            ),
        )
        item_requests = [
            Request(
                request_id=first_request_id + offset,
                item_id=item_id,
                destination=destination,
                priority=rng.randrange(cfg.priority_levels),
                deadline=start + rng.uniform(*cfg.deadline_offset_seconds),
            )
            for offset, destination in enumerate(destinations)
        ]
        return item, item_requests
