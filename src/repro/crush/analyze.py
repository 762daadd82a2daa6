"""CRUSH placement quality analysis (crushtool-style).

Answers the operational questions behind the paper's cluster-resize
scenarios: how evenly does a rule spread data, and how much data moves
when the map changes?  straw2's optimal-movement property and the list
bucket's expansion behaviour become measurable numbers here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import CrushError
from .map import CrushMap
from .rules import CrushRule, Mapper
from .types import CRUSH_ITEM_NONE


@dataclass
class DistributionReport:
    """How evenly placements spread over devices."""

    counts: dict[int, int]
    expected: dict[int, float]
    samples: int
    replicas: int

    @property
    def max_deviation(self) -> float:
        """Largest relative deviation from the weight-proportional share."""
        worst = 0.0
        for dev, expect in self.expected.items():
            if expect <= 0:
                continue
            worst = max(worst, abs(self.counts.get(dev, 0) - expect) / expect)
        return worst

    @property
    def coefficient_of_variation(self) -> float:
        """Stddev/mean of per-device load normalized by weight."""
        ratios = [
            self.counts.get(dev, 0) / expect
            for dev, expect in self.expected.items()
            if expect > 0
        ]
        if not ratios:
            return 0.0
        return float(np.std(ratios) / np.mean(ratios))


def analyze_distribution(
    cmap: CrushMap, rule: CrushRule, replicas: int = 3, samples: int = 2000
) -> DistributionReport:
    """Sample placements and compare against weight-proportional shares."""
    if samples < 1:
        raise CrushError(f"samples must be >= 1, got {samples}")
    counts: Counter = Counter()
    placed = 0
    for acting in Mapper(cmap).do_rule_many(rule, range(samples), replicas):
        for osd in acting:
            if osd != CRUSH_ITEM_NONE:
                counts[osd] += 1
                placed += 1
    in_devices = {d: dev for d, dev in cmap.devices.items() if not dev.is_out}
    total_weight = sum(dev.weight for dev in in_devices.values())
    expected = {
        d: placed * dev.weight / total_weight for d, dev in in_devices.items()
    }
    return DistributionReport(dict(counts), expected, samples, replicas)


@dataclass
class MovementReport:
    """Data movement caused by a map change."""

    samples: int
    replicas: int
    moved_slots: int
    total_slots: int

    @property
    def moved_fraction(self) -> float:
        """Fraction of replica slots that changed device."""
        return self.moved_slots / self.total_slots if self.total_slots else 0.0


def analyze_movement(
    cmap: CrushMap,
    rule: CrushRule,
    mutate: Callable[[CrushMap], None],
    replicas: int = 3,
    samples: int = 2000,
) -> MovementReport:
    """Measure how many placements move after ``mutate`` edits the map.

    The theoretical optimum for removing weight fraction f is f (only the
    data on the removed/changed device moves); straw2 approaches it,
    which this report quantifies.
    """
    mapper = Mapper(cmap)
    before = mapper.do_rule_many(rule, range(samples), replicas)
    mutate(cmap)
    after = mapper.do_rule_many(rule, range(samples), replicas)
    moved = 0
    total = 0
    for b, a in zip(before, after):
        total += max(len(b), len(a))
        moved += sum(1 for dev in b if dev not in a)
        moved += abs(len(a) - len(b))
    return MovementReport(samples, replicas, moved, total)


def optimal_movement_fraction(cmap: CrushMap, removed_weight: int) -> float:
    """The lower bound: weight removed / total weight."""
    total = sum(dev.weight for dev in cmap.devices.values() if not dev.is_out)
    if total <= 0:
        raise CrushError("cluster has no in-weight")
    return removed_weight / (total + removed_weight)
