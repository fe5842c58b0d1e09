"""Exhaustive ground-truth search over phase configurations and power grids.

Enumerates every discrete reflection state (2**B choices per element) and
every per-cluster power split on a fixed step grid, scores each point
through the same evaluation path the learners use, and returns the feasible
maximizer.  Intended for small instances; a hard evaluation-count guard
keeps runs desk-scale.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channel import PhaseConfig
from .noma import NetworkScenario, alpha_from_units, evaluate_configuration

EVALUATION_GUARD = 10**8


class SearchSpaceTooLargeError(ValueError):
    """Enumeration would exceed the evaluation guard."""

    def __init__(self, count: int, guard: int = EVALUATION_GUARD):
        self.count = int(count)
        super().__init__(
            f"search space holds {count} evaluations, above the guard {guard}"
        )


def composition_count(units: int, parts: int) -> int:
    """Number of ways to write ``units`` as an ordered sum of ``parts`` >= 0 terms."""
    return math.comb(units + parts - 1, parts - 1)


def _units_from_step(step: float) -> int:
    """Grid units in a unit power budget; rejects a step that does not divide 1."""
    units = round(1.0 / step) if step > 0 else 0
    if units < 1 or abs(units * step - 1.0) > 1e-9:
        raise ValueError(f"alpha_step {step!r} does not divide 1")
    return units


@dataclass(frozen=True)
class SearchSpace:
    """Discrete search domain: phases for K elements, splits per cluster."""

    k_elements: int
    resolution_bits: int
    cluster_sizes: tuple[int, ...]
    alpha_step: float = 0.1

    def __post_init__(self):
        if self.k_elements < 1 or self.resolution_bits < 1:
            raise ValueError("k_elements and resolution_bits must be positive")
        sizes = tuple(int(s) for s in self.cluster_sizes)
        if any(s < 1 for s in sizes):
            raise ValueError("every cluster must hold at least one user")
        _units_from_step(self.alpha_step)
        object.__setattr__(self, "cluster_sizes", sizes)

    @property
    def phase_count(self) -> int:
        return (1 << self.resolution_bits) ** self.k_elements

    @property
    def split_count(self) -> int:
        units = _units_from_step(self.alpha_step)
        count = 1
        for size in self.cluster_sizes:
            count *= composition_count(units, size) if size > 1 else 1
        return count

    @property
    def total_count(self) -> int:
        return self.phase_count * self.split_count

    def check_guard(self, guard: int = EVALUATION_GUARD):
        if self.total_count > guard:
            raise SearchSpaceTooLargeError(self.total_count, guard)


def enumerate_phase_configs(
    k_elements: int, resolution_bits: int, guard: int = EVALUATION_GUARD
) -> Iterator[PhaseConfig]:
    """All (2**B)**K reflection states exactly once, lexicographic order."""
    levels = 1 << resolution_bits
    count = levels**k_elements
    if count > guard:
        raise SearchSpaceTooLargeError(count, guard)
    for indices in itertools.product(range(levels), repeat=k_elements):
        yield PhaseConfig(indices, resolution_bits)


def _compositions(units: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Lexicographic in the first coordinate, then recursively.
    if parts == 1:
        yield (units,)
        return
    for first in range(units + 1):
        for rest in _compositions(units - first, parts - 1):
            yield (first,) + rest


def enumerate_alpha_grids(
    cluster_sizes, step: float, guard: int = EVALUATION_GUARD
) -> Iterator[tuple[tuple[float, ...], ...]]:
    """Cross-product of per-cluster simplex grids with spacing ``step``.

    Single-user clusters contribute the only split (1.0); larger clusters
    enumerate every composition of the unit budget on the step grid.
    """
    units = _units_from_step(step)
    sizes = tuple(int(s) for s in cluster_sizes)
    count = 1
    for size in sizes:
        count *= composition_count(units, size) if size > 1 else 1
    if count > guard:
        raise SearchSpaceTooLargeError(count, guard)
    per_cluster = []
    for size in sizes:
        if size == 1:
            per_cluster.append([(1.0,)])
        else:
            per_cluster.append(
                [alpha_from_units(c) for c in _compositions(units, size)]
            )
    for combo in itertools.product(*per_cluster):
        yield tuple(combo)


@dataclass(frozen=True)
class OracleResult:
    """Feasible maximizer of the exhaustive search (or the no-result marker)."""

    best_phase: PhaseConfig | None
    best_splits: tuple[tuple[float, ...], ...] | None
    best_rate: float
    feasible_count: int
    evaluated_count: int
    wall_time_s: float

    def to_json(self) -> str:
        doc = {
            "phase_indices": list(self.best_phase.indices) if self.best_phase else None,
            "resolution_bits": self.best_phase.resolution_bits
            if self.best_phase
            else None,
            "power_splits": [list(s) for s in self.best_splits]
            if self.best_splits
            else None,
            "sum_rate": self.best_rate if self.feasible_count else None,
            "feasible_count": self.feasible_count,
            "evaluated_count": self.evaluated_count,
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def brute_force_optimum(
    scenario: NetworkScenario,
    space: SearchSpace,
    guard: int = EVALUATION_GUARD,
) -> OracleResult:
    """Evaluate every (phase, split) pair and keep the feasible maximizer.

    Enumeration order is lexicographic and the running maximum only replaces
    on a strict improvement, so ties resolve to the lexicographically first
    point and reruns are bit-identical.
    """
    if space.cluster_sizes != scenario.cluster_sizes():
        raise ValueError(
            f"search space cluster sizes {space.cluster_sizes} do not match the "
            f"scenario's {scenario.cluster_sizes()}"
        )
    if space.k_elements != scenario.channels.k_elements:
        raise ValueError("search space element count does not match the channels")
    space.check_guard(guard)

    start = time.perf_counter()
    best_rate = -np.inf
    best_phase = None
    best_splits = None
    feasible = 0
    evaluated = 0
    all_splits = list(enumerate_alpha_grids(space.cluster_sizes, space.alpha_step))
    for phase in enumerate_phase_configs(space.k_elements, space.resolution_bits):
        for splits in all_splits:
            evaluated += 1
            result = evaluate_configuration(scenario, phase, splits)
            if not result.feasible:
                continue
            feasible += 1
            if result.sum_rate > best_rate:
                best_rate = result.sum_rate
                best_phase = phase
                best_splits = splits
    return OracleResult(
        best_phase=best_phase,
        best_splits=best_splits,
        best_rate=float(best_rate) if feasible else 0.0,
        feasible_count=feasible,
        evaluated_count=evaluated,
        wall_time_s=time.perf_counter() - start,
    )
