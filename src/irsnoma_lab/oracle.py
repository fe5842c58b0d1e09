"""Exhaustive ground-truth search over phase configurations and power grids.

Enumerates every discrete reflection state (2**B choices per element) and
every per-cluster power split on a fixed step grid, scores the points in
bounded chunks with the grid evaluator the learners also score through,
and returns the feasible maximizer.  One pass serves one scenario at
several power budgets: each chunk is precoded once and scored at each power.
Intended for small instances; a hard evaluation-count guard keeps runs
desk-scale.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .channel import PhaseConfig
from .noma import NetworkScenario, ScenarioStack, evaluate_powers

EVALUATION_GUARD = 10**8
# alpha_grid holds every split at once, about 250 bytes a row for one
# 10-user cluster, so the split rows have a guard of their own.
SPLIT_GUARD = 10**6
# Grid points (or phases, for one user's gain) scored per chunk, one power
# at a time.  Working arrays hold one SINR per (point, decoder, target) of
# a cluster and one effective-channel entry per (phase, user, element), so
# they stay a few MiB on oracle-sized instances.
CHUNK_POINTS = 1 << 12


class SearchSpaceTooLargeError(ValueError):
    """Enumeration would exceed the evaluation guard or the split guard."""

    def __init__(self, count: int, what: str = "evaluations", guard: int = EVALUATION_GUARD):
        self.count = int(count)
        super().__init__(f"search space holds {count} {what}, above the guard {guard}")


def composition_count(units: int, parts: int) -> int:
    """Number of ways to write ``units`` as an ordered sum of ``parts`` >= 0 terms."""
    return math.comb(units + parts - 1, parts - 1)


def _units_from_step(step: float) -> int:
    """Grid units in a unit power budget; rejects a step that does not divide 1,
    or one at or below 2**-63, whose units overflow the env's int64 ``multinomial``."""
    if 0 < step <= 2.0**-63:
        raise ValueError(f"alpha_step {step!r} gives more power units than an int64 holds")
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
            count *= composition_count(units, size)
        return count

    @property
    def total_count(self) -> int:
        return self.phase_count * self.split_count

    def check_guard(self):
        if self.total_count > EVALUATION_GUARD:
            raise SearchSpaceTooLargeError(self.total_count)
        if self.split_count > SPLIT_GUARD:
            raise SearchSpaceTooLargeError(self.split_count, "power splits", SPLIT_GUARD)


@functools.lru_cache(maxsize=1)
def phase_index_block(
    k_elements: int, resolution_bits: int, start: int, stop: int
) -> np.ndarray:
    """Rows ``start:stop`` of the lexicographic phase enumeration as a read-only (P, K) array."""
    levels = 1 << resolution_bits
    place = levels ** np.arange(k_elements - 1, -1, -1, dtype=np.int64)
    block = np.arange(start, stop, dtype=np.int64)[:, None] // place % levels
    block.flags.writeable = False
    return block


def _compositions(units: int, parts: int) -> np.ndarray:
    """Every way to write ``units`` as ``parts`` ordered non-negative counts.

    Stars and bars: ``parts - 1`` bars among ``units + parts - 1`` slots,
    taken in lexicographic order, so the rows (the gaps between successive
    bars) run lexicographically too.  Returns a (C, parts) integer array.
    """
    slots = units + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=np.int64)
    edges = np.column_stack([
        np.full(len(bars), -1), bars.reshape(len(bars), parts - 1), np.full(len(bars), slots)
    ])
    return np.diff(edges, axis=1) - 1


@functools.lru_cache(maxsize=1)
def alpha_grid(cluster_sizes: tuple[int, ...], step: float) -> np.ndarray:
    """Every split on the step grid as one read-only (S, N) coefficient row each.

    Rows run through the cross product of the per-cluster simplex grids in
    lexicographic order, the first cluster slowest; within a cluster the
    unit compositions run lexicographically too (see :func:`_compositions`).
    A single-user cluster has the one coefficient 1.0.  The oracle breaks
    ties toward the earlier row.  The last grid is kept for the next search.
    """
    units = _units_from_step(step)
    per_cluster = [
        _compositions(units, int(size)) / units
        for size in cluster_sizes
    ]
    picks = np.indices([len(grid) for grid in per_cluster])
    picks = picks.reshape(len(per_cluster), -1)
    grid = np.concatenate([grid[pick] for grid, pick in zip(per_cluster, picks)], axis=1)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class OracleResult:
    """Feasible maximizer of the exhaustive search (or the no-result marker).

    ``best_orders`` holds each cluster's decoding order at the maximizer;
    the JSON leaves them out.
    """

    best_phase: PhaseConfig | None
    best_splits: tuple[tuple[float, ...], ...] | None
    best_rate: float
    feasible_count: int
    evaluated_count: int
    wall_time_s: float
    best_orders: tuple[tuple[int, ...], ...] | None

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


def _grid_chunks(n_phases: int, n_splits: int, size: int):
    """(phase_start, phase_stop, split_start, split_stop) blocks, phase-major.

    Each block holds at most ``size`` points: whole phases when a phase's
    splits fit, else one phase and a run of its splits.
    """
    if n_splits <= size:
        step = size // n_splits
        for p in range(0, n_phases, step):
            yield p, min(p + step, n_phases), 0, n_splits
    else:
        for p in range(n_phases):
            for s in range(0, n_splits, size):
                yield p, p + 1, s, min(s + size, n_splits)


def brute_force_optima(
    scenario: NetworkScenario, resolution_bits: int, alpha_step: float, powers
) -> list[OracleResult]:
    """The exhaustive search of ``scenario`` at each budget of ``powers``, in one pass.

    The search space is every ``resolution_bits`` phase state of the
    scenario's elements and every ``alpha_step`` split of its clusters.
    Only the final ZF scale reads a budget, so the budgets share the split
    grid, the layout stack and, chunk by chunk, the precode (effective
    channels, heads, the unscaled ZF inverse and its condition check).
    Each chunk of at most ``CHUNK_POINTS`` points is precoded once and then
    scored at each power in turn (:func:`~irsnoma_lab.noma.evaluate_powers`),
    so working memory does not grow with the number of powers.  Chunks run
    phase-major, split-minor; a chunk's first maximum replaces a power's
    running one only on a strict improvement, so ties resolve to the
    lexicographically first point and reruns are bit-identical.  Result r
    equals the search of ``scenario`` with ``total_power`` ``powers[r]``
    alone; each result's ``wall_time_s`` is the whole pass.
    """
    powers = list(powers)
    if not powers or not all(p > 0 for p in powers):
        raise ValueError(f"powers {powers} must be a non-empty list of positive budgets")
    space = SearchSpace(
        scenario.channels.k_elements, resolution_bits, scenario.cluster_sizes, alpha_step
    )
    space.check_guard()

    start = time.perf_counter()
    grid = alpha_grid(space.cluster_sizes, alpha_step)
    stack = ScenarioStack([scenario])
    best_rate = [-np.inf] * len(powers)
    best = [(None, None, None)] * len(powers)  # (phase, splits, orders)
    feasible = [0] * len(powers)
    for p0, p1, s0, s1 in _grid_chunks(space.phase_count, len(grid), CHUNK_POINTS):
        phase_idx = phase_index_block(space.k_elements, resolution_bits, p0, p1)
        scored = evaluate_powers(stack, phase_idx, grid[s0:s1], resolution_bits, powers)
        for r in range(len(powers)):
            scores = next(scored)
            feasible[r] += int(np.count_nonzero(scores.feasible))
            rates = np.where(scores.feasible, scores.sum_rate, -np.inf)
            p, s = divmod(int(rates.argmax()), s1 - s0)
            if rates[p, s] > best_rate[r]:
                best_rate[r] = float(rates[p, s])
                best[r] = (
                    PhaseConfig(phase_idx[p].tolist(), resolution_bits),
                    scenario.split_tuples(grid[s0 + s]),
                    scenario.split_tuples(scores.order[p]),
                )
            # Dropped before the next power is scored: one power's scores at a time.
            del scores, rates
    wall_time = time.perf_counter() - start
    return [
        OracleResult(
            best_phase=phase,
            best_splits=splits,
            best_rate=rate if count else 0.0,
            feasible_count=count,
            evaluated_count=space.phase_count * len(grid),
            wall_time_s=wall_time,
            best_orders=orders,
        )
        for rate, (phase, splits, orders), count in zip(best_rate, best, feasible)
    ]
