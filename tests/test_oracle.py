import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab import oracle
from irsnoma_lab.channel import ChannelRealization, PhaseConfig, dbm_to_watts
from irsnoma_lab.noma import NetworkScenario
from irsnoma_lab.oracle import (
    SearchSpace,
    SearchSpaceTooLargeError,
    alpha_grid,
    brute_force_optima,
    composition_count,
    phase_index_block,
)
from scalar_reference import evaluate_point, one_power_optimum

# Chunk sizes that put chunk boundaries inside phases, between phases, and
# (at the default) nowhere on small grids.
CHUNKS = pytest.mark.parametrize(
    "chunk", [1, 3, oracle.CHUNK_POINTS], ids=["1", "3", "default"]
)


def result_fields(result):
    """Every OracleResult field except the wall time."""
    return (
        result.best_phase,
        result.best_splits,
        result.best_rate,
        result.feasible_count,
        result.evaluated_count,
    )


def all_phases(k_elements, resolution_bits):
    """Every phase config once, lexicographic, straight from ``itertools.product``."""
    levels = range(1 << resolution_bits)
    return [
        PhaseConfig(indices, resolution_bits)
        for indices in itertools.product(levels, repeat=k_elements)
    ]


def literal_splits(cluster_sizes, step):
    """Every split as per-cluster tuples, straight from ``itertools.product``.

    A cluster's tuples are the unit counts summing to the budget, in
    lexicographic order, each divided by the budget.
    """
    units = round(1 / step)
    per_cluster = [
        [
            tuple(c / units for c in counts)
            for counts in itertools.product(range(units + 1), repeat=size)
            if sum(counts) == units
        ]
        for size in cluster_sizes
    ]
    return list(itertools.product(*per_cluster))


def search(scenario, resolution_bits, alpha_step):
    """The one-power pass at the scenario's own budget."""
    (result,) = brute_force_optima(
        scenario, resolution_bits, alpha_step, [scenario.total_power]
    )
    return result


def literal_optimum(scenario, resolution_bits, alpha_step):
    """The exhaustive search as a plain loop over single points."""
    best_rate, best_phase, best_splits = -np.inf, None, None
    feasible = evaluated = 0
    for phase in all_phases(scenario.channels.k_elements, resolution_bits):
        for splits in literal_splits(scenario.cluster_sizes, alpha_step):
            evaluated += 1
            point = evaluate_point(scenario, phase, splits)
            if point.feasible:
                feasible += 1
                if point.sum_rate > best_rate:
                    best_rate, best_phase, best_splits = point.sum_rate, phase, splits
    return best_phase, best_splits, best_rate if feasible else 0.0, feasible, evaluated


def make_scenario(rng, n_clusters=1, users_per_cluster=1, k_elements=1, power=1.0):
    n_users = n_clusters * users_per_cluster
    g = rng.standard_normal((k_elements, n_clusters)) + 1j * rng.standard_normal(
        (k_elements, n_clusters)
    )
    h = rng.standard_normal((n_users, k_elements)) + 1j * rng.standard_normal(
        (n_users, k_elements)
    )
    channels = ChannelRealization(g_matrix=g, user_channels=h, noise_variance=0.05)
    assignment = tuple(u // users_per_cluster for u in range(n_users))
    return NetworkScenario(channels=channels, assignment=assignment, total_power=power)


class TestPhaseEnumeration:
    def test_counts(self):
        assert SearchSpace(1, 1, (1,)).phase_count == len(phase_index_block(1, 1, 0, 2)) == 2
        assert SearchSpace(4, 2, (1,)).phase_count == len(phase_index_block(4, 2, 0, 256)) == 256

    def test_no_duplicates(self):
        configs = [tuple(row) for row in phase_index_block(2, 3, 0, 64).tolist()]
        assert len(configs) == 64
        assert len(set(configs)) == 64

    def test_lexicographic_order(self):
        configs = phase_index_block(2, 1, 0, 4).tolist()
        assert configs == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_index_block_matches_enumeration(self):
        rows = [list(r) for r in itertools.product(range(4), repeat=3)]
        assert phase_index_block(3, 2, 0, 64).tolist() == rows
        assert phase_index_block(3, 2, 5, 9).tolist() == rows[5:9]

    def test_guard(self):
        with pytest.raises(SearchSpaceTooLargeError) as err:
            SearchSpace(40, 5, (1,)).check_guard()
        assert err.value.count == 32**40
        # 2 phases x C(29, 9) splits pass the evaluation guard, not the split guard.
        with pytest.raises(SearchSpaceTooLargeError, match="10015005 power splits") as err:
            SearchSpace(1, 1, (10,), 0.05).check_guard()
        assert err.value.count == 10_015_005


class TestAlphaEnumeration:
    def test_single_user(self):
        assert alpha_grid((1,), 0.5).tolist() == [[1.0]]

    def test_two_users_half_step(self):
        grid = alpha_grid((2,), 0.5).tolist()
        assert grid == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]

    def test_two_users_tenth_step(self):
        assert alpha_grid((2,), 0.1).shape == (11, 2)

    def test_cross_product_over_clusters(self):
        assert alpha_grid((2, 2), 0.5).shape == (9, 4)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            alpha_grid((2,), 0.3)

    def test_composition_count_matches(self):
        assert composition_count(10, 2) == 11
        assert composition_count(2, 3) == 6
        assert len(alpha_grid((3,), 0.5)) == composition_count(2, 3)

    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 5, 6])
    def test_compositions_equal_the_filtered_product_in_order(self, parts):
        # itertools.product is lexicographic, so its rows that sum to the
        # budget are every composition in lexicographic order.
        for units in range(0, 11 if parts <= 4 else 7):
            literal = [
                counts
                for counts in itertools.product(range(units + 1), repeat=parts)
                if sum(counts) == units
            ]
            rows = oracle._compositions(units, parts)
            assert rows.shape == (composition_count(units, parts), parts)
            assert [tuple(row) for row in rows.tolist()] == literal

    @pytest.mark.parametrize("sizes", [(1,), (3,), (2, 2), (1, 3, 2)])
    @pytest.mark.parametrize("step", [0.5, 0.25, 0.2, 0.1])
    def test_rows_equal_the_literal_product_in_order(self, sizes, step):
        # Row order decides which of two tied points the oracle keeps.
        literal = [
            [a for part in split for a in part]
            for split in literal_splits(sizes, step)
        ]
        assert alpha_grid(sizes, step).tolist() == literal


class TestSearchSpace:
    def test_counts(self):
        space = SearchSpace(4, 2, (2, 2), alpha_step=0.1)
        assert space.phase_count == 256
        assert space.split_count == 121
        assert space.total_count == 256 * 121

    def test_guard(self):
        space = SearchSpace(25, 5, (1,), alpha_step=0.5)
        with pytest.raises(SearchSpaceTooLargeError):
            space.check_guard()


class TestBruteForce:
    def test_single_user_one_bit_is_two_point_max(self):
        rng = np.random.default_rng(3)
        scenario = make_scenario(rng, k_elements=1)
        result = search(scenario, 1, 0.5)
        rates = [
            evaluate_point(scenario, PhaseConfig((n,), 1), ((1.0,),)).sum_rate
            for n in (0, 1)
        ]
        assert result.best_rate == pytest.approx(max(rates))
        assert result.best_phase.indices == (int(np.argmax(rates)),)
        assert result.evaluated_count == 2

    @CHUNKS
    def test_all_zero_channels_tie_lexicographically_first(self, chunk, monkeypatch):
        monkeypatch.setattr(oracle, "CHUNK_POINTS", chunk)
        channels = ChannelRealization(
            g_matrix=np.zeros((2, 1), dtype=complex),
            user_channels=np.ones((1, 2), dtype=complex),
            noise_variance=1.0,
        )
        scenario = NetworkScenario(
            channels=channels, assignment=(0,), total_power=1.0
        )
        result = search(scenario, 1, 0.5)
        # Zero cascaded channel makes the combined matrix singular, so no
        # point is feasible and that is reported explicitly.
        assert result.feasible_count == 0
        assert result.best_phase is None
        assert result_fields(result) == (None, None, 0.0, 0, 4)

    @CHUNKS
    def test_exact_tie_across_chunk_boundary(self, chunk, monkeypatch):
        # Element 1 reflects nothing (zero user channel entry), so phases
        # (n, 0) and (n, 1) score bit-identically; the first must win.
        channels = ChannelRealization(
            g_matrix=np.array([[1.0 + 0.5j], [2.0 - 1.0j]]),
            user_channels=np.array([[1.0 - 2.0j, 0.0]]),
            noise_variance=1.0,
        )
        scenario = NetworkScenario(channels=channels, assignment=(0,), total_power=1.0)
        monkeypatch.setattr(oracle, "CHUNK_POINTS", chunk)
        result = search(scenario, 1, 0.5)
        assert result.feasible_count == 4
        assert result.best_phase.indices[1] == 0
        assert result_fields(result) == literal_optimum(scenario, 1, 0.5)

    def test_zero_user_channel_ties_at_zero_rate(self):
        channels = ChannelRealization(
            g_matrix=np.ones((2, 1), dtype=complex),
            user_channels=np.vstack(
                [np.ones(2, dtype=complex), np.zeros(2, dtype=complex)]
            ),
            noise_variance=1.0,
        )
        scenario = NetworkScenario(
            channels=channels, assignment=(0, 0), total_power=1.0
        )
        result = search(scenario, 1, 0.5)
        # User 1 sees a zero channel: all its splits rate the same, so the
        # tie-break keeps the lexicographically first maximizer.
        assert result.feasible_count > 0
        assert result.best_phase is not None

    @CHUNKS
    def test_deterministic_reruns(self, chunk, monkeypatch):
        rng = np.random.default_rng(10)
        scenario = make_scenario(rng, n_clusters=2, users_per_cluster=1, k_elements=2)
        default = search(scenario, 2, 0.5)
        monkeypatch.setattr(oracle, "CHUNK_POINTS", chunk)
        a = search(scenario, 2, 0.5)
        b = search(scenario, 2, 0.5)
        assert a.best_phase == b.best_phase
        assert a.best_rate == b.best_rate
        assert a.best_splits == b.best_splits
        assert result_fields(a) == result_fields(b) == result_fields(default)

    def test_dominates_every_enumerated_point(self):
        rng = np.random.default_rng(21)
        scenario = make_scenario(rng, n_clusters=2, users_per_cluster=2, k_elements=2)
        result = search(scenario, 1, 0.5)
        for phase in all_phases(2, 1):
            for splits in literal_splits((2, 2), 0.5):
                point = evaluate_point(scenario, phase, splits)
                if point.feasible:
                    assert result.best_rate >= point.sum_rate - 1e-15

    def test_json_export(self):
        rng = np.random.default_rng(4)
        scenario = make_scenario(rng, k_elements=2)
        result = search(scenario, 1, 0.5)
        doc = result.to_json()
        assert '"sum_rate"' in doc and '"wall_time_s"' in doc


class TestBatchedSearchEqualsLiteralLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_clusters=st.integers(1, 2),
        users_per_cluster=st.integers(1, 3),
        k_elements=st.integers(1, 3),
        power_dbm=st.floats(0.0, 120.0),
        qos_floor=st.sampled_from([0.0, 0.01]),
        model=st.sampled_from(["incoherent", "coherent"]),
        domain=st.sampled_from(["amplitude", "power"]),
        chunk=st.sampled_from([1, 3, 7, oracle.CHUNK_POINTS]),
    )
    def test_matches_per_point_loop(
        self, seed, n_clusters, users_per_cluster, k_elements, power_dbm,
        qos_floor, model, domain, chunk,
    ):
        base = make_scenario(
            np.random.default_rng(seed), n_clusters, users_per_cluster, k_elements
        )
        scenario = NetworkScenario(
            channels=base.channels,
            assignment=base.assignment,
            total_power=dbm_to_watts(power_dbm),
            qos_floors=qos_floor,
            interference_model=model,
            alpha_domain=domain,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "CHUNK_POINTS", chunk)
            result = search(scenario, 1, 0.25)
        assert result_fields(result) == literal_optimum(scenario, 1, 0.25)


def every_field(result):
    """Every OracleResult field except the wall time; the rate by its bits."""
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "wall_time_s"
    }
    fields["best_rate"] = float(fields["best_rate"]).hex()
    return fields


def at_powers(scenario, powers_dbm):
    """The scenario once per power: one channel draw's runs."""
    return [
        dataclasses.replace(scenario, total_power=dbm_to_watts(p)) for p in powers_dbm
    ]


POWER_COUNTS = pytest.mark.parametrize("n_powers", [1, 3, 8])


def power_grid(n_powers):
    return [20.0 + 10.0 * i for i in range(n_powers)]


def near_parallel_heads():
    """Two one-user clusters whose effective channels are parallel at half the phases.

    With the surface rows (1, 0), (0, 1), (1, 1) and conj(h) rows (1, 1, 1)
    and (1, 0, 0), the head matrix has determinant -c0 (c1 + c2), which
    vanishes up to rounding wherever element 2 is flipped against element 1.
    """
    g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex)
    h = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]], dtype=complex)
    channels = ChannelRealization(
        g_matrix=g,
        user_channels=np.conj(h) * [[0.7 - 0.2j], [1.3 + 0.4j]],
        noise_variance=0.05,
    )
    return NetworkScenario(channels=channels, assignment=(0, 1), total_power=1.0)


class TestOnePassEqualsOnePowerSearches:
    """One pass over a draw's powers equals one search per power, field for field."""

    @staticmethod
    def assert_pass_equals_searches(scenarios, resolution_bits, alpha_step):
        # The pass reads ``powers``, not its scenario's own budget, so the
        # last run's scenario serves every power.
        powers = [s.total_power for s in scenarios]
        results = brute_force_optima(scenarios[-1], resolution_bits, alpha_step, powers)
        assert len(results) == len(scenarios)
        for scenario, result in zip(scenarios, results):
            reference = one_power_optimum(scenario, resolution_bits, alpha_step)
            assert every_field(result) == every_field(reference)
        return results

    @POWER_COUNTS
    @pytest.mark.parametrize(
        "chunk", [3, 40, oracle.CHUNK_POINTS], ids=["split-runs", "phase-blocks", "default"]
    )
    @pytest.mark.parametrize(
        "flags",
        [{}, {"interference_model": "coherent"}, {"alpha_domain": "power"},
         {"qos_floors": 0.05, "interference_model": "coherent", "alpha_domain": "power"}],
        ids=["default", "coherent", "power-domain", "floors-coherent-power"],
    )
    def test_random_draw(self, n_powers, chunk, flags, monkeypatch):
        # 25 splits per phase: a chunk of 3 splits a phase's runs, one of 40
        # holds one phase, the default holds all 16.
        monkeypatch.setattr(oracle, "CHUNK_POINTS", chunk)
        base = make_scenario(np.random.default_rng(31), 2, 2, k_elements=4)
        base = dataclasses.replace(base, **flags)
        runs = at_powers(base, power_grid(n_powers))
        results = self.assert_pass_equals_searches(runs, 1, 0.25)
        assert all(r.feasible_count > 0 for r in results)

    @POWER_COUNTS
    @CHUNKS
    def test_zf_rejected_phases(self, n_powers, chunk, monkeypatch):
        monkeypatch.setattr(oracle, "CHUNK_POINTS", chunk)
        base = near_parallel_heads()
        runs = at_powers(base, power_grid(n_powers))
        results = self.assert_pass_equals_searches(runs, 1, 0.5)
        # One split per phase, feasible exactly where ZF passes: half the phases.
        assert all(r.feasible_count == 4 and r.evaluated_count == 8 for r in results)

    @POWER_COUNTS
    def test_unreachable_floor(self, n_powers):
        base = make_scenario(np.random.default_rng(32), 2, 2, k_elements=2)
        base = dataclasses.replace(base, qos_floors=1e12)
        runs = at_powers(base, power_grid(n_powers))
        results = self.assert_pass_equals_searches(runs, 1, 0.5)
        for r in results:
            assert r.feasible_count == 0 and r.best_rate == 0.0
            assert r.best_phase is r.best_splits is r.best_orders is None

    @POWER_COUNTS
    @CHUNKS
    def test_ties_keep_the_first_point(self, n_powers, chunk, monkeypatch):
        # Element 1 reflects nothing, so phases (n, 0) and (n, 1) tie exactly.
        monkeypatch.setattr(oracle, "CHUNK_POINTS", chunk)
        channels = ChannelRealization(
            g_matrix=np.array([[1.0 + 0.5j], [2.0 - 1.0j]]),
            user_channels=np.array([[1.0 - 2.0j, 0.0], [0.5 + 0.5j, 0.0]]),
            noise_variance=1.0,
        )
        base = NetworkScenario(channels=channels, assignment=(0, 0), total_power=1.0)
        runs = at_powers(base, power_grid(n_powers))
        results = self.assert_pass_equals_searches(runs, 1, 0.5)
        assert all(r.best_phase.indices[1] == 0 for r in results)

    def test_a_single_scenario_is_the_one_power_search(self):
        scenario = make_scenario(np.random.default_rng(33), 2, 1, k_elements=2)
        assert every_field(search(scenario, 2, 0.5)) == every_field(
            one_power_optimum(scenario, 2, 0.5)
        )


class TestOnePassChecksItsInputs:
    @pytest.mark.parametrize(
        "powers", [[], [1.0, 0.0], [1.0, -2.0]], ids=["none", "zero", "negative"]
    )
    def test_needs_positive_powers(self, powers):
        base = make_scenario(np.random.default_rng(44), 2, 2, k_elements=2)
        with pytest.raises(ValueError, match="non-empty list of positive budgets"):
            brute_force_optima(base, 1, 0.5, powers)

    def test_reads_its_space_from_the_scenario(self):
        # Three elements, two clusters of two: 2**3 phases x 3 x 3 splits.
        base = make_scenario(np.random.default_rng(45), 2, 2, k_elements=3)
        (result,) = brute_force_optima(base, 1, 0.5, [1.0])
        assert result.evaluated_count == SearchSpace(3, 1, (2, 2), 0.5).total_count == 72
        wide = make_scenario(np.random.default_rng(46), k_elements=25)
        with pytest.raises(SearchSpaceTooLargeError):
            brute_force_optima(wide, 5, 0.5, [1.0])
