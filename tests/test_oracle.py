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
    brute_force_optimum,
    composition_count,
    phase_index_block,
)
from scalar_reference import evaluate_point

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


def literal_optimum(scenario, space):
    """The exhaustive search as a plain loop over single points."""
    best_rate, best_phase, best_splits = -np.inf, None, None
    feasible = evaluated = 0
    for phase in all_phases(space.k_elements, space.resolution_bits):
        for splits in literal_splits(space.cluster_sizes, space.alpha_step):
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
        space = SearchSpace(1, 1, (1,), alpha_step=0.5)
        result = brute_force_optimum(scenario, space)
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
        result = brute_force_optimum(scenario, SearchSpace(2, 1, (1,), 0.5))
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
        result = brute_force_optimum(scenario, SearchSpace(2, 1, (1,), 0.5))
        assert result.feasible_count == 4
        assert result.best_phase.indices[1] == 0
        assert result_fields(result) == literal_optimum(
            scenario, SearchSpace(2, 1, (1,), 0.5)
        )

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
        result = brute_force_optimum(scenario, SearchSpace(2, 1, (2,), 0.5))
        # User 1 sees a zero channel: all its splits rate the same, so the
        # tie-break keeps the lexicographically first maximizer.
        assert result.feasible_count > 0
        assert result.best_phase is not None

    @CHUNKS
    def test_deterministic_reruns(self, chunk, monkeypatch):
        rng = np.random.default_rng(10)
        scenario = make_scenario(rng, n_clusters=2, users_per_cluster=1, k_elements=2)
        space = SearchSpace(2, 2, (1, 1), alpha_step=0.5)
        default = brute_force_optimum(scenario, space)
        monkeypatch.setattr(oracle, "CHUNK_POINTS", chunk)
        a = brute_force_optimum(scenario, space)
        b = brute_force_optimum(scenario, space)
        assert a.best_phase == b.best_phase
        assert a.best_rate == b.best_rate
        assert a.best_splits == b.best_splits
        assert result_fields(a) == result_fields(b) == result_fields(default)

    def test_dominates_every_enumerated_point(self):
        rng = np.random.default_rng(21)
        scenario = make_scenario(rng, n_clusters=2, users_per_cluster=2, k_elements=2)
        space = SearchSpace(2, 1, (2, 2), alpha_step=0.5)
        result = brute_force_optimum(scenario, space)
        for phase in all_phases(2, 1):
            for splits in literal_splits((2, 2), 0.5):
                point = evaluate_point(scenario, phase, splits)
                if point.feasible:
                    assert result.best_rate >= point.sum_rate - 1e-15

    def test_json_export(self):
        rng = np.random.default_rng(4)
        scenario = make_scenario(rng, k_elements=2)
        result = brute_force_optimum(scenario, SearchSpace(2, 1, (1,), 0.5))
        doc = result.to_json()
        assert '"sum_rate"' in doc and '"wall_time_s"' in doc

    def test_mismatched_space_rejected(self):
        rng = np.random.default_rng(5)
        scenario = make_scenario(rng, k_elements=2)
        with pytest.raises(ValueError):
            brute_force_optimum(scenario, SearchSpace(2, 1, (2,), 0.5))
        with pytest.raises(ValueError):
            brute_force_optimum(scenario, SearchSpace(3, 1, (1,), 0.5))


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
        space = SearchSpace(
            k_elements, 1, scenario.cluster_sizes, alpha_step=0.25
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "CHUNK_POINTS", chunk)
            result = brute_force_optimum(scenario, space)
        assert result_fields(result) == literal_optimum(scenario, space)
