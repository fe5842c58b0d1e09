import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab.channel import ChannelRealization, PhaseConfig, dbm_to_watts
from irsnoma_lab.noma import (
    _plane_sum,
    _scalar_abs2,
    NetworkScenario,
    ScenarioStack,
    evaluate_batch,
    evaluate_points,
    oma_tdma_sum_rate,
)
from irsnoma_lab.oracle import alpha_grid, phase_index_block
from scalar_reference import (
    ClusterPlan,
    alpha_from_units,
    check_sic,
    decoding_order_by_gain,
    evaluate,
    evaluate_point,
    qos_check,
    reference_point,
    sinr_cross,
    sum_rate,
)

# SINR, SIC and QoS tests run on the per-pair scalar reference; the grid
# evaluator is compared against it in TestEvaluateBatch.


def unit_precoder(m=1):
    return np.eye(m, dtype=complex)


def two_user_plan(alpha=(0.8, 0.2)):
    return ClusterPlan(
        assignment=(0, 0), decoding_order=((0, 1),), power_split=(alpha,)
    )


class TestClusterPlan:
    def test_simplex_enforced(self):
        with pytest.raises(ValueError):
            two_user_plan((0.8, 0.1))
        with pytest.raises(ValueError):
            two_user_plan((1.2, -0.2))

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            ClusterPlan((0, 0), ((0, 0),), ((0.5, 0.5),))
        with pytest.raises(ValueError):
            ClusterPlan((0, 0, 1), ((0, 1), (1,)), ((0.5, 0.5), (1.0,)))

    def test_lookups(self):
        plan = ClusterPlan(
            assignment=(0, 1, 0),
            decoding_order=((2, 0), (1,)),
            power_split=((0.7, 0.3), (1.0,)),
        )
        assert plan.cluster_of(2) == 0
        assert plan.alpha_of(0) == pytest.approx(0.3)

    def test_alpha_from_units_exact_simplex(self):
        for units in [(1,), (3, 7), (0, 2, 8), (5, 5, 5, 5)]:
            alphas = np.array(alpha_from_units(units))
            assert abs(alphas.sum() - 1.0) <= 1e-12
            ClusterPlan(
                assignment=tuple([0] * len(units)),
                decoding_order=(tuple(range(len(units))),),
                power_split=(tuple(alphas),),
            )


class TestSinr:
    def test_single_user_no_interference(self):
        plan = ClusterPlan((0,), ((0,),), ((1.0,),))
        h = np.array([[1.0 + 0j]])
        tau = sinr_cross(0, 0, 0, h, unit_precoder(), plan, noise_variance=1.0)
        assert tau == pytest.approx(1.0)

    def test_hand_evaluated_two_user_sinr(self):
        # alpha = (0.8, 0.2), unit own-beam gain, no inter-cluster term,
        # noise 0.2: tau_strong-signal = 0.64 / (0.04 + 0.2) = 2.666...
        plan = two_user_plan((0.8, 0.2))
        h = np.array([[1.0 + 0j], [1.0 + 0j]])
        tau = sinr_cross(0, 0, 0, h, unit_precoder(), plan, noise_variance=0.2)
        assert tau == pytest.approx(0.64 / 0.24)

    def test_zero_alpha_zero_sinr(self):
        plan = two_user_plan((1.0, 0.0))
        h = np.array([[1.0 + 0j], [1.0 + 0j]])
        assert sinr_cross(0, 1, 1, h, unit_precoder(), plan, 0.5) == pytest.approx(0.0)

    def test_cross_equals_own_when_q_is_p(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        plan = two_user_plan((0.6, 0.4))
        gain = abs(h[:, 0]) ** 2  # unit precoder, one cluster, no other beams
        for p in (0, 1):
            q_other = 1 - p
            own = plan.alpha_of(p) ** 2 * gain[p] / (
                plan.alpha_of(q_other) ** 2 * gain[p] + 0.3
            )
            cross = sinr_cross(0, p, p, h, unit_precoder(), plan, 0.3)
            assert cross == pytest.approx(own, rel=1e-12)

    def test_cross_symmetric_for_identical_channels(self):
        h = np.array([[0.5 + 0.5j], [0.5 + 0.5j]])
        plan = two_user_plan((0.7, 0.3))
        tau_qp = sinr_cross(0, 1, 0, h, unit_precoder(), plan, 0.2)
        tau_pp = sinr_cross(0, 0, 0, h, unit_precoder(), plan, 0.2)
        assert tau_qp == pytest.approx(tau_pp)

    def test_cross_matches_duplicate_formula(self):
        rng = np.random.default_rng(31)
        m_clusters = 2
        h = rng.standard_normal((4, m_clusters)) + 1j * rng.standard_normal(
            (4, m_clusters)
        )
        w = rng.standard_normal((m_clusters, m_clusters)) + 1j * rng.standard_normal(
            (m_clusters, m_clusters)
        )
        plan = ClusterPlan(
            assignment=(0, 0, 1, 1),
            decoding_order=((0, 1), (2, 3)),
            power_split=((0.75, 0.25), (0.6, 0.4)),
        )
        noise = 0.05
        for (q, p) in [(0, 1), (1, 0), (2, 3), (3, 2)]:
            m = plan.cluster_of(q)
            got = sinr_cross(m, q, p, h, w, plan, noise)
            # Independent scalar re-evaluation, term by term.
            own = abs(np.dot(h[q], w[:, m])) ** 2
            num = plan.alpha_of(p) ** 2 * own
            intra = sum(
                plan.alpha_of(lam) ** 2 * own for lam in plan.members(m) if lam != p
            )
            inter = sum(
                abs(np.dot(h[q], w[:, g])) ** 2
                for g in range(m_clusters)
                if g != m
            )
            assert got == pytest.approx(num / (intra + inter + noise), rel=1e-12)

    def test_coherent_interference_model(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        plan = ClusterPlan((0, 1), ((0,), (1,)), ((1.0,), (1.0,)))
        noise = 0.1
        tau = sinr_cross(
            0, 0, 0, h, w, plan, noise, interference_model="coherent"
        )
        own = abs(np.dot(h[0], w[:, 0])) ** 2
        inter = abs(np.dot(h[0], w[:, 1])) ** 2  # single other beam: same as sum
        assert tau == pytest.approx(own / (inter + noise), rel=1e-12)

    def test_power_alpha_domain(self):
        plan = two_user_plan((0.8, 0.2))
        h = np.array([[1.0 + 0j], [1.0 + 0j]])
        tau = sinr_cross(
            0, 0, 0, h, unit_precoder(), plan, 0.2, alpha_domain="power"
        )
        assert tau == pytest.approx(0.8 / (0.2 + 0.2))

    def test_own_alpha_monotone(self):
        h = np.array([[1.0 + 0j], [1.0 + 0j]])
        noise = 0.3
        last = -1.0
        for a in np.linspace(0.05, 0.95, 10):
            plan = two_user_plan((a, 1.0 - a))
            tau = sinr_cross(0, 0, 0, h, unit_precoder(), plan, noise)
            assert tau > last
            last = tau


def scored_orders(scenario, phase_idx, bits):
    """Each cluster's decoding order as the scorer sorts it, per phase row."""
    first = np.concatenate([np.eye(1, size)[0] for size in scenario.cluster_sizes])
    grid = evaluate_batch(scenario, phase_idx, [first], bits)
    assert not np.isnan(grid.own_gains).any()
    return [scenario.split_tuples(row) for row in grid.order]


def one_cluster_orders(amplitudes):
    """The scorer's order for one cluster on a one-element surface, whose
    users' own gains scale with ``amplitudes``."""
    channels = ChannelRealization(
        g_matrix=[[1.0]], user_channels=np.array(amplitudes)[:, None], noise_variance=0.1
    )
    scenario = NetworkScenario(channels, (0,) * len(amplitudes), total_power=1.0)
    ((order,),) = scored_orders(scenario, [[0]], 1)
    return order


class TestDecodingOrder:
    def test_sorted_ascending(self):
        assert one_cluster_orders([0.2, 0.9]) == (0, 1)

    def test_tie_by_index(self):
        assert one_cluster_orders([0.5, 0.5]) == (0, 1)

    def test_three_users(self):
        assert one_cluster_orders([0.5, 0.1, 0.3]) == (1, 2, 0)

    def test_identical_channel_rows_decode_the_lower_index_first(self):
        # Users 1 and 3 share cluster 1 and one channel row, so their own
        # gains tie exactly at every phase.
        rng = np.random.default_rng(9)
        scenario = random_scenario(rng, users_per_cluster=2, k_elements=3)
        h = scenario.channels.user_channels.copy()
        h[3] = h[1]
        scenario = NetworkScenario(
            dataclasses.replace(scenario.channels, user_channels=h), (0, 1, 0, 1), 4.0
        )
        phase_idx = rng.integers(0, 4, size=(6, 3))
        gains = evaluate_batch(scenario, phase_idx, [[1.0, 0.0, 1.0, 0.0]], 2).own_gains
        assert np.array_equal(gains[:, 1], gains[:, 3])
        assert all(orders[1] == (1, 3) for orders in scored_orders(scenario, phase_idx, 2))


class TestChecks:
    def test_single_user_clusters_always_sic_feasible(self):
        plan = ClusterPlan((0, 1), ((0,), (1,)), ((1.0,), (1.0,)))
        rates = {(0, 0): 1.0, (1, 1): 2.0}
        assert check_sic(plan, rates)

    def test_identical_channels_equality_case(self):
        h = np.array([[1.0 + 1j], [1.0 + 1j]])
        plan = two_user_plan((0.7, 0.3))
        report = evaluate(h, unit_precoder(), plan, 0.1)
        assert report.sic_feasible

    def test_qos_boundary(self):
        assert qos_check([1.0], 1.0)
        assert not qos_check([0.5], 1.0)
        assert qos_check([0.0, 0.2], 0.0)

    def test_sum_rate_values(self):
        assert sum_rate([0.0, 0.0]) == 0.0
        assert sum_rate([1.0, 1.0]) == pytest.approx(2.0)

    def test_sum_rate_additivity(self):
        rng = np.random.default_rng(12)
        taus = rng.uniform(0, 5, size=8)
        assert sum_rate(taus) == pytest.approx(
            sum(np.log2(1 + t) for t in taus), abs=1e-12
        )


class TestProposition1Chain:
    def test_single_cluster_gain_sorted_always_decodable(self):
        # With no inter-cluster term the stronger (later-decoded) user always
        # decodes the weaker one's signal at least at its own rate.
        rng = np.random.default_rng(77)
        for _ in range(500):
            h = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
            gains = np.abs(h[:, 0])
            order = decoding_order_by_gain([0, 1], gains)
            alpha = rng.uniform(0.05, 0.95)
            plan = ClusterPlan(
                (0, 0), (order,), ((alpha, 1.0 - alpha),)
            )
            report = evaluate(h, unit_precoder(), plan, 0.1)
            b, a = order
            r_ab = np.log2(1 + report.cross_sinr[(a, b)])
            r_bb = np.log2(1 + report.cross_sinr[(b, b)])
            assert r_ab >= r_bb - 1e-12
            # Any admissible floor for b sits under its own rate, closing
            # the chain R_{a->b} >= R_{b->b} >= R_floor.
            floor = rng.uniform(0.0, 1.0) * report.cross_sinr[(b, b)]
            assert r_bb >= np.log2(1 + floor) - 1e-12

    def test_multi_cluster_conditional_chain(self):
        rng = np.random.default_rng(78)
        held = 0
        for _ in range(500):
            h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            gains = np.abs(h @ w)
            plans = []
            for m, members in enumerate([(0, 1), (2, 3)]):
                plans.append(decoding_order_by_gain(members, gains[:, m]))
            plan = ClusterPlan(
                (0, 0, 1, 1),
                (plans[0], plans[1]),
                ((0.8, 0.2), (0.7, 0.3)),
            )
            report = evaluate(h, w, plan, 0.05)
            for m in range(2):
                b, a = plan.decoding_order[m]
                r_ab = np.log2(1 + report.cross_sinr[(a, b)])
                r_bb = np.log2(1 + report.cross_sinr[(b, b)])
                if r_ab >= r_bb:
                    held += 1
                    assert r_bb >= 0.0  # floor rate with default zero floor
        assert held > 0


class TestOmaBaseline:
    def test_single_user_matches_single_user_noma(self):
        gain, power, noise = 0.7, 2.0, 0.1
        plan = ClusterPlan((0,), ((0,),), ((1.0,),))
        h = np.array([[gain + 0j]])
        w = np.array([[np.sqrt(power) + 0j]])
        report = evaluate(h, w, plan, noise)
        assert oma_tdma_sum_rate([gain], power, noise) == pytest.approx(
            report.sum_rate
        )

    def test_two_identical_users_half_rate_each(self):
        gain, power, noise = 0.4, 1.0, 0.2
        single = np.log2(1 + power * gain**2 / noise)
        assert oma_tdma_sum_rate([gain, gain], power, noise) == pytest.approx(single)

    def test_hand_summed_instance(self):
        gains, power, noise = [0.3, 0.6, 0.9], 2.0, 0.5
        expected = sum(
            (1.0 / 3.0) * np.log2(1 + power * g**2 / noise) for g in gains
        )
        assert oma_tdma_sum_rate(gains, power, noise) == pytest.approx(expected)


def random_scenario(rng, n_clusters=2, users_per_cluster=2, k_elements=4):
    n_users = n_clusters * users_per_cluster
    g = rng.standard_normal((k_elements, n_clusters)) + 1j * rng.standard_normal(
        (k_elements, n_clusters)
    )
    h = rng.standard_normal((n_users, k_elements)) + 1j * rng.standard_normal(
        (n_users, k_elements)
    )
    channels = ChannelRealization(
        g_matrix=g, user_channels=h, noise_variance=0.01
    )
    assignment = tuple(u // users_per_cluster for u in range(n_users))
    return NetworkScenario(
        channels=channels, assignment=assignment, total_power=4.0
    )


class TestEvaluateConfiguration:
    def test_global_phase_shift_invariance(self):
        rng = np.random.default_rng(101)
        scenario = random_scenario(rng)
        splits = ((0.8, 0.2), (0.6, 0.4))
        phase = PhaseConfig(tuple(rng.integers(0, 8, size=4)), 3)
        base = evaluate_point(scenario, phase, splits)
        for delta in (1, 3, 5):
            shifted = evaluate_point(scenario, phase.shifted(delta), splits)
            assert shifted.sum_rate == pytest.approx(base.sum_rate, abs=1e-9)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(131)
        scenario = random_scenario(rng)
        splits = ((0.7, 0.3), (0.55, 0.45))
        phase = PhaseConfig((0, 1, 2, 3), 2)
        base = evaluate_point(scenario, phase, splits)

        perm = np.array([2, 0, 3, 1])  # new index of each old user
        inv = np.argsort(perm)
        channels = ChannelRealization(
            g_matrix=scenario.channels.g_matrix,
            user_channels=scenario.channels.user_channels[inv],
            noise_variance=scenario.channels.noise_variance,
        )
        assignment = tuple(scenario.assignment[inv[u]] for u in range(4))
        relabeled = NetworkScenario(
            channels=channels, assignment=assignment, total_power=4.0
        )
        out = evaluate_point(relabeled, phase, splits)
        assert out.sum_rate == pytest.approx(base.sum_rate, abs=1e-12)

    def test_feasibility_flags_respected(self):
        rng = np.random.default_rng(7)
        scenario = random_scenario(rng)
        splits = ((0.9, 0.1), (0.9, 0.1))
        phase = PhaseConfig((0, 0, 0, 0), 2)
        result = evaluate_point(scenario, phase, splits)
        ref = reference_point(scenario, phase.indices, phase.resolution_bits, splits)
        assert result.feasible == (ref.report.sic_feasible and ref.report.qos_feasible)
        assert np.sum(np.abs(ref.w) ** 2) == pytest.approx(4.0, abs=1e-9)
        assert ref.report.sum_rate == pytest.approx(
            float(np.sum(ref.report.rates)), abs=1e-12
        )
        assert result.sum_rate == ref.sum_rate


def _grid_instance(draw, sizes, k, bits, n_phases, n_splits):
    """A scenario with these cluster sizes, ``n_phases`` phase rows and ``n_splits`` splits.

    Each split is one tuple of coefficients per cluster.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_clusters, n_users = len(sizes), sum(sizes)
    assignment = [m for m, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(assignment)
    g = rng.standard_normal((k, n_clusters)) + 1j * rng.standard_normal(
        (k, n_clusters)
    )
    h = rng.standard_normal((n_users, k)) + 1j * rng.standard_normal((n_users, k))
    if draw(st.booleans()) and n_clusters > 1:
        h[:] = h[0]  # every cluster head sees the same channel: singular ZF
    scenario = NetworkScenario(
        channels=ChannelRealization(
            g_matrix=g * 10 ** rng.uniform(-3, 0),
            user_channels=h * 10 ** rng.uniform(-3, 0),
            noise_variance=10 ** rng.uniform(-10, -1),
        ),
        assignment=tuple(int(c) for c in assignment),
        total_power=dbm_to_watts(draw(st.floats(0.0, 120.0))),
        qos_floors=draw(st.sampled_from([0.0, 0.01, 1.0])),
        interference_model=draw(st.sampled_from(["incoherent", "coherent"])),
        alpha_domain=draw(st.sampled_from(["amplitude", "power"])),
    )
    phase_idx = rng.integers(0, 1 << bits, (n_phases, k))
    splits = [
        tuple(alpha_from_units(rng.multinomial(10, np.ones(n) / n)) for n in sizes)
        for _ in range(n_splits)
    ]
    return scenario, phase_idx, bits, splits


@st.composite
def grid_instances(draw):
    """A small scenario, a stack of phase rows and a list of splits."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    return _grid_instance(
        draw,
        sizes,
        k=draw(st.integers(1, 3)),
        bits=draw(st.integers(1, 2)),
        n_phases=draw(st.integers(1, 8)),
        n_splits=draw(st.integers(1, 8)),
    )


@st.composite
def paper_scale_instances(draw):
    """Shapes the RL environment scores: up to 5 clusters, 10 users, K 25, B 5."""
    n_clusters = draw(st.integers(1, 5))
    n_users = draw(st.integers(n_clusters, 10))
    cuts = []
    if n_clusters > 1:
        cuts = sorted(
            draw(
                st.sets(
                    st.integers(1, n_users - 1),
                    min_size=n_clusters - 1,
                    max_size=n_clusters - 1,
                )
            )
        )
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n_users])]
    n_phases, n_splits = draw(st.sampled_from([(1, 1), (1, 3), (3, 1), (2, 2)]))
    return _grid_instance(
        draw,
        sizes,
        k=draw(st.integers(1, 25)),
        bits=draw(st.integers(1, 5)),
        n_phases=n_phases,
        n_splits=n_splits,
    )


def flat_row(split):
    """A split's per-cluster tuples laid end to end."""
    return [a for part in split for a in part]


def sorted_orders(scenario, gains):
    """Each cluster's decoding order by the scalar reference's Python sort."""
    return tuple(decoding_order_by_gain(members, gains) for members in scenario.members)


def assert_grid_equals_reference(instance):
    """Every grid point equals the scalar reference, and the 1 x 1 entry agrees."""
    scenario, phase_idx, bits, splits = instance
    alphas = np.array([flat_row(split) for split in splits])
    grid = evaluate_batch(scenario, phase_idx, alphas, bits)
    shape = (len(phase_idx), len(splits))
    assert grid.sum_rate.shape == grid.feasible.shape == shape
    for p, row in enumerate(phase_idx):
        for s, split in enumerate(splits):
            ref = reference_point(scenario, row, bits, split)
            point = evaluate_point(scenario, PhaseConfig(row, bits), split)
            assert grid.feasible[p, s] == ref.feasible == point.feasible
            assert point.sum_rate == grid.sum_rate[p, s]
            if ref.report is None:
                assert grid.sum_rate[p, s] == 0.0
                assert np.isnan(grid.own_gains[p]).all()
                assert point.own_gains is None
            else:
                assert grid.sum_rate[p, s] == ref.sum_rate
                assert np.array_equal(grid.own_gains[p], ref.own_gains)
                assert np.array_equal(point.own_gains, ref.own_gains)
                orders = sorted_orders(scenario, grid.own_gains[p])
                assert scenario.split_tuples(grid.order[p]) == point.orders == orders


class TestEvaluateBatch:
    @settings(max_examples=200, deadline=None)
    @given(grid_instances())
    def test_equals_single_point_path(self, instance):
        assert_grid_equals_reference(instance)

    @settings(max_examples=200, deadline=None)
    @given(paper_scale_instances())
    def test_equals_reference_at_paper_scale(self, instance):
        assert_grid_equals_reference(instance)

    @pytest.mark.parametrize(
        "n_clusters, users_per_cluster", [(3, 3), (5, 2)], ids=["9-users", "10-users"]
    )
    def test_user_sum_on_a_full_grid(self, n_clusters, users_per_cluster):
        # numpy's last-axis sum adds up to 7 terms left to right and regroups
        # longer rows, so a grid of 9 or 10 users tells the user-order sum
        # from a reordered one; the grid is at least the oracle's 256 x 11
        # points.
        rng = np.random.default_rng(10 * n_clusters + users_per_cluster)
        scenario = random_scenario(rng, n_clusters, users_per_cluster, k_elements=5)
        phase_idx = phase_index_block(5, 1, 0, 16)
        splits = [scenario.split_tuples(row) for row in alpha_grid(scenario.cluster_sizes, 0.5)]
        assert len(phase_idx) * len(splits) >= 256 * 11
        grid = evaluate_batch(scenario, phase_idx, [flat_row(split) for split in splits], 1)
        regrouped = 0
        for p, row in enumerate(phase_idx):
            for s, split in enumerate(splits):
                ref = reference_point(scenario, row, 1, split)
                assert grid.feasible[p, s] == ref.feasible
                assert grid.sum_rate[p, s].tobytes() == np.float64(ref.sum_rate).tobytes()
                # Adding the users' rates left to right gives other bits than
                # numpy's sum at some points: the case tells the two apart.
                total = 0.0
                for rate in ref.report.rates:
                    total += rate
                regrouped += total != ref.sum_rate
        assert regrouped

    def test_own_power_rounds_like_a_numpy_scalar(self):
        # libm pow(x, 2) and the array square x * x differ in rare last bits;
        # the magnitudes span 1e-150 to 1e150, so every square is normal.
        rng = np.random.default_rng(17)
        magnitude = 10.0 ** rng.uniform(-150.0, 150.0, 50_000)
        z = magnitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, magnitude.size))
        expected = [float(v) ** 2 for v in np.abs(z)]
        assert np.array_equal(_scalar_abs2(z), expected)
        assert not np.array_equal(np.abs(z) * np.abs(z), expected)

    def test_own_power_overflow_raises(self):
        # A finite magnitude whose square overflows fails, as float(x) ** 2 does.
        with pytest.raises(OverflowError):
            float(np.abs(1e200 + 1e200j)) ** 2
        with pytest.raises(FloatingPointError, match="overflow"):
            _scalar_abs2(np.array([1.0 + 0j, 1e200 + 1e200j]))

    @pytest.mark.parametrize("n_terms", [*range(1, 141), 256, 300])
    def test_plane_sum_rounds_like_a_last_axis_sum(self, n_terms):
        # Below 8 terms the first-axis sum must add as numpy's pairwise sum
        # does, so a numpy that regroups fewer terms fails here; the larger
        # N cross the 7/8 and 128/129 edges and the recursive split.
        # Magnitudes span 1e-5 to 1e5, both signs, with +0.0, -0.0 and NaN
        # entries.
        rng = np.random.default_rng(n_terms)
        planes = rng.choice([-1.0, 1.0], (n_terms, 6, 5)) * 10.0 ** rng.uniform(
            -5.0, 5.0, (n_terms, 6, 5)
        )
        pick = rng.random(planes.shape)
        planes[pick < 0.05] = 0.0
        planes[pick > 0.98] = np.nan
        planes[:, 0, 0] = -0.0
        planes[:, 0, 1] = np.where(np.arange(n_terms) % 2, 0.0, -0.0)
        # One element per plane too: a first-axis sum then runs as one row.
        for part in (planes, planes[:, 1:2, 2:3]):
            last_axis = np.ascontiguousarray(np.moveaxis(part, 0, -1))
            assert _plane_sum(part).tobytes() == np.sum(last_axis, axis=-1).tobytes()

    def test_rejects_a_split_off_the_simplex(self):
        scenario = random_scenario(np.random.default_rng(3))
        with pytest.raises(ValueError, match="cluster 0: power coefficients do not"):
            evaluate_batch(
                scenario, np.zeros((1, 4), dtype=int), [[0.5, 0.6, 0.5, 0.5]], 2
            )

    def test_split_checks_name_the_first_failing_cluster(self):
        # Clusters (0, 1) and (2, 3).  A sum off by 0.75e-12 fails the
        # one-pass screen but passes the per-cluster check, as a plan would.
        scenario = random_scenario(np.random.default_rng(3))
        phase_idx = np.zeros((1, 4), dtype=int)
        for row, error in (
            ([0.5, 0.5, -0.25, 1.25], "cluster 1: negative power coefficient"),
            ([0.5, 0.5 + 2e-12, 1.5, -0.5], "cluster 0: power coefficients do not"),
            ([0.5, 0.5, 0.25, 0.75 + 2e-12], "cluster 1: power coefficients do not"),
        ):
            with pytest.raises(ValueError, match=error):
                evaluate_batch(scenario, phase_idx, [row], 2)
        evaluate_batch(scenario, phase_idx, [[0.5, 0.5 + 0.75e-12, 0.25, 0.75]], 2)

    def test_rejects_a_row_of_the_wrong_width(self):
        scenario = random_scenario(np.random.default_rng(3))
        phase_idx = np.zeros((1, 4), dtype=int)
        for alphas in ([[0.5, 0.5, 1.0]], [0.5, 0.5, 0.5, 0.5], np.ones((1, 5)) / 5):
            with pytest.raises(ValueError, match=r"\(S, 4\) array"):
                evaluate_batch(scenario, phase_idx, alphas, 2)


@st.composite
def paired_instances(draw):
    """A small scenario, E phase rows, E splits and a power (W) per point."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n_points = draw(st.integers(1, 8))
    scenario, phase_idx, bits, splits = _grid_instance(
        draw, sizes, k=draw(st.integers(1, 3)), bits=draw(st.integers(1, 2)),
        n_phases=n_points, n_splits=n_points,
    )
    powers_dbm = draw(st.lists(st.floats(0.0, 120.0), min_size=n_points, max_size=n_points))
    return scenario, phase_idx, bits, splits, [dbm_to_watts(p) for p in powers_dbm]


def assert_points_equal_reference(instance):
    """Point e equals the reference scoring of its phase and split at its power.

    Returns the (ill-conditioned, feasible) flags of the points.
    """
    scenario, phase_idx, bits, splits, powers = instance
    alphas = np.array([flat_row(split) for split in splits])
    at_powers = [dataclasses.replace(scenario, total_power=p) for p in powers]
    scores = evaluate_points(at_powers, phase_idx, alphas, bits)
    assert scores.sum_rate.shape == scores.feasible.shape == (len(splits),)
    flags = []
    for e, (row, split, at_power) in enumerate(zip(phase_idx, splits, at_powers)):
        ref = reference_point(at_power, row, bits, split)
        point = evaluate_point(at_power, PhaseConfig(row, bits), split)
        assert scores.feasible[e] == ref.feasible == point.feasible
        assert scores.sum_rate[e] == point.sum_rate
        if ref.report is None:
            assert scores.sum_rate[e] == 0.0
            assert np.isnan(scores.own_gains[e]).all()
        else:
            assert scores.sum_rate[e] == ref.sum_rate
            assert np.array_equal(scores.own_gains[e], ref.own_gains)
            assert np.array_equal(point.own_gains, ref.own_gains)
            orders = sorted_orders(scenario, scores.own_gains[e])
            assert scenario.split_tuples(scores.order[e]) == point.orders == orders
        flags.append((ref.report is None, ref.feasible))
    return flags


def stacked_scenario(rng, n_users, n_clusters, k, flags, singular):
    """One run of a stack: its own channels, noise, power, floors and clustering."""
    assignment = np.concatenate(
        [np.arange(n_clusters), rng.integers(0, n_clusters, n_users - n_clusters)]
    )
    rng.shuffle(assignment)
    g = rng.standard_normal((k, n_clusters)) + 1j * rng.standard_normal((k, n_clusters))
    h = rng.standard_normal((n_users, k)) + 1j * rng.standard_normal((n_users, k))
    if singular and n_clusters > 1:
        h[:] = h[0]  # every cluster head sees the same channel: singular ZF
    return NetworkScenario(
        channels=ChannelRealization(
            g_matrix=g * 10 ** rng.uniform(-3, 0),
            user_channels=h * 10 ** rng.uniform(-3, 0),
            noise_variance=10 ** rng.uniform(-10, -1),
        ),
        assignment=tuple(int(c) for c in assignment),
        total_power=dbm_to_watts(rng.uniform(0.0, 120.0)),
        qos_floors=rng.choice([0.0, 0.01, 1.0], size=n_users),
        interference_model=flags[0],
        alpha_domain=flags[1],
    )


def split_row(rng, scenario):
    """A random on-grid coefficient row in the scenario's decoding slots."""
    return np.concatenate([
        rng.multinomial(10, np.ones(size) / size) / 10 for size in scenario.cluster_sizes
    ])


def assert_stack_equals_single_runs(scenarios, phase_idx, alphas, bits):
    """Point e of the stack equals run e scored alone, E = 1 and as a 1 x 1 grid.

    Returns the (ill-conditioned, feasible) flags of the points.
    """
    scores = evaluate_points(scenarios, phase_idx, alphas, bits)
    flags = []
    for e, scenario in enumerate(scenarios):
        alone = evaluate_points([scenario], phase_idx[e : e + 1], alphas[e : e + 1], bits)
        grid = evaluate_batch(scenario, phase_idx[e : e + 1], alphas[e : e + 1], bits)
        for theirs in (alone, grid):
            assert scores.sum_rate[e] == theirs.sum_rate.ravel()[0]
            assert scores.feasible[e] == theirs.feasible.ravel()[0]
            assert scores.own_gains[e].tobytes() == theirs.own_gains[0].tobytes()
            assert scores.order[e].tobytes() == theirs.order[0].tobytes()
        flags.append((bool(np.isnan(scores.own_gains[e]).all()), bool(scores.feasible[e])))
    return flags


class TestEvaluatePoints:
    @settings(max_examples=200, deadline=None)
    @given(paired_instances())
    def test_equals_reference_with_a_power_per_point(self, instance):
        assert_points_equal_reference(instance)

    def test_ill_conditioned_and_infeasible_points(self):
        # A QoS floor of 0.01 fails at low power and holds at high power; a
        # surface whose users all see one channel leaves ZF singular.
        flags = []
        for seed, singular in ((1, False), (2, False), (3, True)):
            rng = np.random.default_rng(seed)
            base = random_scenario(rng)
            h = base.channels.user_channels.copy()
            if singular:
                h[:] = h[0]
            scenario = NetworkScenario(
                channels=ChannelRealization(base.channels.g_matrix, h, 1e-3),
                assignment=base.assignment, total_power=1.0, qos_floors=0.01,
            )
            phase_idx = rng.integers(0, 4, (6, 4))
            splits = [((0.9, 0.1), (0.8, 0.2))] * 6
            powers = [dbm_to_watts(p) for p in (0.0, 20.0, 40.0, 60.0, 90.0, 120.0)]
            flags += assert_points_equal_reference((scenario, phase_idx, 2, splits, powers))
        ill, feasible = zip(*flags)
        assert any(ill) and not all(ill)
        assert any(feasible) and not all(f for i, f in flags if not i)

    def test_rejects_unpaired_rows(self):
        scenario = random_scenario(np.random.default_rng(3))
        phase_idx = np.zeros((2, 4), dtype=int)
        alphas = np.full((2, 4), 0.5)
        with pytest.raises(ValueError, match="do not pair up"):
            evaluate_points([scenario] * 2, phase_idx, alphas[:1], 2)
        with pytest.raises(ValueError, match="do not pair up"):
            evaluate_points([scenario], phase_idx, alphas, 2)
        with pytest.raises(ValueError, match=r"\(E, 4\) array"):
            evaluate_points([scenario] * 2, phase_idx, np.full((2, 3), 0.5), 2)
        with pytest.raises(ValueError, match="cluster 1: power coefficients do not"):
            evaluate_points([scenario] * 2, phase_idx, [[0.5] * 4, [0.5, 0.5, 0.5, 0.6]], 2)

    def test_rejects_scenarios_of_different_sizes(self):
        base = random_scenario(np.random.default_rng(3))
        for other in (
            random_scenario(np.random.default_rng(4), users_per_cluster=3),
            random_scenario(np.random.default_rng(4), k_elements=3),
            dataclasses.replace(base, interference_model="coherent"),
            dataclasses.replace(base, alpha_domain="power"),
        ):
            with pytest.raises(ValueError, match="must share users, clusters, elements and flags"):
                ScenarioStack([base, other])
        with pytest.raises(ValueError, match="at least one scenario"):
            ScenarioStack([])


@st.composite
def stacked_instances(draw):
    """E scenarios of one size, each with its own channels, clustering, floors,
    noise and power, plus one phase row and one split per scenario."""
    n_clusters = draw(st.integers(1, 3))
    n_users = n_clusters + draw(st.integers(0, 4))
    k, bits = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    flags = (
        draw(st.sampled_from(["incoherent", "coherent"])),
        draw(st.sampled_from(["amplitude", "power"])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    singular = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    scenarios = [
        stacked_scenario(rng, n_users, n_clusters, k, flags, ill) for ill in singular
    ]
    phase_idx = rng.integers(0, 1 << bits, (len(scenarios), k))
    alphas = np.array([split_row(rng, s) for s in scenarios])
    return scenarios, phase_idx, alphas, bits


class TestStackedPoints:
    """A stack of scenarios that differ in everything but their size scores
    each point as its own scenario scored alone, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(stacked_instances())
    def test_equals_one_run_at_a_time(self, instance):
        assert_stack_equals_single_runs(*instance)

    def test_mixed_occupancies_ill_conditioned_and_infeasible(self):
        rng = np.random.default_rng(21)
        scenarios = [
            stacked_scenario(rng, 6, 3, 4, ("incoherent", "amplitude"), e % 4 == 3)
            for e in range(12)
        ]
        # Every other run without floors, so some points pass every check.
        scenarios[::2] = [dataclasses.replace(s, qos_floors=0.0) for s in scenarios[::2]]
        assert len({s.cluster_sizes for s in scenarios}) > 2
        assert len({sum(math.comb(p, 2) for p in s.cluster_sizes) for s in scenarios}) > 1
        phase_idx = rng.integers(0, 4, (12, 4))
        alphas = np.array([split_row(rng, s) for s in scenarios])
        flags = assert_stack_equals_single_runs(scenarios, phase_idx, alphas, 2)
        ill, feasible = zip(*flags)
        assert any(ill) and not all(ill)
        assert any(feasible) and not all(f for i, f in flags if not i)


class TestScenarioLayout:
    def test_layout_of_an_interleaved_assignment(self):
        rng = np.random.default_rng(9)
        base = random_scenario(rng, n_clusters=2, users_per_cluster=2)
        scenario = NetworkScenario(
            channels=base.channels, assignment=(1, 0, 1, 0), total_power=4.0
        )
        assert [m.tolist() for m in scenario.members] == [[1, 3], [0, 2]]
        assert scenario.cluster_sizes == (2, 2)
        # The layout is slot-major: slot k of run e is row k, column e.
        stack = ScenarioStack([scenario])
        self.assert_c_contiguous(stack)
        assert stack.slot_beam.tolist() == [[0], [0], [1], [1]]
        assert stack.other_slot_beams.tolist() == [[[1]], [[1]], [[0]], [[0]]]
        assert [a.tolist() for a in stack.sic_later_at] == [[1, 3]]
        assert [a.tolist() for a in stack.sic_earlier_at] == [[0, 2]]
        same = np.kron(np.eye(2), 1 - np.eye(2))
        assert np.array_equal(stack.same_slots, same[:, :, None, None])
        # A second run of occupancy 3-1: the first run's pairs are padded with
        # (0, 0) self-pairs and its member rows by repeating their first member.
        wide = NetworkScenario(channels=base.channels, assignment=(0, 0, 0, 1), total_power=4.0)
        stack = ScenarioStack([scenario, wide])
        self.assert_c_contiguous(stack)
        assert stack.cluster_starts.tolist() == [[0, 2], [0, 3]]
        assert stack.slot_beam.tolist() == [[0, 0], [0, 0], [1, 0], [1, 1]]
        assert stack.other_slot_beams.tolist() == [
            [[1], [1]], [[1], [1]], [[0], [1]], [[0], [0]]
        ]
        assert [a.tolist() for a in stack.sic_later_at] == [[[1, 1], [3, 2], [0, 2]], [0, 1]]
        assert [a.tolist() for a in stack.sic_earlier_at] == [[[0, 0], [2, 0], [0, 1]], [0, 1]]
        wide_same = np.pad(1 - np.eye(3), (0, 1))
        assert np.array_equal(stack.same_slots, np.stack([same, wide_same], axis=-1)[..., None])
        assert stack.member_table.tolist() == [
            [[1, 3, 1], [0, 2, 0]], [[0, 1, 2], [3, 3, 3]]
        ]

    @staticmethod
    def assert_c_contiguous(stack):
        # A strided operand can change the bits of the scorer's reductions.
        arrays = (stack.slot_beam, stack.other_slot_beams, stack.same_slots,
                  *stack.sic_later_at, *stack.sic_earlier_at)
        assert all(a.flags.c_contiguous for a in arrays)

    def test_split_row_round_trip(self):
        scenario = random_scenario(np.random.default_rng(4), n_clusters=3)
        splits = ((0.25, 0.75), (1.0, 0.0), (0.1, 0.9))
        row = np.array([0.25, 0.75, 1.0, 0.0, 0.1, 0.9])
        assert scenario.split_tuples(row) == splits
        assert np.array(flat_row(scenario.split_tuples(row))).tobytes() == row.tobytes()

    def test_negative_floor_rejected_at_construction(self):
        base = random_scenario(np.random.default_rng(5))
        for floors in (-0.1, [0.0, 0.1, -1e-9, 0.0]):
            with pytest.raises(ValueError, match="SINR floors must be non-negative"):
                NetworkScenario(
                    channels=base.channels, assignment=base.assignment,
                    total_power=4.0, qos_floors=floors,
                )

    def test_negative_cluster_id_rejected(self):
        base = random_scenario(np.random.default_rng(6))
        with pytest.raises(ValueError, match="cluster ids must be non-negative"):
            NetworkScenario(
                channels=base.channels, assignment=(0, 1, -1, 1), total_power=4.0
            )

    def test_floors_become_one_per_user(self):
        base = random_scenario(np.random.default_rng(5))
        scenario = NetworkScenario(
            channels=base.channels, assignment=base.assignment,
            total_power=4.0, qos_floors=0.5,
        )
        assert scenario.qos_floors.tolist() == [0.5] * 4
