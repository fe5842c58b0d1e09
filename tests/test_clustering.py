import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab import clustering
from irsnoma_lab.clustering import (
    DegenerateCsiError,
    GmmParams,
    _repair_empty_clusters,
    _seed_gate,
    cluster_users,
    em_e_step,
    em_m_step,
    fit,
    init_gmm,
    log_likelihood,
    logsumexp,
    normalize_channels,
    rough_partition,
)
import scalar_reference
from scalar_reference import correlation, gain_difference


class TestNormalizeChannels:
    def test_three_four_vector(self):
        csi = normalize_channels(np.array([[3.0 + 0j, 4.0 + 0j]]))
        assert np.allclose(csi.normalized[0], [0.6, 0.8])

    def test_unit_vector_idempotent(self):
        v = np.array([[0.6 + 0j, 0.8j]])
        csi = normalize_channels(v)
        assert np.max(np.abs(csi.normalized - v)) < 1e-15

    def test_all_rows_unit_norm(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
        csi = normalize_channels(raw)
        norms = np.linalg.norm(csi.normalized, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_zero_channel_rejected(self):
        with pytest.raises(DegenerateCsiError):
            normalize_channels(np.array([[0.0 + 0j, 0.0 + 0j]]))

    def test_feature_embedding_shape(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        csi = normalize_channels(raw)
        assert csi.features.shape == (5, 8)
        assert np.allclose(csi.features[:, :4], csi.normalized.real)
        assert np.allclose(csi.features[:, 4:], csi.normalized.imag)


class TestGateFunctions:
    def test_orthogonal_vectors_zero_correlation(self):
        a = np.array([1.0 + 0j, 0.0])
        b = np.array([0.0, 1.0 + 0j])
        assert correlation(a, b) == 0.0
        assert correlation(a, a) == pytest.approx(1.0)

    def test_gain_difference(self):
        a = np.array([0.6, 0.8])
        b = np.array([0.8, 0.6])
        assert gain_difference(a, a) == 0.0
        assert gain_difference(a, b) == pytest.approx(np.sqrt(0.08))


@st.composite
def gate_instances(draw):
    """(gate rows, sorted seed indices): real or complex rows, 1-9 users, 1-29
    elements, optionally unit-normalized, with a zero row or duplicate rows,
    and M = 1, M = n or any M in between."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 29))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gate = rng.standard_normal((n, k))
    if draw(st.booleans()):
        gate = gate + 1j * rng.standard_normal((n, k))
    if draw(st.booleans()):
        gate /= np.linalg.norm(gate, axis=1, keepdims=True)
    if n > 1 and draw(st.booleans()):
        gate[draw(st.integers(1, n - 1))] = gate[0]
    if draw(st.booleans()):
        gate[draw(st.integers(0, n - 1))] = 0.0
    m = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    seeds = np.sort(rng.choice(n, size=m, replace=False))
    return gate, seeds


def reference_gate(gate, seeds):
    """Gain differences and correlations pair by pair through the scalar forms."""
    gain_diff = np.array([[gain_difference(u, gate[s]) for s in seeds] for u in gate])
    corr = np.array([[correlation(u, gate[s]) for s in seeds] for u in gate])
    return gain_diff, corr


class TestSeedGateEqualsScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(gate_instances())
    def test_matrices_bit_identical(self, instance):
        gate, seeds = instance
        _, gain_diff, corr = _seed_gate(gate, seeds, 0.3, 0.7)
        ref_gain_diff, ref_corr = reference_gate(gate, seeds)
        assert np.array_equal(gain_diff, ref_gain_diff)
        assert np.array_equal(corr, ref_corr)
        zero = ~gate.any(axis=1)
        assert (corr[zero] == 0.0).all() and (corr[:, zero[seeds]] == 0.0).all()

    @settings(max_examples=300, deadline=None)
    @given(gate_instances(), st.data())
    def test_mask_with_thresholds_on_a_boundary(self, instance, data):
        # rho1 and rho2 equal to entries of the matrices put the strict
        # comparisons exactly on a boundary.
        gate, seeds = instance
        ref_gain_diff, ref_corr = reference_gate(gate, seeds)
        rho1 = data.draw(st.sampled_from(ref_gain_diff.ravel().tolist()))
        rho2 = data.draw(st.sampled_from(ref_corr.ravel().tolist()))
        qualifies, _, _ = _seed_gate(gate, seeds, rho1, rho2)
        assert np.array_equal(qualifies, (ref_gain_diff < rho1) & (ref_corr > rho2))


@st.composite
def partition_instances(draw):
    """(features, M, seed, gate rows or None): unit-normalized CSI with its
    complex gate rows, or plain real features gated on themselves, with
    duplicate rows sometimes, so that the gate and ties come into play."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    if n > 1 and draw(st.booleans()):
        raw[draw(st.integers(1, n - 1))] = raw[0]
    m = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        csi = normalize_channels(raw)
        return csi.features, m, seed, csi.normalized
    return raw.real, m, seed, None


class TestRoughPartitionEqualsScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(partition_instances(), st.sampled_from([(0.3, 0.7), (2.0, 0.0), (0.0, 2.0), (1.0, 0.3)]))
    def test_assignment_and_centers_bit_identical(self, instance, thresholds):
        features, m, seed, gate = instance
        rho1, rho2 = thresholds
        got = rough_partition(features, m, rho1=rho1, rho2=rho2, seed=seed, gate_vectors=gate)
        want = scalar_reference.rough_partition(features, m, rho1, rho2, seed, gate)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()


# Seeds 30 and 60 draw the first two and three rows as the rough partition's
# seeds.  Those sit at the origin, as does cluster 0's mean, so the first
# Lloyd round ties every user to cluster 0 and empties the other clusters.
EMPTIED = {
    "two-clusters": (
        [[0, 0], [0, 0], [1, 0], [-1, 0], [2, 0], [-2, 0]], 2, 30, [0, 0, 0, 0, 1, 0],
    ),
    "three-clusters": (
        [[0, 0]] * 3 + [[1, 0], [-1, 0], [2, 0], [-2, 0]], 3, 60, [0, 0, 0, 0, 0, 1, 2],
    ),
}


class TestRoughPartition:
    def test_each_user_own_cluster_when_counts_match(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3))
        assignment, centers = rough_partition(x, 4, seed=0)
        assert sorted(assignment.tolist()) == [0, 1, 2, 3]
        for m in range(4):
            member = np.flatnonzero(assignment == m)[0]
            assert np.allclose(centers[m], x[member])

    def test_orthogonal_groups_never_merge(self):
        # Two exactly orthogonal channel families; correlation across groups
        # is 0 < rho2, so the gate keeps them apart whenever a same-group
        # seed exists, and Lloyd rounds keep the split stable.
        rng = np.random.default_rng(8)
        group_a = np.zeros((3, 4), dtype=complex)
        group_b = np.zeros((3, 4), dtype=complex)
        group_a[:, 0] = 1.0
        group_a[:, 1] = 0.05 * rng.standard_normal(3)
        group_b[:, 2] = 1.0
        group_b[:, 3] = 0.05 * rng.standard_normal(3)
        csi = normalize_channels(np.vstack([group_a, group_b]))
        assignment, _ = rough_partition(
            csi.features,
            2,
            rho1=0.3,
            rho2=0.9,
            seed=5,
            gate_vectors=csi.normalized,
        )
        assert len(set(assignment[:3])) == 1
        assert len(set(assignment[3:])) == 1
        assert assignment[0] != assignment[3]

    def test_paper_scale_partition_is_valid(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((10, 25)) + 1j * rng.standard_normal((10, 25))
        csi = normalize_channels(raw)
        assignment, _ = rough_partition(
            csi.features, 5, seed=4, gate_vectors=csi.normalized
        )
        occupancy = np.bincount(assignment, minlength=5)
        assert occupancy.sum() == 10
        assert np.all(occupancy >= 1)

    def test_too_few_users_rejected(self):
        with pytest.raises(ValueError):
            rough_partition(np.ones((2, 3)), 3, seed=0)

    @pytest.mark.parametrize(
        "rounds", [1, 2, 100], ids=["repair-after-lloyd", "reseed-in-round-2", "default"]
    )
    @pytest.mark.parametrize("case", sorted(EMPTIED))
    def test_emptied_cluster_takes_the_user_farthest_from_its_center(
        self, case, rounds, monkeypatch
    ):
        # One Lloyd round leaves the repair after the loop to fill the
        # emptied clusters; a second round re-seeds them inside the loop.
        # Both move the farthest users first, the first of a tie first.
        rows, m_clusters, seed, expected = EMPTIED[case]
        monkeypatch.setattr(clustering, "LLOYD_MAX_ROUNDS", rounds)
        x = np.array(rows, dtype=float)
        assignment, centers = rough_partition(x, m_clusters, seed=seed)
        assert assignment.tolist() == expected
        for m in range(m_clusters):
            assert np.array_equal(centers[m], x[assignment == m].mean(axis=0))


class TestRepairEmptyClusters:
    def test_least_confident_movable_user_fills_the_empty_cluster(self):
        resp = np.array([
            [0.9, 0.1, 0.0], [0.6, 0.4, 0.0], [0.45, 0.55, 0.0], [0.7, 0.3, 0.0],
        ])
        assignment = np.argmax(resp, axis=1)
        # User 2 is the least confident but alone in cluster 1, so user 1 moves.
        repaired = _repair_empty_clusters(resp.max(axis=1), assignment, 3)
        assert repaired.tolist() == [0, 2, 1, 0]
        assert assignment.tolist() == [0, 0, 1, 0]

    def test_no_movable_user_rejected(self):
        with pytest.raises(ValueError, match="not enough users to fill every cluster"):
            _repair_empty_clusters(np.zeros(2), np.array([0, 1]), 3)


class TestGmmParams:
    @pytest.mark.parametrize("weights, variances, message", [
        ([0.5, 0.6], [1.0, 1.0], "mixture weights sum to 1.1, not 1"),
        ([np.nan, 0.5], [1.0, 1.0], "mixture weights sum to nan, not 1"),
        ([0.5, 0.5], [1e-11, 1.0], "variances must be >= 1e-10"),
        ([0.5, 0.5], [np.nan, 1.0], "variances must be >= 1e-10"),
    ], ids=["weight-sum", "nan-weight", "small-variance", "nan-variance"])
    def test_rejected(self, weights, variances, message):
        with pytest.raises(ValueError, match=message):
            GmmParams(weights=weights, means=np.zeros((2, 3)), variances=variances)


class TestInitGmm:
    def test_singleton_clusters_floor_variance(self):
        x = np.array([[0.0], [5.0]])
        params = init_gmm([0, 1], x)
        assert np.all(params.variances == 1e-10)

    def test_two_point_cluster_hand_arithmetic(self):
        params = init_gmm([0, 0], np.array([[0.0], [2.0]]))
        assert params.means[0, 0] == pytest.approx(1.0)
        assert params.variances[0] == pytest.approx(1.0)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 2))
        assignment = rng.integers(0, 3, size=30)
        assignment[:3] = [0, 1, 2]
        params = init_gmm(assignment, x)
        assert params.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestEStep:
    def test_single_component_all_ones(self):
        params = GmmParams(
            weights=[1.0], means=[[0.0, 0.0]], variances=[1.0]
        )
        resp = em_e_step(params, np.random.default_rng(0).standard_normal((7, 2)))
        assert np.all(resp == 1.0)

    def test_equidistant_point_splits_evenly(self):
        params = GmmParams(
            weights=[0.5, 0.5], means=[[-1.0], [1.0]], variances=[0.3, 0.3]
        )
        resp = em_e_step(params, np.array([[0.0]]))
        assert abs(resp[0, 0] - 0.5) < 1e-12
        assert abs(resp[0, 1] - 0.5) < 1e-12

    def test_rows_normalized(self):
        rng = np.random.default_rng(13)
        params = GmmParams(
            weights=[0.2, 0.5, 0.3],
            means=rng.standard_normal((3, 4)),
            variances=[0.5, 1.0, 2.0],
        )
        resp = em_e_step(params, rng.standard_normal((40, 4)))
        assert np.max(np.abs(resp.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(resp >= 0.0) and np.all(resp <= 1.0)

    def test_far_point_no_underflow_error(self):
        params = GmmParams(
            weights=[0.5, 0.5], means=[[0.0], [1.0]], variances=[1e-6, 1e-6]
        )
        resp = em_e_step(params, np.array([[1e6]]))
        assert np.isfinite(resp).all()
        assert resp.sum() == pytest.approx(1.0)


class TestMStep:
    def test_hard_responsibilities_reduce_to_kmeans(self):
        x = np.array([[0.0], [2.0], [10.0], [12.0]])
        resp = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        params = em_m_step(resp, x)
        assert params.means[0, 0] == pytest.approx(1.0)
        assert params.means[1, 0] == pytest.approx(11.0)

    def test_uniform_responsibilities_collapse_to_global_mean(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((20, 3))
        resp = np.full((20, 4), 0.25)
        params = em_m_step(resp, x)
        for m in range(4):
            assert np.allclose(params.means[m], x.mean(axis=0))

    def test_em_cycle_monotone_likelihood(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            x = rng.standard_normal((25, 2)) * rng.uniform(0.5, 2.0)
            assignment = rng.integers(0, 3, size=25)
            assignment[:3] = [0, 1, 2]
            params = init_gmm(assignment, x)
            before = log_likelihood(params, x)
            after_params = em_m_step(em_e_step(params, x), x)
            after = log_likelihood(after_params, x)
            assert after >= before - 1e-9

    def test_zero_responsibility_component_reseeded(self):
        x = np.array([[0.0], [1.0], [2.0]])
        resp = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        params = em_m_step(resp, x)
        assert params.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(params.variances >= 1e-10)


class TestLogLikelihood:
    def test_unit_density_point(self):
        params = GmmParams(
            weights=[1.0], means=[[0.0]], variances=[1.0 / (2.0 * np.pi)]
        )
        assert log_likelihood(params, np.array([[0.0]])) == pytest.approx(0.0, abs=1e-12)

    def test_duplicated_dataset_doubles(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((15, 2))
        params = GmmParams(
            weights=[0.4, 0.6],
            means=rng.standard_normal((2, 2)),
            variances=[1.0, 0.7],
        )
        single = log_likelihood(params, x)
        double = log_likelihood(params, np.vstack([x, x]))
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((10, 1))
        params = GmmParams(
            weights=[0.3, 0.7], means=[[-0.5], [0.5]], variances=[0.8, 1.2]
        )
        naive = 0.0
        for row in x:
            total = 0.0
            for m in range(2):
                v = params.variances[m]
                total += (
                    params.weights[m]
                    / np.sqrt(2 * np.pi * v)
                    * np.exp(-((row[0] - params.means[m, 0]) ** 2) / (2 * v))
                )
            naive += np.log(total)
        assert log_likelihood(params, x) == pytest.approx(naive, abs=1e-9)


def logsumexp_input(rng):
    """An (n, M) array with ties, scattered and whole-row -inf, at one scale."""
    n, m = int(rng.integers(1, 60)), int(rng.integers(1, 12))
    scale = 10.0 ** rng.uniform(-3.0, 4.0)
    a = scale * (rng.standard_normal((n, m)) - rng.uniform(0.0, 1.0))
    if rng.random() < 0.5:
        tied = rng.choice(a.ravel(), 3)
        a = np.where(rng.random(a.shape) < 0.3, tied[rng.integers(0, 3, a.shape)], a)
    if rng.random() < 0.5:
        a[rng.random(a.shape) < 0.2] = -np.inf
    if rng.random() < 0.3:
        a[rng.integers(0, n)] = -np.inf
    return a


class TestLogsumexp:
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_bytes_equal_scipy(self, keepdims):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(31)
        for _ in range(2000):
            a = logsumexp_input(rng)
            for axis in (0, 1):
                got = logsumexp(a, axis=axis, keepdims=keepdims)
                want = special.logsumexp(a, axis=axis, keepdims=keepdims)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), a

    def test_all_minus_inf_row_is_minus_inf(self):
        a = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        assert logsumexp(a, axis=1).tolist() == [-np.inf, np.log(2.0)]


class TestFit:
    def test_separated_blobs_recover_sample_means(self):
        rng = np.random.default_rng(31)
        a = rng.normal(0.0, 0.5, size=(50, 1))
        b = rng.normal(10.0, 0.5, size=(50, 1))
        x = np.vstack([a, b])
        result = fit(x, 2, epsilon=1e-15, seed=1)
        assert result.converged
        fitted = np.sort(result.params.means.ravel())
        expected = np.sort([a.mean(), b.mean()])
        assert np.max(np.abs(fitted - expected)) < 0.2

    def test_fixed_point_converges_fast(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((40, 1))
        result = fit(x, 1, epsilon=1e-15, seed=0)
        assert result.converged
        assert result.n_iter <= 2

    def test_paper_scale_channel_features_fill_all_clusters(self):
        rng = np.random.default_rng(41)
        raw = rng.standard_normal((10, 25)) + 1j * rng.standard_normal((10, 25))
        result = cluster_users(raw, 5, seed=3)
        occupancy = result.occupancy()
        assert sum(occupancy) == 10
        assert all(c >= 1 for c in occupancy)

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((60, 2))
        result = fit(x, 3, epsilon=1e-15, max_iter=1, seed=0)
        assert not result.converged
        assert result.n_iter == 1

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            fit(np.ones((4, 1)), 2, epsilon=0.0)


class TestFitLogLikelihood:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_equals_the_log_likelihood_of_the_fitted_params(self, n, data):
        # fit reads the final E-step's normalizers instead of a second
        # log-joint; the value must be log_likelihood's, bit for bit.
        m = data.draw(st.integers(1, n))
        k = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = normalize_channels(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        result = fit(x.features, m, seed=rng, gate_vectors=x.normalized)
        reference = log_likelihood(result.params, x.features)
        assert np.float64(result.log_likelihood).tobytes() == np.float64(reference).tobytes()


class TestInvariants:
    def test_weight_simplex_after_every_m_step(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((30, 3))
        assignment = rng.integers(0, 4, size=30)
        assignment[:4] = [0, 1, 2, 3]
        params = init_gmm(assignment, x)
        for _ in range(20):
            params = em_m_step(em_e_step(params, x), x)
            assert abs(params.weights.sum() - 1.0) < 1e-12

    def test_component_permutation_equivariance(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((25, 2))
        assignment = rng.integers(0, 3, size=25)
        assignment[:3] = [0, 1, 2]
        params = init_gmm(assignment, x)
        perm = np.array([2, 0, 1])
        permuted = GmmParams(
            weights=params.weights[perm],
            means=params.means[perm],
            variances=params.variances[perm],
        )
        out = em_m_step(em_e_step(params, x), x)
        out_perm = em_m_step(em_e_step(permuted, x), x)
        assert np.max(np.abs(out_perm.means - out.means[perm])) < 1e-12
        assert np.max(np.abs(out_perm.weights - out.weights[perm])) < 1e-12
        assert np.max(np.abs(out_perm.variances - out.variances[perm])) < 1e-12

    def test_m_step_maximizes_q_function(self):
        # No random perturbation of the M-step output (weights projected to
        # the simplex, variances floored) may improve the Q objective.
        rng = np.random.default_rng(59)
        x = rng.standard_normal((20, 2))
        assignment = rng.integers(0, 2, size=20)
        assignment[:2] = [0, 1]
        params = init_gmm(assignment, x)
        resp = em_e_step(params, x)
        new_params = em_m_step(resp, x)

        def q_value(candidate):
            d = x.shape[1]
            sq = np.sum((x[:, None, :] - candidate.means[None, :, :]) ** 2, axis=2)
            log_gauss = -0.5 * (
                d * np.log(2 * np.pi * candidate.variances)[None, :]
                + sq / candidate.variances[None, :]
            )
            return float(
                np.sum(resp * (np.log(candidate.weights)[None, :] + log_gauss))
            )

        best = q_value(new_params)
        for _ in range(200):
            w = new_params.weights + 0.02 * rng.standard_normal(2)
            w = np.clip(w, 1e-9, None)
            w /= w.sum()
            candidate = GmmParams(
                weights=w,
                means=new_params.means + 0.02 * rng.standard_normal((2, 2)),
                variances=np.maximum(
                    new_params.variances * np.exp(0.05 * rng.standard_normal(2)),
                    1e-10,
                ),
            )
            assert q_value(candidate) <= best + 1e-8
