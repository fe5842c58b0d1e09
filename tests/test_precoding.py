import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab.precoding import CONDITION_LIMIT, cluster_heads, member_table, zero_forcing


def random_well_conditioned(rng, m, cond_cap=1e6):
    while True:
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        if np.linalg.cond(h) < cond_cap:
            return h


def singletons(m):
    """Member table when user u alone forms cluster u."""
    return member_table([[u] for u in range(m)])


def members_of(assignment):
    assign = np.asarray(assignment)
    return [np.flatnonzero(assign == m) for m in range(assign.max() + 1)]


def table_of(assignment):
    return member_table(members_of(assignment))


def zf(h, power, condition_limit=CONDITION_LIMIT):
    """Precoder for one square channel matrix with one user per cluster."""
    ok, w = zero_forcing(h[None], singletons(len(h)), power, condition_limit)
    assert ok.shape == (1,)
    return w[0] if ok[0] else None


class TestRepresentatives:
    def test_single_user_clusters(self):
        h = np.eye(3, dtype=complex)
        assert cluster_heads(h[None], table_of([0, 1, 2]))[0].tolist() == [0, 1, 2]

    def test_argmax_norm(self):
        h = np.array([[0.1], [0.9], [0.5]], dtype=complex)
        assert cluster_heads(h[None], table_of([0, 0, 0]))[0].tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        h = np.array([[0.5], [0.5], [0.2]], dtype=complex)
        assert cluster_heads(h[None], table_of([0, 0, 0]))[0].tolist() == [0]

    def test_empty_cluster_rejected(self):
        members = [np.array([0]), np.array([], dtype=int), np.array([1])]
        with pytest.raises(ValueError, match="cluster 1 is empty"):
            member_table(members)

    def test_heads_per_phase(self):
        h = np.array(
            [[[0.1], [0.9], [0.5]], [[0.7], [0.2], [0.5]]], dtype=complex
        )
        assert cluster_heads(h, table_of([0, 0, 1])).tolist() == [[1, 2], [0, 2]]


    def test_member_table_pads_with_a_member(self):
        table = member_table(members_of([1, 0, 1, 1, 2]), width=4)
        assert table.tolist() == [[1, 1, 1, 1], [0, 2, 3, 0], [4, 4, 4, 4]]

    def test_tables_equal_a_loop_over_clusters(self):
        # Integer norms tie often; the padded tables pick what a per-cluster
        # argmax picks, with one shared table or one table per phase.
        rng = np.random.default_rng(7)
        for _ in range(300):
            n_clusters = int(rng.integers(1, 5))
            assign = np.concatenate([
                np.arange(n_clusters), rng.integers(0, n_clusters, int(rng.integers(0, 5)))
            ])
            rng.shuffle(assign)
            members = members_of(assign)
            h = rng.integers(0, 3, (int(rng.integers(1, 6)), len(assign), n_clusters)) + 0j
            norms = np.linalg.norm(h, axis=-1)
            want = [[mem[np.argmax(norms[p, mem])] for mem in members] for p in range(len(h))]
            table = member_table(members)
            assert cluster_heads(h, table).tolist() == want
            per_phase = np.broadcast_to(member_table(members, width=5), (len(h), n_clusters, 5))
            assert cluster_heads(h, np.ascontiguousarray(per_phase)).tolist() == want


class TestZfPrecoder:
    def test_identity_channel(self):
        m, power = 3, 2.5
        w = zf(np.eye(m, dtype=complex), power)
        expected = np.sqrt(power / m) * np.eye(m)
        assert np.max(np.abs(w - expected)) < 1e-12
        assert np.sum(np.abs(w) ** 2) == pytest.approx(power, abs=1e-9)

    def test_scalar_inverse(self):
        h = np.array([[2.0 + 0j]])
        w = zf(h, 1.0)
        # Unscaled beam is 1/2; the channel-beam product must be the common
        # positive scale factor applied to the identity.
        prod = h @ w
        assert prod[0, 0].imag == pytest.approx(0.0, abs=1e-12)
        unscaled = w / prod[0, 0].real
        assert unscaled[0, 0] == pytest.approx(0.5)

    def test_residual_against_independent_solve(self):
        rng = np.random.default_rng(23)
        h = random_well_conditioned(rng, 3)
        w = zf(h, 4.0)
        prod = h @ w
        scale = np.mean(np.real(np.diag(prod)))
        # Pre-scaling residual of the zero-forcing identity H W = I.
        assert np.max(np.abs(prod / scale - np.eye(3))) < 1e-8
        # Independent route: explicit matrix inverse.
        w_ind = np.linalg.inv(h)
        assert np.max(np.abs(w / scale - w_ind)) < 1e-8

    def test_zf_identity_and_power_many_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            m = int(rng.integers(2, 5))
            power = float(rng.uniform(0.1, 10.0))
            h = random_well_conditioned(rng, m)
            w = zf(h, power)
            prod = h @ w
            scale = np.mean(np.real(np.diag(prod)))
            assert np.max(np.abs(prod / scale - np.eye(m))) < 1e-8
            assert abs(np.sum(np.abs(w) ** 2) - power) < 1e-9

    def test_common_rotation_equivariance(self):
        rng = np.random.default_rng(59)
        h = random_well_conditioned(rng, 3)
        power = 2.0
        w = zf(h, power)
        c = np.exp(1j * 0.7)
        w_rot = zf(c * h, power)
        assert np.max(np.abs(w_rot - np.conj(c) * w)) < 1e-9
        assert np.max(np.abs(np.abs(h @ w_rot) - np.abs(h @ w))) < 1e-9

    def test_ill_conditioned_rejected(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]], dtype=complex)
        assert np.linalg.cond(h) > 1e8
        assert zf(h, 1.0) is None

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            zf(np.eye(2, dtype=complex), 0.0)

    def test_stack_keeps_only_conditioned_phases(self):
        rng = np.random.default_rng(61)
        good = [random_well_conditioned(rng, 2) for _ in range(2)]
        bad = np.ones((2, 2), dtype=complex)
        h = np.stack([good[0], bad, good[1]])
        ok, w = zero_forcing(h, singletons(2), 3.0)
        assert ok.tolist() == [True, False, True]
        assert np.array_equal(w, np.stack([zf(good[0], 3.0), zf(good[1], 3.0)]))
        # A one-run stack's (1, M, L) table and (1,) budget serve every phase.
        ok_run, w_run = zero_forcing(h, singletons(2)[None], np.array([3.0]))
        assert np.array_equal(ok_run, ok) and np.array_equal(w_run, w)

    def test_power_per_matrix_equals_one_matrix_at_a_time(self):
        rng = np.random.default_rng(62)
        good = [random_well_conditioned(rng, 3) for _ in range(3)]
        bad = np.ones((3, 3), dtype=complex)
        powers = [0.5, 7.0, 1e-3, 2e4]
        ok, w = zero_forcing(np.stack([good[0], bad, *good[1:]]), singletons(3), powers)
        assert ok.tolist() == [True, False, True, True]
        expected = [zf(h, p) for h, p in zip(good, powers[:1] + powers[2:])]
        assert np.array_equal(w, np.stack(expected))
        with pytest.raises(ValueError, match="total_power must be positive"):
            zero_forcing(np.stack(good), singletons(3), [1.0, -1.0, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 39), st.integers(1, 6), st.floats(-6.0, 2.0), st.integers(0, 2**32 - 1)
    )
    def test_inverse_equals_solve_against_identity(self, n_phases, m, log_scale, seed):
        # zero_forcing takes inv(H); solving H W = I runs the same LAPACK
        # gesv on the same operands, so the two agree byte for byte.
        rng = np.random.default_rng(seed)
        h = 10.0**log_scale * (
            rng.standard_normal((n_phases, m, m)) + 1j * rng.standard_normal((n_phases, m, m))
        )
        solved = np.linalg.solve(h, np.broadcast_to(np.eye(m, dtype=complex), h.shape))
        assert np.linalg.inv(h).tobytes() == solved.tobytes()
        ok, w = zero_forcing(h, singletons(m), 2.0)
        used = (np.abs(solved[ok]) ** 2).reshape(int(ok.sum()), m * m).sum(axis=1)
        assert w.tobytes() == (solved[ok] * np.sqrt(2.0 / used)[:, None, None]).tobytes()


class TestClusterChannelMatrix:
    def test_condition_number_recorded(self):
        h = np.diag([1.0, 10.0]).astype(complex)  # 2-norm condition number 10
        assert zf(h, 1.0, condition_limit=10.0) is not None
        assert zf(h, 1.0, condition_limit=9.999) is None

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            zero_forcing(np.ones((1, 2, 3), dtype=complex), singletons(2), 1.0)

    def test_builds_from_representatives(self):
        h_eff = np.array(
            [[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]], dtype=complex
        )
        ok, w = zero_forcing(h_eff[None], table_of([0, 1, 1]), 1.0)
        assert ok[0]
        # The heads (users 0 and 1) are zero-forced: H_heads W is a scaled I.
        prod = h_eff[[0, 1]] @ w[0]
        assert np.max(np.abs(prod / prod[0, 0] - np.eye(2))) < 1e-12
