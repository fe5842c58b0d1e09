import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab import precoding
from irsnoma_lab.channel import ChannelRealization
from irsnoma_lab.noma import NetworkScenario
from irsnoma_lab.precoding import (
    CONDITION_LIMIT,
    cluster_heads,
    member_table,
    scale_to_power,
    zf_inverse,
)
from scalar_reference import zero_forcing_reference


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
    ok, w, used = zf_inverse(h[None], singletons(len(h)), condition_limit)
    assert ok.shape == (1,)
    return scale_to_power(w, used, power)[0] if ok[0] else None


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
        # A budget reaches the precoder through a scenario, which rejects a
        # non-positive one.
        channels = ChannelRealization(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 1.0)
        for power in (0.0, -1.0):
            with pytest.raises(ValueError, match="total_power must be positive"):
                NetworkScenario(channels=channels, assignment=(0, 1), total_power=power)

    def test_stack_keeps_only_conditioned_phases(self):
        rng = np.random.default_rng(61)
        good = [random_well_conditioned(rng, 2) for _ in range(2)]
        bad = np.ones((2, 2), dtype=complex)
        h = np.stack([good[0], bad, good[1]])
        ok, w, used = zf_inverse(h, singletons(2))
        assert ok.tolist() == [True, False, True]
        assert not w[1].any() and used[1] == 1.0
        w = scale_to_power(w, used, 3.0)
        assert np.array_equal(w[ok], np.stack([zf(good[0], 3.0), zf(good[1], 3.0)]))
        # A one-run stack's (1, M, L) table and (1,) budget serve every phase.
        ok_run, w_run, used_run = zf_inverse(h, singletons(2)[None])
        w_run = scale_to_power(w_run, used_run, np.array([3.0]))
        assert np.array_equal(ok_run, ok) and np.array_equal(w_run, w)

    def test_power_per_matrix_equals_one_matrix_at_a_time(self):
        rng = np.random.default_rng(62)
        good = [random_well_conditioned(rng, 3) for _ in range(3)]
        bad = np.ones((3, 3), dtype=complex)
        powers = [0.5, 7.0, 1e-3, 2e4]
        ok, w, used = zf_inverse(np.stack([good[0], bad, *good[1:]]), singletons(3))
        assert ok.tolist() == [True, False, True, True]
        w = scale_to_power(w, used, np.array(powers))
        expected = [zf(h, p) for h, p in zip(good, powers[:1] + powers[2:])]
        assert np.array_equal(w[ok], np.stack(expected))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 39), st.integers(1, 6), st.floats(-6.0, 2.0), st.integers(0, 2**32 - 1)
    )
    def test_inverse_equals_solve_against_identity(self, n_phases, m, log_scale, seed):
        # zf_inverse takes inv(H); solving H W = I runs the same LAPACK
        # gesv on the same operands, so the two agree byte for byte.
        rng = np.random.default_rng(seed)
        h = 10.0**log_scale * (
            rng.standard_normal((n_phases, m, m)) + 1j * rng.standard_normal((n_phases, m, m))
        )
        solved = np.linalg.solve(h, np.broadcast_to(np.eye(m, dtype=complex), h.shape))
        assert np.linalg.inv(h).tobytes() == solved.tobytes()
        ok, w, used = zf_inverse(h, singletons(m))
        w = scale_to_power(w, used, 2.0)[ok]
        used = (np.abs(solved[ok]) ** 2).reshape(int(ok.sum()), m * m).sum(axis=1)
        assert w.tobytes() == (solved[ok] * np.sqrt(2.0 / used)[:, None, None]).tobytes()


class TestClusterChannelMatrix:
    def test_condition_number_recorded(self):
        h = np.diag([1.0, 10.0]).astype(complex)  # 2-norm condition number 10
        assert zf(h, 1.0, condition_limit=10.0) is not None
        assert zf(h, 1.0, condition_limit=9.999) is None

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            zf_inverse(np.ones((1, 2, 3), dtype=complex), singletons(2))

    def test_builds_from_representatives(self):
        h_eff = np.array(
            [[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]], dtype=complex
        )
        ok, w, used = zf_inverse(h_eff[None], table_of([0, 1, 1]))
        assert ok[0]
        w = scale_to_power(w, used, 1.0)
        # The heads (users 0 and 1) are zero-forced: H_heads W is a scaled I.
        prod = h_eff[[0, 1]] @ w[0]
        assert np.max(np.abs(prod / prod[0, 0] - np.eye(2))) < 1e-12


def conditioned(rng, m, cond, scale=1.0):
    """U diag(s) V^H with singular values from ``scale`` down to ``scale / cond``."""
    def unitary():
        return np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]

    return scale * (unitary() * np.geomspace(1.0, 1.0 / cond, m)) @ unitary().conj().T


def random_assignment(rng, n_users, n_clusters):
    assign = np.concatenate([
        np.arange(n_clusters), rng.integers(0, n_clusters, n_users - n_clusters)
    ])
    rng.shuffle(assign)
    return assign


class TestZeroForcingEqualsSvdReference:
    """The inverse-first check marks and returns what the SVD ratio does, bit for bit."""

    # 0.9999 puts the bound of an M = 5 matrix above the limit while its
    # condition number stays below: only the SVD passes it.
    FACTORS = (0.3, 0.5, 0.99, 0.9999, 1.01, 2.0)

    @staticmethod
    def assert_same(h_eff, table, power, condition_limit=CONDITION_LIMIT):
        ok, w, used = zf_inverse(h_eff, table, condition_limit)
        w = scale_to_power(w, used, power)[ok]
        ok_ref, w_ref = zero_forcing_reference(h_eff, table, power, condition_limit)
        assert np.array_equal(ok, ok_ref)
        assert np.array_equal(w, w_ref) and w.tobytes() == w_ref.tobytes()
        return ok

    def near_limit_stack(self, rng, m, condition_limit=CONDITION_LIMIT):
        """One matrix per factor of the limit, at scales from 1e-3 to 1e3."""
        return np.stack([
            conditioned(rng, m, f * condition_limit, 10.0 ** rng.uniform(-3, 3))
            for f in self.FACTORS
        ])

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_random_stacks(self, m):
        rng = np.random.default_rng(300 + m)
        for _ in range(60):
            n_users = m + int(rng.integers(0, 4))
            n_phases = int(rng.integers(1, 40))
            scale = 10.0 ** rng.uniform(-6, 2)
            h = scale * (
                rng.standard_normal((n_phases, n_users, m))
                + 1j * rng.standard_normal((n_phases, n_users, m))
            )
            table = member_table(members_of(random_assignment(rng, n_users, m)))
            self.assert_same(h, table, rng.uniform(0.1, 1e4, n_phases))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_condition_numbers_around_the_limit(self, m):
        rng = np.random.default_rng(400 + m)
        passes = []
        for _ in range(40):
            passes.append(self.assert_same(self.near_limit_stack(rng, m), singletons(m), 2.0))
        # Below the limit passes, above it fails, on either route.
        assert np.array_equal(np.all(passes, axis=0), [True] * 4 + [False] * 2)
        assert not np.any(passes, axis=0)[4:].any()

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_singular_and_zero_matrices(self, m):
        rng = np.random.default_rng(500 + m)
        good = random_well_conditioned(rng, m)
        # An all-zero matrix and, from M = 2, one row repeated M times.
        row = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        bad = [np.zeros((m, m), dtype=complex), *[np.tile(row, (m, 1))][: m - 1]]
        for stack in ([bad[0]], [good, bad[0]], [bad[-1], good], [good, *bad, good]):
            h = np.stack(stack)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(np.stack([s for s in stack if s is not good]))
            ok = self.assert_same(h, singletons(m), 3.0)
            assert ok.tolist() == [s is good for s in stack]

    def test_mixed_stacks(self):
        rng = np.random.default_rng(600)
        for _ in range(40):
            m = int(rng.integers(2, 6))
            parts = [
                self.near_limit_stack(rng, m),
                np.stack([random_well_conditioned(rng, m) for _ in range(int(rng.integers(1, 6)))]),
                np.ones((int(rng.integers(0, 3)), m, m), dtype=complex),
                np.zeros((int(rng.integers(0, 2)), m, m), dtype=complex),
            ]
            h = np.concatenate(parts)
            h = h[rng.permutation(len(h))]
            self.assert_same(h, singletons(m), rng.uniform(0.1, 10.0, len(h)))

    @pytest.mark.parametrize("condition_limit", [1.5, 10.0, 1e4, 1e12])
    def test_other_condition_limits(self, condition_limit):
        rng = np.random.default_rng(700)
        for m in (2, 3, 5):
            h = np.concatenate([
                self.near_limit_stack(rng, m, condition_limit),
                rng.standard_normal((30, m, m)) + 1j * rng.standard_normal((30, m, m)),
            ])
            self.assert_same(h, singletons(m), 1.0, condition_limit)

    def test_svd_runs_only_near_the_limit(self, monkeypatch):
        seen = []
        svd_test = precoding._condition_ok

        def spy(hmat, condition_limit):
            seen.append(len(hmat))
            return svd_test(hmat, condition_limit)

        monkeypatch.setattr(precoding, "_condition_ok", spy)
        rng = np.random.default_rng(800)
        good = np.stack([conditioned(rng, 3, 10.0) for _ in range(50)])
        zf_inverse(good, singletons(3))
        assert seen == []
        zf_inverse(np.concatenate([good, self.near_limit_stack(rng, 3)]), singletons(3))
        assert seen == [5]  # 0.3x the limit passes on the bound alone
        zf_inverse(np.concatenate([good, np.zeros((1, 3, 3), dtype=complex)]), singletons(3))
        assert seen == [5, 51]  # ``inv`` raised: the whole stack
