import dataclasses
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab import rl
from irsnoma_lab.channel import ChannelRealization
from irsnoma_lab.noma import NetworkScenario
from irsnoma_lab.oracle import brute_force_optima
from irsnoma_lab.rl import (
    INFEASIBLE_PENALTY,
    NomaPhaseEnv,
    QApproximator,
    ReplayMemory,
    random_search,
    tabular_q_update,
    train_agent,
    train_tabular_agent,
)
from scalar_reference import (
    QNetReference,
    alpha_from_units,
    reference_actions,
    reference_state,
    reference_step,
    rescoring_train_agent,
)


def tiny_scenario(
    seed=5, n_clusters=1, users_per_cluster=2, k_elements=2, power=2.0, assignment=None
):
    rng = np.random.default_rng(seed)
    n_users = n_clusters * users_per_cluster
    g = rng.standard_normal((k_elements, n_clusters)) + 1j * rng.standard_normal(
        (k_elements, n_clusters)
    )
    h = rng.standard_normal((n_users, k_elements)) + 1j * rng.standard_normal(
        (n_users, k_elements)
    )
    channels = ChannelRealization(g_matrix=g, user_channels=h, noise_variance=0.05)
    if assignment is None:
        assignment = tuple(u // users_per_cluster for u in range(n_users))
    return NetworkScenario(channels=channels, assignment=assignment, total_power=power)


def at_powers(scenario, powers):
    """The scenario once per transmit power: the runs of one lockstep search."""
    return [dataclasses.replace(scenario, total_power=p) for p in powers]


class TestTabularUpdate:
    def test_full_overwrite_no_bootstrap(self):
        table = defaultdict(lambda: np.zeros(2))
        tabular_q_update(table, "s", 0, reward=3.5, next_state_key="t", psi=1.0, beta=0.0)
        assert table["s"][0] == pytest.approx(3.5)

    def test_zero_learning_rate_is_noop(self):
        table = defaultdict(lambda: np.zeros(2))
        table["s"][0] = 1.0
        tabular_q_update(table, "s", 0, 10.0, "t", psi=0.0, beta=0.9)
        assert table["s"][0] == 1.0

    def test_two_state_chain_matches_value_iteration(self):
        # Deterministic MDP: action a jumps to state a; reaching state 1
        # pays 1, state 0 pays 0.  Value iteration gives the fixed point.
        beta = 0.9
        q_star = np.zeros((2, 2))
        for _ in range(400):
            v = q_star.max(axis=1)
            for s in range(2):
                for a in range(2):
                    q_star[s, a] = (1.0 if a == 1 else 0.0) + beta * v[a]

        table = defaultdict(lambda: np.zeros(2))
        updates = 0
        for _ in range(200):
            for s in range(2):
                for a in range(2):
                    tabular_q_update(
                        table, s, a, 1.0 if a == 1 else 0.0, a, psi=1.0, beta=beta
                    )
                    updates += 1
        learned = np.array([[table[s][a] for a in range(2)] for s in range(2)])
        assert updates <= 10_000
        assert np.max(np.abs(learned - q_star)) < 1e-6

    def test_random_small_mdp_converges(self):
        # Bellman fixed point on a random deterministic MDP with
        # visit-count learning-rate decay.
        rng = np.random.default_rng(11)
        n_states, n_actions, beta = 8, 3, 0.8
        nxt = rng.integers(0, n_states, size=(n_states, n_actions))
        rew = rng.uniform(0, 1, size=(n_states, n_actions))

        q_star = np.zeros((n_states, n_actions))
        for _ in range(600):
            q_star = rew + beta * q_star.max(axis=1)[nxt]

        table = defaultdict(lambda: np.zeros(n_actions))
        visits = np.zeros((n_states, n_actions))
        for _ in range(40_000):
            s = int(rng.integers(n_states))
            a = int(rng.integers(n_actions))
            visits[s, a] += 1
            tabular_q_update(
                table, s, a, rew[s, a], int(nxt[s, a]),
                psi=1.0 / visits[s, a] ** 0.55, beta=beta,
            )
        learned = np.array(
            [[table[s][a] for a in range(n_actions)] for s in range(n_states)]
        )
        assert np.max(np.abs(learned - q_star)) < 1e-3


class TestQApproximator:
    def test_zero_weights_output_bias(self):
        approx = QApproximator(3, 4, hidden=(5, 5), seeds=[0])
        for w in approx.weights:
            w[...] = 0.0
        approx.biases[-1][0] = [1.0, -2.0, 0.5, 0.0]
        out = approx.forward(np.ones((1, 1, 3)))
        assert np.allclose(out[0, 0], [1.0, -2.0, 0.5, 0.0])

    def test_deterministic_forward(self):
        approx = QApproximator(4, 3, seeds=[1])
        x = np.random.default_rng(2).standard_normal((1, 1, 4))
        assert np.array_equal(approx.forward(x), approx.forward(x))

    def test_matches_independent_matrix_evaluation(self):
        approx = QApproximator(3, 2, hidden=(4, 4), seeds=[3, 5])
        x = np.random.default_rng(4).standard_normal((2, 1, 3))
        out = approx.forward(x)
        for run in range(2):
            a = x[run, 0]
            for layer, (w, b) in enumerate(zip(approx.weights, approx.biases)):
                z = w[run] @ a + b[run]
                a = np.maximum(z, 0.0) if layer < 2 else z
            assert np.max(np.abs(out[run, 0] - a)) < 1e-10

    def test_each_run_draws_from_its_own_seed(self):
        pair = QApproximator(3, 2, hidden=(4, 4), seeds=[3, 5])
        alone = QApproximator(3, 2, hidden=(4, 4), seeds=[5])
        for stacked, single in zip(pair.weights, alone.weights):
            assert np.array_equal(stacked[1], single[0])

    def test_non_finite_features_rejected(self):
        approx = QApproximator(2, 2, seeds=[0])
        with pytest.raises(ValueError):
            approx.forward(np.array([[[np.inf, 0.0]]]))

    def test_rows_of_the_wrong_shape_rejected(self):
        approx = QApproximator(2, 2, seeds=[0, 1])
        for rows in (np.zeros((2, 2)), np.zeros((1, 1, 2)), np.zeros((2, 1, 3))):
            with pytest.raises(ValueError, match=r"rows must be \(2, \.\.\., B, 2\)"):
                approx.forward(rows)

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(sync_period=0), "sync_period"),
            (dict(sync_period=-3), "sync_period"),
            (dict(clip_norm=0.0), "clip_norm"),
            (dict(clip_norm=-1.0), "clip_norm"),
            (dict(learning_rate=0.0), "learning_rate"),
            (dict(discount=1.0), "discount"),
        ],
    )
    def test_bad_settings_rejected_at_construction(self, setting, message):
        with pytest.raises(ValueError, match=message):
            QApproximator(2, 2, seeds=[0], **setting)


class TestPaddedNetwork:
    """Runs of different action counts in one network: each run's outputs,
    targets, gradients, clipping and weights equal its own unpadded network's,
    also in steps where some runs clip and others do not."""

    @pytest.mark.parametrize("seed", range(6))
    def test_each_run_equals_its_own_network(self, seed):
        rng = np.random.default_rng(seed)
        n_runs, dim, batch = int(rng.integers(2, 6)), int(rng.integers(3, 80)), 32
        counts = rng.integers(5, 140, size=n_runs)
        seeds = rng.integers(0, 2**31, size=n_runs)
        clip_norm = 20.0
        padded = QApproximator(dim, counts, sync_period=7, clip_norm=clip_norm, seeds=seeds)
        alone = [
            QApproximator(dim, n, sync_period=7, clip_norm=clip_norm, seeds=[s])
            for n, s in zip(counts, seeds)
        ]
        clips = []
        for _ in range(20):
            x, x_next = rng.standard_normal((2, n_runs, batch, dim))
            actions = np.stack([rng.integers(0, n, size=batch) for n in counts])
            # Run r's rewards are scaled by 4**r, so its gradients are larger.
            rewards = 4.0 ** np.arange(n_runs)[:, None] * rng.normal(3.0, 4.0, (n_runs, batch))
            values = padded.forward(x)
            next_max = padded.target_max(x_next)
            targets = rewards + padded.discount * next_max
            _, grads_w, grads_b = padded.loss_and_gradients(x, actions, targets)
            losses, n_clipped = padded.train_step(x, actions, rewards, next_max)
            clips.append(n_clipped)
            flags = 0
            for run, (net, n) in enumerate(zip(alone, counts)):
                one = (slice(run, run + 1),)
                assert values[run, :, :n].tobytes() == net.forward(x[one])[0].tobytes()
                assert np.isneginf(padded.masked(values)[run, :, n:]).all()
                own_max = net.target_max(x_next[one])
                assert next_max[run].tobytes() == own_max[0].tobytes()
                _, own_w, own_b = net.loss_and_gradients(x[one], actions[one], targets[one])
                for mine, theirs in zip(grads_w + grads_b, own_w + own_b):
                    assert mine[run, : theirs.shape[1]].tobytes() == theirs[0].tobytes()
                    assert not mine[run, theirs.shape[1] :].any()
                (loss,), flag = net.train_step(x[one], actions[one], rewards[one], own_max)
                assert losses[run] == loss
                flags += flag
            assert n_clipped == flags
        assert any(0 < n < n_runs for n in clips)
        for run, net in enumerate(alone):
            for mine, theirs in zip(
                padded.weights + padded.biases + padded.target_weights + padded.target_biases,
                net.weights + net.biases + net.target_weights + net.target_biases,
            ):
                assert mine[run, : theirs.shape[1]].tobytes() == theirs[0].tobytes()

    def test_one_count_for_every_run_pads_nothing(self):
        approx = QApproximator(3, 4, seeds=[1, 2])
        assert approx.n_actions.tolist() == [4, 4]
        assert approx.padded is None


class TestTdTarget:
    """The train step's TD target is ``r + beta * target_max(s')``."""

    def test_zero_discount(self):
        # The target is the reward: the step's loss is the one against 2.5.
        approx = QApproximator(2, 2, discount=0.0, seeds=[0])
        x, action, reward = np.zeros((1, 1, 2)), np.array([[1]]), np.array([[2.5]])
        want, _, _ = approx.loss_and_gradients(x, action, reward)
        losses, _ = approx.train_step(x, action, reward, approx.target_max(x))
        assert losses.tolist() == want.tolist()

    def test_compositional(self):
        approx = QApproximator(3, 4, discount=0.7, seeds=[5])
        x = np.random.default_rng(6).standard_normal(3)
        best = float(np.max(QNetReference.of_run(approx, 0).target_values(x)))
        assert approx.target_max(x[None, None])[0, 0] == pytest.approx(best)
        expected = 0.3 + 0.7 * best
        feats, action = np.ones((1, 1, 3)), np.array([[2]])
        want, _, _ = approx.loss_and_gradients(feats, action, np.array([[expected]]))
        losses, _ = approx.train_step(
            feats, action, np.array([[0.3]]), approx.target_max(x[None, None])
        )
        assert losses[0] == pytest.approx(want[0])

    def test_target_stale_between_syncs(self):
        approx = QApproximator(3, 3, sync_period=10**9, seeds=[9])
        x = np.random.default_rng(10).standard_normal(3)
        before = approx.target_max(x[None, None])
        next_features = np.stack(
            [np.random.default_rng(i + 50).standard_normal(3) for i in range(8)]
        )[None]
        batch = (
            np.stack([np.random.default_rng(i).standard_normal(3) for i in range(8)])[None],
            (np.arange(8) % 3)[None],
            np.ones((1, 8)),
            approx.target_max(next_features),
        )
        syncs = approx.syncs
        for _ in range(5):
            approx.train_step(*batch)
        assert approx.target_max(x[None, None]) == before
        assert approx.syncs == syncs

    def test_syncs_counted(self):
        approx = QApproximator(3, 3, sync_period=2, seeds=[9])
        assert approx.syncs == 1
        batch = (np.ones((1, 2, 3)), np.array([[0, 1]]), np.ones((1, 2)), np.zeros((1, 2)))
        counts = []
        for _ in range(5):
            approx.train_step(*batch)
            counts.append(approx.syncs)
        assert counts == [1, 2, 2, 3, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        n_runs=st.integers(1, 4),
        rows=st.integers(1, 32),
        padded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_row_has_the_same_bits_in_any_call(self, n_runs, rows, padded, seed):
        # One stacked call over all rows against subsets of them, each scored
        # alone or padded with other rows to a common width, as the replay
        # rescores its stale picks.
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 80))
        counts = rng.integers(2, 80, size=n_runs) if padded else int(rng.integers(2, 80))
        approx = QApproximator(dim, counts, seeds=rng.integers(0, 2**31, size=n_runs))
        assert (approx.padded is not None) == (padded and len(set(counts)) > 1)
        x = rng.standard_normal((n_runs, rows, dim)) * 10.0 ** rng.uniform(-3, 3)
        full = approx.target_max(x)
        assert full.shape == (n_runs, rows)
        keep = rng.random((n_runs, rows)) < rng.uniform()
        width = max(int(keep.sum(axis=1).max()), 1)
        order = np.argsort(~keep, axis=1, kind="stable")[:, :width]
        picks = np.arange(n_runs)[:, None], order
        stacked = approx.target_max(x[picks])
        assert stacked.tobytes() == full[picks].tobytes()
        # A strided view of rows placed behind others, as train_agent passes them.
        behind = np.concatenate([x, x[picks]], axis=1)[:, rows:]
        assert approx.target_max(behind).tobytes() == stacked.tobytes()
        for run in range(n_runs):
            for row in np.flatnonzero(keep[run]):
                alone = approx.target_max(x[:, row : row + 1])
                assert alone[run, 0].tobytes() == full[run, row].tobytes()


class TestDqnTraining:
    def test_zero_residual_zero_gradients(self):
        approx = QApproximator(3, 3, seeds=[11])
        rng = np.random.default_rng(12)
        feats = rng.standard_normal((1, 6, 3))
        actions = rng.integers(0, 3, size=(1, 6))
        current = approx.forward(feats)[0, np.arange(6), actions[0]][None]
        loss, grads_w, grads_b = approx.loss_and_gradients(feats, actions, current)
        assert loss.tolist() == [0.0]
        for g in grads_w + grads_b:
            assert np.max(np.abs(g)) < 1e-12

    def test_gradients_match_finite_differences(self):
        # Two runs: each gradient is its own run's, and nudging one run's
        # weights leaves the other run's loss untouched.
        rng = np.random.default_rng(13)
        step = 1e-5
        approx = QApproximator(4, 3, hidden=(8, 8), seeds=[rng, rng])
        feats = rng.standard_normal((2, 5, 4))
        actions = rng.integers(0, 3, size=(2, 5))
        targets = rng.standard_normal((2, 5))
        base, grads_w, grads_b = approx.loss_and_gradients(feats, actions, targets)
        params = list(zip(approx.weights, grads_w)) + list(zip(approx.biases, grads_b))
        for param, grad in params:
            for run in range(2):
                weights, flat = param[run].reshape(-1), grad[run].ravel()
                idx_pool = rng.choice(weights.size, size=min(25, weights.size), replace=False)
                for idx in idx_pool:
                    orig = weights[idx]
                    weights[idx] = orig + step
                    up, _, _ = approx.loss_and_gradients(feats, actions, targets)
                    weights[idx] = orig - step
                    down, _, _ = approx.loss_and_gradients(feats, actions, targets)
                    weights[idx] = orig
                    assert up[1 - run] == down[1 - run] == base[1 - run]
                    fd = (up[run] - down[run]) / (2 * step)
                    rel = abs(flat[idx] - fd) / max(abs(flat[idx]), abs(fd), 1e-6)
                    assert rel < 1e-4

    def test_supervised_regression_sanity(self):
        # Discount 0 turns the TD target into the stored reward, so the
        # network regresses toward a fixed random target function.
        rng = np.random.default_rng(14)
        approx = QApproximator(
            4, 3, hidden=(16, 16), learning_rate=0.1, discount=0.0, seeds=[15]
        )
        feats = rng.standard_normal((1, 32, 4))
        actions = rng.integers(0, 3, size=(1, 32))
        rewards = rng.standard_normal((1, 32))
        next_max = approx.target_max(feats)
        (first_loss,), _ = approx.train_step(feats, actions, rewards, next_max)
        for _ in range(199):
            (last,), _ = approx.train_step(feats, actions, rewards, next_max)
        assert last <= first_loss / 10.0

    def test_gradient_clipping_flagged(self):
        approx = QApproximator(2, 2, clip_norm=1e-9, seeds=[16])
        next_max = approx.target_max(np.ones((1, 1, 2)))
        _, clipped = approx.train_step(
            np.ones((1, 1, 2)), np.array([[0]]), np.array([[100.0]]), next_max
        )
        assert clipped == 1

    def test_non_finite_weights_name_their_runs(self):
        # One infinite reward of run 1 spoils only run 1's network.
        approx = QApproximator(4, 3, seeds=[1, 2, 3])
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 8, 4))
        actions = rng.integers(0, 3, size=(3, 8))
        rewards = rng.normal(size=(3, 8))
        rewards[1, 5] = np.inf
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"^network weights of runs \[1\] became non-finite$"
        ):
            approx.train_step(x, actions, rewards, approx.target_max(x))
        for p in approx.weights + approx.biases:
            assert np.isfinite(p[[0, 2]]).all()


class TestReplayMemory:
    def test_ring_overwrite(self):
        mem = ReplayMemory(capacity=3, state_dtype=(float, 1))
        for i in range(5):
            mem.push(np.array([[float(i)]]), [0], [0.0], np.array([[0.0]]))
        assert len(mem) == 3
        stored = sorted(mem.states[0, :, 0])
        assert stored == [2.0, 3.0, 4.0]

    def test_push_marks_its_slot_stale(self):
        mem = ReplayMemory(capacity=3, state_dtype=(float, 1), n_runs=2)
        for i in range(5):
            mem.scored_at[:] = 7
            mem.push(np.zeros((2, 1)), [0, 0], [0.0, 0.0], np.zeros((2, 1)))
            slot = i % 3
            assert mem.scored_at.tolist() == [
                -1 if s == slot else 7 for _ in range(2) for s in range(3)
            ]

    def test_seeded_sampling(self):
        mem = ReplayMemory(10, state_dtype=(float, 1))
        for i in range(10):
            mem.push(np.array([[float(i)]]), [0], [0.0], np.array([[0.0]]))
        a, _, _ = mem.sample([np.random.default_rng(1)], 4)
        b, _, _ = mem.sample([np.random.default_rng(1)], 4)
        assert a.tolist() == b.tolist()

    def test_records_are_states_then_next_states(self):
        mem = ReplayMemory(10, state_dtype=(float, 1), n_runs=2)
        for i in range(10):
            mem.push(np.array([[i], [i + 100.0]]), [0, 0], [0.0, 0.0], -np.array([[i], [i + 100.0]]))
        state_rows, next_rows = np.array([[1, 2, 2], [13, 10, 19]]), np.array([[4], [15]])
        got = mem.records(state_rows, next_rows)[..., 0]
        assert got.tolist() == [[1.0, 2.0, 2.0, -4.0], [103.0, 100.0, 109.0, -105.0]]

    def test_each_run_samples_its_own_stream(self):
        mem = ReplayMemory(10, state_dtype=(float, 1), n_runs=2)
        for i in range(10):
            mem.push(np.array([[i], [i + 100.0]]), [i, i], [0.0, 1.0], np.zeros((2, 1)))
        rows, actions, rewards = mem.sample(
            [np.random.default_rng(1), np.random.default_rng(2)], 4
        )
        states = mem.records(rows, rows[:, :0])
        for run, seed in enumerate((1, 2)):
            picks = np.random.default_rng(seed).integers(0, 10, size=4)
            assert rows[run].tolist() == (picks + 10 * run).tolist()
            assert actions[run].tolist() == picks.tolist()
            assert states[run, :, 0].tolist() == (picks + 100.0 * run).tolist()
            assert rewards[run].tolist() == [float(run)] * 4

    def test_packed_env_states_give_back_their_features(self):
        scenario = tiny_scenario(n_clusters=2, users_per_cluster=2, k_elements=3)
        env = NomaPhaseEnv(at_powers(scenario, [1e-6, 1.0]), resolution_bits=3, alpha_step=0.1)
        mem = ReplayMemory(20, env.state_dtype, n_runs=2)
        rng = np.random.default_rng(4)
        visited = []
        for _ in range(20):
            state, _ = env.random_state([rng, rng])
            visited.append(state)
            mem.push(env.pack(state), [0, 0], [0.0, 0.0], env.pack(state))
        assert env.state_dtype.itemsize < env.feature_dim * 8 / 2
        picks = [np.random.default_rng(5), np.random.default_rng(6)]
        states = mem.records(mem.sample(picks, 12)[0], np.zeros((2, 0), dtype=int))
        for run, seed in enumerate((5, 6)):
            idx = np.random.default_rng(seed).integers(0, 20, size=12)
            want = np.stack([visited[i].features[run] for i in idx])
            assert env.features_of(states)[run].tobytes() == want.tobytes()


class ListReplay:
    """The replay as a list of (state, action, reward, next_state) tuples."""

    def __init__(self, capacity):
        self.capacity, self.buffer, self.cursor = capacity, [], 0

    def push(self, transition):
        if len(self.buffer) < self.capacity:
            self.buffer.append(transition)
        else:
            self.buffer[self.cursor] = transition
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, rng, batch_size):
        idx = rng.integers(0, len(self.buffer), size=batch_size)
        return [self.buffer[i] for i in idx]


def per_transition_train_step(net: QNetReference, batch):
    """One run's train step with one target-network forward per transition."""
    features = np.stack([s for s, _, _, _ in batch])
    actions = [a for _, a, _, _ in batch]
    targets = [
        float(r + net.discount * np.max(net.target_values(s2)))
        for _, _, r, s2 in batch
    ]
    return net.apply(*net.loss_and_gradients(features, actions, targets))


class TestArrayReplayEqualsPerTransitionLoop:
    """The stacked replay and train step equal, run by run, a list replay and
    the one-run network stepped one transition at a time.  Runs of different
    action counts are padded: each run's reference is cut to its own output
    rows, and the padded rows stay zero."""

    @pytest.mark.parametrize(
        "batch_size, capacity, pushes, clip_norm, n_runs, n_actions",
        [(1, 500, 120, 1e6, 1, 51), (32, 500, 120, 1e6, 1, 51), (1, 10, 120, 1e6, 1, 51),
         (32, 50, 200, 1e6, 1, 51), (32, 50, 200, 0.5, 1, 51), (32, 50, 200, 60.0, 3, 51),
         (32, 50, 200, 60.0, 3, (51, 37, 44))],
        ids=["batch1", "batch32", "batch1-wraps", "batch32-wraps", "batch32-clipped",
             "three-runs-some-clip", "three-runs-padded-some-clip"],
    )
    def test_bit_identical(self, batch_size, capacity, pushes, clip_norm, n_runs, n_actions):
        dim = 75  # the feature count at paper scale, with 51 actions
        seeds = [31 + run for run in range(n_runs)]
        arrays = QApproximator(dim, n_actions, sync_period=7, clip_norm=clip_norm, seeds=seeds)
        counts = arrays.n_actions.tolist()
        nets = [QNetReference.of_run(arrays, run) for run in range(n_runs)]
        for net, n in zip(nets, counts):
            for params in (net.weights, net.biases, net.target_weights, net.target_biases):
                params[-1] = params[-1][:n]
        memory = ReplayMemory(capacity, (float, dim), n_runs)
        references = [ListReplay(capacity) for _ in range(n_runs)]
        rngs_a = [np.random.default_rng(40 + run) for run in range(n_runs)]
        rngs_b = [np.random.default_rng(40 + run) for run in range(n_runs)]
        data = np.random.default_rng(33)
        clips = []
        for step in range(pushes):
            # Run r's rewards are scaled by 4**r, so its gradients are larger.
            transitions = [
                (data.uniform(size=dim), int(data.integers(counts[run])),
                 4.0**run * (float(data.normal(3.0, 4.0)) - (5.0 if step % 3 else 0.0)),
                 data.uniform(size=dim))
                for run in range(n_runs)
            ]
            memory.push(*(np.array(field) for field in zip(*transitions)))
            for reference, transition in zip(references, transitions):
                reference.push(transition)
            if step + 1 < batch_size:
                continue
            rows, actions, rewards = memory.sample(rngs_a, batch_size)
            states, next_states = np.split(memory.records(rows, rows), 2, axis=1)
            next_max = arrays.target_max(next_states)
            losses, n_clipped = arrays.train_step(states, actions, rewards, next_max)
            want = [
                per_transition_train_step(net, reference.sample(rng, batch_size))
                for net, reference, rng in zip(nets, references, rngs_b)
            ]
            assert losses.tolist() == [loss for loss, _ in want]
            assert n_clipped == sum(flag for _, flag in want)
            clips.append(n_clipped)
            for run, net in enumerate(nets):
                for mine, theirs in zip(
                    arrays.weights + arrays.biases + arrays.target_weights + arrays.target_biases,
                    net.weights + net.biases + net.target_weights + net.target_biases,
                ):
                    assert np.array_equal(mine[run, : len(theirs)], theirs)
                    assert not mine[run, len(theirs) :].any()
        assert len(memory) == min(capacity, pushes)
        assert (max(clips) > 0) == (clip_norm < 100.0)
        if n_runs > 1:
            assert any(0 < n < n_runs for n in clips)


class TestEnvironment:
    def test_action_count_formula(self):
        scenario = tiny_scenario(n_clusters=2, users_per_cluster=2, k_elements=4)
        env = NomaPhaseEnv([scenario], resolution_bits=2, alpha_step=0.1)
        k, sizes = 4, (2, 2)
        expected = 2 * k + 2 * sum(s * (s - 1) // 2 for s in sizes) + 1
        assert env.n_actions == expected

    def test_noop_keeps_configuration(self):
        env = NomaPhaseEnv([tiny_scenario()], resolution_bits=2, alpha_step=0.5)
        state, result = env.random_state([np.random.default_rng(1)])
        next_state, reward, next_result = env.step(state, [0])
        assert np.array_equal(next_state.phases, state.phases)
        assert np.array_equal(next_state.units, state.units)
        assert np.array_equal(reward, env.reward(result))

    def test_phase_increment_wraps(self):
        env = NomaPhaseEnv([tiny_scenario()], resolution_bits=2, alpha_step=0.5)
        state, _ = env.random_state([np.random.default_rng(2)])
        start = int(state.phases[0, 0])
        seen = []
        for _ in range(4):
            state, _, _ = env.step(state, [1])  # increment element 0
            seen.append(int(state.phases[0, 0]))
        assert seen == [(start + i) % 4 for i in range(1, 5)]

    def test_alpha_shift_clamped_at_zero(self):
        env = NomaPhaseEnv([tiny_scenario()], resolution_bits=1, alpha_step=0.5)
        state, _ = env.random_state([np.random.default_rng(3)])
        shift_id = 1 + 2 * env.k_elements  # first alpha-shift action (0 -> 1)
        assert env.unit_delta[0, shift_id].tolist() == [-1, 1]
        assert not env.phase_delta[shift_id].any()
        for _ in range(4):
            state, _, _ = env.step(state, [shift_id])
        assert state.units[0, 0] == 0
        assert state.units[0, 1] == env.units_total

    def test_action_space_closure(self):
        env = NomaPhaseEnv(
            at_powers(tiny_scenario(n_clusters=2, users_per_cluster=2, k_elements=3), [1.0, 2.0]),
            resolution_bits=2,
            alpha_step=0.25,
        )
        rng = np.random.default_rng(17)
        state, _ = env.random_state([rng, rng])
        for _ in range(100):
            actions = rng.integers(env.n_actions, size=2)
            state, _, _ = env.step(state, actions)
            assert ((0 <= state.phases) & (state.phases < env.levels)).all()
            for units in state.units:
                for cluster in cluster_tuples(env, units):
                    assert sum(cluster) == env.units_total

    def test_single_element_sweep_reaches_brute_force_max(self):
        scenario = tiny_scenario(n_clusters=1, users_per_cluster=1, k_elements=1)
        env = NomaPhaseEnv([scenario], resolution_bits=3, alpha_step=0.5)
        state, result = env.random_state([np.random.default_rng(4)])
        (best,) = env.reward(result)
        for _ in range(env.levels - 1):
            state, (reward,), _ = env.step(state, [1])
            best = max(best, reward)
        (oracle,) = brute_force_optima(scenario, 3, 0.5, [scenario.total_power])
        assert best == pytest.approx(oracle.best_rate)

    def test_feature_vector_layout(self):
        env = NomaPhaseEnv([tiny_scenario()], resolution_bits=2, alpha_step=0.5)
        state, _ = env.random_state([np.random.default_rng(5)])
        k = env.k_elements
        assert state.features.shape == (1, env.feature_dim)
        assert state.features[0, :k].tolist() == (state.phases[0] / 4).tolist()
        assert state.features[0, k : k + 2].tolist() == (state.units[0] / 2).tolist()
        assert np.max(state.features[0, k + 2 :]) == pytest.approx(1.0)

    def test_bad_alpha_step_rejected(self):
        with pytest.raises(ValueError):
            NomaPhaseEnv([tiny_scenario()], resolution_bits=1, alpha_step=0.3)

    def test_runs_must_share_their_sizes_and_flags(self):
        base = tiny_scenario(n_clusters=2, users_per_cluster=2)
        env = NomaPhaseEnv([
            base,
            dataclasses.replace(base, assignment=(0, 1, 1, 1), total_power=3.0),
            dataclasses.replace(base, qos_floors=[0.1, 0.0, 0.2, 0.0]),
            tiny_scenario(seed=6, n_clusters=2, users_per_cluster=2),
        ], resolution_bits=1, alpha_step=0.05)
        assert env.n_actions.tolist() == [9, 11, 9, 9]
        for other in (
            tiny_scenario(n_clusters=2, users_per_cluster=2, k_elements=3),
            tiny_scenario(n_clusters=2, users_per_cluster=3),
            tiny_scenario(n_clusters=1, users_per_cluster=4),
            dataclasses.replace(base, interference_model="coherent"),
            dataclasses.replace(base, alpha_domain="power"),
        ):
            with pytest.raises(ValueError, match="must share users, clusters, elements and flags"):
                NomaPhaseEnv([base, other], resolution_bits=1, alpha_step=0.05)
        with pytest.raises(ValueError, match="at least one scenario"):
            NomaPhaseEnv([], resolution_bits=1, alpha_step=0.05)


def cluster_tuples(env, units, run=0):
    """Run ``run``'s unit array as one tuple of counts per cluster."""
    cuts = np.cumsum(env.scenarios[run].cluster_sizes)[:-1]
    return tuple(tuple(part) for part in np.split(units.tolist(), cuts))


def assert_matches_reference(env, run, state, result, phases, alpha_units):
    """Run ``run`` of ``state``/``result`` equals the reference scoring of a
    tuple state at that run's power, bit for bit.

    Returns the reference result.
    """
    scenario = env.scenarios[run]
    features, splits, ref = reference_state(
        scenario, phases, alpha_units, env.resolution_bits
    )
    assert state.phases[run].tolist() == list(phases)
    assert cluster_tuples(env, state.units[run], run) == alpha_units
    assert state.features[run].tobytes() == features.tobytes()
    assert scenario.split_tuples(state.units[run] / env.units_total) == splits
    assert (result.sum_rate[run], result.feasible[run]) == (ref.sum_rate, ref.feasible)
    if ref.own_gains is None:
        assert np.isnan(result.own_gains[run]).all()
    else:
        assert result.own_gains[run].tobytes() == ref.own_gains.tobytes()
    return ref


class TestActionTableEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n_clusters=st.integers(1, 3),
        users_per_cluster=st.integers(1, 3),
        k_elements=st.integers(1, 4),
        bits=st.integers(1, 3),
        alpha_step=st.sampled_from([0.5, 0.25, 0.2, 0.1]),
        powers=st.lists(st.floats(1e-4, 1e3), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_action_from_random_states(
        self, n_clusters, users_per_cluster, k_elements, bits, alpha_step, powers, seed
    ):
        scenario = tiny_scenario(
            seed=seed % 1000, n_clusters=n_clusters,
            users_per_cluster=users_per_cluster, k_elements=k_elements,
        )
        env = NomaPhaseEnv(at_powers(scenario, powers), resolution_bits=bits, alpha_step=alpha_step)
        actions = reference_actions(k_elements, env.scenarios[0].cluster_sizes)
        assert env.n_actions.tolist() == [len(actions)] * len(powers)
        rng = np.random.default_rng(seed)
        rngs = [rng] * len(powers)
        for start in [env.random_state(rngs) for _ in range(3)]:
            state, result = start
            tuples = [
                (tuple(state.phases[run].tolist()), cluster_tuples(env, state.units[run]))
                for run in range(env.n_runs)
            ]
            for run, (phases, alpha_units) in enumerate(tuples):
                assert_matches_reference(env, run, state, result, phases, alpha_units)
            for action_id in range(len(actions)):
                # Run r takes action (action_id + r), so the runs move apart.
                ids = [(action_id + run) % len(actions) for run in range(env.n_runs)]
                nxt, rewards, result = env.step(state, ids)
                for run, (phases, alpha_units) in enumerate(tuples):
                    ref_phases, ref_units = reference_step(
                        phases, alpha_units, actions[ids[run]], env.levels
                    )
                    ref = assert_matches_reference(
                        env, run, nxt, result, ref_phases, ref_units
                    )
                    penalty = 0.0 if ref.feasible else INFEASIBLE_PENALTY
                    assert rewards[run] == ref.sum_rate - penalty


class TestAgents:
    def test_curve_length_and_monotone_best(self):
        env = NomaPhaseEnv([tiny_scenario()], resolution_bits=2, alpha_step=0.5)
        approx = QApproximator(env.feature_dim, env.n_actions, seeds=[18])
        (result,) = train_agent(
            env, approx, episodes=12, steps_per_episode=5, seeds=[19], warmup=8
        )
        assert len(result.curve) == 12
        bests = [p.best_reward for p in result.curve]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert result.best_phase is not None

    def test_pure_exploration_acts_as_random_search(self, monkeypatch):
        for name in ("EPSILON_START", "EPSILON_DECAY", "EPSILON_MIN"):
            monkeypatch.setattr(rl, name, 1.0)
        env = NomaPhaseEnv([tiny_scenario()], resolution_bits=2, alpha_step=0.5)
        approx = QApproximator(env.feature_dim, env.n_actions, seeds=[20])
        (result,) = train_agent(env, approx, episodes=10, steps_per_episode=5, seeds=[21])
        bests = [p.best_reward for p in result.curve]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_small_instance_near_oracle(self):
        scenario = tiny_scenario(n_clusters=1, users_per_cluster=2, k_elements=2)
        env = NomaPhaseEnv([scenario], resolution_bits=2, alpha_step=0.1)
        approx = QApproximator(env.feature_dim, env.n_actions, seeds=[22])
        (result,) = train_agent(
            env, approx, episodes=150, steps_per_episode=10, seeds=[23]
        )
        (oracle,) = brute_force_optima(scenario, 2, 0.1, [scenario.total_power])
        assert result.best_rate >= 0.9 * oracle.best_rate
        assert result.best_rate <= oracle.best_rate + 1e-12

    def test_random_search_keeps_the_best_random_state(self):
        env = NomaPhaseEnv([tiny_scenario()], resolution_bits=2, alpha_step=0.5)
        (result,) = random_search(env, 15, seeds=[25])
        rng = np.random.default_rng(25)
        draws = [env.random_state([rng]) for _ in range(15)]
        feasible = [(r.sum_rate[0], s, r) for s, r in draws if r.feasible[0]]
        rate, state, scored = max(feasible, key=lambda item: item[0])
        assert result.best_rate == rate
        assert list(result.best_phase.indices) == state.phases[0].tolist()
        assert result.best_splits == tuple(
            alpha_from_units(units) for units in cluster_tuples(env, state.units[0])
        )
        assert result.best_orders == env.scenarios[0].split_tuples(scored.order[0])
        assert len(result.curve) == 15

    def test_tabular_agent_runs(self):
        env = NomaPhaseEnv([tiny_scenario()], resolution_bits=1, alpha_step=0.5)
        (result,) = train_tabular_agent(env, episodes=20, steps_per_episode=5, seeds=[24])
        assert result.best_phase is not None
        assert len(result.curve) == 20

    def test_one_seed_per_run(self):
        env = NomaPhaseEnv(
            at_powers(tiny_scenario(), [1.0, 2.0]), resolution_bits=1, alpha_step=0.05
        )
        approx = QApproximator(env.feature_dim, env.n_actions, seeds=[1, 2])
        with pytest.raises(ValueError, match="1 seeds for 2 runs"):
            train_agent(env, approx, 2, 2, seeds=[3])
        with pytest.raises(ValueError, match="1 networks for 2 runs"):
            train_agent(env, QApproximator(env.feature_dim, env.n_actions[0]), 2, 2, seeds=[3, 4])
        with pytest.raises(ValueError, match="3 seeds for 2 runs"):
            random_search(env, 4, seeds=[1, 2, 3])


class TestTargetCache:
    """``train_agent`` scores each replay slot once per target sync and equals
    a learner that rescores every minibatch, bit for bit, also when the
    replay wraps and the target syncs every third step."""

    @pytest.mark.parametrize("n_runs", [1, 4])
    def test_equals_rescoring_every_minibatch(self, monkeypatch, n_runs):
        monkeypatch.setattr(rl, "REPLAY_CAPACITY", 50)
        scenarios = TestLockstepEqualsSingleRuns().scenarios()[:n_runs]
        seeds = [11, 12, 13, 14][:n_runs]
        outcomes = []
        for train in (train_agent, rescoring_train_agent):
            env = NomaPhaseEnv(scenarios, resolution_bits=2, alpha_step=0.25)
            approx = QApproximator(
                env.feature_dim, env.n_actions, hidden=(16, 16), sync_period=3,
                seeds=[1, 2, 3, 4][:n_runs],
            )
            widths, score = [], approx.target_max

            def counted(features, score=score, widths=widths):
                widths.append(np.shape(features)[1])
                return score(features)

            approx.target_max = counted
            results = train(env, approx, 10, 12, seeds, warmup=40)
            outcomes.append((results, approx, widths))
        (mine, cached, widths), (want, rescored, all_rows) = outcomes
        assert all_rows == [rl.BATCH_SIZE] * 81  # 10 x 12 transitions, warmup 40
        assert max(widths) <= rl.BATCH_SIZE
        assert sum(widths) < sum(all_rows)
        assert cached.syncs == rescored.syncs == 1 + 81 // 3
        for a, b in zip(mine, want):
            assert np.array_equal(curve_array(a), curve_array(b), equal_nan=True)
            assert a.best_rate == b.best_rate
            assert a.best_phase == b.best_phase
            assert a.best_splits == b.best_splits
        for stacked, own in zip(
            cached.weights + cached.biases + cached.target_weights + cached.target_biases,
            rescored.weights + rescored.biases + rescored.target_weights + rescored.target_biases,
        ):
            assert stacked.tobytes() == own.tobytes()


class TestLockstepEqualsSingleRuns:
    """E runs in lockstep equal the same E runs made one at a time, bit for bit.

    The runs differ in channels, clustering, floors and power, so their
    action counts differ (11, 13, 13 and 11): the lockstep network pads the
    shorter output layers.  At 1e-3 W the QoS floor is never met, and the
    reward scale grows with power, so at ``CLIP_NORM`` some runs clip their
    gradient in steps where others do not.
    """

    RUNS = (  # (channel seed, assignment, power, floors)
        (8, (0, 0, 1, 1), 1e-3, 0.05),
        (9, (0, 1, 1, 1), 0.5, 0.0),
        (10, (0, 0, 0, 1), 2.0, (0.05, 0.0, 0.0, 0.05)),
        (11, (1, 1, 0, 0), 20.0, 0.0),
    )
    SEEDS = (11, 12, 13, 14)
    CLIP_NORM = 3.0

    def scenarios(self):
        return [
            dataclasses.replace(
                tiny_scenario(seed, 2, 2, k_elements=3, power=power, assignment=assignment),
                qos_floors=floors,
            )
            for seed, assignment, power, floors in self.RUNS
        ]

    def search(self, algorithm, scenarios, seeds):
        """(results, learner, clipped runs per train step) of one lockstep search."""
        env = NomaPhaseEnv(scenarios, resolution_bits=2, alpha_step=0.25)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        if algorithm == "random-phase":
            return random_search(env, 40, rngs), None, []
        if algorithm == "tabular":
            return train_tabular_agent(env, 10, 12, rngs), None, []
        approx = QApproximator(
            env.feature_dim, env.n_actions, hidden=(16, 16), sync_period=7,
            clip_norm=self.CLIP_NORM, seeds=rngs,
        )
        clipped, step = [], approx.train_step

        def counted(*batch):
            losses, n_clipped = step(*batch)
            clipped.append(n_clipped)
            return losses, n_clipped

        approx.train_step = counted
        return train_agent(env, approx, 10, 12, rngs, warmup=40), approx, clipped

    @pytest.mark.parametrize("algorithm", ["dqn", "tabular", "random-phase"])
    def test_every_output_equal(self, algorithm):
        scenarios = self.scenarios()
        lockstep, approx, clipped = self.search(algorithm, scenarios, self.SEEDS)
        assert [r.best_phase is not None for r in lockstep] == [False, True, True, True]
        if approx is not None:
            assert approx.n_actions.tolist() == [11, 13, 13, 11]
        if algorithm == "dqn":
            assert len(clipped) == 81  # 10 x 12 transitions, warmup 40
            assert any(0 < n < len(scenarios) for n in clipped)
        for run, (scenario, seed) in enumerate(zip(scenarios, self.SEEDS)):
            (alone,), single, _ = self.search(algorithm, [scenario], [seed])
            mine = lockstep[run]
            assert np.array_equal(curve_array(mine), curve_array(alone), equal_nan=True)
            assert mine.best_rate == alone.best_rate
            assert mine.best_phase == alone.best_phase
            assert mine.best_splits == alone.best_splits
            assert mine.best_orders == alone.best_orders
            if algorithm == "dqn":
                for stacked, own in zip(
                    approx.weights + approx.biases + approx.target_weights + approx.target_biases,
                    single.weights + single.biases + single.target_weights + single.target_biases,
                ):
                    assert np.array_equal(stacked[run, : own.shape[1]], own[0])
                    assert not stacked[run, own.shape[1] :].any()
            if algorithm == "tabular":
                assert mine.learner.keys() == alone.learner.keys()
                for key, values in mine.learner.items():
                    assert np.array_equal(values, alone.learner[key])


def curve_array(result):
    return np.array([(p.episode, p.best_reward, p.epsilon, p.loss) for p in result.curve])
