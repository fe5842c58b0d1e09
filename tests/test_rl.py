import copy
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab.channel import ChannelRealization
from irsnoma_lab.noma import NetworkScenario
from irsnoma_lab.oracle import SearchSpace, brute_force_optimum
from irsnoma_lab.rl import (
    NomaPhaseEnv,
    QApproximator,
    ReplayMemory,
    random_search,
    tabular_q_update,
    train_agent,
    train_tabular_agent,
)
from scalar_reference import (
    alpha_from_units,
    reference_actions,
    reference_state,
    reference_step,
)


def tiny_scenario(seed=5, n_clusters=1, users_per_cluster=2, k_elements=2, power=2.0):
    rng = np.random.default_rng(seed)
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
        approx = QApproximator(3, 4, hidden=(5, 5), seed=0)
        for w in approx.weights:
            w[...] = 0.0
        approx.biases[-1][...] = [1.0, -2.0, 0.5, 0.0]
        out = approx.forward(np.ones(3))
        assert np.allclose(out, [1.0, -2.0, 0.5, 0.0])

    def test_deterministic_forward(self):
        approx = QApproximator(4, 3, seed=1)
        x = np.random.default_rng(2).standard_normal(4)
        assert np.array_equal(approx.forward(x), approx.forward(x))

    def test_matches_independent_matrix_evaluation(self):
        approx = QApproximator(3, 2, hidden=(4, 4), seed=3)
        x = np.random.default_rng(4).standard_normal(3)
        a = x
        for layer, (w, b) in enumerate(zip(approx.weights, approx.biases)):
            z = w @ a + b
            a = np.maximum(z, 0.0) if layer < 2 else z
        assert np.max(np.abs(approx.forward(x) - a)) < 1e-10

    def test_non_finite_features_rejected(self):
        approx = QApproximator(2, 2, seed=0)
        with pytest.raises(ValueError):
            approx.forward(np.array([np.inf, 0.0]))


class TestTdTarget:
    def test_zero_discount(self):
        approx = QApproximator(2, 2, discount=0.0, seed=0)
        assert approx.td_target(np.array([2.5]), np.zeros((1, 2))) == pytest.approx([2.5])

    def test_compositional(self):
        approx = QApproximator(3, 4, discount=0.7, seed=5)
        x = np.random.default_rng(6).standard_normal(3)
        expected = 0.3 + 0.7 * float(np.max(approx.target_values(x)))
        assert approx.td_target(np.array([0.3]), x[None])[0] == pytest.approx(expected)

    def test_target_stale_between_syncs(self):
        approx = QApproximator(3, 3, sync_period=10**9, seed=9)
        x = np.random.default_rng(10).standard_normal(3)
        before = approx.td_target(np.array([1.0]), x[None])
        batch = (
            np.stack([np.random.default_rng(i).standard_normal(3) for i in range(8)]),
            np.arange(8) % 3,
            np.ones(8),
            np.stack([np.random.default_rng(i + 50).standard_normal(3) for i in range(8)]),
        )
        for _ in range(5):
            approx.train_step(*batch)
        assert approx.td_target(np.array([1.0]), x[None]) == before


class TestDqnTraining:
    def test_zero_residual_zero_gradients(self):
        approx = QApproximator(3, 3, seed=11)
        rng = np.random.default_rng(12)
        feats = rng.standard_normal((6, 3))
        actions = rng.integers(0, 3, size=6)
        current = approx.forward(feats)[np.arange(6), actions]
        loss, grads_w, grads_b = approx.loss_and_gradients(feats, actions, current)
        assert loss == 0.0
        for g in grads_w + grads_b:
            assert np.max(np.abs(g)) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        step = 1e-5
        approx = QApproximator(4, 3, hidden=(8, 8), seed=rng)
        feats = rng.standard_normal((5, 4))
        actions = rng.integers(0, 3, size=5)
        targets = rng.standard_normal(5)
        _, grads_w, grads_b = approx.loss_and_gradients(feats, actions, targets)
        params = list(zip(approx.weights, grads_w)) + list(zip(approx.biases, grads_b))
        for param, grad in params:
            flat = grad.ravel()
            idx_pool = rng.choice(param.size, size=min(25, param.size), replace=False)
            for idx in idx_pool:
                orig = param.flat[idx]
                param.flat[idx] = orig + step
                up, _, _ = approx.loss_and_gradients(feats, actions, targets)
                param.flat[idx] = orig - step
                down, _, _ = approx.loss_and_gradients(feats, actions, targets)
                param.flat[idx] = orig
                fd = (up - down) / (2 * step)
                rel = abs(flat[idx] - fd) / max(abs(flat[idx]), abs(fd), 1e-6)
                assert rel < 1e-4

    def test_supervised_regression_sanity(self):
        # Discount 0 turns the TD target into the stored reward, so the
        # network regresses toward a fixed random target function.
        rng = np.random.default_rng(14)
        approx = QApproximator(
            4, 3, hidden=(16, 16), learning_rate=0.1, discount=0.0, seed=15
        )
        feats = rng.standard_normal((32, 4))
        actions = rng.integers(0, 3, size=32)
        rewards = rng.standard_normal(32)
        first_loss, _ = approx.train_step(feats, actions, rewards, feats)
        for _ in range(199):
            last, _ = approx.train_step(feats, actions, rewards, feats)
        assert last <= first_loss / 10.0

    def test_gradient_clipping_flagged(self):
        approx = QApproximator(2, 2, clip_norm=1e-9, seed=16)
        _, clipped = approx.train_step(
            np.ones((1, 2)), np.array([0]), np.array([100.0]), np.ones((1, 2))
        )
        assert clipped


class TestReplayMemory:
    def test_ring_overwrite(self):
        mem = ReplayMemory(capacity=3, feature_dim=1)
        for i in range(5):
            mem.push(np.array([float(i)]), 0, 0.0, np.array([0.0]))
        assert len(mem) == 3
        stored = sorted(mem.states[:, 0])
        assert stored == [2.0, 3.0, 4.0]

    def test_seeded_sampling(self):
        mem = ReplayMemory(10, feature_dim=1)
        for i in range(10):
            mem.push(np.array([float(i)]), 0, 0.0, np.array([0.0]))
        a = mem.sample(np.random.default_rng(1), 4)
        b = mem.sample(np.random.default_rng(1), 4)
        assert list(a[0][:, 0]) == list(b[0][:, 0])


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


def per_transition_train_step(approx, batch):
    """``QApproximator.train_step`` with one target-network forward per transition."""
    features = np.stack([s for s, _, _, _ in batch])
    actions = [a for _, a, _, _ in batch]
    targets = [
        float(r + approx.discount * np.max(approx.target_values(s2)))
        for _, _, r, s2 in batch
    ]
    loss, grads_w, grads_b = approx.loss_and_gradients(features, actions, targets)
    norm = np.sqrt(
        sum(float(np.sum(g**2)) for g in grads_w)
        + sum(float(np.sum(g**2)) for g in grads_b)
    )
    clipped = norm > approx.clip_norm
    if clipped:
        scale = approx.clip_norm / norm
        grads_w = [g * scale for g in grads_w]
        grads_b = [g * scale for g in grads_b]
    for w, gw in zip(approx.weights, grads_w):
        w -= approx.learning_rate * gw
    for b, gb in zip(approx.biases, grads_b):
        b -= approx.learning_rate * gb
    approx._train_steps += 1
    if approx._train_steps % approx.sync_period == 0:
        approx.sync_target()
    return loss, clipped


class TestArrayReplayEqualsPerTransitionLoop:
    @pytest.mark.parametrize(
        "batch_size, capacity, pushes, clip_norm",
        [(1, 500, 120, 1e6), (32, 500, 120, 1e6), (1, 10, 120, 1e6),
         (32, 50, 200, 1e6), (32, 50, 200, 0.5)],
        ids=["batch1", "batch32", "batch1-wraps", "batch32-wraps", "batch32-clipped"],
    )
    def test_bit_identical(self, batch_size, capacity, pushes, clip_norm):
        dim, n_actions = 75, 51  # the feature and action counts at paper scale
        arrays = QApproximator(dim, n_actions, sync_period=7, clip_norm=clip_norm, seed=31)
        loop = copy.deepcopy(arrays)
        memory, reference = ReplayMemory(capacity, dim), ListReplay(capacity)
        rng_a, rng_b = np.random.default_rng(32), np.random.default_rng(32)
        data = np.random.default_rng(33)
        clips = 0
        for step in range(pushes):
            state, next_state = data.uniform(size=dim), data.uniform(size=dim)
            action = int(data.integers(n_actions))
            reward = float(data.normal(3.0, 4.0)) - (5.0 if step % 3 else 0.0)
            memory.push(state, action, reward, next_state)
            reference.push((state, action, reward, next_state))
            if step + 1 < batch_size:
                continue
            got = arrays.train_step(*memory.sample(rng_a, batch_size))
            want = per_transition_train_step(loop, reference.sample(rng_b, batch_size))
            assert got == want
            clips += got[1]
            for mine, theirs in zip(
                arrays.weights + arrays.biases + arrays.target_weights + arrays.target_biases,
                loop.weights + loop.biases + loop.target_weights + loop.target_biases,
            ):
                assert np.array_equal(mine, theirs)
        assert len(memory) == min(capacity, pushes)
        assert (clips > 0) == (clip_norm < 1.0)


class TestEnvironment:
    def test_action_count_formula(self):
        scenario = tiny_scenario(n_clusters=2, users_per_cluster=2, k_elements=4)
        env = NomaPhaseEnv(scenario, resolution_bits=2, alpha_step=0.1)
        k, sizes = 4, (2, 2)
        expected = 2 * k + 2 * sum(s * (s - 1) // 2 for s in sizes) + 1
        assert env.n_actions == expected

    def test_noop_keeps_configuration(self):
        env = NomaPhaseEnv(tiny_scenario(), resolution_bits=2, alpha_step=0.5)
        state, result = env.initial_state()
        next_state, reward, next_result = env.step(state, 0)
        assert np.array_equal(next_state.phases, state.phases)
        assert np.array_equal(next_state.units, state.units)
        assert reward == pytest.approx(env.reward(result))

    def test_phase_increment_wraps(self):
        env = NomaPhaseEnv(tiny_scenario(), resolution_bits=2, alpha_step=0.5)
        state, _ = env.initial_state()
        for _ in range(3):
            state, _, _ = env.step(state, 1)  # increment element 0
        assert state.phases[0] == 3
        state, _, _ = env.step(state, 1)
        assert state.phases[0] == 0

    def test_alpha_shift_clamped_at_zero(self):
        env = NomaPhaseEnv(tiny_scenario(), resolution_bits=1, alpha_step=0.5)
        state, _ = env.initial_state()
        shift_id = 1 + 2 * env.k_elements  # first alpha-shift action (0 -> 1)
        assert (env.give[shift_id], env.take[shift_id]) == (0, 1)
        assert not env.phase_delta[shift_id].any()
        for _ in range(4):
            state, _, _ = env.step(state, shift_id)
        assert state.units[0] == 0
        assert state.units[1] == env.units_total

    def test_action_space_closure(self):
        env = NomaPhaseEnv(
            tiny_scenario(n_clusters=2, users_per_cluster=2, k_elements=3),
            resolution_bits=2,
            alpha_step=0.25,
        )
        rng = np.random.default_rng(17)
        state, _ = env.random_state(rng)
        for _ in range(100):
            action = int(rng.integers(env.n_actions))
            state, _, _ = env.step(state, action)
            assert all(0 <= n < env.levels for n in state.phases)
            for units in cluster_tuples(env, state.units):
                assert sum(units) == env.units_total

    def test_single_element_sweep_reaches_brute_force_max(self):
        scenario = tiny_scenario(n_clusters=1, users_per_cluster=1, k_elements=1)
        env = NomaPhaseEnv(scenario, resolution_bits=3, alpha_step=0.5)
        state, result = env.initial_state()
        best = env.reward(result)
        for _ in range(env.levels - 1):
            state, reward, _ = env.step(state, 1)
            best = max(best, reward)
        oracle = brute_force_optimum(
            scenario, SearchSpace(1, 3, (1,), alpha_step=0.5)
        )
        assert best == pytest.approx(oracle.best_rate)

    def test_feature_vector_layout(self):
        env = NomaPhaseEnv(tiny_scenario(), resolution_bits=2, alpha_step=0.5)
        state, _ = env.initial_state()
        k = env.k_elements
        assert state.feature_vector.shape == (env.feature_dim,)
        assert np.all(state.feature_vector[:k] == 0.0)  # zero phases
        assert np.max(state.feature_vector[k + 2 :]) == pytest.approx(1.0)

    def test_bad_alpha_step_rejected(self):
        with pytest.raises(ValueError):
            NomaPhaseEnv(tiny_scenario(), resolution_bits=1, alpha_step=0.3)


def cluster_tuples(env, units):
    """A unit array as one tuple of counts per cluster."""
    return tuple(
        tuple(part) for part in np.split(units.tolist(), np.cumsum(env.scenario.cluster_sizes)[:-1])
    )


def assert_matches_reference(env, state, result, phases, alpha_units):
    """``state``/``result`` equal the reference scoring of a tuple state, bit for bit.

    Returns the reference result.
    """
    features, splits, ref = reference_state(
        env.scenario, phases, alpha_units, env.resolution_bits
    )
    assert state.phases.tolist() == list(phases)
    assert cluster_tuples(env, state.units) == alpha_units
    assert state.feature_vector.tobytes() == features.tobytes()
    assert env.scenario.split_tuples(state.units / env.units_total) == splits
    assert (result.sum_rate, result.feasible) == (ref.sum_rate, ref.feasible)
    if ref.own_gains is None:
        assert result.own_gains is None
    else:
        assert result.own_gains.tobytes() == ref.own_gains.tobytes()
    return ref


class TestActionTableEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n_clusters=st.integers(1, 3),
        users_per_cluster=st.integers(1, 3),
        k_elements=st.integers(1, 4),
        bits=st.integers(1, 3),
        alpha_step=st.sampled_from([0.5, 0.25, 0.2, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_action_from_random_states(
        self, n_clusters, users_per_cluster, k_elements, bits, alpha_step, seed
    ):
        scenario = tiny_scenario(
            seed=seed % 1000, n_clusters=n_clusters,
            users_per_cluster=users_per_cluster, k_elements=k_elements,
        )
        env = NomaPhaseEnv(scenario, resolution_bits=bits, alpha_step=alpha_step)
        actions = reference_actions(k_elements, env.scenario.cluster_sizes)
        assert env.n_actions == len(actions)
        rng = np.random.default_rng(seed)
        for start in [env.initial_state(), env.random_state(rng), env.random_state(rng)]:
            state, result = start
            phases = tuple(state.phases.tolist())
            alpha_units = cluster_tuples(env, state.units)
            assert_matches_reference(env, state, result, phases, alpha_units)
            for action_id, action in enumerate(actions):
                nxt, reward, result = env.step(state, action_id)
                ref_phases, ref_units = reference_step(
                    phases, alpha_units, action, env.levels
                )
                ref = assert_matches_reference(env, nxt, result, ref_phases, ref_units)
                assert reward == env.reward(ref)


class TestAgents:
    def test_curve_length_and_monotone_best(self):
        env = NomaPhaseEnv(tiny_scenario(), resolution_bits=2, alpha_step=0.5)
        approx = QApproximator(env.feature_dim, env.n_actions, seed=18)
        result = train_agent(env, approx, episodes=12, steps_per_episode=5, seed=19, warmup=8)
        assert len(result.curve) == 12
        bests = [p.best_reward for p in result.curve]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert result.found_feasible

    def test_pure_exploration_acts_as_random_search(self):
        env = NomaPhaseEnv(tiny_scenario(), resolution_bits=2, alpha_step=0.5)
        approx = QApproximator(
            env.feature_dim, env.n_actions,
            epsilon_start=1.0, epsilon_decay=1.0, epsilon_min=1.0, seed=20,
        )
        result = train_agent(env, approx, episodes=10, steps_per_episode=5, seed=21)
        bests = [p.best_reward for p in result.curve]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_small_instance_near_oracle(self):
        scenario = tiny_scenario(n_clusters=1, users_per_cluster=2, k_elements=2)
        env = NomaPhaseEnv(scenario, resolution_bits=2, alpha_step=0.1)
        approx = QApproximator(env.feature_dim, env.n_actions, seed=22)
        result = train_agent(env, approx, episodes=150, steps_per_episode=10, seed=23)
        oracle = brute_force_optimum(
            scenario, SearchSpace(2, 2, (2,), alpha_step=0.1)
        )
        assert result.best_rate >= 0.9 * oracle.best_rate
        assert result.best_rate <= oracle.best_rate + 1e-12

    def test_random_search_keeps_the_best_random_state(self):
        env = NomaPhaseEnv(tiny_scenario(), resolution_bits=2, alpha_step=0.5)
        result = random_search(env, 15, seed=25)
        rng = np.random.default_rng(25)
        draws = [env.random_state(rng) for _ in range(15)]
        feasible = [(r.sum_rate, s, r) for s, r in draws if r.feasible]
        rate, state, scored = max(feasible, key=lambda item: item[0])
        assert result.best_rate == rate
        assert list(result.best_phase.indices) == state.phases.tolist()
        assert result.best_splits == tuple(
            alpha_from_units(units) for units in cluster_tuples(env, state.units)
        )
        assert np.array_equal(result.best_gains, scored.own_gains)
        assert len(result.curve) == 15

    def test_tabular_agent_runs(self):
        env = NomaPhaseEnv(tiny_scenario(), resolution_bits=1, alpha_step=0.5)
        result = train_tabular_agent(env, episodes=20, steps_per_episode=5, seed=24)
        assert result.found_feasible
        assert len(result.curve) == 20
