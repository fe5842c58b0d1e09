"""Q-learning over discrete phase and power adjustments.

The agent walks the discrete configuration space through local edits: one
action bumps a single element's phase index up or down (wrapping modulo the
level count), shifts one power-grid unit between two users of a cluster, or
does nothing.  A state is two small int arrays, the phase indices and the
power units, and an action is one row of a table built with the
environment: a phase offset per element plus the unit slot that gives and
the one that takes a unit.  The reward is the constrained sum rate,
penalized by a fixed amount whenever the SIC or QoS check fails.

One epsilon-greedy rollout loop serves two learners, a plain Q-table

    Q[s, a] += psi * (r + beta * max_a' Q[s', a'] - Q[s, a])

and a two-hidden-layer ReLU network trained on mean squared TD error
against a periodically synchronized target copy,

    y = r + beta * max_a' Q_target(s', a'),    loss = mean (y - Q(s, a))^2

with uniform replay sampling, and the random-phase baseline, which is the
same loop with no steps after each episode's random start.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .channel import PhaseConfig, as_rng
from .noma import ConfigurationResult, NetworkScenario, evaluate_batch
from .oracle import _units_from_step

# Epsilon schedule of both learners; fixed tabular and replay settings.
EPSILON_START = 1.0
EPSILON_DECAY = 0.995
EPSILON_MIN = 0.05
TABULAR_LEARNING_RATE = 0.2
TABULAR_DISCOUNT = 0.9
REPLAY_CAPACITY = 10_000
BATCH_SIZE = 32
# Replay transitions before the DQN's first train step (and at least BATCH_SIZE).
WARMUP = 200
# Reward deducted from the sum rate of a point that fails the SIC or QoS check.
INFEASIBLE_PENALTY = 5.0


# ---------------------------------------------------------------------------
# Tabular learner
# ---------------------------------------------------------------------------

def tabular_q_update(
    q_table: defaultdict,
    state_key,
    action: int,
    reward: float,
    next_state_key,
    psi: float,
    beta: float,
) -> defaultdict:
    """One temporal-difference backup (same-table bootstrap).

    ``q_table`` maps a state key to its action values and creates unseen
    entries as zeros, e.g. ``defaultdict(lambda: np.zeros(n_actions))``.
    """
    values = q_table[state_key]
    bootstrap = float(np.max(q_table[next_state_key]))
    values[action] += psi * (reward + beta * bootstrap - values[action])
    return q_table


# ---------------------------------------------------------------------------
# Function approximator
# ---------------------------------------------------------------------------

class ReplayMemory:
    """Fixed-capacity ring buffer of transitions, one array per field."""

    def __init__(self, capacity: int, feature_dim: int):
        self.capacity = int(capacity)
        self.states = np.empty((self.capacity, feature_dim))
        self.actions = np.empty(self.capacity, dtype=np.int64)
        self.rewards = np.empty(self.capacity)
        self.next_states = np.empty((self.capacity, feature_dim))
        self._size = 0
        self._cursor = 0

    def push(self, state, action: int, reward: float, next_state):
        i = self._cursor
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        """(states, actions, rewards, next_states) of a uniform minibatch."""
        idx = rng.integers(0, self._size, size=batch_size)
        return self.states[idx], self.actions[idx], self.rewards[idx], self.next_states[idx]

    def __len__(self) -> int:
        return self._size


class QApproximator:
    """Two-hidden-layer ReLU network with a hard-synced target copy."""

    def __init__(
        self,
        input_dim: int,
        n_actions: int,
        hidden=(64, 64),
        learning_rate: float = 1e-3,
        discount: float = 0.9,
        epsilon_start: float = EPSILON_START,
        epsilon_decay: float = EPSILON_DECAY,
        epsilon_min: float = EPSILON_MIN,
        sync_period: int = 100,
        clip_norm: float = 1e6,
        seed=None,
    ):
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self.discount = float(discount)
        self.epsilon_start = float(epsilon_start)
        self.epsilon_decay = float(epsilon_decay)
        self.epsilon_min = float(epsilon_min)
        self.sync_period = int(sync_period)
        self.clip_norm = float(clip_norm)

        rng = as_rng(seed)
        sizes = [int(input_dim), *(int(h) for h in hidden), int(n_actions)]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            lim = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self.sync_target()
        self._train_steps = 0

    # -- forward passes -------------------------------------------------

    def _forward(self, x: np.ndarray, weights, biases):
        a = np.atleast_2d(np.asarray(x, dtype=float))
        pre_acts = []
        acts = [a]
        for layer, (w, b) in enumerate(zip(weights, biases)):
            z = a @ w.T + b
            pre_acts.append(z)
            a = np.maximum(z, 0.0) if layer < len(weights) - 1 else z
            acts.append(a)
        return a, pre_acts, acts

    def forward(self, features) -> np.ndarray:
        """Action values under the online weights."""
        x = np.asarray(features, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("features contain non-finite values")
        out, _, _ = self._forward(x, self.weights, self.biases)
        return out[0] if x.ndim == 1 else out

    def target_values(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        out, _, _ = self._forward(x, self.target_weights, self.target_biases)
        return out[0] if x.ndim == 1 else out

    def sync_target(self):
        self.target_weights = [w.copy() for w in self.weights]
        self.target_biases = [b.copy() for b in self.biases]

    # -- training ---------------------------------------------------------

    def td_target(self, rewards, next_features) -> np.ndarray:
        """Minibatch targets ``r + beta * max_a' Q_target(s', a')`` in one forward.

        Rows go through as stacked one-row products, which round like scoring
        each transition alone (a plain ``X @ W.T`` does not).
        """
        rows = np.asarray(next_features, dtype=float)[:, None, :]
        return rewards + self.discount * np.max(self.target_values(rows), axis=(1, 2))

    def loss_and_gradients(self, features, actions, targets):
        """Mean squared TD loss and gradients w.r.t. the online weights."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        actions = np.asarray(actions, dtype=int)
        targets = np.asarray(targets, dtype=float)
        batch = x.shape[0]

        out, pre_acts, acts = self._forward(x, self.weights, self.biases)
        picked = out[np.arange(batch), actions]
        err = picked - targets
        loss = float(np.mean(err**2))

        d_out = np.zeros_like(out)
        d_out[np.arange(batch), actions] = 2.0 * err / batch
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = d_out
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = delta.T @ acts[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer]) * (pre_acts[layer - 1] > 0)
        return loss, grads_w, grads_b

    def train_step(self, features, actions, rewards, next_features) -> tuple[float, bool]:
        """One descent step on a replay minibatch; hard-syncs on schedule."""
        if not len(actions):
            raise ValueError("minibatch must be non-empty")
        targets = self.td_target(rewards, next_features)
        loss, grads_w, grads_b = self.loss_and_gradients(features, actions, targets)
        norm = np.sqrt(
            sum(float(np.sum(g**2)) for g in grads_w)
            + sum(float(np.sum(g**2)) for g in grads_b)
        )
        clipped = norm > self.clip_norm
        if clipped:
            scale = self.clip_norm / norm
            grads_w = [g * scale for g in grads_w]
            grads_b = [g * scale for g in grads_b]
        for w, gw in zip(self.weights, grads_w):
            w -= self.learning_rate * gw
        for b, gb in zip(self.biases, grads_b):
            b -= self.learning_rate * gb
        if not all(
            np.all(np.isfinite(p)) for p in (*self.weights, *self.biases)
        ):
            raise FloatingPointError("network weights became non-finite")
        self._train_steps += 1
        if self._train_steps % self.sync_period == 0:
            self.sync_target()
        return loss, clipped

    def epsilon(self, episode: int) -> float:
        return max(self.epsilon_min, self.epsilon_start * self.epsilon_decay**episode)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnvState:
    """Phase indices (K,), power units (N,) cluster after cluster, and features."""

    phases: np.ndarray
    units: np.ndarray
    feature_vector: np.ndarray

    def key(self) -> bytes:
        """The tabular learner's key: equal states give equal bytes."""
        return self.phases.tobytes() + self.units.tobytes()


class NomaPhaseEnv:
    """Local-move environment over phase indices and quantized power splits.

    Action ``a`` adds ``phase_delta[a]`` (K,) to the phases modulo the level
    count, then moves one power unit from slot ``give[a]`` to slot
    ``take[a]`` unless ``give[a]`` is -1 or holds no unit.  The rows are one
    no-op, one increment and one decrement per surface element, and one
    unit transfer per ordered user pair inside each cluster, so there are
    2K + 2 * sum_m C(p_m, 2) + 1.  Slot i of cluster m funds the i-th
    decoded user of m, with coefficient ``units / units_total``: the unit
    array is the scenario's coefficient row scaled by ``units_total``.
    Rewards are the sum rate of the resulting configuration minus
    ``INFEASIBLE_PENALTY`` whenever the SIC or QoS check fails.
    """

    def __init__(
        self, scenario: NetworkScenario, resolution_bits: int, alpha_step: float = 0.05
    ):
        self.scenario = scenario
        self.resolution_bits = int(resolution_bits)
        self.levels = 1 << self.resolution_bits
        self.units_total = _units_from_step(alpha_step)
        self.k_elements = k = scenario.channels.k_elements

        sizes = scenario.cluster_sizes
        starts = np.cumsum((0,) + sizes)
        moves = [
            (start + i, start + j)
            for start, size in zip(starts, sizes)
            for i in range(size)
            for j in range(size)
            if i != j
        ]
        eye = np.eye(k, dtype=np.int64)
        zeros = np.zeros((1 + len(moves), k), dtype=np.int64)
        self.phase_delta = np.vstack([zeros[:1], eye, -eye, zeros[1:]])
        no_move = [(-1, -1)] * (1 + 2 * k)
        self.give, self.take = np.array(no_move + moves, dtype=np.int64).T

    @property
    def n_actions(self) -> int:
        return len(self.give)

    @property
    def feature_dim(self) -> int:
        return self.k_elements + 2 * self.scenario.channels.n_users

    # -- state construction ---------------------------------------------

    def _make_state(self, phases: np.ndarray, units: np.ndarray):
        alphas = units / self.units_total
        grid = evaluate_batch(
            self.scenario, phases[None], alphas[None], self.resolution_bits
        )
        result = ConfigurationResult.of_first_point(grid)
        if result.own_gains is not None:
            peak = float(np.max(result.own_gains))
            gains = result.own_gains / peak if peak > 0 else result.own_gains * 0.0
        else:
            gains = np.zeros(self.scenario.channels.n_users)
        features = np.concatenate([phases / self.levels, alphas, gains])
        return EnvState(phases, units, features), result

    def reward(self, result: ConfigurationResult) -> float:
        if result.feasible:
            return result.sum_rate
        return result.sum_rate - INFEASIBLE_PENALTY

    def initial_state(self):
        """Zero phases with the most even on-grid power split per cluster."""
        units = []
        for size in self.scenario.cluster_sizes:
            base, extra = divmod(self.units_total, size)
            units += [base + (1 if i < extra else 0) for i in range(size)]
        return self._make_state(
            np.zeros(self.k_elements, dtype=np.int64), np.array(units, dtype=np.int64)
        )

    def random_state(self, rng: np.random.Generator):
        phases = rng.integers(0, self.levels, size=self.k_elements)
        units = np.concatenate([
            rng.multinomial(self.units_total, np.full(size, 1.0 / size))
            for size in self.scenario.cluster_sizes
        ])
        return self._make_state(phases, units)

    # -- dynamics -----------------------------------------------------------

    def step(self, state: EnvState, action_id: int):
        """Apply one action row; returns (next_state, reward, evaluation)."""
        phases = (state.phases + self.phase_delta[action_id]) % self.levels
        units = state.units.copy()
        give, take = self.give[action_id], self.take[action_id]
        if give >= 0 and units[give] > 0:
            units[give] -= 1
            units[take] += 1
        next_state, result = self._make_state(phases, units)
        return next_state, self.reward(result), result


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CurvePoint:
    episode: int
    best_reward: float
    epsilon: float
    loss: float


@dataclass(frozen=True, eq=False)
class TrainResult:
    """Best feasible configuration seen (with its own gains) plus the learner."""

    learner: object
    best_phase: PhaseConfig | None
    best_splits: tuple | None
    best_rate: float
    best_gains: np.ndarray | None
    curve: list

    @property
    def found_feasible(self) -> bool:
        return self.best_phase is not None


def _rollout(
    env: NomaPhaseEnv, learner, episodes, steps_per_episode, rng, epsilon, greedy, learn
) -> TrainResult:
    """Epsilon-greedy rollout from a random state per episode, for any learner.

    ``learn(state, action, reward, next_state)`` returns a loss or None.  A
    step draws ``uniform``, then ``integers`` when exploring, then what
    ``learn`` draws.  The curve's best reward is a running maximum; the
    winner's ``PhaseConfig`` and split tuples are built once, at the end.
    """
    best_rate, best = -np.inf, None  # best: (state, own gains)
    curve = []
    for episode in range(episodes):
        state, result = env.random_state(rng)
        if result.feasible and result.sum_rate > best_rate:
            best_rate, best = result.sum_rate, (state, result.own_gains)
        eps = epsilon(episode)
        losses = []
        for _ in range(steps_per_episode):
            if rng.uniform() < eps:
                action = int(rng.integers(env.n_actions))
            else:
                action = int(greedy(state))
            next_state, reward, result = env.step(state, action)
            if result.feasible and result.sum_rate > best_rate:
                best_rate, best = result.sum_rate, (next_state, result.own_gains)
            loss = learn(state, action, reward, next_state)
            if loss is not None:
                losses.append(loss)
            state = next_state
        loss = float(np.mean(losses)) if losses else float("nan")
        curve.append(CurvePoint(episode, best_rate, eps, loss))
    if best is None:
        return TrainResult(learner, None, None, 0.0, None, curve)
    state, gains = best
    phase = PhaseConfig(state.phases, env.resolution_bits)
    splits = env.scenario.split_tuples(state.units / env.units_total)
    return TrainResult(learner, phase, splits, float(best_rate), gains, curve)


def train_agent(
    env: NomaPhaseEnv,
    approx: QApproximator,
    episodes: int,
    steps_per_episode: int,
    seed=None,
    warmup: int = WARMUP,
) -> TrainResult:
    """Epsilon-greedy DQN training on replay minibatches of ``BATCH_SIZE``.

    Training starts once the replay holds ``max(BATCH_SIZE, warmup)``
    transitions; the harness keeps the default ``WARMUP``, so a run of
    ``episodes * steps_per_episode`` below that takes no train step and its
    curve's loss column is NaN (``cli.main`` warns before such a run).
    Returns the best constraint-feasible configuration ever visited.
    """
    rng = as_rng(seed)
    memory = ReplayMemory(REPLAY_CAPACITY, env.feature_dim)

    def learn(state, action, reward, next_state):
        memory.push(state.feature_vector, action, reward, next_state.feature_vector)
        if len(memory) >= max(BATCH_SIZE, warmup):
            return approx.train_step(*memory.sample(rng, BATCH_SIZE))[0]
        return None

    return _rollout(
        env, approx, episodes, steps_per_episode, rng,
        epsilon=approx.epsilon,
        greedy=lambda state: np.argmax(approx.forward(state.feature_vector)),
        learn=learn,
    )


def train_tabular_agent(
    env: NomaPhaseEnv, episodes: int, steps_per_episode: int, seed=None
) -> TrainResult:
    """Tabular Q-learning on the same environment, keyed by ``EnvState.key``.

    Epsilon decays by repeated multiplication, which rounds differently from
    the DQN's ``EPSILON_START * EPSILON_DECAY**episode``.
    """
    table = defaultdict(lambda: np.zeros(env.n_actions))
    schedule = [EPSILON_START]
    while len(schedule) < episodes:
        schedule.append(max(EPSILON_MIN, schedule[-1] * EPSILON_DECAY))

    def learn(state, action, reward, next_state):
        tabular_q_update(
            table, state.key(), action, reward, next_state.key(),
            TABULAR_LEARNING_RATE, TABULAR_DISCOUNT,
        )

    return _rollout(
        env, table, episodes, steps_per_episode, as_rng(seed),
        epsilon=schedule.__getitem__,
        greedy=lambda state: np.argmax(table[state.key()]),
        learn=learn,
    )


def random_search(env: NomaPhaseEnv, samples: int, seed=None) -> TrainResult:
    """The random-phase baseline: ``samples`` random states and no steps."""
    return _rollout(
        env, None, samples, 0, as_rng(seed),
        epsilon=lambda episode: 1.0, greedy=None, learn=None,
    )
