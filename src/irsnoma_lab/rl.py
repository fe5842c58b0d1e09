"""Q-learning over discrete phase and power adjustments.

The agent walks the discrete configuration space through local edits: one
action bumps a single element's phase index up or down (wrapping modulo the
level count), shifts one power-grid unit between two users of a cluster, or
does nothing.  The reward is the constrained sum rate, penalized by a fixed
amount whenever the SIC or QoS check fails.

One epsilon-greedy rollout loop serves two learners, a plain Q-table

    Q[s, a] += psi * (r + beta * max_a' Q[s', a'] - Q[s, a])

and a two-hidden-layer ReLU network trained on mean squared TD error
against a periodically synchronized target copy,

    y = r + beta * max_a' Q_target(s', a'),    loss = mean (y - Q(s, a))^2

with uniform replay sampling, and the random-phase baseline, which is the
same loop with no steps after each episode's random start.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .channel import PhaseConfig, as_rng
from .noma import (
    ConfigurationResult,
    NetworkScenario,
    alpha_from_units,
    evaluate_configuration,
)
from .oracle import _units_from_step

WEIGHTS_FORMAT = "irsnoma-qnet-v1"

# Epsilon schedule of both learners; fixed tabular and replay settings.
EPSILON_START = 1.0
EPSILON_DECAY = 0.995
EPSILON_MIN = 0.05
TABULAR_LEARNING_RATE = 0.2
TABULAR_DISCOUNT = 0.9
REPLAY_CAPACITY = 10_000
BATCH_SIZE = 32


# ---------------------------------------------------------------------------
# Tabular learner
# ---------------------------------------------------------------------------

class QTable:
    """State-keyed action-value table; unseen entries default to zero."""

    def __init__(self, n_actions: int):
        self.n_actions = int(n_actions)
        self._table: dict = defaultdict(lambda: np.zeros(self.n_actions))

    def values(self, state_key) -> np.ndarray:
        return self._table[state_key]

    def __len__(self) -> int:
        return len(self._table)


def tabular_q_update(
    q_table: QTable,
    state_key,
    action: int,
    reward: float,
    next_state_key,
    psi: float,
    beta: float,
) -> QTable:
    """One temporal-difference backup on the table (same-table bootstrap)."""
    values = q_table.values(state_key)
    bootstrap = float(np.max(q_table.values(next_state_key)))
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


# The constructor arguments a weights file records besides the weights.
_SETTINGS = (
    "input_dim", "n_actions", "hidden", "learning_rate", "discount",
    "epsilon_start", "epsilon_decay", "epsilon_min", "sync_period", "clip_norm",
)


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
        self.input_dim = int(input_dim)
        self.n_actions = int(n_actions)
        self.hidden = tuple(int(h) for h in hidden)
        self.learning_rate = float(learning_rate)
        self.discount = float(discount)
        self.epsilon_start = float(epsilon_start)
        self.epsilon_decay = float(epsilon_decay)
        self.epsilon_min = float(epsilon_min)
        self.sync_period = int(sync_period)
        self.clip_norm = float(clip_norm)

        rng = as_rng(seed)
        sizes = [self.input_dim, *self.hidden, self.n_actions]
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

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        doc = {name: getattr(self, name) for name in _SETTINGS}
        doc["format"] = WEIGHTS_FORMAT
        doc["weights"] = [w.tolist() for w in self.weights]
        doc["biases"] = [b.tolist() for b in self.biases]
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QApproximator":
        doc = json.loads(text)
        if doc.get("format") != WEIGHTS_FORMAT:
            raise ValueError(f"unsupported weights format {doc.get('format')!r}")
        approx = cls(**{name: doc[name] for name in _SETTINGS}, seed=0)
        approx.weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
        approx.biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
        approx.sync_target()
        return approx


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

ACTION_NOOP = "no-op"
ACTION_PHASE_UP = "phase-increment"
ACTION_PHASE_DOWN = "phase-decrement"
ACTION_ALPHA_SHIFT = "alpha-shift"


@dataclass(frozen=True)
class EnvAction:
    kind: str
    target: tuple


@dataclass(frozen=True, eq=False)
class EnvState:
    """Snapshot of the adjustable configuration plus its feature encoding."""

    phase_indices: tuple[int, ...]
    alpha_units: tuple[tuple[int, ...], ...]
    feature_vector: np.ndarray

    def key(self):
        return (self.phase_indices, self.alpha_units)

    @property
    def power_splits(self) -> tuple[tuple[float, ...], ...]:
        return tuple(alpha_from_units(units) for units in self.alpha_units)


class NomaPhaseEnv:
    """Local-move environment over phase indices and quantized power splits.

    The action set is one no-op, one increment and one decrement per surface
    element, and one unit transfer per ordered user pair inside each
    cluster, so its size is 2K + 2 * sum_m C(p_m, 2) + 1.  Rewards are the
    sum rate of the resulting configuration minus ``infeasible_penalty``
    whenever the SIC or QoS check fails.
    """

    def __init__(
        self,
        scenario: NetworkScenario,
        resolution_bits: int,
        alpha_step: float = 0.05,
        infeasible_penalty: float = 5.0,
    ):
        self.scenario = scenario
        self.resolution_bits = int(resolution_bits)
        self.levels = 1 << self.resolution_bits
        self.units_total = _units_from_step(alpha_step)
        self.alpha_step = float(alpha_step)
        self.infeasible_penalty = float(infeasible_penalty)
        self.cluster_sizes = scenario.cluster_sizes()
        self.k_elements = scenario.channels.k_elements

        actions = [EnvAction(ACTION_NOOP, ())]
        for k in range(self.k_elements):
            actions.append(EnvAction(ACTION_PHASE_UP, (k,)))
        for k in range(self.k_elements):
            actions.append(EnvAction(ACTION_PHASE_DOWN, (k,)))
        for m, size in enumerate(self.cluster_sizes):
            for i in range(size):
                for j in range(size):
                    if i != j:
                        actions.append(EnvAction(ACTION_ALPHA_SHIFT, (m, i, j)))
        self.actions = tuple(actions)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def feature_dim(self) -> int:
        return self.k_elements + sum(self.cluster_sizes) + self.scenario.channels.n_users

    def describe_action(self, action_id: int) -> EnvAction:
        return self.actions[action_id]

    # -- state construction ---------------------------------------------

    def _features(self, phase_indices, alpha_units, result: ConfigurationResult):
        phases = np.asarray(phase_indices, dtype=float) / self.levels
        alphas = np.concatenate([alpha_from_units(u) for u in alpha_units])
        if result.own_gains is not None:
            peak = float(np.max(result.own_gains))
            gains = result.own_gains / peak if peak > 0 else result.own_gains * 0.0
        else:
            gains = np.zeros(self.scenario.channels.n_users)
        return np.concatenate([phases, alphas, gains])

    def _make_state(self, phase_indices, alpha_units):
        phase = PhaseConfig(phase_indices, self.resolution_bits)
        splits = tuple(alpha_from_units(u) for u in alpha_units)
        result = evaluate_configuration(self.scenario, phase, splits)
        state = EnvState(
            phase_indices=tuple(int(n) for n in phase_indices),
            alpha_units=tuple(tuple(int(u) for u in units) for units in alpha_units),
            feature_vector=self._features(phase_indices, alpha_units, result),
        )
        return state, result

    def reward(self, result: ConfigurationResult) -> float:
        if result.feasible:
            return result.sum_rate
        return result.sum_rate - self.infeasible_penalty

    def initial_state(self):
        """Zero phases with the most even on-grid power split per cluster."""
        units = []
        for size in self.cluster_sizes:
            base, extra = divmod(self.units_total, size)
            units.append(
                tuple(base + (1 if i < extra else 0) for i in range(size))
            )
        return self._make_state((0,) * self.k_elements, tuple(units))

    def random_state(self, rng: np.random.Generator):
        phases = tuple(int(v) for v in rng.integers(0, self.levels, size=self.k_elements))
        units = tuple(
            tuple(int(u) for u in rng.multinomial(self.units_total, np.full(size, 1.0 / size)))
            for size in self.cluster_sizes
        )
        return self._make_state(phases, units)

    # -- dynamics -----------------------------------------------------------

    def step(self, state: EnvState, action_id: int):
        """Apply one local edit; returns (next_state, reward, evaluation)."""
        action = self.actions[action_id]
        phases = list(state.phase_indices)
        units = [list(u) for u in state.alpha_units]
        if action.kind == ACTION_PHASE_UP:
            (k,) = action.target
            phases[k] = (phases[k] + 1) % self.levels
        elif action.kind == ACTION_PHASE_DOWN:
            (k,) = action.target
            phases[k] = (phases[k] - 1) % self.levels
        elif action.kind == ACTION_ALPHA_SHIFT:
            m, i, j = action.target
            if units[m][i] > 0:
                units[m][i] -= 1
                units[m][j] += 1
        elif action.kind != ACTION_NOOP:
            raise ValueError(f"unknown action kind {action.kind!r}")
        next_state, result = self._make_state(phases, tuple(tuple(u) for u in units))
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
    visited: int

    @property
    def found_feasible(self) -> bool:
        return self.best_phase is not None


class _BestTracker:
    def __init__(self, env: NomaPhaseEnv):
        self.env = env
        self.rate = -np.inf
        self.phase = None
        self.splits = None
        self.gains = None

    def consider(self, state: EnvState, result: ConfigurationResult):
        if result.feasible and result.sum_rate > self.rate:
            self.rate = result.sum_rate
            self.phase = PhaseConfig(state.phase_indices, self.env.resolution_bits)
            self.splits = state.power_splits
            self.gains = result.own_gains


def _rollout(
    env: NomaPhaseEnv, learner, episodes, steps_per_episode, rng, epsilon, greedy, learn
) -> TrainResult:
    """Epsilon-greedy rollout from a random state per episode, for any learner.

    ``learn(state, action, reward, next_state)`` returns a loss or None.  A
    step draws ``uniform``, then ``integers`` when exploring, then what
    ``learn`` draws.  The curve's best reward is a running maximum.
    """
    tracker = _BestTracker(env)
    curve = []
    visited = 0
    for episode in range(episodes):
        state, result = env.random_state(rng)
        tracker.consider(state, result)
        visited += 1
        eps = epsilon(episode)
        losses = []
        for _ in range(steps_per_episode):
            if rng.uniform() < eps:
                action = int(rng.integers(env.n_actions))
            else:
                action = int(greedy(state))
            next_state, reward, result = env.step(state, action)
            visited += 1
            tracker.consider(next_state, result)
            loss = learn(state, action, reward, next_state)
            if loss is not None:
                losses.append(loss)
            state = next_state
        loss = float(np.mean(losses)) if losses else float("nan")
        curve.append(CurvePoint(episode, tracker.rate, eps, loss))
    return TrainResult(
        learner=learner,
        best_phase=tracker.phase,
        best_splits=tracker.splits,
        best_rate=float(tracker.rate) if tracker.phase else 0.0,
        best_gains=tracker.gains,
        curve=curve,
        visited=visited,
    )


def train_agent(
    env: NomaPhaseEnv,
    approx: QApproximator,
    episodes: int,
    steps_per_episode: int,
    seed=None,
    warmup: int = 200,
) -> TrainResult:
    """Epsilon-greedy DQN training on replay minibatches of ``BATCH_SIZE``.

    Training starts once the replay holds ``warmup`` transitions; the harness
    keeps the default of 200, so a run of ``episodes * steps_per_episode <
    200`` steps takes no train step and its curve's loss column is NaN.
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
    """Tabular Q-learning on the same environment, keyed by exact state.

    Epsilon decays by repeated multiplication, which rounds differently from
    the DQN's ``EPSILON_START * EPSILON_DECAY**episode``.
    """
    table = QTable(env.n_actions)
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
        greedy=lambda state: np.argmax(table.values(state.key())),
        learn=learn,
    )


def random_search(env: NomaPhaseEnv, samples: int, seed=None) -> TrainResult:
    """The random-phase baseline: ``samples`` random states and no steps."""
    return _rollout(
        env, None, samples, 0, as_rng(seed),
        epsilon=lambda episode: 1.0, greedy=None, learn=None,
    )
