"""Q-learning over discrete phase and power adjustments.

The agent walks the discrete configuration space through local edits: one
action bumps a single element's phase index up or down (wrapping modulo the
level count), shifts one power-grid unit between two users of a cluster, or
does nothing.  A state is two small int arrays, the phase indices and the
power units, and an action is one row of a table built with the
environment: a phase offset per element plus a unit transfer between two
slots.  The reward is the constrained sum rate, penalized by a fixed
amount whenever the SIC or QoS check fails.

One epsilon-greedy rollout loop serves two learners, a plain Q-table

    Q[s, a] += psi * (r + beta * max_a' Q[s', a'] - Q[s, a])

and a two-hidden-layer ReLU network trained on mean squared TD error
against a periodically synchronized target copy,

    y = r + beta * max_a' Q_target(s', a'),    loss = mean (y - Q(s, a))^2

with uniform replay sampling.  The random-phase baseline scores random
states only.

Every search runs E runs in lockstep: one environment scores all E states
of a step in one evaluator call, and the learners carry a leading run axis.
The runs differ only in their transmit power and their random stream, and
each run equals the same run made alone (E = 1) bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .channel import PhaseConfig, as_rng
from .noma import GridScores, NetworkScenario, evaluate_points
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
    """Fixed-capacity ring buffer of transitions per run, one array per field.

    A state is stored as one entry of ``state_dtype``: a (D,) float subarray
    for plain features, or :attr:`NomaPhaseEnv.state_dtype`'s compact
    record.  Every field carries a leading run axis of length ``n_runs``;
    each push stores one transition per run, so all runs hold the same
    count.
    """

    def __init__(self, capacity: int, state_dtype, n_runs: int = 1):
        self.capacity = int(capacity)
        self.states = np.empty((n_runs, self.capacity), dtype=state_dtype)
        self.actions = np.empty((n_runs, self.capacity), dtype=np.int64)
        self.rewards = np.empty((n_runs, self.capacity))
        self.next_states = np.empty((n_runs, self.capacity), dtype=state_dtype)
        # Views with one row per (run, slot), run-major: a minibatch is one
        # np.take per field, far cheaper on records than fancy indexing.
        self._rows = [
            field.reshape(n_runs * self.capacity, *field.shape[2:])
            for field in (self.states, self.actions, self.rewards, self.next_states)
        ]
        self._run_starts = np.arange(n_runs)[:, None] * self.capacity
        self._size = 0
        self._cursor = 0

    def push(self, states, actions, rewards, next_states):
        """Store one transition per run: (E,) states, actions, rewards and next states."""
        i = self._cursor
        self.states[:, i] = states
        self.actions[:, i] = actions
        self.rewards[:, i] = rewards
        self.next_states[:, i] = next_states
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rngs, batch_size: int):
        """(states, actions, rewards, next_states) of one uniform minibatch per run.

        Run e's picks come from ``rngs[e]``; the fields are (E, B, ...).
        """
        idx = np.stack([rng.integers(0, self._size, size=batch_size) for rng in rngs])
        rows = self._run_starts + idx
        return tuple(np.take(field, rows, axis=0) for field in self._rows)

    def __len__(self) -> int:
        return self._size


class QApproximator:
    """Two-hidden-layer ReLU network per run, each with a hard-synced target copy.

    Every parameter carries a leading run axis: layer l's weights are
    (E, out, in) and its biases (E, out).  The runs share no parameter, so
    slice e is run e's own network, drawn from ``seeds[e]``, and one
    network is E = 1.  Inputs and outputs carry the same leading run axis,
    and each run's rows go through its own layers exactly as they would
    through a network of its own.
    """

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
        seeds=(None,),
    ):
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        rngs = [as_rng(seed) for seed in seeds]
        if not rngs:
            raise ValueError("at least one run (one seed) is required")
        self.learning_rate = float(learning_rate)
        self.discount = float(discount)
        self.epsilon_start = float(epsilon_start)
        self.epsilon_decay = float(epsilon_decay)
        self.epsilon_min = float(epsilon_min)
        self.sync_period = int(sync_period)
        self.clip_norm = float(clip_norm)

        sizes = [int(input_dim), *(int(h) for h in hidden), int(n_actions)]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            lim = np.sqrt(2.0 / fan_in)
            self.weights.append(
                np.stack([rng.uniform(-lim, lim, size=(fan_out, fan_in)) for rng in rngs])
            )
            self.biases.append(np.zeros((len(rngs), fan_out)))
        self.sync_target()
        self._train_steps = 0

    @property
    def n_runs(self) -> int:
        return len(self.weights[0])

    # -- forward passes -------------------------------------------------

    def _forward(self, x: np.ndarray, weights, biases):
        """Rows ``x`` (E, ..., B, D): run e's rows through run e's layers.

        Axes between the run axis and the rows broadcast against the
        weights, so an (E, B, 1, D) input is B one-row products per run.
        """
        x = np.asarray(x, dtype=float)
        n_runs, _, input_dim = weights[0].shape
        if x.ndim < 3 or x.shape[0] != n_runs or x.shape[-1] != input_dim:
            raise ValueError(f"rows must be ({n_runs}, ..., B, {input_dim}), got {x.shape}")
        # The run axis, then a broadcast axis per axis of x between runs and rows.
        lead = (slice(None),) + (None,) * (x.ndim - 3)
        a = x
        pre_acts = []
        acts = [a]
        for layer, (w, b) in enumerate(zip(weights, biases)):
            z = a @ w.transpose(0, 2, 1)[lead] + b[lead + (None,)]
            pre_acts.append(z)
            a = np.maximum(z, 0.0) if layer < len(weights) - 1 else z
            acts.append(a)
        return a, pre_acts, acts

    def forward(self, features) -> np.ndarray:
        """Action values (E, ..., B, A) of rows (E, ..., B, D) under the online weights."""
        x = np.asarray(features, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("features contain non-finite values")
        return self._forward(x, self.weights, self.biases)[0]

    def target_values(self, features) -> np.ndarray:
        return self._forward(features, self.target_weights, self.target_biases)[0]

    def sync_target(self):
        self.target_weights = [w.copy() for w in self.weights]
        self.target_biases = [b.copy() for b in self.biases]

    # -- training ---------------------------------------------------------

    def td_target(self, rewards, next_features) -> np.ndarray:
        """Minibatch targets ``r + beta * max_a' Q_target(s', a')``, (E, B), in one forward.

        Rows go through as stacked one-row products, which round like scoring
        each transition alone (a plain ``X @ W.T`` does not).
        """
        rows = np.asarray(next_features, dtype=float)[..., None, :]
        return rewards + self.discount * np.max(self.target_values(rows), axis=(-2, -1))

    def loss_and_gradients(self, features, actions, targets):
        """Per-run mean squared TD loss (E,) and gradients w.r.t. the online weights.

        ``features`` is (E, B, D), ``actions`` and ``targets`` (E, B).
        """
        x = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        n_runs, batch = x.shape[:2]
        picks = (np.arange(n_runs)[:, None], np.arange(batch), actions)

        out, pre_acts, acts = self._forward(x, self.weights, self.biases)
        err = out[picks] - targets
        losses = np.mean(err**2, axis=-1)

        d_out = np.zeros_like(out)
        d_out[picks] = 2.0 * err / batch
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = d_out
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = delta.transpose(0, 2, 1) @ acts[layer]
            grads_b[layer] = delta.sum(axis=1)
            if layer > 0:
                delta = (delta @ self.weights[layer]) * (pre_acts[layer - 1] > 0)
        return losses, grads_w, grads_b

    def train_step(self, features, actions, rewards, next_features) -> tuple[np.ndarray, int]:
        """One descent step per run on its replay minibatch; hard-syncs on schedule.

        Each run's gradient is clipped by its own norm.  Returns the per-run
        losses (E,) and the number of runs whose gradient was clipped.
        """
        if not np.shape(actions)[-1]:
            raise ValueError("minibatch must be non-empty")
        targets = self.td_target(rewards, next_features)
        losses, grads_w, grads_b = self.loss_and_gradients(features, actions, targets)
        # Per run, each layer's squares are summed as one flat row, and the
        # layer sums are added weights first, then biases.
        norm = np.sqrt(
            sum((g**2).reshape(len(g), -1).sum(axis=1) for g in grads_w)
            + sum((g**2).sum(axis=1) for g in grads_b)
        )
        clipped = norm > self.clip_norm
        grads = grads_w + grads_b
        if clipped.any():
            scale = np.divide(self.clip_norm, norm, out=np.ones_like(norm), where=clipped)
            grads = [g * scale.reshape(-1, *[1] * (g.ndim - 1)) for g in grads]
        params = self.weights + self.biases
        for param, grad in zip(params, grads):
            param -= self.learning_rate * grad
        if not all(np.isfinite(p).all() for p in params):
            finite = np.all([np.isfinite(p.reshape(len(p), -1)).all(axis=1) for p in params], axis=0)
            raise FloatingPointError(
                f"network weights of runs {np.flatnonzero(~finite).tolist()} became non-finite"
            )
        self._train_steps += 1
        if self._train_steps % self.sync_period == 0:
            self.sync_target()
        return losses, int(clipped.sum())

    def epsilon(self, episode: int) -> float:
        return max(self.epsilon_min, self.epsilon_start * self.epsilon_decay**episode)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnvState:
    """Per run: phase indices (E, K), power units (E, N) cluster after cluster,
    own gains over their peak (E, N), and the feature rows (E, D) built from them."""

    phases: np.ndarray
    units: np.ndarray
    gains: np.ndarray
    features: np.ndarray

    def key(self, run: int) -> bytes:
        """Run ``run``'s tabular key: equal states give equal bytes."""
        return self.phases[run].tobytes() + self.units[run].tobytes()


def _differ_only_in_power(a: NetworkScenario, b: NetworkScenario) -> bool:
    ca, cb = a.channels, b.channels
    return (
        np.array_equal(ca.g_matrix, cb.g_matrix)
        and np.array_equal(ca.user_channels, cb.user_channels)
        and ca.noise_variance == cb.noise_variance
        and a.assignment == b.assignment
        and np.array_equal(a.qos_floors, b.qos_floors)
        and a.interference_model == b.interference_model
        and a.alpha_domain == b.alpha_domain
    )


class NomaPhaseEnv:
    """Local-move environment over phase indices and quantized power splits.

    One environment holds E runs, one per scenario.  The scenarios share
    channels, assignment, floors and flags and differ only in
    ``total_power``, so the runs share one action table and feature size,
    and each step scores all E states in one :func:`evaluate_points` call.

    Action ``a`` adds ``phase_delta[a]`` (K,) to the phases modulo the level
    count, and ``unit_delta[a]`` (N,) to the units unless that leaves a
    slot below zero: a transfer takes one unit from one slot and gives it
    to another.  The rows are one no-op, one increment and one decrement
    per surface element, and one unit transfer per ordered user pair inside
    each cluster, so there are 2K + 2 * sum_m C(p_m, 2) + 1.  Slot i of
    cluster m funds the i-th decoded user of m, with coefficient
    ``units / units_total``: the unit array is the scenario's coefficient
    row scaled by ``units_total``.
    Rewards are the sum rate of the resulting configuration minus
    ``INFEASIBLE_PENALTY`` whenever the SIC or QoS check fails.
    """

    def __init__(self, scenarios, resolution_bits: int, alpha_step: float = 0.05):
        self.scenarios = tuple(scenarios)
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        scenario = self.scenarios[0]
        if not all(_differ_only_in_power(scenario, s) for s in self.scenarios[1:]):
            raise ValueError(
                "lockstep scenarios must share channels, assignment, floors and "
                "flags, and differ only in total_power"
            )
        self.total_power = np.array([s.total_power for s in self.scenarios], dtype=float)
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
        self.unit_delta = np.zeros((len(self.phase_delta), sum(sizes)), dtype=np.int64)
        for row, (give, take) in enumerate(moves, start=1 + 2 * k):
            self.unit_delta[row, [give, take]] = (-1, 1)
        # A state as the replay stores it: indices and units in the smallest
        # integer types that hold them, and the float gains.
        self.state_dtype = np.dtype([
            ("phases", np.min_scalar_type(self.levels - 1), k),
            ("units", np.min_scalar_type(self.units_total), sum(sizes)),
            ("gains", np.float64, sum(sizes)),
        ], align=True)

    @property
    def n_runs(self) -> int:
        return len(self.scenarios)

    @property
    def n_actions(self) -> int:
        return len(self.phase_delta)

    @property
    def feature_dim(self) -> int:
        return self.k_elements + 2 * self.scenarios[0].channels.n_users

    # -- state construction ---------------------------------------------

    def features(self, phases, units, gains) -> np.ndarray:
        """Feature rows: phase indices over the level count, power coefficients, gains."""
        return np.concatenate([phases / self.levels, units / self.units_total, gains], axis=-1)

    def pack(self, state: EnvState) -> np.ndarray:
        """Each run's state as one ``state_dtype`` record, (E,)."""
        packed = np.empty(len(state.phases), self.state_dtype)
        packed["phases"], packed["units"], packed["gains"] = state.phases, state.units, state.gains
        return packed

    def features_of(self, packed: np.ndarray) -> np.ndarray:
        """The feature rows of packed states, equal to the ones they were built with."""
        return self.features(packed["phases"], packed["units"], packed["gains"])

    def _make_state(self, phases: np.ndarray, units: np.ndarray):
        scores = evaluate_points(
            self.scenarios[0], phases, units / self.units_total, self.resolution_bits,
            self.total_power,
        )
        # Own gains over their peak; zeros where the peak is 0 or ZF failed (NaN).
        gains = scores.own_gains
        peak = np.max(gains, axis=1, keepdims=True)
        gains = np.divide(gains, peak, out=np.zeros_like(gains), where=peak > 0)
        return EnvState(phases, units, gains, self.features(phases, units, gains)), scores

    def reward(self, scores: GridScores) -> np.ndarray:
        return np.where(
            scores.feasible, scores.sum_rate, scores.sum_rate - INFEASIBLE_PENALTY
        )

    def initial_state(self):
        """Zero phases with the most even on-grid power split per cluster, every run."""
        units = []
        for size in self.scenarios[0].cluster_sizes:
            base, extra = divmod(self.units_total, size)
            units += [base + (1 if i < extra else 0) for i in range(size)]
        return self._make_state(
            np.zeros((self.n_runs, self.k_elements), dtype=np.int64),
            np.tile(np.array(units, dtype=np.int64), (self.n_runs, 1)),
        )

    def _draw(self, rng: np.random.Generator):
        """One random (phases, units) pair: ``integers``, then a ``multinomial`` per cluster."""
        phases = rng.integers(0, self.levels, size=self.k_elements)
        units = np.concatenate([
            rng.multinomial(self.units_total, np.full(size, 1.0 / size))
            for size in self.scenarios[0].cluster_sizes
        ])
        return phases, units

    def random_state(self, rngs):
        """One random state per run, run e drawn from ``rngs[e]``."""
        phases, units = zip(*(self._draw(rng) for rng in rngs))
        return self._make_state(np.stack(phases), np.stack(units))

    # -- dynamics -----------------------------------------------------------

    def step(self, state: EnvState, actions):
        """Apply one action row per run; returns (next_state, rewards (E,), scores)."""
        phases = (state.phases + self.phase_delta[actions]) % self.levels
        units = state.units + self.unit_delta[actions]
        units = np.where((units >= 0).all(axis=1, keepdims=True), units, state.units)
        next_state, scores = self._make_state(phases, units)
        return next_state, self.reward(scores), scores


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
    """One run's best feasible configuration (with its own gains) and its learner.

    ``learner`` is the run's Q-table, or the stacked network of every run.
    """

    learner: object
    best_phase: PhaseConfig | None
    best_splits: tuple | None
    best_rate: float
    best_gains: np.ndarray | None
    curve: list

    @property
    def found_feasible(self) -> bool:
        return self.best_phase is not None


def _result(env, learner, rate, phases, units, gains, curve) -> TrainResult:
    """A run's TrainResult; its winner's ``PhaseConfig`` and split tuples built here."""
    if rate == -np.inf:
        return TrainResult(learner, None, None, 0.0, None, curve)
    phase = PhaseConfig(phases, env.resolution_bits)
    splits = env.scenarios[0].split_tuples(units / env.units_total)
    return TrainResult(learner, phase, splits, float(rate), gains, curve)


def _rollout(
    env: NomaPhaseEnv, learners, episodes, steps_per_episode, rngs, epsilon, greedy, learn
) -> list[TrainResult]:
    """Epsilon-greedy rollouts of the env's E runs in lockstep, for any learner.

    Each episode starts every run from a random state.  ``greedy(state,
    runs)`` returns the greedy actions of the listed runs, and
    ``learn(state, actions, rewards, next_state)`` returns the per-run
    losses or None.  Run e draws only from ``rngs[e]``: per step
    ``uniform``, then ``integers`` when exploring, then what ``learn``
    draws for it.  Each curve's best reward is a running maximum.
    """
    n_runs, n_users = env.n_runs, env.scenarios[0].channels.n_users
    best_rate = np.full(n_runs, -np.inf)
    best_phases = np.zeros((n_runs, env.k_elements), dtype=np.int64)
    best_units = np.zeros((n_runs, n_users), dtype=np.int64)
    best_gains = np.zeros((n_runs, n_users))

    def keep_best(state, scores):
        better = scores.feasible & (scores.sum_rate > best_rate)
        if not better.any():
            return
        best_rate[better] = scores.sum_rate[better]
        best_phases[better] = state.phases[better]
        best_units[better] = state.units[better]
        best_gains[better] = scores.own_gains[better]

    curves = [[] for _ in range(n_runs)]
    for episode in range(episodes):
        state, scores = env.random_state(rngs)
        keep_best(state, scores)
        eps = epsilon(episode)
        losses = []
        for _ in range(steps_per_episode):
            actions = np.empty(n_runs, dtype=np.int64)
            greedy_runs = []
            for run, rng in enumerate(rngs):
                if rng.uniform() < eps:
                    actions[run] = rng.integers(env.n_actions)
                else:
                    greedy_runs.append(run)
            if greedy_runs:
                actions[greedy_runs] = greedy(state, greedy_runs)
            next_state, rewards, scores = env.step(state, actions)
            keep_best(next_state, scores)
            loss = learn(state, actions, rewards, next_state)
            if loss is not None:
                losses.append(loss)
            state = next_state
        # Each run's losses as one contiguous row, so its mean sums like a list's.
        means = np.mean(np.array(losses).T.copy(), axis=1) if losses else [np.nan] * n_runs
        for run, curve in enumerate(curves):
            curve.append(CurvePoint(episode, float(best_rate[run]), eps, float(means[run])))
    return [
        _result(env, learners[run], best_rate[run], best_phases[run], best_units[run],
                best_gains[run], curves[run])
        for run in range(n_runs)
    ]


def _run_rngs(env: NomaPhaseEnv, seeds) -> list[np.random.Generator]:
    rngs = [as_rng(seed) for seed in seeds]
    if len(rngs) != env.n_runs:
        raise ValueError(f"{len(rngs)} seeds for {env.n_runs} runs")
    return rngs


def train_agent(
    env: NomaPhaseEnv,
    approx: QApproximator,
    episodes: int,
    steps_per_episode: int,
    seeds=(None,),
    warmup: int = WARMUP,
) -> list[TrainResult]:
    """Epsilon-greedy DQN training of every run on replay minibatches of ``BATCH_SIZE``.

    ``approx`` holds one network per run and ``seeds`` one seed or
    generator per run.  Training starts once the replay holds
    ``max(BATCH_SIZE, warmup)`` transitions; the harness keeps the default
    ``WARMUP``, so a run of ``episodes * steps_per_episode`` below that
    takes no train step and its curve's loss column is NaN (``cli.main``
    warns before such a run).  The replay holds every transition of a run
    up to ``REPLAY_CAPACITY``.  Returns each run's best constraint-feasible
    configuration ever visited.
    """
    rngs = _run_rngs(env, seeds)
    if approx.n_runs != env.n_runs:
        raise ValueError(f"{approx.n_runs} networks for {env.n_runs} runs")
    capacity = min(REPLAY_CAPACITY, episodes * steps_per_episode)
    memory = ReplayMemory(capacity, env.state_dtype, env.n_runs)

    def learn(state, actions, rewards, next_state):
        memory.push(env.pack(state), actions, rewards, env.pack(next_state))
        if len(memory) >= max(BATCH_SIZE, warmup):
            states, actions, rewards, next_states = memory.sample(rngs, BATCH_SIZE)
            return approx.train_step(
                env.features_of(states), actions, rewards, env.features_of(next_states)
            )[0]
        return None

    def greedy(state, runs):
        return np.argmax(approx.forward(state.features[:, None])[runs, 0], axis=-1)

    return _rollout(
        env, [approx] * env.n_runs, episodes, steps_per_episode, rngs,
        epsilon=approx.epsilon, greedy=greedy, learn=learn,
    )


def train_tabular_agent(
    env: NomaPhaseEnv, episodes: int, steps_per_episode: int, seeds=(None,)
) -> list[TrainResult]:
    """Tabular Q-learning on the same environment, one table per run keyed by ``EnvState.key``.

    Epsilon decays by repeated multiplication, which rounds differently from
    the DQN's ``EPSILON_START * EPSILON_DECAY**episode``.
    """
    rngs = _run_rngs(env, seeds)
    tables = [defaultdict(lambda: np.zeros(env.n_actions)) for _ in rngs]
    schedule = [EPSILON_START]
    while len(schedule) < episodes:
        schedule.append(max(EPSILON_MIN, schedule[-1] * EPSILON_DECAY))

    def learn(state, actions, rewards, next_state):
        for run, table in enumerate(tables):
            tabular_q_update(
                table, state.key(run), actions[run], rewards[run], next_state.key(run),
                TABULAR_LEARNING_RATE, TABULAR_DISCOUNT,
            )

    def greedy(state, runs):
        return [np.argmax(tables[run][state.key(run)]) for run in runs]

    return _rollout(
        env, tables, episodes, steps_per_episode, rngs,
        epsilon=schedule.__getitem__, greedy=greedy, learn=learn,
    )


def random_search(env: NomaPhaseEnv, samples: int, seeds=(None,)) -> list[TrainResult]:
    """The random-phase baseline: ``samples`` random states per run and no steps.

    Run e draws its samples from ``seeds[e]`` one after another, as
    :meth:`NomaPhaseEnv.random_state` draws one, and all E x samples points
    are scored in one :func:`evaluate_points` call.  Each curve point is
    the best feasible rate among the samples so far.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rngs = _run_rngs(env, seeds)
    phases, units = (np.stack(a) for a in zip(*(
        env._draw(rng) for rng in rngs for _ in range(samples)
    )))
    scores = evaluate_points(
        env.scenarios[0], phases, units / env.units_total, env.resolution_bits,
        np.repeat(env.total_power, samples),
    )
    rates = np.where(scores.feasible, scores.sum_rate, -np.inf).reshape(env.n_runs, samples)
    results = []
    for run, run_rates in enumerate(rates):
        running = np.maximum.accumulate(run_rates)
        curve = [CurvePoint(i, float(r), 1.0, float("nan")) for i, r in enumerate(running)]
        i = run * samples + int(np.argmax(run_rates))
        results.append(_result(
            env, None, running[-1], phases[i], units[i], scores.own_gains[i], curve
        ))
    return results
