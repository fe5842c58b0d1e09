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

with uniform replay sampling.  The target copy changes only at a sync, so
the replay keeps each slot's max target value and rescores a sampled slot
only when it is stale: pushed since it was last scored, or scored before
the latest sync.  The random-phase baseline scores random states only.

Every search runs E runs in lockstep: one environment scores all E states
of a step in one evaluator call, and the learners carry a leading run axis.
The runs share their sizes and may differ in everything else: channels,
clustering, floors, noise, power and random stream.  Their action tables
are padded to the longest, and each run equals the same run made alone
(E = 1) bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .channel import PhaseConfig, as_rng
from .noma import GridScores, ScenarioStack, evaluate_points
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
    count.  ``next_max`` caches each slot's max target value, valid while
    ``scored_at`` holds the current target sync, and a push marks its slot
    stale; both are flat and indexed by the rows of :meth:`sample`.
    """

    def __init__(self, capacity: int, state_dtype, n_runs: int = 1):
        self.capacity = int(capacity)
        size = n_runs * self.capacity
        # States and next states share one array, so one np.take gathers both.
        records = np.empty((2, n_runs, self.capacity), dtype=state_dtype)
        self.states, self.next_states = records
        self.actions = np.empty((n_runs, self.capacity), dtype=np.int64)
        self.rewards = np.empty((n_runs, self.capacity))
        self.next_max = np.empty(size)
        self.scored_at = np.full(size, -1)
        # Views with one row per (run, slot), run-major, next states after
        # states: np.take on them is far cheaper on records than fancy indexing.
        self._records = records.reshape(2 * size, *records.shape[3:])
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
        self.scored_at[self._run_starts + i] = -1
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rngs, batch_size: int):
        """(rows, actions, rewards) of one uniform minibatch per run, each (E, B).

        Run e's picks come from ``rngs[e]``; ``rows`` are their (run, slot)
        indices, run-major.
        """
        idx = np.stack([rng.integers(0, self._size, size=batch_size) for rng in rngs])
        rows = self._run_starts + idx
        return rows, np.take(self.actions, rows), np.take(self.rewards, rows)

    def records(self, state_rows, next_rows) -> np.ndarray:
        """(E, B + W) entries in one gather: the states of ``state_rows`` (E, B),
        then the next states of ``next_rows`` (E, W)."""
        rows = np.concatenate([state_rows, next_rows + len(self.next_max)], axis=1)
        return np.take(self._records, rows, axis=0)

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

    ``n_actions`` is one action count for every run or one per run.  Run
    e's output layer is drawn at its own count A_e and zero-padded to the
    largest A; its padded outputs stay 0, take no gradient, and
    :meth:`masked` hides them from every max.  ``syncs`` counts the target
    syncs, the one at construction included.
    """

    def __init__(
        self,
        input_dim: int,
        n_actions,
        hidden=(64, 64),
        learning_rate: float = 1e-3,
        discount: float = 0.9,
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
        self.sync_period = int(sync_period)
        self.clip_norm = float(clip_norm)
        self.n_actions = np.array(np.broadcast_to(n_actions, len(rngs)), dtype=np.int64)
        width = int(self.n_actions.max())
        # (E, A) marks each run's padded actions, None when no run has any.
        self.padded = np.arange(width) >= self.n_actions[:, None]
        if not self.padded.any():
            self.padded = None

        fan_ins = [int(input_dim), *(int(h) for h in hidden)]
        fan_outs = [*fan_ins[1:], width]
        self.weights = []
        self.biases = []
        for layer, (fan_in, fan_out) in enumerate(zip(fan_ins, fan_outs)):
            lim = np.sqrt(2.0 / fan_in)
            rows = self.n_actions if layer == len(fan_ins) - 1 else [fan_out] * len(rngs)
            weights = np.zeros((len(rngs), fan_out, fan_in))
            for w, rng, n in zip(weights, rngs, rows):
                w[:n] = rng.uniform(-lim, lim, size=(n, fan_in))
            self.weights.append(weights)
            self.biases.append(np.zeros((len(rngs), fan_out)))
        self.syncs = 0
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
            if layer == len(weights) - 1 and self.padded is not None:
                # Each run's real outputs as a product of their own width: BLAS
                # rounds a column differently inside a wider matrix.
                z = np.zeros(a.shape[:-1] + w.shape[1:2])
                for z_e, a_e, w_e, b_e, n in zip(z, a, w, b, self.n_actions):
                    z_e[..., :n] = a_e @ w_e[:n].T + b_e[:n]
            else:
                z = a @ w.transpose(0, 2, 1)[lead] + b[lead + (None,)]
            pre_acts.append(z)
            a = np.maximum(z, 0.0) if layer < len(weights) - 1 else z
            acts.append(a)
        return a, pre_acts, acts

    def masked(self, values: np.ndarray) -> np.ndarray:
        """Action values (E, ..., A) with each run's padded actions at -inf."""
        if self.padded is None:
            return values
        lead = (slice(None),) + (None,) * (values.ndim - 2)
        return np.where(self.padded[lead], -np.inf, values)

    def forward(self, features) -> np.ndarray:
        """Action values (E, ..., B, A) of rows (E, ..., B, D) under the online weights."""
        x = np.asarray(features, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("features contain non-finite values")
        return self._forward(x, self.weights, self.biases)[0]

    def sync_target(self):
        self.target_weights = [w.copy() for w in self.weights]
        self.target_biases = [b.copy() for b in self.biases]
        self.syncs += 1

    # -- training ---------------------------------------------------------

    def target_max(self, features) -> np.ndarray:
        """``max_a' Q_target(s', a')`` of rows (E, ..., D), (E, ...), in one forward.

        Rows go through as stacked one-row products, which round like scoring
        each row alone (a plain ``X @ W.T`` does not): a row's value has the
        same bits whichever rows share the call.
        """
        rows = np.asarray(features, dtype=float)[..., None, :]
        values = self._forward(rows, self.target_weights, self.target_biases)[0]
        return np.max(self.masked(values), axis=(-2, -1))

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
        out = len(self.weights) - 1
        for layer in range(out, -1, -1):
            w = self.weights[layer]
            grads_b[layer] = delta.sum(axis=1)
            if layer == out and self.padded is not None:
                # Per run at its own width, as in the forward pass.
                grads_w[layer] = np.zeros_like(w)
                back = np.empty(delta.shape[:-1] + w.shape[2:])
                for e, n in enumerate(self.n_actions):
                    grads_w[layer][e, :n] = delta[e, :, :n].T @ acts[layer][e]
                    back[e] = delta[e, :, :n] @ w[e, :n]
            else:
                grads_w[layer] = delta.transpose(0, 2, 1) @ acts[layer]
                back = delta @ w if layer > 0 else None
            if layer > 0:
                delta = back * (pre_acts[layer - 1] > 0)
        return losses, grads_w, grads_b

    def train_step(self, features, actions, rewards, next_max) -> tuple[np.ndarray, int]:
        """One descent step per run on its replay minibatch; hard-syncs on schedule.

        The targets are ``rewards + discount * next_max``, with ``next_max``
        (E, B) from :meth:`target_max`.  Each run's gradient is clipped by its
        own norm.  Returns the per-run losses (E,) and the number of runs
        whose gradient was clipped.
        """
        if not np.shape(actions)[-1]:
            raise ValueError("minibatch must be non-empty")
        targets = rewards + self.discount * next_max
        losses, grads_w, grads_b = self.loss_and_gradients(features, actions, targets)
        # Per run, each layer's squares are summed as one flat row, and the
        # layer sums are added weights first, then biases.  A run's padded
        # output rows are left out: a longer row would split numpy's pairwise
        # sum differently.
        out = len(grads_w) - 1
        norm = np.sqrt(
            sum(self._square_sums(g, layer == out) for layer, g in enumerate(grads_w))
            + sum(self._square_sums(g, layer == out) for layer, g in enumerate(grads_b))
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

    def _square_sums(self, grad: np.ndarray, output: bool) -> np.ndarray:
        """(E,) sums of each run's squared gradient entries, output rows up to A_e."""
        if self.padded is None or not output:
            return (grad**2).reshape(len(grad), -1).sum(axis=1)
        return np.array([(g[:a] ** 2).sum() for g, a in zip(grad, self.n_actions)])

    @staticmethod
    def epsilon(episode: int) -> float:
        return max(EPSILON_MIN, EPSILON_START * EPSILON_DECAY**episode)


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


class NomaPhaseEnv:
    """Local-move environment over phase indices and quantized power splits.

    One environment holds E runs, one per scenario.  The scenarios share
    their user, cluster and element counts and both flags, and each step
    scores all E states in one :func:`evaluate_points` call.

    Action ``a`` adds ``phase_delta[a]`` (K,) to the phases modulo the level
    count, and run e's ``unit_delta[e, a]`` (N,) to its units unless that
    leaves a slot below zero: a transfer takes one unit from one slot and
    gives it to another.  The rows are one no-op, one increment and one
    decrement per surface element, and one unit transfer per ordered user
    pair inside each cluster, so run e has A_e = 2K + 2 * sum_m C(p_m, 2) + 1
    actions, ``n_actions[e]``.  Rows past A_e are padding: no move, never
    drawn, and masked out of every max.  Slot i of cluster m funds the
    i-th decoded user of m, with coefficient ``units / units_total``: the
    unit array is the scenario's coefficient row scaled by ``units_total``.
    Rewards are the sum rate of the resulting configuration minus
    ``INFEASIBLE_PENALTY`` whenever the SIC or QoS check fails.
    """

    def __init__(self, scenarios, resolution_bits: int, alpha_step: float = 0.05):
        self.stack = ScenarioStack(scenarios)
        self.scenarios = self.stack.scenarios
        self.resolution_bits = int(resolution_bits)
        self.levels = 1 << self.resolution_bits
        self.units_total = _units_from_step(alpha_step)
        self.k_elements = k = self.scenarios[0].channels.k_elements
        self.n_users = n = self.scenarios[0].channels.n_users

        moves = [
            [
                (start + i, start + j)
                for start, size in zip(s.cluster_starts, s.cluster_sizes)
                for i in range(size)
                for j in range(size)
                if i != j
            ]
            for s in self.scenarios
        ]
        self.n_actions = np.array([1 + 2 * k + len(m) for m in moves], dtype=np.int64)
        eye = np.eye(k, dtype=np.int64)
        zeros = np.zeros((self.n_actions.max() - 2 * k, k), dtype=np.int64)
        self.phase_delta = np.vstack([zeros[:1], eye, -eye, zeros[1:]])
        self.unit_delta = np.zeros((self.n_runs, len(self.phase_delta), n), dtype=np.int64)
        for deltas, run_moves in zip(self.unit_delta, moves):
            for row, (give, take) in enumerate(run_moves, start=1 + 2 * k):
                deltas[row, [give, take]] = (-1, 1)
        self._runs = np.arange(self.n_runs)
        # A state as the replay stores it: indices and units in the smallest
        # integer types that hold them, and the float gains.
        self.state_dtype = np.dtype([
            ("phases", np.min_scalar_type(self.levels - 1), k),
            ("units", np.min_scalar_type(self.units_total), n),
            ("gains", np.float64, n),
        ], align=True)

    @property
    def n_runs(self) -> int:
        return len(self.scenarios)

    @property
    def feature_dim(self) -> int:
        return self.k_elements + 2 * self.n_users

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
        scores = evaluate_points(self.stack, phases, units / self.units_total, self.resolution_bits)
        # Own gains over their peak; zeros where the peak is 0 or ZF failed (NaN).
        gains = scores.own_gains
        peak = np.max(gains, axis=1, keepdims=True)
        gains = np.divide(gains, peak, out=np.zeros_like(gains), where=peak > 0)
        return EnvState(phases, units, gains, self.features(phases, units, gains)), scores

    def reward(self, scores: GridScores) -> np.ndarray:
        return np.where(
            scores.feasible, scores.sum_rate, scores.sum_rate - INFEASIBLE_PENALTY
        )

    def _draw(self, rng: np.random.Generator, run: int):
        """Run ``run``'s random (phases, units): ``integers``, then a ``multinomial`` per cluster."""
        phases = rng.integers(0, self.levels, size=self.k_elements)
        units = np.concatenate([
            rng.multinomial(self.units_total, np.full(size, 1.0 / size))
            for size in self.scenarios[run].cluster_sizes
        ])
        return phases, units

    def random_state(self, rngs):
        """One random state per run, run e drawn from ``rngs[e]``."""
        phases, units = zip(*(self._draw(rng, run) for run, rng in enumerate(rngs)))
        return self._make_state(np.stack(phases), np.stack(units))

    # -- dynamics -----------------------------------------------------------

    def step(self, state: EnvState, actions):
        """Apply one action row per run; returns (next_state, rewards (E,), scores)."""
        phases = (state.phases + self.phase_delta[actions]) % self.levels
        units = state.units + self.unit_delta[self._runs, actions]
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


def _result(env, run, learner, rate, phases, units, gains, curve) -> TrainResult:
    """Run ``run``'s TrainResult; its winner's ``PhaseConfig`` and split tuples built here."""
    if rate == -np.inf:
        return TrainResult(learner, None, None, 0.0, None, curve)
    phase = PhaseConfig(phases, env.resolution_bits)
    splits = env.scenarios[run].split_tuples(units / env.units_total)
    return TrainResult(learner, phase, splits, float(rate), gains, curve)


def _rollout(
    env: NomaPhaseEnv, learners, episodes, steps_per_episode, rngs, epsilon, greedy, learn
) -> list[TrainResult]:
    """Epsilon-greedy rollouts of the env's E runs in lockstep, for any learner.

    Each episode starts every run from a random state.  ``greedy(state,
    runs)`` returns the greedy actions of the listed runs, and
    ``learn(state, actions, rewards, next_state)`` returns the per-run
    losses or None.  Run e draws only from ``rngs[e]``: per step
    ``uniform``, then ``integers`` over its own A_e actions when exploring,
    then what ``learn`` draws for it.  Each curve's best reward is a
    running maximum.
    """
    n_runs, n_users = env.n_runs, env.n_users
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
                    actions[run] = rng.integers(env.n_actions[run])
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
        _result(env, run, learners[run], best_rate[run], best_phases[run], best_units[run],
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
    if not np.array_equal(approx.n_actions, env.n_actions):
        raise ValueError(f"networks of {approx.n_actions} actions for runs of {env.n_actions}")
    capacity = min(REPLAY_CAPACITY, episodes * steps_per_episode)
    memory = ReplayMemory(capacity, env.state_dtype, env.n_runs)
    run_axis = np.arange(env.n_runs)[:, None]
    # The last next state and its record: the next step starts from it.
    last = [None, None]

    def learn(state, actions, rewards, next_state):
        record = last[1] if state is last[0] else env.pack(state)
        last[:] = next_state, env.pack(next_state)
        memory.push(record, actions, rewards, last[1])
        if len(memory) < max(BATCH_SIZE, warmup):
            return None
        rows, actions, rewards = memory.sample(rngs, BATCH_SIZE)
        # Each run's stale picks first, padded with its other picks to the most
        # stale picks of any run, rebuilt behind the states by one features_of
        # call.  Padding is rescored too: a row has the same bits in any call.
        stale = memory.scored_at[rows] != approx.syncs
        order = np.argsort(~stale, axis=1, kind="stable")[:, : stale.sum(axis=1).max()]
        rescored = rows[run_axis, order]
        features = env.features_of(memory.records(rows, rescored))
        if rescored.size:
            memory.next_max[rescored] = approx.target_max(features[:, BATCH_SIZE:])
            memory.scored_at[rescored] = approx.syncs
        next_max = memory.next_max[rows]
        return approx.train_step(features[:, :BATCH_SIZE], actions, rewards, next_max)[0]

    def greedy(state, runs):
        values = approx.masked(approx.forward(state.features[:, None]))
        return np.argmax(values[runs, 0], axis=-1)

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
    tables = [defaultdict(lambda a=a: np.zeros(a)) for a in env.n_actions]
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
        env._draw(rng, run) for run, rng in enumerate(rngs) for _ in range(samples)
    )))
    scores = evaluate_points(
        [s for s in env.scenarios for _ in range(samples)],
        phases, units / env.units_total, env.resolution_bits,
    )
    rates = np.where(scores.feasible, scores.sum_rate, -np.inf).reshape(env.n_runs, samples)
    results = []
    for run, run_rates in enumerate(rates):
        running = np.maximum.accumulate(run_rates)
        curve = [CurvePoint(i, float(r), 1.0, float("nan")) for i, r in enumerate(running)]
        i = run * samples + int(np.argmax(run_rates))
        results.append(_result(
            env, run, None, running[-1], phases[i], units[i], scores.own_gains[i], curve
        ))
    return results
