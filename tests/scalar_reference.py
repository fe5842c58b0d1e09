"""Scalar reference for the grid evaluator: one SINR per (decoder, target) pair.

``noma.evaluate_batch`` scores whole grids of phase configs and power
splits with array operations.  This module re-derives a single point the
literal way: own-beam gains, the gain-sorted decoding order, every
same-cluster cross SINR through :func:`sinr_cross`, then the SIC and QoS
checks, one pair at a time.  It takes the effective channels and the ZF
precoder from the package (both have their own tests against independent
formulas) and repeats every later float step in the order the grid
evaluator must match bit for bit.

It also keeps the RL environment's step as it was first written: actions
as (kind, target) pairs dispatched one kind at a time on tuple states,
scored through ``PhaseConfig`` and per-cluster split tuples from
:func:`alpha_from_units`.  The environment's action table must reproduce
it bit for bit.

Two more scalar forms serve as references for array code: the one-point
ray cast behind ``ServiceRegion.contains_many``, and the per-pair gain
difference and correlation of the rough partition's threshold gate.

Algorithm 1's LSTM for one user: 2-D weights, one batch, one gradient
norm, and its own two-branch sigmoid.  ``mobility.RecurrentPredictor``
trains every user at once on a leading user axis and must equal this user
by user, bit for bit.

Last, the DQN's Q-network for one run, :class:`QNetReference`: 2-D
weights, one minibatch, one gradient norm.  ``rl.QApproximator`` trains
every run at once on a leading run axis and must equal it run by run.
:func:`rescoring_train_agent` is ``rl.train_agent`` with no target cache:
it rescores every minibatch's next states, and the cached learner must
equal it bit for bit.

The file has no ``test_`` prefix, so pytest imports it only from tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from irsnoma_lab import rl
from irsnoma_lab.channel import PhaseConfig, effective_channels_batch
from irsnoma_lab.noma import (
    SIC_RATE_TOL,
    ClusterPlan,
    decoding_order_by_gain,
    evaluate_batch,
)
from irsnoma_lab.precoding import zero_forcing


@dataclass(frozen=True, eq=False)
class ConfigurationResult:
    """Outcome of evaluating one (phase config, power split) point.

    ``own_gains`` is None when the phase's combined channel is
    ill-conditioned.
    """

    sum_rate: float
    feasible: bool
    own_gains: np.ndarray | None


def evaluate_point(scenario, phase: PhaseConfig, splits) -> ConfigurationResult:
    """Score one (phase, per-cluster split tuples) point as a 1 x 1 grid."""
    alphas = np.array([[a for part in splits for a in part]], dtype=float)
    phase_idx = np.array([phase.indices])
    grid = evaluate_batch(scenario, phase_idx, alphas, phase.resolution_bits)
    gains = grid.own_gains[0]
    return ConfigurationResult(
        sum_rate=float(grid.sum_rate[0, 0]),
        feasible=bool(grid.feasible[0, 0]),
        own_gains=None if np.isnan(gains[0]) else gains,
    )


def alpha_from_units(units) -> tuple[float, ...]:
    """Simplex coefficients from non-negative integer grid counts.

    Normalizing by the count total keeps the sum at 1 to machine precision,
    so a grid split built here always passes plan validation.
    """
    arr = np.asarray(units, dtype=float)
    if np.any(arr < 0):
        raise ValueError("unit counts must be non-negative")
    total = arr.sum()
    if total <= 0:
        raise ValueError("unit counts must not all be zero")
    return tuple(float(v) for v in arr / total)


def _alpha_weight(alpha: float, domain: str) -> float:
    if domain == "amplitude":
        return alpha * alpha
    if domain == "power":
        return alpha
    raise ValueError(f"unknown alpha domain {domain!r}")


def _beam_products(h_row: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Complex products h . w_g for every cluster beam g (columns of ``w``)."""
    return np.asarray(h_row, dtype=complex) @ w


def _inter_cluster_power(beams: np.ndarray, m: int, model: str) -> float:
    others = np.delete(beams, m)
    if model == "incoherent":
        return float(np.sum(np.abs(others) ** 2))
    if model == "coherent":
        return float(np.abs(np.sum(others)) ** 2)
    raise ValueError(f"unknown interference model {model!r}")


def sinr_cross(
    m: int,
    q: int,
    p: int,
    effective_channels: np.ndarray,
    w: np.ndarray,
    plan: ClusterPlan,
    noise_variance: float,
    *,
    interference_model: str = "incoherent",
    alpha_domain: str = "amplitude",
) -> float:
    """SINR at user q when decoding the signal intended for user p (same cluster)."""
    if plan.cluster_of(p) != m or plan.cluster_of(q) != m:
        raise ValueError(f"users {q} and {p} must both belong to cluster {m}")
    beams = _beam_products(np.asarray(effective_channels)[q], w)
    own_power = float(np.abs(beams[m]) ** 2)
    num = _alpha_weight(plan.alpha_of(p), alpha_domain) * own_power
    intra = own_power * sum(
        _alpha_weight(plan.alpha_of(lam), alpha_domain)
        for lam in plan.members(m)
        if lam != p
    )
    inter = _inter_cluster_power(beams, m, interference_model)
    return num / (intra + inter + noise_variance)


def sum_rate(sinrs) -> float:
    """Total Shannon rate sum_u log2(1 + sinr_u) in bits/s/Hz."""
    tau = np.asarray(sinrs, dtype=float)
    if np.any(tau < 0):
        raise ValueError("SINRs must be non-negative")
    return float(np.sum(np.log2(1.0 + tau)))


def qos_check(sinrs, tau_min) -> bool:
    """True when every user meets its SINR floor (non-strict)."""
    tau = np.asarray(sinrs, dtype=float)
    floors = np.broadcast_to(np.asarray(tau_min, dtype=float), tau.shape)
    if np.any(floors < 0):
        raise ValueError("SINR floors must be non-negative")
    return bool(np.all(tau >= floors))


def check_sic(plan: ClusterPlan, cross_rates: dict) -> bool:
    """True when every later-decoded user can decode every earlier one.

    ``cross_rates`` maps (decoder q, target p) to R_{q->p} for same-cluster
    pairs (q = p gives the own rate).  For each cluster and each ordered
    pair with a decoded after b, requires R_{a->b} >= R_{b->b} up to a small
    float tolerance.
    """
    for m in range(plan.n_clusters):
        order = plan.decoding_order[m]
        for i, b in enumerate(order):
            need = cross_rates[(b, b)]
            for a in order[i + 1 :]:
                if cross_rates[(a, b)] < need - SIC_RATE_TOL * max(1.0, abs(need)):
                    return False
    return True


@dataclass(frozen=True, eq=False)
class RateReport:
    """Every per-user and per-pair quantity of one configuration.

    ``cross_sinr`` covers same-cluster (decoder, target) pairs including the
    diagonal.
    """

    sinr: np.ndarray
    rates: np.ndarray
    cross_sinr: dict
    sum_rate: float
    sic_feasible: bool
    qos_feasible: bool


def evaluate(
    effective_channels: np.ndarray,
    w: np.ndarray,
    plan: ClusterPlan,
    noise_variance: float,
    *,
    qos_floors=0.0,
    interference_model: str = "incoherent",
    alpha_domain: str = "amplitude",
) -> RateReport:
    """Compute all SINRs, rates, and feasibility flags for one configuration."""
    n = plan.n_users
    h_eff = np.asarray(effective_channels, dtype=complex)
    sinrs = np.empty(n)
    cross: dict = {}
    for m in range(plan.n_clusters):
        members = plan.members(m)
        for q in members:
            for p in members:
                tau = sinr_cross(
                    m,
                    q,
                    p,
                    h_eff,
                    w,
                    plan,
                    noise_variance,
                    interference_model=interference_model,
                    alpha_domain=alpha_domain,
                )
                cross[(q, p)] = tau
                if q == p:
                    sinrs[q] = tau
    rates = np.log2(1.0 + sinrs)
    cross_rates = {key: float(np.log2(1.0 + tau)) for key, tau in cross.items()}
    return RateReport(
        sinr=sinrs,
        rates=rates,
        cross_sinr=cross,
        sum_rate=float(np.sum(rates)),
        sic_feasible=check_sic(plan, cross_rates),
        qos_feasible=qos_check(sinrs, qos_floors),
    )


@dataclass(frozen=True, eq=False)
class ReferencePoint:
    """One scored point; every field but the rate is None when ZF is ill-conditioned."""

    sum_rate: float
    feasible: bool
    h_eff: np.ndarray | None
    w: np.ndarray | None
    own_gains: np.ndarray | None
    plan: ClusterPlan | None
    report: RateReport | None


def reference_point(scenario, phase_indices, resolution_bits: int, splits) -> ReferencePoint:
    """Score the point (``phase_indices``, ``splits``) pair by pair."""
    h_eff = effective_channels_batch(
        scenario.channels, np.asarray([phase_indices]), resolution_bits
    )
    assign = np.asarray(scenario.assignment)
    members = [np.flatnonzero(assign == m) for m in range(scenario.n_clusters)]
    ok, w = zero_forcing(h_eff, members, scenario.total_power)
    if not ok[0]:
        return ReferencePoint(0.0, False, None, None, None, None, None)
    h_eff, w = h_eff[0], w[0]
    gains = np.abs(np.einsum("um,um->u", h_eff, w[:, list(scenario.assignment)].T))
    order = tuple(
        decoding_order_by_gain(np.flatnonzero(assign == m), gains)
        for m in range(scenario.n_clusters)
    )
    plan = ClusterPlan(
        assignment=scenario.assignment, decoding_order=order, power_split=splits
    )
    report = evaluate(
        h_eff,
        w,
        plan,
        scenario.channels.noise_variance,
        qos_floors=scenario.qos_floors,
        interference_model=scenario.interference_model,
        alpha_domain=scenario.alpha_domain,
    )
    return ReferencePoint(
        sum_rate=report.sum_rate,
        feasible=report.sic_feasible and report.qos_feasible,
        h_eff=h_eff,
        w=w,
        own_gains=gains,
        plan=plan,
        report=report,
    )


# ---------------------------------------------------------------------------
# RL environment step
# ---------------------------------------------------------------------------

ACTION_NOOP = "no-op"
ACTION_PHASE_UP = "phase-increment"
ACTION_PHASE_DOWN = "phase-decrement"
ACTION_ALPHA_SHIFT = "alpha-shift"


def reference_actions(k_elements: int, cluster_sizes) -> list[tuple[str, tuple]]:
    """The environment's actions as (kind, target) pairs, in action-id order."""
    actions = [(ACTION_NOOP, ())]
    actions += [(ACTION_PHASE_UP, (k,)) for k in range(k_elements)]
    actions += [(ACTION_PHASE_DOWN, (k,)) for k in range(k_elements)]
    for m, size in enumerate(cluster_sizes):
        for i in range(size):
            for j in range(size):
                if i != j:
                    actions.append((ACTION_ALPHA_SHIFT, (m, i, j)))
    return actions


def reference_step(phase_indices, alpha_units, action, levels: int):
    """Apply one (kind, target) edit to a tuple state.

    ``alpha_units`` holds one tuple of unit counts per cluster; a shift
    from a user with no unit left changes nothing.
    """
    kind, target = action
    phases = list(phase_indices)
    units = [list(u) for u in alpha_units]
    if kind == ACTION_PHASE_UP:
        (k,) = target
        phases[k] = (phases[k] + 1) % levels
    elif kind == ACTION_PHASE_DOWN:
        (k,) = target
        phases[k] = (phases[k] - 1) % levels
    elif kind == ACTION_ALPHA_SHIFT:
        m, i, j = target
        if units[m][i] > 0:
            units[m][i] -= 1
            units[m][j] += 1
    elif kind != ACTION_NOOP:
        raise ValueError(f"unknown action kind {kind!r}")
    return tuple(phases), tuple(tuple(u) for u in units)


def reference_state(scenario, phase_indices, alpha_units, resolution_bits: int):
    """(features, splits, result) of a tuple state.

    Features are the phase indices over the level count, the power
    coefficients cluster after cluster, and the own gains over their peak
    (zeros when the phase is ill-conditioned).
    """
    splits = tuple(alpha_from_units(u) for u in alpha_units)
    phase = PhaseConfig(phase_indices, resolution_bits)
    result = evaluate_point(scenario, phase, splits)
    phases = np.asarray(phase_indices, dtype=float) / phase.n_levels
    alphas = np.concatenate([alpha_from_units(u) for u in alpha_units])
    if result.own_gains is not None:
        peak = float(np.max(result.own_gains))
        gains = result.own_gains / peak if peak > 0 else result.own_gains * 0.0
    else:
        gains = np.zeros(scenario.channels.n_users)
    return np.concatenate([phases, alphas, gains]), splits, result


# ---------------------------------------------------------------------------
# Service region and clustering gate
# ---------------------------------------------------------------------------

def point_in_polygon(x: float, y: float, poly: np.ndarray) -> bool:
    """Ray casting for one point; boundary points count as inside."""
    n = poly.shape[0]
    inside = False
    x0, y0 = poly[-1]
    for i in range(n):
        x1, y1 = poly[i]
        if min(y0, y1) < y <= max(y0, y1) and x <= max(x0, x1):
            if y0 != y1:
                x_cross = (y - y0) * (x1 - x0) / (y1 - y0) + x0
                if x0 == x1 or x <= x_cross:
                    inside = not inside
        x0, y0 = x1, y1
    return inside


def region_contains(region, point) -> bool:
    """True if ``point`` lies inside the bounds and outside the obstacle."""
    x, y = float(point[0]), float(point[1])
    xmin, ymin, xmax, ymax = region.bounds
    if not (xmin <= x <= xmax and ymin <= y <= ymax):
        return False
    return region.obstacle is None or not point_in_polygon(x, y, region.obstacle)


def gain_difference(a, b) -> float:
    """Norm of the difference of elementwise channel magnitudes."""
    return float(np.linalg.norm(np.abs(np.asarray(a)) - np.abs(np.asarray(b))))


def correlation(a, b) -> float:
    """Magnitude of the normalized inner product of two channel vectors."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.abs(np.vdot(a, b)) / denom)


# -- Algorithm 1's LSTM, one user ---------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, both branches evaluated and one picked per element."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_init(rng, input_dim: int, hidden_dim: int) -> dict:
    """One user's weights: the gate block's draws, then the head's."""
    lim = 1.0 / np.sqrt(hidden_dim + input_dim)
    w_gates = rng.uniform(-lim, lim, size=(4 * hidden_dim, input_dim + hidden_dim))
    w_out = rng.uniform(-lim, lim, size=(input_dim, hidden_dim))
    return {
        "w_gates": w_gates,
        "b_gates": np.zeros(4 * hidden_dim),
        "w_out": w_out,
        "b_out": np.zeros(input_dim),
    }


def lstm_forward_batch(params: dict, windows: np.ndarray):
    """Outputs (B, D), last hidden state and per-step cache for (B, T, D) windows."""
    b, t, d = windows.shape
    hd = params["b_gates"].shape[0] // 4
    h = np.zeros((b, hd))
    c = np.zeros((b, hd))
    cache = []
    for step in range(t):
        x = windows[:, step, :]
        z = np.concatenate([x, h], axis=1) @ params["w_gates"].T + params["b_gates"]
        gates = sigmoid(z[:, : 3 * hd])
        i, f, o = gates[:, :hd], gates[:, hd : 2 * hd], gates[:, 2 * hd :]
        g = np.tanh(z[:, 3 * hd :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        cache.append((x, h, c, i, f, o, g, tanh_c))
        h, c = h_new, c_new
    y = h @ params["w_out"].T + params["b_out"]
    return y, h, cache


def lstm_loss_and_gradients(params: dict, windows, targets):
    """MSE loss and its analytic gradients over one user's batch (no update)."""
    windows = np.asarray(windows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    b, _, d = windows.shape
    hd = params["b_gates"].shape[0] // 4

    y, h_last, cache = lstm_forward_batch(params, windows)
    err = y - targets
    loss = float(np.mean(err**2))

    dy = 2.0 * err / err.size
    grads = {
        "w_out": dy.T @ h_last,
        "b_out": dy.sum(axis=0),
        "w_gates": np.zeros_like(params["w_gates"]),
        "b_gates": np.zeros_like(params["b_gates"]),
    }
    dh = dy @ params["w_out"]
    dc = np.zeros((b, hd))
    for x, h_prev, c_prev, i, f, o, g, tanh_c in reversed(cache):
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c**2)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g**2),
            ],
            axis=1,
        )
        xh = np.concatenate([x, h_prev], axis=1)
        grads["w_gates"] += dz.T @ xh
        grads["b_gates"] += dz.sum(axis=0)
        dh = dz @ params["w_gates"][:, d:]
        dc = dc * f
    return loss, grads


def lstm_train_step(params: dict, windows, targets, learning_rate: float, clip_norm: float):
    """One in-place gradient-descent update; returns (pre-update loss, clipped?)."""
    loss, grads = lstm_loss_and_gradients(params, windows, targets)
    norm = np.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
    clipped = norm > clip_norm
    if clipped:
        scale = clip_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    for name, grad in grads.items():
        params[name][...] -= learning_rate * grad
    return loss, bool(clipped)


# -- The DQN's Q-network, one run ----------------------------------------------


class QNetReference:
    """One run's two-hidden-layer ReLU network with a hard-synced target copy.

    Weights are (out, in) and biases (out,); :meth:`of_run` copies run e of
    a stacked ``rl.QApproximator``, settings included.
    """

    @classmethod
    def of_run(cls, approx, run: int) -> "QNetReference":
        net = cls()
        for name in ("learning_rate", "discount", "sync_period", "clip_norm", "_train_steps"):
            setattr(net, name, getattr(approx, name))
        for name in ("weights", "biases", "target_weights", "target_biases"):
            setattr(net, name, [p[run].copy() for p in getattr(approx, name)])
        return net

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
        x = np.asarray(features, dtype=float)
        out, _, _ = self._forward(x, self.weights, self.biases)
        return out[0] if x.ndim == 1 else out

    def target_values(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        out, _, _ = self._forward(x, self.target_weights, self.target_biases)
        return out[0] if x.ndim == 1 else out

    def sync_target(self):
        self.target_weights = [w.copy() for w in self.weights]
        self.target_biases = [b.copy() for b in self.biases]

    def td_target(self, rewards, next_features) -> np.ndarray:
        rows = np.asarray(next_features, dtype=float)[:, None, :]
        return rewards + self.discount * np.max(self.target_values(rows), axis=(1, 2))

    def loss_and_gradients(self, features, actions, targets):
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

    def apply(self, loss, grads_w, grads_b) -> tuple[float, bool]:
        """Clip by the one gradient norm, descend, and sync on schedule."""
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
        self._train_steps += 1
        if self._train_steps % self.sync_period == 0:
            self.sync_target()
        return loss, bool(clipped)

    def train_step(self, features, actions, rewards, next_features) -> tuple[float, bool]:
        """One descent step on a replay minibatch; returns (loss, clipped?)."""
        targets = self.td_target(rewards, next_features)
        return self.apply(*self.loss_and_gradients(features, actions, targets))


def rescoring_train_agent(env, approx, episodes, steps_per_episode, seeds, warmup=rl.WARMUP):
    """``rl.train_agent`` scoring all ``BATCH_SIZE`` next states of every minibatch anew."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    capacity = min(rl.REPLAY_CAPACITY, episodes * steps_per_episode)
    memory = rl.ReplayMemory(capacity, env.state_dtype, env.n_runs)

    def learn(state, actions, rewards, next_state):
        memory.push(env.pack(state), actions, rewards, env.pack(next_state))
        if len(memory) < max(rl.BATCH_SIZE, warmup):
            return None
        rows, actions, rewards = memory.sample(rngs, rl.BATCH_SIZE)
        features = env.features_of(memory.records(rows, rows))
        next_max = approx.target_max(features[:, rl.BATCH_SIZE :])
        return approx.train_step(features[:, : rl.BATCH_SIZE], actions, rewards, next_max)[0]

    def greedy(state, runs):
        values = approx.masked(approx.forward(state.features[:, None]))
        return np.argmax(values[runs, 0], axis=-1)

    return rl._rollout(
        env, [approx] * env.n_runs, episodes, steps_per_episode, rngs,
        epsilon=approx.epsilon, greedy=greedy, learn=learn,
    )
