"""User position generation and sequence prediction.

Positions are proposed uniformly over the service region's bounding box and
accepted by rejection (optionally against a bounded target density), ground
truth between slots follows a constant-speed walk with Gaussian heading
perturbation, and future positions are forecast by a single-cell LSTM

    i = sigmoid(W_i [x; h] + b_i)      f = sigmoid(W_f [x; h] + b_f)
    o = sigmoid(W_o [x; h] + b_o)      g = tanh(W_g [x; h] + b_g)
    c' = f * c + i * g                 h' = o * tanh(c')

with a linear head on the last hidden state, trained by backpropagation
through time on mean-squared error with plain gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import TWO_PI, ServiceRegion, as_rng

MIN_ACCEPTANCE_RATE = 1e-4
ACCEPTANCE_PROBE_BUDGET = 10_000

# Algorithm 1's per-user predictor and its minibatch training.
PREDICTOR_HIDDEN_DIM = 16
PREDICTOR_LEARNING_RATE = 0.08
PREDICTOR_BATCH_SIZE = 16


class EnvelopeTooLooseError(RuntimeError):
    """Rejection sampling accepted almost nothing; the proposal bound is too loose."""


def rejection_sample_positions(
    region: ServiceRegion,
    n: int,
    seed=None,
    density=None,
    density_bound: float | None = None,
) -> np.ndarray:
    """Sample ``n`` positions by rejection against the region (and a density).

    Proposals are uniform over the bounding box; a proposal survives when it
    lies in the region and, if ``density`` is given, when u < f(x) / bound
    for u ~ U(0, 1).  The caller guarantees ``density_bound`` dominates the
    density on the region.  A sustained acceptance rate below 1e-4 raises
    :class:`EnvelopeTooLooseError`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return np.empty((0, 2))
    if density is not None and not (density_bound and density_bound > 0):
        raise ValueError("a positive density_bound is required with a density")
    rng = as_rng(seed)
    xmin, ymin, xmax, ymax = region.bounds

    accepted: list[np.ndarray] = []
    taken = 0
    proposed = 0
    chunk = max(512, 2 * n)
    while taken < n:
        pts = np.column_stack(
            [rng.uniform(xmin, xmax, size=chunk), rng.uniform(ymin, ymax, size=chunk)]
        )
        u = rng.uniform(size=chunk)
        proposed += chunk
        keep = region.contains_many(pts)
        if density is not None:
            keep &= u < np.asarray(density(pts), dtype=float) / density_bound
        good = pts[keep]
        accepted.append(good)
        taken += good.shape[0]
        if proposed >= ACCEPTANCE_PROBE_BUDGET and taken / proposed < MIN_ACCEPTANCE_RATE:
            raise EnvelopeTooLooseError(
                f"accepted {taken} of {proposed} proposals; tighten the envelope"
            )
    return np.concatenate(accepted, axis=0)[:n]


@dataclass(frozen=True)
class ConstantVelocityModel:
    """Constant-speed walk with Gaussian heading perturbation per slot."""

    speed: float = 1.5
    heading_noise_std: float = 0.05

    def simulate(
        self, region: ServiceRegion, start, n_steps: int, seed=None
    ) -> np.ndarray:
        """Roll ``n_steps`` moves from ``start``; returns (n_steps + 1, 2).

        Steps that would leave the region are rejected and the heading
        redrawn uniformly; a cornered user stays put for that slot.
        """
        rng = as_rng(seed)
        pos = np.asarray(start, dtype=float).reshape(2).copy()
        if not region.contains(pos):
            raise ValueError(f"start {pos.tolist()} is outside the region")
        heading = rng.uniform(0.0, 2.0 * np.pi)
        out = np.empty((n_steps + 1, 2))
        out[0] = pos
        for t in range(1, n_steps + 1):
            heading += self.heading_noise_std * rng.standard_normal()
            for _ in range(200):
                step = self.speed * np.array([np.cos(heading), np.sin(heading)])
                if region.contains(pos + step):
                    pos = pos + step
                    break
                heading = rng.uniform(0.0, 2.0 * np.pi)
            out[t] = pos
        return out


@dataclass(frozen=True, eq=False)
class PositionScaler:
    """Affine map between region coordinates and the unit box [-1, 1]^2."""

    center: np.ndarray
    half_span: np.ndarray

    @classmethod
    def from_region(cls, region: ServiceRegion) -> "PositionScaler":
        xmin, ymin, xmax, ymax = region.bounds
        return cls(
            center=np.array([(xmin + xmax) / 2.0, (ymin + ymax) / 2.0]),
            half_span=np.array([(xmax - xmin) / 2.0, (ymax - ymin) / 2.0]),
        )

    def normalize(self, positions) -> np.ndarray:
        return (np.asarray(positions, dtype=float) - self.center) / self.half_span

    def denormalize(self, positions) -> np.ndarray:
        return np.asarray(positions, dtype=float) * self.half_span + self.center


class RecurrentPredictor:
    """Single LSTM cell plus linear head; predicts the next 2-D position.

    Weight layout: ``w_gates`` stacks the input/forget/output/candidate gate
    blocks (4H rows) against the concatenated [input; hidden] vector;
    ``w_out``/``b_out`` form the linear head read off the final hidden state.
    """

    def __init__(
        self,
        input_dim: int = 2,
        hidden_dim: int = 16,
        window_len: int = 8,
        learning_rate: float = 0.05,
        clip_norm: float = 10.0,
        seed=None,
    ):
        if min(input_dim, hidden_dim, window_len) < 1:
            raise ValueError("dimensions and window length must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.window_len = window_len
        self.learning_rate = float(learning_rate)
        self.clip_norm = float(clip_norm)
        rng = as_rng(seed)
        lim = 1.0 / np.sqrt(hidden_dim + input_dim)
        self.w_gates = rng.uniform(-lim, lim, size=(4 * hidden_dim, input_dim + hidden_dim))
        self.b_gates = np.zeros(4 * hidden_dim)
        self.w_out = rng.uniform(-lim, lim, size=(input_dim, hidden_dim))
        self.b_out = np.zeros(input_dim)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "w_gates": self.w_gates,
            "b_gates": self.b_gates,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }

    # -- forward ------------------------------------------------------------

    def _forward_batch(self, windows: np.ndarray):
        b, t, d = windows.shape
        hd = self.hidden_dim
        h = np.zeros((b, hd))
        c = np.zeros((b, hd))
        cache = []
        for step in range(t):
            x = windows[:, step, :]
            z = np.concatenate([x, h], axis=1) @ self.w_gates.T + self.b_gates
            gates = _sigmoid(z[:, : 3 * hd])
            i, f, o = gates[:, :hd], gates[:, hd : 2 * hd], gates[:, 2 * hd :]
            g = np.tanh(z[:, 3 * hd :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            cache.append((x, h, c, i, f, o, g, tanh_c))
            h, c = h_new, c_new
        y = h @ self.w_out.T + self.b_out
        return y, h, cache

    def forward(self, window) -> np.ndarray:
        """Prediction for one window of ``window_len`` positions."""
        w = np.asarray(window, dtype=float)
        if w.ndim != 2 or w.shape != (self.window_len, self.input_dim):
            raise ValueError(
                f"window must be ({self.window_len}, {self.input_dim}), got {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("window contains non-finite values")
        y, _, _ = self._forward_batch(w[None, :, :])
        return y[0]

    # -- training -----------------------------------------------------------

    def loss_and_gradients(self, windows, targets):
        """MSE loss and its analytic gradients over a batch (no update)."""
        windows = np.asarray(windows, dtype=float)
        targets = np.asarray(targets, dtype=float)
        b = windows.shape[0]
        hd = self.hidden_dim
        d = self.input_dim

        y, h_last, cache = self._forward_batch(windows)
        err = y - targets
        loss = float(np.mean(err**2))

        dy = 2.0 * err / err.size
        grads = {
            "w_out": dy.T @ h_last,
            "b_out": dy.sum(axis=0),
            "w_gates": np.zeros_like(self.w_gates),
            "b_gates": np.zeros_like(self.b_gates),
        }
        dh = dy @ self.w_out
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
            dh = dz @ self.w_gates[:, d:]
            dc = dc * f
        return loss, grads

    def train_step(self, windows, targets) -> tuple[float, bool]:
        """One gradient-descent update; returns (pre-update loss, clipped?)."""
        if len(windows) == 0:
            raise ValueError("batch must be non-empty")
        loss, grads = self.loss_and_gradients(windows, targets)
        norm = np.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        clipped = norm > self.clip_norm
        if clipped:
            scale = self.clip_norm / norm
            grads = {k: g * scale for k, g in grads.items()}
        for name, grad in grads.items():
            getattr(self, name)[...] -= self.learning_rate * grad
        if not all(np.all(np.isfinite(v)) for v in self.parameters().values()):
            raise FloatingPointError("predictor parameters became non-finite")
        return loss, clipped


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; ``exp`` only ever sees a non-positive argument."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sliding_windows(positions: np.ndarray, window_len: int):
    """All (window, next-position) training pairs from one trajectory."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    if n < window_len + 1:
        return np.empty((0, window_len, pos.shape[1])), np.empty((0, pos.shape[1]))
    windows = np.stack([pos[t : t + window_len] for t in range(n - window_len)])
    targets = pos[window_len:]
    return windows, targets


def _window_scales(delta_windows: np.ndarray) -> np.ndarray:
    """Per-window RMS displacement magnitude, guarded away from zero."""
    return np.sqrt(np.mean(np.sum(delta_windows**2, axis=-1), axis=-1)) + 1e-12


def displacement_pairs(positions_norm: np.ndarray, window_len: int):
    """Training pairs over RMS-normalized successive displacements.

    The window rows are the last ``window_len`` position deltas divided by
    the window's RMS step size, and the target is the next delta on the
    same scale.  Absolute coordinates and the absolute speed never enter
    the network: straight motion reduces to "copy the last (unit) row".
    """
    deltas = np.diff(np.asarray(positions_norm, dtype=float), axis=0)
    windows, targets = sliding_windows(deltas, window_len)
    scales = _window_scales(windows)
    return windows / scales[:, None, None], targets / scales[:, None]


def _next_position(predictor: RecurrentPredictor, scaled_window) -> np.ndarray:
    """One-step forecast in scaled coordinates from ``window_len + 1`` positions.

    The window's RMS-normalized deltas feed the predictor, and the forecast
    displacement extends the last position.
    """
    deltas = np.diff(scaled_window, axis=0)
    scale = float(_window_scales(deltas[None, :, :])[0])
    return scaled_window[-1] + predictor.forward(deltas / scale) * scale


def predict_next(
    predictor: RecurrentPredictor, scaler: PositionScaler, window_m
) -> np.ndarray:
    """One-step position forecast in meters from ``window_len + 1`` past positions."""
    return scaler.denormalize(_next_position(predictor, scaler.normalize(window_m)))


def persistence_mse(positions: np.ndarray, window_len: int) -> float:
    """Baseline error of forecasting each next position as the previous one.

    Evaluated at the same prediction instants :func:`one_step_mse` uses for
    a predictor with the given ``window_len``.
    """
    pos = np.asarray(positions, dtype=float)
    targets = pos[window_len + 1 :]
    last = pos[window_len:-1]
    return float(np.mean(np.sum((targets - last) ** 2, axis=1)))


def one_step_mse(
    predictor: RecurrentPredictor, scaler: PositionScaler, positions: np.ndarray
) -> float:
    """Mean squared one-step error (meters^2) over all windows of a trajectory."""
    windows, targets = sliding_windows(positions, predictor.window_len + 1)
    if windows.shape[0] == 0:
        raise ValueError("trajectory shorter than one window")
    preds = np.stack([predict_next(predictor, scaler, w) for w in windows])
    return float(np.mean(np.sum((preds - targets) ** 2, axis=1)))


@dataclass(frozen=True, eq=False)
class Algorithm1Result:
    """Accumulated sample trajectories plus the trained per-user predictors.

    ``trajectories[u]`` holds user u's first ``n_max`` positions, (n_max, 2).
    """

    trajectories: list
    predictors: list
    predictions: list
    scaler: PositionScaler
    rounds: int


def run_algorithm1(
    region: ServiceRegion,
    n_users: int,
    n0: int,
    n_max: int,
    seed=None,
    motion: ConstantVelocityModel | None = None,
    window_len: int = 8,
    train_steps_per_round: int = 600,
    trajectories=None,
) -> Algorithm1Result:
    """Alternate training on accumulated samples with block position prediction.

    Each user starts from a rejection-sampled position and moves per the
    motion model; the first ``n0`` positions form the initial sample set.
    Every round trains that user's predictor on all samples revealed so far,
    forecasts the next block autoregressively (block size = current sample
    count, truncated to land exactly on ``n_max``), then extends the sample
    set with the matching ground-truth block, doubling it per round.  With
    ``n_max == n0`` no training round runs and the initial samples are
    returned as-is.

    Training happens in scaled [-1, 1] coordinates over displacement
    sequences (see :func:`displacement_pairs`); predictions are reported
    back in meters.  Batches are randomly rotated so the learned step
    extrapolation is direction-equivariant rather than tied to the
    headings seen so far.
    """
    if n0 < window_len + 2:
        raise ValueError("n0 must be at least window_len + 2")
    if n_max < n0:
        raise ValueError("n_max must be >= n0")
    rng = as_rng(seed)
    motion = motion or ConstantVelocityModel()
    scaler = PositionScaler.from_region(region)

    if trajectories is None:
        starts = rejection_sample_positions(region, n_users, rng)
        truths = [
            motion.simulate(region, starts[u], n_max - 1, rng) for u in range(n_users)
        ]
    else:
        # Caller-supplied ground truth (e.g. the experiment pipeline); only
        # the first n_max rows count toward the sample budget.
        truths = [np.asarray(t, dtype=float) for t in trajectories]
        if len(truths) != n_users:
            raise ValueError(f"expected {n_users} trajectories, got {len(truths)}")
        for t in truths:
            if t.shape[0] < n_max:
                raise ValueError("each supplied trajectory needs at least n_max rows")
    predictors = [
        RecurrentPredictor(
            input_dim=2,
            hidden_dim=PREDICTOR_HIDDEN_DIM,
            window_len=window_len,
            learning_rate=PREDICTOR_LEARNING_RATE,
            seed=rng,
        )
        for _ in range(n_users)
    ]
    predictions: list[list[np.ndarray]] = [[] for _ in range(n_users)]

    revealed = n0
    rounds = 0
    while revealed < n_max:
        block = min(revealed, n_max - revealed)
        for u in range(n_users):
            pred = predictors[u]
            known = scaler.normalize(truths[u][:revealed])
            windows, targets = displacement_pairs(known, window_len)
            for _ in range(train_steps_per_round):
                size = min(PREDICTOR_BATCH_SIZE, windows.shape[0])
                pick = rng.integers(0, windows.shape[0], size=size)
                ang = rng.uniform(0.0, TWO_PI)
                rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
                pred.train_step(windows[pick] @ rot.T, targets[pick] @ rot.T)
            window = known[-(window_len + 1) :].copy()
            block_pred = np.empty((block, 2))
            for step in range(block):
                nxt = _next_position(pred, window)
                block_pred[step] = scaler.denormalize(nxt)
                window = np.vstack([window[1:], nxt])
            predictions[u].append(block_pred)
        revealed += block
        rounds += 1

    return Algorithm1Result(
        trajectories=[truth[:n_max] for truth in truths],
        predictors=predictors,
        predictions=predictions,
        scaler=scaler,
        rounds=rounds,
    )
