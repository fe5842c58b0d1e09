"""User position generation and sequence prediction.

Positions are proposed uniformly over the service region's bounding box and
accepted by rejection, ground truth between slots follows a constant-speed
walk with Gaussian heading perturbation, and future positions are forecast
by a single-cell LSTM per user (all users' cells stacked on a leading user
axis and trained in lockstep):

    i = sigmoid(W_i [x; h] + b_i)      f = sigmoid(W_f [x; h] + b_f)
    o = sigmoid(W_o [x; h] + b_o)      g = tanh(W_g [x; h] + b_g)
    c' = f * c + i * g                 h' = o * tanh(c')

with a linear head on the last hidden state, trained by backpropagation
through time on mean-squared error with plain gradient descent.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from types import SimpleNamespace

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


def rejection_sample_positions(region: ServiceRegion, n: int, seed=None) -> np.ndarray:
    """Sample ``n`` positions by rejection against the region.

    Proposals are uniform over the bounding box; a proposal survives when it
    lies in the region.  A sustained acceptance rate below 1e-4 raises
    :class:`EnvelopeTooLooseError`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return np.empty((0, 2))
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
        # One unused uniform per proposal keeps the random stream, and so
        # every scenario drawn from it, as it was.
        rng.uniform(size=chunk)
        proposed += chunk
        good = pts[region.contains_many(pts)]
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

    def __post_init__(self):
        # A non-finite step is never inside the region: every slot would
        # spend all its heading redraws and leave the user standing.
        for name in ("speed", "heading_noise_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} {value!r} must be finite and >= 0")

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
    """Single LSTM cell plus linear head per user, every user in lockstep.

    Each parameter carries a leading user axis of length ``n_users``:
    ``w_gates`` (U, 4H, D+H) stacks the input/forget/output/candidate gate
    blocks against the concatenated [input; hidden] vector, ``b_gates`` is
    (U, 4H), and ``w_out`` (U, D, H) / ``b_out`` (U, D) form the linear head
    read off the final hidden state.  The users share no parameter, so slice
    u is user u's own predictor and one predictor is ``n_users=1``.  Windows
    and targets carry the same leading user axis; ``predictor[u]`` is user
    u's one-user view of the shared weights.

    A forward pass caches its steps gate-major: each step's [x; h] operand
    is one contiguous (U, B, D+H) slot of a (T+1, U, B, D+H) buffer, each
    step's activated gates one (4, U, B, H) block (i, f, o, g), so every
    elementwise op runs on contiguous arrays while each matmul reads the
    layout a plain concatenation would give it.  The gate sigmoid's
    ``exp(-|z|)`` goes to a (3, U, B, H) scratch block.  These work arrays
    are kept between calls with the same (U, B, T) and overwritten by the
    next.  ``train_step`` scales and applies each gradient in place.
    """

    def __init__(
        self,
        input_dim: int = 2,
        hidden_dim: int = 16,
        window_len: int = 8,
        learning_rate: float = 0.05,
        clip_norm: float = 10.0,
        n_users: int = 1,
        seed=None,
    ):
        if min(input_dim, hidden_dim, window_len, n_users) < 1:
            raise ValueError("dimensions, window length and user count must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.window_len = window_len
        self.n_users = n_users
        self.learning_rate = float(learning_rate)
        self.clip_norm = float(clip_norm)
        self._work_shape = None
        rng = as_rng(seed)
        lim = 1.0 / np.sqrt(hidden_dim + input_dim)
        self.w_gates = np.empty((n_users, 4 * hidden_dim, input_dim + hidden_dim))
        self.b_gates = np.zeros((n_users, 4 * hidden_dim))
        self.w_out = np.empty((n_users, input_dim, hidden_dim))
        self.b_out = np.zeros((n_users, input_dim))
        # User-major draws: each user's gate block, then its head.
        for u in range(n_users):
            self.w_gates[u] = rng.uniform(-lim, lim, size=self.w_gates.shape[1:])
            self.w_out[u] = rng.uniform(-lim, lim, size=self.w_out.shape[1:])

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "w_gates": self.w_gates,
            "b_gates": self.b_gates,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }

    def __getitem__(self, user: int) -> "RecurrentPredictor":
        """User ``user``'s predictor: a one-user view sharing these weights."""
        user = range(self.n_users)[user]
        view = copy.copy(self)
        view.n_users = 1
        for name, value in self.parameters().items():
            setattr(view, name, value[user : user + 1])
        return view

    # -- forward ------------------------------------------------------------

    def _work_arrays(self, u: int, b: int, t: int) -> SimpleNamespace:
        """Work arrays for (U, B, T) batches, kept while that shape repeats.

        Fresh arrays of this size come back from the allocator as new pages,
        and every call would pay a page fault for each page it touches.
        """
        if self._work_shape != (u, b, t):
            hd, d = self.hidden_dim, self.input_dim
            self._work_shape = (u, b, t)
            self._work = SimpleNamespace(
                xh=np.empty((t + 1, u, b, d + hd)),
                c=np.empty((t + 1, u, b, hd)),
                acts=np.empty((t, 4, u, b, hd)),
                tanh_c=np.empty((t, u, b, hd)),
                z=np.empty((u, b, 4 * hd)),
                b_gates=np.empty((4, u, b, hd)),
                sig_exp=np.empty((3, u, b, hd)),
                cell=np.empty((u, b, hd)),
                sig_rest=np.empty((t, 3, u, b, hd)),
                tanh_c_slope=np.empty((t, u, b, hd)),
                g_slope=np.empty((t, u, b, hd)),
                d_sig=np.empty((3, u, b, hd)),
                dz=np.empty((u, b, 4 * hd)),
                dh=np.empty((u, b, hd)),
                dc=np.empty((u, b, hd)),
                w_term=np.empty((u, 4 * hd, d + hd)),
                b_term=np.empty((u, 4 * hd)),
            )
        return self._work

    def _forward_batch(self, windows: np.ndarray):
        """Outputs (U, B, D), the last hidden state and the gate-major cache.

        ``xh[s]`` is step s's contiguous [x; h] operand and ``xh[t]`` holds the
        final hidden state; ``c[s]`` is the cell state entering step s,
        ``acts[s]`` the activated (i, f, o, g) gates, gate first, and
        ``tanh_c[s]`` the tanh of step s's new cell state.
        """
        u, b, t, d = windows.shape
        hd = self.hidden_dim
        ws = self._work_arrays(u, b, t)
        xh, c, acts, tanh_c = ws.xh, ws.c, ws.acts, ws.tanh_c
        xh[:t, ..., :d] = windows.transpose(2, 0, 1, 3)
        xh[0, ..., d:] = 0.0
        c[0] = 0.0
        z_gates = ws.z.reshape(u, b, 4, hd).transpose(2, 0, 1, 3)
        w_gates_t = self.w_gates.transpose(0, 2, 1)
        # The bias spread over the batch, gate-major: adding a contiguous
        # operand beats broadcasting it along the strided product.
        ws.b_gates[...] = self.b_gates.reshape(u, 4, 1, hd).transpose(1, 0, 2, 3)
        for step in range(t):
            np.matmul(xh[step], w_gates_t, out=ws.z)
            a = acts[step]
            np.add(z_gates, ws.b_gates, out=a)
            _sigmoid(a[:3], out=a[:3], scratch=ws.sig_exp)
            np.tanh(a[3], out=a[3])
            i, f, o, g = a
            np.multiply(f, c[step], out=c[step + 1])
            np.multiply(i, g, out=ws.cell)
            c[step + 1] += ws.cell
            np.tanh(c[step + 1], out=tanh_c[step])
            np.multiply(o, tanh_c[step], out=xh[step + 1, ..., d:])
        # A contiguous copy: a strided operand can change the matmul's bits.
        h_last = xh[t, ..., d:].copy()
        y = h_last @ self.w_out.transpose(0, 2, 1) + self.b_out[:, None, :]
        return y, h_last, ws

    def forward(self, windows) -> np.ndarray:
        """Each user's prediction from its own window: (U, window_len, D) -> (U, D)."""
        w = np.asarray(windows, dtype=float)
        shape = (self.n_users, self.window_len, self.input_dim)
        if w.shape != shape:
            raise ValueError(f"windows must be {shape}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("window contains non-finite values")
        y, _, _ = self._forward_batch(w[:, None])
        return y[:, 0]

    # -- training -----------------------------------------------------------

    def loss_and_gradients(self, windows, targets):
        """Per-user MSE losses (U,) and their analytic gradients (no update).

        ``windows`` is (U, B, window_len, D) and ``targets`` (U, B, D) with
        B >= 1; user u's loss and gradient slice depend on its own batch alone.
        """
        windows = np.asarray(windows, dtype=float)
        targets = np.asarray(targets, dtype=float)
        u, hd, d = self.n_users, self.hidden_dim, self.input_dim
        b = windows.shape[1] if windows.ndim == 4 else 0
        if windows.shape != (u, b, self.window_len, d) or b == 0:
            raise ValueError(
                f"windows must be a non-empty (n_users, batch, window_len, input_dim) = "
                f"({u}, B, {self.window_len}, {d}) array, got {windows.shape}"
            )
        if targets.shape != (u, b, d):
            raise ValueError(
                f"targets must be (n_users, batch, input_dim) = {(u, b, d)}, "
                f"got {targets.shape}"
            )

        y, h_last, ws = self._forward_batch(windows)
        err = y - targets
        # np.mean's sum and division, without its wrapper.
        losses = np.add.reduce(np.square(err).reshape(u, -1), axis=1) / (b * d)

        dy = 2.0 * err / (b * d)
        grads = {
            "w_out": dy.transpose(0, 2, 1) @ h_last,
            "b_out": np.add.reduce(dy, axis=1),
            "w_gates": np.zeros(self.w_gates.shape),
            "b_gates": np.zeros(self.b_gates.shape),
        }
        grad_w, grad_b = grads["w_gates"], grads["b_gates"]
        acts, tanh_c, dz, d_sig, dh, dc = ws.acts, ws.tanh_c, ws.dz, ws.d_sig, ws.dh, ws.dc
        # Every step's slope factors, one pass each.
        np.subtract(1.0, acts[:, :3], out=ws.sig_rest)
        np.square(tanh_c, out=ws.tanh_c_slope)
        np.subtract(1.0, ws.tanh_c_slope, out=ws.tanh_c_slope)
        np.square(acts[:, 3], out=ws.g_slope)
        np.subtract(1.0, ws.g_slope, out=ws.g_slope)
        # dz is each step's (U, B, 4H) matmul operand; dz_gates is its
        # gate-major view, written one gate block at a time.
        t = len(acts)
        dz_gates = dz.reshape(u, b, 4, hd).transpose(2, 0, 1, 3)
        w_h = self.w_gates[:, :, d:]
        np.matmul(dy, self.w_out, out=dh)
        dc[...] = 0.0
        for step in reversed(range(t)):
            i, f, o, g = acts[step]
            np.multiply(dh, tanh_c[step], out=d_sig[2])
            np.multiply(dh, o, out=ws.cell)
            ws.cell *= ws.tanh_c_slope[step]
            dc += ws.cell
            np.multiply(dc, g, out=d_sig[0])
            np.multiply(dc, ws.c[step], out=d_sig[1])
            d_sig *= acts[step, :3]
            np.multiply(d_sig, ws.sig_rest[step], out=dz_gates[:3])
            np.multiply(dc, i, out=ws.cell)
            np.multiply(ws.cell, ws.g_slope[step], out=dz_gates[3])
            np.matmul(dz.transpose(0, 2, 1), ws.xh[step], out=ws.w_term)
            grad_w += ws.w_term
            grad_b += np.add.reduce(dz, axis=1, out=ws.b_term)
            # Step 0's hidden and cell gradients would feed nothing.
            if step:
                np.matmul(dz, w_h, out=dh)
                dc *= f
        return losses, grads

    def train_step(self, windows, targets) -> tuple[np.ndarray, int]:
        """One gradient-descent update of every user.

        Each user's gradient is clipped by its own norm.  Returns the
        per-user pre-update losses (U,) and how many users were clipped.
        Windows must be (n_users, B, window_len, input_dim) and targets
        (n_users, B, input_dim), with B >= 1.
        """
        losses, grads = self.loss_and_gradients(windows, targets)
        u = self.n_users
        # Summed in the order w_out, b_out, w_gates, b_gates.
        norms = np.sqrt(
            sum(np.add.reduce(np.square(g).reshape(u, -1), axis=1) for g in grads.values())
        )
        clipped = norms > self.clip_norm
        if clipped.any():
            scale = np.ones(u)
            scale[clipped] = self.clip_norm / norms[clipped]
            for g in grads.values():
                g *= scale.reshape((-1,) + (1,) * (g.ndim - 1))
        for name, grad in grads.items():
            grad *= self.learning_rate
            param = getattr(self, name)
            param -= grad
        params = self.parameters().values()
        if not all(np.isfinite(v).all() for v in params):
            finite = np.all(
                [np.isfinite(v.reshape(u, -1)).all(axis=1) for v in params], axis=0
            )
            raise FloatingPointError(
                f"predictor parameters of users {np.flatnonzero(~finite).tolist()} became non-finite"
            )
        return losses, int(clipped.sum())


def _sigmoid(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Logistic function ``exp(min(x, 0)) / (1 + exp(-|x|))`` with one ``exp``.

    ``e = exp(-|x|)`` is the only ``exp`` call: it is ``exp(min(x, 0))``
    where x <= 0 and at most 1 where x > 0, so the numerator is
    ``max(e, x > 0)``.  ``exp`` only ever sees a non-positive argument.
    ``out`` may be ``x``; ``scratch``, an array of x's shape, receives
    ``e`` and is overwritten.
    """
    e = np.abs(x, out=scratch)
    np.negative(e, out=e)
    num = np.greater(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(e, out=e)
    np.maximum(e, num, out=num)
    e += 1.0
    return np.divide(num, e, out=num)


def sliding_windows(positions: np.ndarray, window_len: int):
    """All (window, next-position) training pairs from one trajectory.

    Leading axes (one per user, say) carry through: (..., n, D) positions
    give (..., n - window_len, window_len, D) windows and (..., n -
    window_len, D) targets.
    """
    pos = np.asarray(positions, dtype=float)
    lead, n, d = pos.shape[:-2], pos.shape[-2], pos.shape[-1]
    if n < window_len + 1:
        return np.empty(lead + (0, window_len, d)), np.empty(lead + (0, d))
    windows = np.stack(
        [pos[..., t : t + window_len, :] for t in range(n - window_len)], axis=-3
    )
    return windows, pos[..., window_len:, :]


def _window_scales(delta_windows: np.ndarray) -> np.ndarray:
    """Per-window RMS displacement magnitude, guarded away from zero."""
    return np.sqrt(np.mean(np.sum(delta_windows**2, axis=-1), axis=-1)) + 1e-12


def displacement_pairs(positions_norm: np.ndarray, window_len: int):
    """Training pairs over RMS-normalized successive displacements.

    The window rows are the last ``window_len`` position deltas divided by
    the window's RMS step size, and the target is the next delta on the
    same scale.  Absolute coordinates and the absolute speed never enter
    the network: straight motion reduces to "copy the last (unit) row".
    Leading axes carry through as in :func:`sliding_windows`.
    """
    deltas = np.diff(np.asarray(positions_norm, dtype=float), axis=-2)
    windows, targets = sliding_windows(deltas, window_len)
    scales = _window_scales(windows)
    return windows / scales[..., None, None], targets / scales[..., None]


def _next_position(predictor: RecurrentPredictor, scaled_windows) -> np.ndarray:
    """Each user's one-step forecast in scaled coordinates.

    ``scaled_windows`` is (U, window_len + 1, D) and the result (U, D).  A
    window's RMS-normalized deltas feed the predictor, and the forecast
    displacement extends the window's last position.
    """
    deltas = np.diff(scaled_windows, axis=1)
    scales = _window_scales(deltas)[:, None]
    return scaled_windows[:, -1] + predictor.forward(deltas / scales[..., None]) * scales


def predict_next(
    predictor: RecurrentPredictor, scaler: PositionScaler, windows_m
) -> np.ndarray:
    """Each user's one-step forecast in meters from its last positions.

    ``windows_m`` is (U, window_len + 1, 2); the result is (U, 2).
    """
    return scaler.denormalize(_next_position(predictor, scaler.normalize(windows_m)))


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
) -> np.ndarray:
    """Each user's mean squared one-step error (meters^2) over all its windows.

    ``positions`` is (U, n, 2), one trajectory per user; the result is (U,).
    """
    pos = np.asarray(positions, dtype=float)
    w = predictor.window_len + 1
    n = pos.shape[1]
    if n < w + 1:
        raise ValueError("trajectory shorter than one window")
    preds = np.stack(
        [predict_next(predictor, scaler, pos[:, t : t + w]) for t in range(n - w)], axis=1
    )
    return np.mean(np.sum((preds - pos[:, w:]) ** 2, axis=-1), axis=-1)


def _draw_minibatches(rng, n_users: int, n_pairs: int, steps: int):
    """Every user's minibatch picks (U, steps, batch) and rotation angles (U, steps).

    Drawn user-major, each step's ``integers`` before its ``uniform``: the
    stream order of training the users one after another.
    """
    size = min(PREDICTOR_BATCH_SIZE, n_pairs)
    picks = np.empty((n_users, steps, size), dtype=np.int64)
    angles = np.empty((n_users, steps))
    for u in range(n_users):
        for step in range(steps):
            picks[u, step] = rng.integers(0, n_pairs, size=size)
            # The same draw and value as rng.uniform(0.0, TWO_PI), at a
            # third of its cost.
            angles[u, step] = TWO_PI * rng.random()
    return picks, angles


@dataclass(frozen=True, eq=False)
class Algorithm1Result:
    """Accumulated sample trajectories plus the trained per-user predictors.

    ``trajectories[u]`` holds user u's first ``n_max`` positions, an
    (U, n_max, 2) array; ``predictors`` is one lockstep predictor with a
    user axis (``predictors[u]`` is user u's); ``predictions[u]`` lists
    user u's forecast blocks, one per round.
    """

    trajectories: np.ndarray
    predictors: RecurrentPredictor
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
    Every round trains each user's predictor on all samples revealed so far,
    forecasts the next block autoregressively (block size = current sample
    count, truncated to land exactly on ``n_max``), then extends the sample
    set with the matching ground-truth block, doubling it per round.  With
    ``n_max == n0`` no training round runs and the initial samples are
    returned as-is.

    All users train and forecast in lockstep on one predictor with a user
    axis.  A round first draws every user's minibatch picks and rotation
    angles in the order one-user-after-another training would consume them,
    so the results equal training each user alone, bit for bit.

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
    truths = np.stack([t[:n_max] for t in truths])
    predictors = RecurrentPredictor(
        input_dim=2,
        hidden_dim=PREDICTOR_HIDDEN_DIM,
        window_len=window_len,
        learning_rate=PREDICTOR_LEARNING_RATE,
        n_users=n_users,
        seed=rng,
    )
    users = np.arange(n_users)[:, None]
    blocks = []

    revealed = n0
    while revealed < n_max:
        block = min(revealed, n_max - revealed)
        known = scaler.normalize(truths[:, :revealed])
        windows, targets = displacement_pairs(known, window_len)
        picks, angles = _draw_minibatches(
            rng, n_users, windows.shape[1], train_steps_per_round
        )
        cos, sin = np.cos(angles), np.sin(angles)
        rots = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
        for step in range(train_steps_per_round):
            pick, rot_t = picks[:, step], rots[:, step].transpose(0, 2, 1)
            predictors.train_step(
                windows[users, pick] @ rot_t[:, None], targets[users, pick] @ rot_t
            )
        window = known[:, -(window_len + 1) :]
        block_pred = np.empty((n_users, block, 2))
        for step in range(block):
            nxt = _next_position(predictors, window)
            block_pred[:, step] = scaler.denormalize(nxt)
            window = np.concatenate([window[:, 1:], nxt[:, None]], axis=1)
        blocks.append(block_pred)
        revealed += block

    return Algorithm1Result(
        trajectories=truths,
        predictors=predictors,
        predictions=[[b[u] for b in blocks] for u in range(n_users)],
        scaler=scaler,
        rounds=len(blocks),
    )
