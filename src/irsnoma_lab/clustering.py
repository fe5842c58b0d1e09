"""K-means-seeded Gaussian mixture clustering of user channel state.

Mixture over M isotropic components in feature space:

    P(x) = sum_m w_m N(x | mu_m, v_m I),
    log N(x | mu, v I) = -d/2 log(2 pi v) - ||x - mu||^2 / (2 v)

E-step:  resp[l, m] = w_m N(x_l | m) / sum_m' w_m' N(x_l | m')
M-step:  mu_m = sum_l resp * x_l / sum_l resp
         w_m  = sum_l resp / n
         v_m  = sum_l resp * ||x_l - mu_m||^2 / (d * sum_l resp)

Channel vectors are unit-normalized and embedded as real features by
concatenating real and imaginary parts, which preserves both the per-element
gain profile and the correlation structure the rough partition gates on.
All densities are evaluated in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import as_rng, row_norms

VARIANCE_FLOOR = 1e-10
DEFAULT_EPSILON = 1e-15
DEFAULT_GAIN_THRESHOLD = 0.3  # rho_1
DEFAULT_CORRELATION_THRESHOLD = 0.7  # rho_2
LLOYD_MAX_ROUNDS = 100
EM_MAX_ITER = 500


class DegenerateCsiError(ValueError):
    """A user reported an identically zero channel."""


@dataclass(frozen=True, eq=False)
class CsiFeatureSet:
    """Unit-normalized channel rows and their real feature embedding."""

    normalized: np.ndarray
    features: np.ndarray


def normalize_channels(raw) -> CsiFeatureSet:
    """Unit-normalize each user's channel and build real features.

    Features are [Re(h_norm), Im(h_norm)] per user (a 2K real vector).
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=complex))
    norms = np.linalg.norm(raw, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argmin(norms))
        raise DegenerateCsiError(f"user {bad} has a zero channel vector")
    normalized = raw / norms[:, None]
    features = np.concatenate([normalized.real, normalized.imag], axis=1)
    return CsiFeatureSet(normalized=normalized, features=features)


def _seed_gate(gate: np.ndarray, seeds: np.ndarray, rho1: float, rho2: float):
    """The rough partition's threshold gate of every row against the seed rows.

    Returns (n, M) arrays ``(qualifies, gain_diff, corr)``: ``gain_diff`` is
    the norm of the difference of elementwise magnitudes, ``corr`` the
    magnitude of the normalized inner product (0 where a norm is 0), and a
    row qualifies for a seed when ``gain_diff < rho1`` and ``corr > rho2``.
    Each reduces as 1-D ``np.linalg.norm`` and ``np.vdot`` do (see
    :func:`~irsnoma_lab.channel.row_norms`).
    """
    gain_diff = row_norms(np.abs(gate)[:, None] - np.abs(gate[seeds]))
    inner = np.abs(np.conj(gate)[:, None, None] @ gate[seeds][..., None])[..., 0, 0]
    norm = row_norms(gate)
    denom = np.multiply.outer(norm, norm[seeds])
    corr = np.divide(inner, denom, out=np.zeros(denom.shape), where=denom != 0.0)
    return (gain_diff < rho1) & (corr > rho2), gain_diff, corr


@dataclass(frozen=True, eq=False)
class GmmParams:
    """Mixture weights, component means, and isotropic variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        var = np.asarray(self.variances, dtype=float)
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"mixture weights sum to {float(w.sum())!r}, not 1")
        if np.any(w < 0):
            raise ValueError("mixture weights must be non-negative")
        if not np.all(var >= VARIANCE_FLOOR):
            raise ValueError(f"variances must be >= {VARIANCE_FLOOR}")
        if not (w.shape[0] == mu.shape[0] == var.shape[0]):
            raise ValueError("component counts disagree across parameters")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [self.weights, self.means.ravel(), self.variances]
        )

    def to_json_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }


def rough_partition(
    features,
    m_clusters: int,
    rho1: float = DEFAULT_GAIN_THRESHOLD,
    rho2: float = DEFAULT_CORRELATION_THRESHOLD,
    seed=None,
    gate_vectors=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded rough partition: threshold gate, then Lloyd iterations.

    ``m_clusters`` users are drawn as seeds.  On the first pass each
    remaining user joins a seed whose gain difference is below ``rho1`` and
    whose correlation exceeds ``rho2`` (closest qualifying seed); users with
    no qualifying seed join the nearest center.  Centers are recomputed as
    cluster means and plain nearest-center reassignment iterates until
    stable.  An emptied cluster is re-seeded from the point farthest from
    its own center.

    ``gate_vectors`` (default: the features) lets callers gate on complex
    channel rows while the centers live in real feature space.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    n = x.shape[0]
    if rho1 < 0 or rho2 < 0:
        raise ValueError("thresholds must be non-negative")
    if n < m_clusters:
        raise ValueError(f"{n} users cannot fill {m_clusters} clusters")
    gate = x if gate_vectors is None else np.atleast_2d(np.asarray(gate_vectors))
    rng = as_rng(seed)

    seeds = np.sort(rng.choice(n, size=m_clusters, replace=False))
    if m_clusters == 1:  # all in cluster 0, no gate or Lloyd round; a C-order mean as below
        return np.zeros(n, dtype=int), np.ascontiguousarray(x).mean(axis=0, keepdims=True)
    centers = x[seeds].copy()
    qualifies, _, _ = _seed_gate(gate, seeds, rho1, rho2)
    elsewhere = qualifies.any(axis=1)[:, None] & ~qualifies
    assignment = np.argmin(np.where(elsewhere, np.inf, row_norms(x[:, None] - centers)), axis=1)
    assignment[seeds] = np.arange(m_clusters)

    for _ in range(LLOYD_MAX_ROUNDS):
        for m in range(m_clusters):
            members = np.flatnonzero(assignment == m)
            if members.size:
                centers[m] = x[members].mean(axis=0)
            else:
                dist_to_own = np.linalg.norm(x - centers[assignment], axis=1)
                farthest = int(np.argmax(dist_to_own))
                centers[m] = x[farthest]
                assignment[farthest] = m
        new_assignment = np.argmin(
            np.linalg.norm(x[:, None, :] - centers[None, :, :], axis=2), axis=1
        )
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    dist_to_own = np.linalg.norm(x - centers[assignment], axis=1)
    assignment = _repair_empty_clusters(-dist_to_own, assignment, m_clusters)
    for m in range(m_clusters):
        centers[m] = x[assignment == m].mean(axis=0)
    return assignment, centers


def init_gmm(assignment, features) -> GmmParams:
    """Initial mixture parameters from a hard partition.

    Means are the cluster centers; variances the per-cluster mean squared
    deviation collapsed to an isotropic scalar (trace over dimension);
    weights the cluster occupancy fractions.  Singleton clusters fall back
    to the variance floor.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    assignment = np.asarray(assignment, dtype=int)
    n, d = x.shape
    m_clusters = int(assignment.max()) + 1
    weights = np.empty(m_clusters)
    means = np.empty((m_clusters, d))
    variances = np.empty(m_clusters)
    for m in range(m_clusters):
        members = np.flatnonzero(assignment == m)
        if members.size == 0:
            raise ValueError(f"cluster {m} is empty")
        means[m] = x[members].mean(axis=0)
        weights[m] = members.size / n
        sq = np.sum((x[members] - means[m]) ** 2) / (members.size * d)
        variances[m] = max(sq, VARIANCE_FLOOR)
    return GmmParams(weights=weights, means=means, variances=variances)


def _log_joint(params: GmmParams, x: np.ndarray) -> np.ndarray:
    """log(w_m) + log N(x_l | mu_m, v_m I), shape (n, M)."""
    d = x.shape[1]
    sq = np.sum((x[:, None, :] - params.means[None, :, :]) ** 2, axis=2)
    with np.errstate(divide="ignore"):
        log_w = np.log(params.weights)[None, :]
    return log_w - 0.5 * (
        d * np.log(2.0 * np.pi * params.variances)[None, :]
        + sq / params.variances[None, :]
    )


def logsumexp(a, axis, keepdims=False):
    """log(sum(exp(a))) along ``axis``, with the maxima summed apart.

    Repeats SciPy 1.17.1's unweighted ``special.logsumexp`` op for op, bit for
    bit; a byte-for-byte property test against SciPy pins this.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        top = a == a_max
        m = np.sum(top, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    return out if keepdims else np.squeeze(out, axis=axis)


def em_e_step(params: GmmParams, features) -> np.ndarray:
    """(n, M) posterior membership of every user under every component (log-space).

    Rows sum to one.
    """
    return _posterior(params, np.atleast_2d(np.asarray(features, dtype=float)))[0]


def _posterior(params: GmmParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and the (n, 1) per-user log-likelihoods, from one log-joint."""
    log_joint = _log_joint(params, x)
    log_norm = logsumexp(log_joint, axis=1, keepdims=True)
    return np.exp(log_joint - log_norm), log_norm


def em_m_step(resp: np.ndarray, features) -> GmmParams:
    """Closed-form parameter update given (n, M) responsibilities.

    A component that collected zero total responsibility is re-seeded at the
    point with the lowest maximum responsibility.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    r = np.asarray(resp, dtype=float)
    n, d = x.shape
    m_clusters = r.shape[1]
    totals = r.sum(axis=0)

    means = np.empty((m_clusters, d))
    variances = np.empty(m_clusters)
    weights = np.empty(m_clusters)
    reseeded = []
    for m in range(m_clusters):
        if totals[m] <= 0.0:
            reseeded.append(m)
            continue
        means[m] = (r[:, m] @ x) / totals[m]
        sq = np.sum((x - means[m]) ** 2, axis=1)
        variances[m] = max((r[:, m] @ sq) / (totals[m] * d), VARIANCE_FLOOR)
        weights[m] = totals[m] / n
    if reseeded:
        alive = [m for m in range(m_clusters) if m not in reseeded]
        fallback_var = (
            float(np.mean(variances[alive])) if alive else max(np.var(x), VARIANCE_FLOOR)
        )
        worst = np.argsort(r.max(axis=1))
        for rank, m in enumerate(reseeded):
            means[m] = x[worst[rank % n]]
            variances[m] = max(fallback_var, VARIANCE_FLOOR)
            weights[m] = 1.0 / n
        weights /= weights.sum()
    return GmmParams(weights=weights, means=means, variances=variances)


def log_likelihood(params: GmmParams, features) -> float:
    """Total mixture log-likelihood sum_l log sum_m w_m N(x_l | m)."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    return float(np.sum(logsumexp(_log_joint(params, x), axis=1)))


@dataclass(frozen=True, eq=False)
class FitResult:
    """Converged (or best-so-far) mixture fit and the derived hard clustering."""

    params: GmmParams
    responsibilities: np.ndarray
    assignment: np.ndarray
    converged: bool
    n_iter: int
    log_likelihood: float

    def occupancy(self) -> tuple[int, ...]:
        counts = np.bincount(self.assignment, minlength=self.responsibilities.shape[1])
        return tuple(int(c) for c in counts)


def _repair_empty_clusters(
    score: np.ndarray, assignment: np.ndarray, m_clusters: int
) -> np.ndarray:
    """Fill each empty cluster with the lowest-scoring user whose cluster holds another."""
    assignment = assignment.copy()
    for m in range(m_clusters):
        if np.any(assignment == m):
            continue
        counts = np.bincount(assignment, minlength=m_clusters)
        movable = np.flatnonzero(counts[assignment] >= 2)
        if movable.size == 0:
            raise ValueError("not enough users to fill every cluster")
        mover = movable[int(np.argmin(score[movable]))]
        assignment[mover] = m
    return assignment


def fit(
    features,
    m_clusters: int,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = EM_MAX_ITER,
    seed=None,
    rho1: float = DEFAULT_GAIN_THRESHOLD,
    rho2: float = DEFAULT_CORRELATION_THRESHOLD,
    gate_vectors=None,
) -> FitResult:
    """Alternate E and M steps until the parameter distance drops below epsilon.

    Convergence is ||params_new - params_old|| < epsilon on the flattened
    (weights, means, variances) vector; at the default epsilon this runs to
    an exact floating-point fixed point.  Hitting ``max_iter`` first returns
    the best-so-far fit flagged as non-converged.  The final hard assignment
    is the per-user argmax responsibility, repaired so no cluster is empty.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x = np.atleast_2d(np.asarray(features, dtype=float))
    init_assignment, _ = rough_partition(
        x, m_clusters, rho1=rho1, rho2=rho2, seed=seed, gate_vectors=gate_vectors
    )
    params = init_gmm(init_assignment, x)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        resp = em_e_step(params, x)
        new_params = em_m_step(resp, x)
        distance = float(np.linalg.norm(new_params.flatten() - params.flatten()))
        params = new_params
        if distance < epsilon:
            converged = True
            break
    resp, log_norm = _posterior(params, x)
    assignment = _repair_empty_clusters(resp.max(axis=1), np.argmax(resp, axis=1), m_clusters)
    return FitResult(
        params=params,
        responsibilities=resp,
        assignment=assignment,
        converged=converged,
        n_iter=iterations,
        log_likelihood=float(np.sum(log_norm[:, 0])),  # = log_likelihood(params, x)
    )


def cluster_users(
    raw_channels, m_clusters: int, epsilon: float = DEFAULT_EPSILON, seed=None
) -> FitResult:
    """Full pipeline on raw CSI: normalize, rough-partition, then EM fit.

    The threshold gate runs on the normalized complex rows; the mixture fits
    the real feature embedding.
    """
    csi = normalize_channels(raw_channels)
    return fit(
        csi.features, m_clusters, epsilon=epsilon, seed=seed, gate_vectors=csi.normalized
    )
