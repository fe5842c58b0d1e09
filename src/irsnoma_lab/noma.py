"""SINR, rate, and feasibility evaluation for clustered NOMA downlink.

Per-user SINR (own signal, user p of cluster m, channel row h):

    num   = |h . w_m * a_p|^2
    intra = sum_{l in cluster, l != p} |h . w_m * a_l|^2
    inter = sum_{g != m} |h . w_g|^2          (incoherent, default)
          = |h . sum_{g != m} w_g|^2          (coherent, literal form)
    sinr  = num / (intra + inter + noise)

Cross-decoding SINR (user q decoding p's signal) is the same expression on
q's channel row.  Rates are Shannon: R = log2(1 + sinr).  SIC succeeds when
every later-decoded user a can decode every earlier user b at b's own rate:
R_{a->b} >= R_{b->b}.

Power coefficients live on the unit simplex per cluster.  By default they
enter inside the squared magnitude as written above ("amplitude" domain);
the "power" domain (num proportional to a_p, not a_p^2) is available as a
flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelRealization,
    PhaseConfig,
    effective_channels_all,
    effective_channels_batch,
)
from .precoding import (
    CONDITION_LIMIT,
    IllConditionedChannelError,
    Precoder,
    cluster_channel_matrix,
    zf_precoder,
)

ALPHA_SUM_TOL = 1e-12
SIC_RATE_TOL = 1e-12

INTERFERENCE_MODELS = ("incoherent", "coherent")
ALPHA_DOMAINS = ("amplitude", "power")


@dataclass(frozen=True)
class ClusterPlan:
    """User-to-cluster assignment with per-cluster decoding order and power split.

    ``decoding_order[m]`` lists cluster m's users in decode sequence (first
    decoded first); ``power_split[m][i]`` is the coefficient of the user at
    position i of that sequence.  Splits are validated onto the unit simplex.
    """

    assignment: tuple[int, ...]
    decoding_order: tuple[tuple[int, ...], ...]
    power_split: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        assignment = tuple(int(c) for c in self.assignment)
        order = tuple(tuple(int(u) for u in o) for o in self.decoding_order)
        split = tuple(tuple(float(a) for a in s) for s in self.power_split)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "decoding_order", order)
        object.__setattr__(self, "power_split", split)

        n_clusters = len(order)
        if len(split) != n_clusters:
            raise ValueError("power_split and decoding_order cluster counts differ")
        seen: dict[int, int] = {}
        for m, members in enumerate(order):
            if len(split[m]) != len(members):
                raise ValueError(f"cluster {m}: split size != member count")
            if len(set(members)) != len(members):
                raise ValueError(f"cluster {m}: decoding order repeats a user")
            for u in members:
                if u in seen:
                    raise ValueError(f"user {u} appears in clusters {seen[u]} and {m}")
                seen[u] = m
            alphas = np.asarray(split[m], dtype=float)
            if np.any(alphas < 0):
                raise ValueError(f"cluster {m}: negative power coefficient")
            if abs(alphas.sum() - 1.0) > ALPHA_SUM_TOL:
                raise ValueError(
                    f"cluster {m}: power coefficients sum to {alphas.sum()!r}, not 1"
                )
        if len(assignment) != len(seen):
            raise ValueError(
                f"assignment covers {len(assignment)} users but decoding orders "
                f"cover {len(seen)}"
            )
        for u, m in seen.items():
            if not 0 <= u < len(assignment) or assignment[u] != m:
                raise ValueError(f"user {u} assigned to {assignment[u]}, ordered in {m}")

    @property
    def n_users(self) -> int:
        return len(self.assignment)

    @property
    def n_clusters(self) -> int:
        return len(self.decoding_order)

    def members(self, m: int) -> tuple[int, ...]:
        return self.decoding_order[m]

    def cluster_of(self, user: int) -> int:
        return self.assignment[user]

    def position_of(self, user: int) -> int:
        return self.decoding_order[self.assignment[user]].index(user)

    def alpha_of(self, user: int) -> float:
        m = self.assignment[user]
        return self.power_split[m][self.decoding_order[m].index(user)]

    def occupancy(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.decoding_order)


def decoding_order_by_gain(members, gains) -> tuple[int, ...]:
    """Members sorted by effective gain ascending (weakest decoded first).

    Ties break toward the lower user index.
    """
    members = [int(u) for u in members]
    gains = np.asarray(gains, dtype=float)
    if not np.all(np.isfinite(gains)):
        raise ValueError("gains must be finite")
    return tuple(sorted(members, key=lambda u: (gains[u], u)))


def balanced_split(size: int) -> tuple[float, ...]:
    """Equal power coefficients over ``size`` users."""
    return tuple(np.full(size, 1.0 / size))


def alpha_from_units(units) -> tuple[float, ...]:
    """Simplex coefficients from non-negative integer grid counts.

    Normalizing by the count total keeps the sum at 1 to machine precision,
    so a grid split built here always passes plan validation, and any two
    callers quantizing the same counts produce bit-identical coefficients.
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


def _beam_products(h_row: np.ndarray, precoder: Precoder) -> np.ndarray:
    """Complex products h . w_g for every cluster beam g."""
    return np.asarray(h_row, dtype=complex) @ precoder.columns


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
    precoder: Precoder,
    plan: ClusterPlan,
    noise_variance: float,
    *,
    interference_model: str = "incoherent",
    alpha_domain: str = "amplitude",
) -> float:
    """SINR at user q when decoding the signal intended for user p (same cluster)."""
    if plan.cluster_of(p) != m or plan.cluster_of(q) != m:
        raise ValueError(f"users {q} and {p} must both belong to cluster {m}")
    beams = _beam_products(np.asarray(effective_channels)[q], precoder)
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
    """Everything the objective needs for one configuration.

    ``cross_sinr`` covers same-cluster (decoder, target) pairs including the
    diagonal; ``order_position`` is each user's slot in its cluster's decode
    sequence.
    """

    sinr: np.ndarray
    rates: np.ndarray
    cross_sinr: dict
    sum_rate: float
    sic_feasible: bool
    qos_feasible: bool
    cluster: np.ndarray
    order_position: np.ndarray
    alpha: np.ndarray

    def csv_rows(self) -> list[tuple]:
        """One row per user: (user, cluster, order, alpha, sinr, rate)."""
        return [
            (
                u,
                int(self.cluster[u]),
                int(self.order_position[u]),
                float(self.alpha[u]),
                float(self.sinr[u]),
                float(self.rates[u]),
            )
            for u in range(self.sinr.size)
        ]


def evaluate(
    effective_channels: np.ndarray,
    precoder: Precoder,
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
                    precoder,
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
    cluster = np.array([plan.cluster_of(u) for u in range(n)])
    position = np.array([plan.position_of(u) for u in range(n)])
    alpha = np.array([plan.alpha_of(u) for u in range(n)])
    return RateReport(
        sinr=sinrs,
        rates=rates,
        cross_sinr=cross,
        sum_rate=float(np.sum(rates)),
        sic_feasible=check_sic(plan, cross_rates),
        qos_feasible=qos_check(sinrs, qos_floors),
        cluster=cluster,
        order_position=position,
        alpha=alpha,
    )


def oma_tdma_sum_rate(gains, total_power: float, noise_variance: float) -> float:
    """TDMA baseline: each user gets a 1/n time share at full power.

    ``gains`` are per-user scalar channel amplitudes |g_u| (the caller
    optimizes phases per slot); the baseline rate is
    sum_u (1/n) log2(1 + P |g_u|^2 / noise).
    """
    g = np.atleast_1d(np.asarray(gains, dtype=float))
    if g.size < 1:
        raise ValueError("at least one user required")
    snr = total_power * g**2 / noise_variance
    return float(np.mean(np.log2(1.0 + snr)))


# ---------------------------------------------------------------------------
# Whole-configuration evaluation shared by the RL environment and the oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NetworkScenario:
    """Fixed per-slot context: channels, cluster membership, budget, flags."""

    channels: ChannelRealization
    assignment: tuple[int, ...]
    total_power: float
    qos_floors: float | np.ndarray = 0.0
    interference_model: str = "incoherent"
    alpha_domain: str = "amplitude"

    def __post_init__(self):
        assignment = tuple(int(c) for c in self.assignment)
        if len(assignment) != self.channels.n_users:
            raise ValueError("assignment length != number of users")
        n_clusters = max(assignment) + 1
        if self.channels.n_antennas != n_clusters:
            raise ValueError(
                f"ZF needs one antenna per cluster: {self.channels.n_antennas} "
                f"antennas vs {n_clusters} clusters"
            )
        for m in range(n_clusters):
            if m not in assignment:
                raise ValueError(f"cluster {m} has no users")
        if self.total_power <= 0:
            raise ValueError("total_power must be positive")
        if self.interference_model not in INTERFERENCE_MODELS:
            raise ValueError(f"unknown interference model {self.interference_model!r}")
        if self.alpha_domain not in ALPHA_DOMAINS:
            raise ValueError(f"unknown alpha domain {self.alpha_domain!r}")
        object.__setattr__(self, "assignment", assignment)

    @property
    def n_clusters(self) -> int:
        return max(self.assignment) + 1

    def cluster_sizes(self) -> tuple[int, ...]:
        counts = [0] * self.n_clusters
        for c in self.assignment:
            counts[c] += 1
        return tuple(counts)


@dataclass(frozen=True, eq=False)
class ConfigurationResult:
    """Outcome of evaluating one (phase config, power split) point."""

    sum_rate: float
    feasible: bool
    report: RateReport | None
    plan: ClusterPlan | None
    precoder: Precoder | None
    own_gains: np.ndarray | None


def evaluate_configuration(
    scenario: NetworkScenario,
    phase: PhaseConfig,
    splits: tuple[tuple[float, ...], ...],
    condition_limit: float = CONDITION_LIMIT,
) -> ConfigurationResult:
    """Evaluate one point of the discrete search space.

    Builds effective channels for the phase config, picks cluster heads,
    zero-forces, orders each cluster's users by their own-beam gain (weakest
    decoded first, so position i of ``splits[m]`` funds the i-th decoded
    user), and scores the resulting plan.  An unworkably conditioned
    combined channel makes the point infeasible rather than an error.
    """
    h_eff = effective_channels_all(scenario.channels, phase)
    try:
        hmat, _ = cluster_channel_matrix(scenario.assignment, h_eff)
        precoder = zf_precoder(hmat, scenario.total_power, condition_limit)
    except IllConditionedChannelError:
        return ConfigurationResult(0.0, False, None, None, None, None)

    gains = np.abs(
        np.einsum("um,um->u", h_eff, precoder.columns[:, list(scenario.assignment)].T)
    )
    assign = np.asarray(scenario.assignment)
    order = tuple(
        decoding_order_by_gain(np.flatnonzero(assign == m), gains)
        for m in range(scenario.n_clusters)
    )
    plan = ClusterPlan(
        assignment=scenario.assignment, decoding_order=order, power_split=splits
    )
    report = evaluate(
        h_eff,
        precoder,
        plan,
        scenario.channels.noise_variance,
        qos_floors=scenario.qos_floors,
        interference_model=scenario.interference_model,
        alpha_domain=scenario.alpha_domain,
    )
    feasible = report.sic_feasible and report.qos_feasible
    return ConfigurationResult(
        sum_rate=report.sum_rate,
        feasible=feasible,
        report=report,
        plan=plan,
        precoder=precoder,
        own_gains=gains,
    )


# ---------------------------------------------------------------------------
# Grid evaluation: many phases and splits at once, equal to the path above
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridScores:
    """Scores of every (phase, split) point of a grid.

    ``sum_rate`` and ``feasible`` are (P, S) and ``own_gains`` is (P, N).  A
    phase whose combined channel is ill-conditioned scores rate 0 and is
    infeasible at every split, and its own gains are NaN.
    """

    sum_rate: np.ndarray
    feasible: np.ndarray
    own_gains: np.ndarray


def _split_weights(splits, sizes, domain: str) -> list[np.ndarray]:
    """Per-cluster (S, n_m) SINR weights of the splits, checked like a plan."""
    if any(len(split) != len(sizes) for split in splits):
        raise ValueError("power_split and decoding_order cluster counts differ")
    weights = []
    for m, size in enumerate(sizes):
        rows = [split[m] for split in splits]
        if any(len(row) != size for row in rows):
            raise ValueError(f"cluster {m}: split size != member count")
        alphas = np.array(rows, dtype=float).reshape(len(rows), size)
        if np.any(alphas < 0):
            raise ValueError(f"cluster {m}: negative power coefficient")
        if np.any(np.abs(alphas.sum(axis=1) - 1.0) > ALPHA_SUM_TOL):
            raise ValueError(f"cluster {m}: power coefficients do not sum to 1")
        weights.append(alphas * alphas if domain == "amplitude" else alphas)
    return weights


def _scalar_abs2(z: np.ndarray) -> np.ndarray:
    """``float(np.abs(z_i) ** 2)`` per entry, rounded as on a numpy scalar.

    A numpy scalar's ``** 2`` calls libm ``pow``, which differs from the
    array square (``x * x``) in rare last bits; Python floats call ``pow``
    too.
    """
    return np.power(np.abs(z).astype(object), 2).astype(float)


def evaluate_batch(
    scenario: NetworkScenario,
    phase_idx,
    splits,
    resolution_bits: int,
) -> GridScores:
    """Score the grid ``phase_idx`` (P, K) x ``splits`` (S split tuples).

    Effective channels, cluster heads, the condition check and the ZF solve
    run once per phase, batched over the P phases; SIC and QoS then run for
    all S splits of each phase at once.  Every point equals
    :func:`evaluate_configuration` on it bit for bit: each float step
    repeats that path's expression and summation order (``h_row @ W`` as a
    stacked row product, intra-cluster weights added in decoding order,
    inter-cluster power summed over the other beams only, own power
    squared as a numpy scalar).
    """
    channels = scenario.channels
    h_eff = effective_channels_batch(channels, phase_idx, resolution_bits)
    n_phases, n_users, n_clusters = h_eff.shape
    assign = np.asarray(scenario.assignment)
    members = [np.flatnonzero(assign == m) for m in range(n_clusters)]
    sizes = [len(mem) for mem in members]
    weights = _split_weights(splits, sizes, scenario.alpha_domain)
    floors = np.broadcast_to(
        np.asarray(scenario.qos_floors, dtype=float), (n_users,)
    )
    if np.any(floors < 0):
        raise ValueError("SINR floors must be non-negative")
    n_splits = len(splits)
    sum_rate = np.zeros((n_phases, n_splits))
    feasible = np.zeros((n_phases, n_splits), dtype=bool)
    own_gains = np.full((n_phases, n_users), np.nan)

    # Cluster heads: largest norm, lowest index on ties.
    norms = np.linalg.norm(h_eff, axis=-1)
    heads = np.stack(
        [mem[np.argmax(norms[:, mem], axis=1)] for mem in members], axis=1
    )
    hmat = np.take_along_axis(h_eff, heads[:, :, None], axis=1)
    cond = np.linalg.cond(hmat)
    ok = np.flatnonzero(np.isfinite(cond) & (cond <= CONDITION_LIMIT))
    if ok.size == 0:
        return GridScores(sum_rate, feasible, own_gains)
    h_eff, hmat = h_eff[ok], hmat[ok]
    w = np.linalg.solve(
        hmat, np.broadcast_to(np.eye(n_clusters, dtype=complex), hmat.shape)
    )
    used = (np.abs(w) ** 2).reshape(ok.size, -1).sum(axis=1)
    w *= np.sqrt(scenario.total_power / used)[:, None, None]
    if not np.all(np.isfinite(w.view(float))):
        raise ValueError("precoder contains non-finite entries")

    own_beams = w[:, :, assign].transpose(0, 2, 1)
    gains = np.abs(np.einsum("pum,pum->pu", h_eff, own_beams))
    if not np.all(np.isfinite(gains)):
        raise ValueError("gains must be finite")
    own_gains[ok] = gains

    beams = (h_eff[..., None, :] @ w[:, None])[..., 0, :]  # (P', N, M): h_u . w_g
    noise = channels.noise_variance
    sinr = np.empty((ok.size, n_splits, n_users))
    sic = np.ones((ok.size, n_splits), dtype=bool)
    for m, (mem, size, wts) in enumerate(zip(members, sizes, weights)):
        # Position i of the decoding order (own gain ascending) holds order[:, i].
        order = mem[np.argsort(gains[:, mem], axis=1, kind="stable")]
        rows = np.take_along_axis(beams, order[:, :, None], axis=1)
        own = _scalar_abs2(rows[:, :, m])
        others = np.delete(rows, m, axis=-1)
        if scenario.interference_model == "incoherent":
            inter = np.sum(np.abs(others) ** 2, axis=-1)
        else:
            inter = _scalar_abs2(np.sum(others, axis=-1))
        intra = np.zeros_like(wts)
        for b in range(size):
            for j in range(size):
                if j != b:
                    intra[:, b] += wts[:, j]
        # tau[p, s, a, b]: SINR at position a decoding position b's signal.
        own4 = own[:, None, :, None]
        tau = (wts[None, :, None, :] * own4) / (
            own4 * intra[None, :, None, :] + inter[:, None, :, None] + noise
        )
        diag = np.arange(size)
        np.put_along_axis(sinr, order[:, None, :], tau[:, :, diag, diag], axis=2)
        rates = np.log2(1.0 + tau)
        need = rates[:, :, diag, diag]
        floor = need - SIC_RATE_TOL * np.maximum(1.0, np.abs(need))
        later = np.tril(np.ones((size, size), dtype=bool), -1)
        sic &= ~np.any((rates < floor[:, :, None, :]) & later, axis=(2, 3))
    sum_rate[ok] = np.sum(np.log2(1.0 + sinr), axis=-1)
    feasible[ok] = sic & np.all(sinr >= floors, axis=-1)
    return GridScores(sum_rate, feasible, own_gains)
