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

:func:`evaluate_batch` scores a grid of phase configs and power splits on
one scenario, and :func:`evaluate_points` one point on each of E scenarios
of one size.  Both run one body.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, effective_channels_batch
from .precoding import member_table, zero_forcing

ALPHA_SUM_TOL = 1e-12
SIC_RATE_TOL = 1e-12

INTERFERENCE_MODELS = ("incoherent", "coherent")
ALPHA_DOMAINS = ("amplitude", "power")


def _check_simplex(m: int, alphas: np.ndarray):
    """Raise unless every row of cluster m's coefficients lies on the unit simplex."""
    if (alphas < 0).any():
        raise ValueError(f"cluster {m}: negative power coefficient")
    if (np.abs(alphas.sum(axis=-1) - 1.0) > ALPHA_SUM_TOL).any():
        raise ValueError(f"cluster {m}: power coefficients do not sum to 1")


def decoding_order_by_gain(members, gains) -> tuple[int, ...]:
    """Members sorted by effective gain ascending (weakest decoded first).

    Ties break toward the lower user index.
    """
    members = [int(u) for u in members]
    gains = np.asarray(gains, dtype=float)
    if not np.all(np.isfinite(gains)):
        raise ValueError("gains must be finite")
    return tuple(sorted(members, key=lambda u: (gains[u], u)))


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
# Evaluation of the discrete search space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NetworkScenario:
    """Fixed per-slot context: channels, cluster membership, budget, flags.

    Construction also fixes the cluster layout every scorer reads: the
    members and sizes of each cluster, and the decoding slots, which run
    through the clusters one after another.  A power split is one (N,)
    coefficient row over those slots: cluster m's entries are contiguous
    and in decoding position.  ``qos_floors`` becomes one floor per user.
    """

    channels: ChannelRealization
    assignment: tuple[int, ...]
    total_power: float
    qos_floors: float | np.ndarray = 0.0
    interference_model: str = "incoherent"
    alpha_domain: str = "amplitude"
    members: tuple[np.ndarray, ...] = field(init=False, repr=False)
    member_table: np.ndarray = field(init=False, repr=False)
    cluster_sizes: tuple[int, ...] = field(init=False, repr=False)
    cluster_starts: np.ndarray = field(init=False, repr=False)
    # user_cluster[u]: u's cluster.  Slot k serves cluster slot_cluster[k],
    # and cluster m's slots start at cluster_starts[m];
    # same_cluster[j, k] marks slots j != k of one cluster; other_beams[k]
    # lists the beams of every other cluster; slot sic_later[i] decodes the
    # signal of slot sic_earlier[i].
    user_cluster: np.ndarray = field(init=False, repr=False)
    slot_cluster: np.ndarray = field(init=False, repr=False)
    same_cluster: np.ndarray = field(init=False, repr=False)
    other_beams: np.ndarray = field(init=False, repr=False)
    sic_later: np.ndarray = field(init=False, repr=False)
    sic_earlier: np.ndarray = field(init=False, repr=False)
    # How the scorer indexes the layout: one layout serves every phase.
    run_index: tuple = field(init=False, repr=False)
    own_beam_at: tuple = field(init=False, repr=False)
    sic_later_at: tuple = field(init=False, repr=False)
    sic_earlier_at: tuple = field(init=False, repr=False)

    def __post_init__(self):
        assignment = tuple(int(c) for c in self.assignment)
        n_users = self.channels.n_users
        if len(assignment) != n_users:
            raise ValueError("assignment length != number of users")
        if min(assignment) < 0:
            raise ValueError("cluster ids must be non-negative")
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
        floors = np.array(
            np.broadcast_to(np.asarray(self.qos_floors, dtype=float), (n_users,))
        )
        if (floors < 0).any():
            raise ValueError("SINR floors must be non-negative")

        user_cluster = np.array(assignment)
        members = tuple(np.flatnonzero(user_cluster == m) for m in range(n_clusters))
        slot_cluster = np.sort(user_cluster)
        slot = np.arange(n_users)
        same = (slot_cluster[:, None] == slot_cluster) & (slot[:, None] != slot)
        other = slot_cluster[:, None] != np.arange(n_clusters)
        later, earlier = np.nonzero(same & (slot[:, None] > slot))
        every = slice(None)
        for name, value in (
            ("assignment", assignment),
            ("qos_floors", floors),
            ("members", members),
            ("member_table", member_table(members)),
            ("cluster_sizes", tuple(len(mem) for mem in members)),
            ("cluster_starts", np.searchsorted(slot_cluster, np.arange(n_clusters))),
            ("user_cluster", user_cluster),
            ("slot_cluster", slot_cluster),
            ("same_cluster", same),
            ("other_beams", np.nonzero(other)[1].reshape(n_users, -1)),
            ("sic_later", later),
            ("sic_earlier", earlier),
            ("run_index", ()),
            ("own_beam_at", (every, every, user_cluster)),
            ("sic_later_at", (every, None, later)),
            ("sic_earlier_at", (Ellipsis, earlier)),
        ):
            object.__setattr__(self, name, value)

    @property
    def n_clusters(self) -> int:
        return len(self.members)

    def split_tuples(self, row) -> tuple[tuple[float, ...], ...]:
        """Per-cluster split tuples of an (N,) coefficient row."""
        parts = np.split(np.asarray(row, dtype=float), self.cluster_starts[1:])
        return tuple(tuple(float(a) for a in part) for part in parts)


@dataclass(frozen=True, eq=False)
class StackedChannels:
    """The channels of E scenarios on a leading run axis: ``g_matrix`` (E, K, M),
    ``user_channels`` (E, N, K) and ``noise_variance`` (E, 1, 1)."""

    g_matrix: np.ndarray
    user_channels: np.ndarray
    noise_variance: np.ndarray

    @property
    def k_elements(self) -> int:
        return int(self.g_matrix.shape[-2])


class ScenarioStack:
    """E scenarios that share N, M, K and both flags, scored one point each.

    The scenarios may differ in channels, assignment, occupancy, floors,
    noise and power.  Every layout array of :class:`NetworkScenario` gets a
    leading run axis of fixed shape: member tables are padded to the
    widest cluster by repeating a member, which never wins the head
    ``argmax``, and SIC pairs to the most pairs by self-pairs (slot 0
    decoding its own signal), whose check repeats the own rate and never
    fails.  A scenario listed more than once (the same object) is stacked
    once, and its rows are taken by index.
    """

    def __init__(self, scenarios):
        self.scenarios = tuple(scenarios)
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        # Each distinct scenario once, and the position of run e's among them.
        scenarios = list({id(s): s for s in self.scenarios}.values())
        positions = {id(s): i for i, s in enumerate(scenarios)}
        index = [positions[id(s)] for s in self.scenarios]

        def size(s):
            c = s.channels
            return (c.n_users, c.n_antennas, c.k_elements, s.interference_model, s.alpha_domain)

        first = scenarios[0]
        for s in scenarios[1:]:
            if size(s) != size(first):
                raise ValueError(
                    "stacked scenarios must share users, clusters, elements and flags: "
                    f"{size(first)} vs {size(s)}"
                )

        def take(rows):  # one row per distinct scenario -> one per run
            return np.stack(rows)[index]

        def stack(name):
            return take([getattr(s, name) for s in scenarios])

        def pairs(name):
            n_pairs = max(len(s.sic_later) for s in scenarios)
            return take([
                np.pad(getattr(s, name), (0, n_pairs - len(s.sic_later))) for s in scenarios
            ])[:, None]

        n_users, n_clusters = first.channels.n_users, first.n_clusters
        width = max(len(mem) for s in scenarios for mem in s.members)
        runs = np.arange(len(index))[:, None, None]
        self.channels = StackedChannels(
            take([s.channels.g_matrix for s in scenarios]),
            take([s.channels.user_channels for s in scenarios]),
            take([s.channels.noise_variance for s in scenarios])[:, None, None],
        )
        self.total_power = take([float(s.total_power) for s in scenarios])
        self.interference_model = first.interference_model
        self.alpha_domain = first.alpha_domain
        self.member_table = take([member_table(s.members, width) for s in scenarios])
        # Every run's cluster starts in the runs' rows laid end to end.
        self.cluster_starts = (stack("cluster_starts") + n_users * runs[:, :, 0]).ravel()
        self.qos_floors = stack("qos_floors")
        self.user_cluster = stack("user_cluster")
        self.slot_cluster = stack("slot_cluster")
        self.same_cluster = stack("same_cluster")[:, None]
        self.other_beams = stack("other_beams")
        self.sic_later = pairs("sic_later")
        # Row e of the scorer's arrays reads run e's layout.
        self.run_index = (runs[:, :, 0],)
        self.own_beam_at = (runs, np.arange(n_clusters)[:, None], self.user_cluster[:, None])
        self.sic_later_at = (runs, self.sic_later)
        self.sic_earlier_at = (runs, 0, pairs("sic_earlier"))

    def __len__(self) -> int:
        return len(self.scenarios)


@dataclass(frozen=True, eq=False)
class GridScores:
    """Scores of every (phase, split) point of a grid, or of E paired points.

    ``sum_rate`` and ``feasible`` are (P, S) for a grid and (E,) for paired
    points; ``own_gains`` is (P, N) or (E, N).  A phase whose combined
    channel is ill-conditioned scores rate 0 and is infeasible at every
    split, and its own gains are NaN.
    """

    sum_rate: np.ndarray
    feasible: np.ndarray
    own_gains: np.ndarray


def _split_weights(scenario: NetworkScenario, alphas) -> np.ndarray:
    """(S, N) SINR weights of the coefficient rows, each cluster checked on the unit simplex."""
    alphas = np.asarray(alphas, dtype=float)
    n_users = scenario.channels.n_users
    if alphas.ndim != 2 or alphas.shape[1] != n_users:
        raise ValueError(f"splits must be an (S, {n_users}) array, got {alphas.shape}")
    # One screen over every cluster; only splits that fail it are checked
    # cluster by cluster, which raises that cluster's error.  Half the tolerance
    # covers the rounding by which reduceat's sums can differ from each
    # cluster's own sum (a few ulps).
    starts = scenario.cluster_starts
    sums = np.add.reduceat(alphas, starts, axis=1)
    if (alphas < 0).any() or (np.abs(sums - 1.0) > ALPHA_SUM_TOL / 2).any():
        for m, (start, size) in enumerate(zip(starts, scenario.cluster_sizes)):
            _check_simplex(m, alphas[:, start : start + size])
    return alphas * alphas if scenario.alpha_domain == "amplitude" else alphas


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
    alphas,
    resolution_bits: int,
) -> GridScores:
    """Score the grid ``phase_idx`` (P, K) x ``alphas`` (S, N) coefficient rows.

    Effective channels, cluster heads, the condition check and the ZF solve
    run once per phase, batched over the P phases.  Each cluster's users
    are decoded in ascending order of their own-beam gain (weakest first,
    lower index on ties), so cluster m's i-th entry of a row funds its i-th
    decoded user; SINRs, SIC and QoS then run for all S splits and all
    clusters at once over the scenario's decoding slots.  Every point
    equals the per-pair scalar evaluation bit for bit: each float step
    repeats its expression and summation order (``h_row @ W`` as a stacked
    row product, intra-cluster weights added in decoding order,
    inter-cluster power summed over the other beams only, own power squared
    as a numpy scalar).
    """
    return _score(scenario, phase_idx, resolution_bits, _split_weights(scenario, alphas)[None])


def evaluate_points(scenarios, phase_idx, alphas, resolution_bits: int) -> GridScores:
    """Score E points: phase row e with split row e on ``scenarios[e]``.

    ``scenarios`` is a :class:`ScenarioStack` or the E scenarios to stack;
    ``phase_idx`` is (E, K) and ``alphas`` (E, N), row e in run e's
    decoding slots.  Point e equals the 1 x 1 grid of
    :func:`evaluate_batch` on its own scenario, bit for bit.
    """
    stack = scenarios if isinstance(scenarios, ScenarioStack) else ScenarioStack(scenarios)
    alphas = np.asarray(alphas, dtype=float)
    if not len(stack) == len(phase_idx) == len(alphas):
        raise ValueError(
            f"{len(phase_idx)} phase rows, {len(alphas)} splits and {len(stack)} "
            "scenarios do not pair up"
        )
    n_users = stack.user_cluster.shape[1]
    if alphas.shape != (len(stack), n_users):
        raise ValueError(f"splits must be an (E, {n_users}) array, got {alphas.shape}")
    sums = np.add.reduceat(alphas.ravel(), stack.cluster_starts)
    if (alphas < 0).any() or (np.abs(sums - 1.0) > ALPHA_SUM_TOL / 2).any():
        for scenario, row in zip(stack.scenarios, alphas):
            _split_weights(scenario, row[None])
    wts = alphas * alphas if stack.alpha_domain == "amplitude" else alphas
    grid = _score(stack, phase_idx, resolution_bits, wts[:, None])
    return GridScores(grid.sum_rate[:, 0], grid.feasible[:, 0], grid.own_gains)


def _score(layout, phase_idx, resolution_bits, wts) -> GridScores:
    """The body of both evaluators.

    ``layout`` is a scenario, whose one layout serves every phase, with
    ``wts`` (1, S, N); or a :class:`ScenarioStack`, whose run e lays out
    phase row e, with ``wts`` (E, 1, N).  The scorer reads the layout
    through its index tuples, so a grid takes no per-run gather.  Every
    row is scored; rows whose ZF failed are then set to rate 0, infeasible
    and NaN gains.
    """
    h_eff = effective_channels_batch(layout.channels, phase_idx, resolution_bits)
    n_phases, n_users, n_clusters = h_eff.shape
    n_splits = wts.shape[1]
    ok, w = zero_forcing(h_eff, layout.member_table, layout.total_power)
    if not ok.any():
        return GridScores(
            np.zeros((n_phases, n_splits)),
            np.zeros((n_phases, n_splits), dtype=bool),
            np.full((n_phases, n_users), np.nan),
        )
    if not ok.all():
        # Zero beams on the failed rows, so they score without error.
        full = np.zeros((n_phases, n_clusters, n_clusters), dtype=complex)
        full[ok] = w
        w = full
    own_beams = w[layout.own_beam_at].transpose(0, 2, 1)
    gains = np.abs(np.einsum("pum,pum->pu", h_eff, own_beams))
    if not np.isfinite(gains).all():
        raise ValueError("gains must be finite")

    # At phase p the user in slot k is order[p, k].
    assign = layout.user_cluster
    order = np.lexsort((gains, np.broadcast_to(assign, gains.shape)))

    beams = (h_eff[..., None, :] @ w[:, None])[..., 0, :]  # (P, N, M): h_u . w_g
    rows = np.arange(n_phases)[:, None]
    own = _scalar_abs2(beams[rows, order, layout.slot_cluster])
    others = beams[rows[:, :, None], order[:, :, None], layout.other_beams]
    if layout.interference_model == "incoherent":
        inter = np.sum(np.abs(others) ** 2, axis=-1)
    else:
        inter = _scalar_abs2(np.sum(others, axis=-1))
    # The other members' weights, added one by one in decoding order.
    intra = np.cumsum(wts[..., None] * layout.same_cluster, axis=-2)[..., -1, :]

    # sinr[p, s, k]: the user in slot k decoding its own signal.
    noise = layout.channels.noise_variance
    own3 = own[:, None, :]
    sinr = (wts * own3) / (own3 * intra + inter[:, None, :] + noise)
    rates = np.log2(1.0 + sinr)
    sic = True
    if layout.sic_later.size:
        # Slot later[i] decoding the signal of slot earlier[i], same cluster.
        at_later, at_earlier = layout.sic_later_at, layout.sic_earlier_at
        own_l = own[at_later]
        tau = (wts[at_earlier] * own_l) / (
            own_l * intra[at_earlier] + inter[at_later] + noise
        )
        need = rates[at_earlier]
        floor = need - SIC_RATE_TOL * np.maximum(1.0, np.abs(need))
        sic = ~(np.log2(1.0 + tau) < floor).any(axis=-1)
    floors = layout.qos_floors[(*layout.run_index, order)][:, None, :]
    feasible = sic & (sinr >= floors).all(axis=-1)
    user_rates = np.empty_like(rates)
    user_rates[rows, :, order] = rates.transpose(0, 2, 1)
    sum_rate = np.sum(user_rates, axis=-1)
    if not ok.all():
        sum_rate[~ok] = 0.0
        feasible[~ok] = False
        gains[~ok] = np.nan
    return GridScores(sum_rate, feasible, gains)


def decoding_orders(scenario: NetworkScenario, own_gains) -> tuple[tuple[int, ...], ...]:
    """Each cluster's decoding order :func:`evaluate_batch` scores at these own gains."""
    return tuple(
        decoding_order_by_gain(members, own_gains) for members in scenario.members
    )
